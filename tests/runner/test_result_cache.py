"""On-disk result cache: round-trips, staleness, corruption handling."""

import dataclasses
import json

import repro
from repro.runner import (
    CACHE_DIR_ENV,
    ResultCache,
    RunSpec,
    default_cache_dir,
    metrics_digest,
    run_spec,
    run_specs,
)
from repro.runner.engine import execute_spec

#: A deliberately tiny job — vanilla needs no predictor training.
TINY = RunSpec(workload="MTMI", threads=2, balancer="vanilla", n_epochs=2)


def test_default_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"
    cache = ResultCache()
    assert cache.root == tmp_path / "elsewhere"


def test_roundtrip_preserves_every_metric(tmp_path):
    cache = ResultCache(tmp_path)
    result = execute_spec(TINY)
    cache.put(TINY, result)
    loaded = cache.get(TINY)
    assert loaded is not None
    assert metrics_digest(loaded) == metrics_digest(result)
    assert loaded.ips_per_watt == result.ips_per_watt
    assert cache.hits == 1 and cache.misses == 0 and len(cache) == 1


def test_miss_on_absent_entry(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(TINY) is None
    assert cache.misses == 1


def test_corrupt_entry_is_dropped_and_missed(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(TINY, execute_spec(TINY))
    (path,) = list(tmp_path.glob("*.json"))
    path.write_text("{ not json")
    assert cache.get(TINY) is None
    assert not path.exists(), "corrupt entry should be unlinked"


def test_truncated_entry_is_logged_evicted_and_recomputed(tmp_path, caplog):
    """Satellite: a half-written entry (e.g. a killed process) must be
    reported through the ``repro.*`` logging channel, evicted, and the
    result silently recomputed on the next run."""
    cache = ResultCache(tmp_path)
    run_spec(TINY, cache=cache)
    (path,) = list(tmp_path.glob("*.json"))
    intact = path.read_text()
    path.write_text(intact[: len(intact) // 2])

    with caplog.at_level("WARNING", logger="repro.runner.cache"):
        recomputed = run_spec(TINY, cache=cache)

    warnings = [record for record in caplog.records
                if record.name == "repro.runner.cache"]
    assert warnings, "eviction must be logged, not silent"
    assert "evicting unreadable cache entry" in warnings[0].getMessage()
    assert cache.misses == 2 and cache.hits == 0
    # The recomputed result replaced the truncated entry on disk.
    fresh = ResultCache(tmp_path)
    hit = fresh.get(TINY)
    assert hit is not None
    assert metrics_digest(hit) == metrics_digest(recomputed)


def test_zero_byte_entry_is_evicted_with_reason(tmp_path, caplog):
    """Satellite regression: a zero-byte entry (write interrupted
    before any byte landed) must be evicted with an explicit zero-byte
    reason in the WARNING, then transparently recomputed."""
    cache = ResultCache(tmp_path)
    cache.put(TINY, execute_spec(TINY))
    (path,) = list(tmp_path.glob("*.json"))
    path.write_bytes(b"")

    with caplog.at_level("WARNING", logger="repro.runner.cache"):
        assert cache.get(TINY) is None

    assert not path.exists(), "zero-byte entry should be unlinked"
    warnings = [record.getMessage() for record in caplog.records
                if record.name == "repro.runner.cache"]
    assert warnings, "zero-byte eviction must be logged"
    assert str(path) in warnings[0], "log must name the corrupted path"
    assert "zero-byte" in warnings[0], "log must state the zero-byte reason"
    # The next run recomputes and re-populates the entry.
    recomputed = run_spec(TINY, cache=cache)
    hit = ResultCache(tmp_path).get(TINY)
    assert hit is not None
    assert metrics_digest(hit) == metrics_digest(recomputed)


def test_entry_records_spec_and_key(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(TINY, execute_spec(TINY))
    (path,) = list(tmp_path.glob("*.json"))
    payload = json.loads(path.read_text())
    assert payload["key"] == TINY.spec_key()
    assert payload["spec"] == TINY.canonical()


def test_changed_simulation_config_misses_the_cache(tmp_path):
    """Satellite: stale-cache fix — a config change must not hit."""
    cache = ResultCache(tmp_path)
    run_spec(TINY, cache=cache)
    assert cache.misses == 1

    changed = dataclasses.replace(TINY.config, periods_per_epoch=5)
    varied = dataclasses.replace(TINY, config=changed)
    before_hits = cache.hits
    run_spec(varied, cache=cache)
    assert cache.hits == before_hits, "changed config silently hit the cache"
    assert cache.misses == 2
    assert len(cache) == 2


def test_version_bump_misses_the_cache(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    run_spec(TINY, cache=cache)
    monkeypatch.setattr(repro, "__version__", "0.0.0-test")
    run_spec(TINY, cache=cache)
    assert cache.hits == 0 and cache.misses == 2


def test_warm_cache_skips_execution_and_matches(tmp_path):
    cache = ResultCache(tmp_path)
    cold = run_specs([TINY], cache=cache)[0]
    warm = run_specs([TINY], cache=cache)[0]
    assert cache.hits == 1
    assert metrics_digest(cold) == metrics_digest(warm)


def test_clear_empties_the_cache(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(TINY, execute_spec(TINY))
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0
