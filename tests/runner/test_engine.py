"""Engine mechanics: jobs resolution, dedup, crash disposition, sweeps."""

import gc

import pytest

from repro.runner import (
    JOBS_ENV,
    ResultCache,
    RunSpec,
    SweepExperiment,
    metrics_digest,
    resolve_jobs,
    run_specs,
    run_sweep,
)
from repro.runner.engine import execute_spec

TINY = RunSpec(workload="MTMI", threads=2, balancer="vanilla", n_epochs=2)
TINY_B = RunSpec(workload="HTHI", threads=2, balancer="vanilla", n_epochs=2)


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs() == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "8")
        assert resolve_jobs(2) == 2

    def test_env_is_used_when_no_arg(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs() == 3

    def test_invalid_values_raise(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_jobs(0)
        monkeypatch.setenv(JOBS_ENV, "zero")
        with pytest.raises(ValueError):
            resolve_jobs()


class TestDedup:
    def test_identical_specs_run_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        results = run_specs([TINY, TINY_B, TINY], cache=cache)
        assert cache.misses == 2, "duplicate spec should not execute"
        assert results[0] is results[2]
        assert metrics_digest(results[0]) == metrics_digest(results[2])

    def test_results_come_back_in_request_order(self):
        results = run_specs([TINY_B, TINY])
        assert results[0].instructions != results[1].instructions
        again = run_specs([TINY, TINY_B])
        assert metrics_digest(results[0]) == metrics_digest(again[1])
        assert metrics_digest(results[1]) == metrics_digest(again[0])


class TestOnError:
    BAD = RunSpec(workload="no-such-workload", threads=2, balancer="vanilla",
                  n_epochs=2)

    def test_crash_raises_by_default(self):
        with pytest.raises(RuntimeError, match="no-such-workload"):
            run_specs([self.BAD])

    def test_crash_maps_to_none_when_tolerated(self):
        good, bad = run_specs([TINY, self.BAD], on_error="none")
        assert good is not None
        assert bad is None

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_specs([self.BAD], cache=cache, on_error="none")
        assert len(cache) == 0

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError):
            run_specs([TINY], on_error="ignore")


class TestBaseSeed:
    def test_base_seed_is_reproducible(self):
        first = run_specs([TINY, TINY_B], base_seed=11)
        second = run_specs([TINY, TINY_B], base_seed=11)
        assert [metrics_digest(r) for r in first] == [
            metrics_digest(r) for r in second
        ]

    def test_base_seed_changes_the_runs(self):
        plain = run_specs([TINY])[0]
        derived = run_specs([TINY], base_seed=11)[0]
        assert metrics_digest(plain) != metrics_digest(derived)


class TestRunSweep:
    def test_experiments_share_duplicated_jobs(self, tmp_path):
        cache = ResultCache(tmp_path)
        shared = [TINY, TINY_B]

        first = SweepExperiment(
            "first", lambda scale: shared, lambda scale, table: table[TINY]
        )
        second = SweepExperiment(
            "second", lambda scale: [TINY], lambda scale, table: table[TINY]
        )
        report_a, report_b = run_sweep([first, second], scale=None, cache=cache)
        assert cache.misses == 2, "the union should deduplicate across experiments"
        assert metrics_digest(report_a) == metrics_digest(report_b)


class TestReferenceCounting:
    """A finished run holds no reference cycle, so the last reference
    to it frees the whole ``System`` at once instead of leaving it for
    a full garbage collection (which otherwise decides peak RSS)."""

    @pytest.mark.parametrize(
        "spec",
        [
            RunSpec(workload="MTMI", platform="hmp:16", threads=32, n_epochs=3),
            RunSpec(
                workload="MTMI", platform="dvfsquad", n_epochs=3,
                governor="two_level",
            ),
            RunSpec(
                workload="MTMI", platform="biglittle", threads=4, n_epochs=6,
                scenario="openloop", faults="combined", adaptation=True,
            ),
        ],
        ids=["clean", "governed", "openloop_faults_adaptation"],
    )
    def test_finished_run_leaves_no_cyclic_garbage(self, spec):
        # The first run pays one-off lazy initialisation (imports,
        # introspection caches) that may leave garbage of its own.
        execute_spec(spec)
        gc.collect()
        gc.disable()
        try:
            execute_spec(spec)
            assert gc.collect() == 0
        finally:
            gc.enable()
