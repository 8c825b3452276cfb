"""Metrics registry semantics and cross-worker determinism.

The deterministic snapshot (counters/gauges/histograms, no wall-clock
timings) must be byte-identical however many pool workers executed the
batch — the sweep engine writes it per job, so artefact diffs across
worker counts would poison CI comparisons.
"""

import json

import pytest

from repro.obs import MetricsRegistry, deterministic_events
from repro.obs.export import read_jsonl
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.runner import run_specs
from repro.runner.serialize import metrics_digest
from repro.runner.spec import RunSpec


class TestPrimitives:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_holds_last_value(self):
        gauge = Gauge()
        gauge.set(2.5)
        gauge.set(-1.0)
        assert gauge.value == -1.0

    def test_histogram_summary(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)


class TestRegistry:
    def test_lazy_instruments(self):
        registry = MetricsRegistry()
        registry.inc("a.count")
        registry.inc("a.count", 2)
        registry.set_gauge("a.level", 7.0)
        registry.observe("a.dist", 1.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["a.count"] == 3
        assert snapshot["gauges"]["a.level"] == 7.0
        assert snapshot["histograms"]["a.dist"]["count"] == 1

    def test_deterministic_snapshot_excludes_timings(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.observe_time("phase.sense", 0.25)
        assert "timings" in registry.snapshot()
        deterministic = registry.deterministic_snapshot()
        assert "timings" not in deterministic
        assert deterministic["counters"] == {"c": 1}

    def test_render_text_and_json(self):
        registry = MetricsRegistry()
        registry.inc("runs.total", 3)
        text = registry.render_text()
        assert "runs.total" in text
        parsed = json.loads(registry.to_json())
        assert parsed["counters"]["runs.total"] == 3


class TestRunMetrics:
    def test_traced_run_populates_registry(self, traced):
        obs, result = traced
        counters = obs.metrics.snapshot()["counters"]
        assert counters["balancer.epochs"] == 6
        assert counters["epochs.total"] == 6
        # Fault scenario ran: injections were counted by kind.
        assert any(k.startswith("faults.injected[") for k in counters)
        # Spans timed every phase: sense runs every epoch; predict and
        # balance are skipped on epochs where sensing came back
        # unhealthy (the graceful-degradation early return).
        timings = obs.metrics.snapshot()["timings"]
        assert timings["span.sense"]["count"] == 6
        assert timings["span.build_view"]["count"] == 6
        for phase in ("span.predict", "span.balance"):
            assert 1 <= timings[phase]["count"] <= 6

    def test_kernel_periods_timed_and_counted(self, traced, traced_spec):
        """Every CFS period is one ``span.kernel_period``; the counters
        say how many periods ran and how many the kernel replayed."""
        obs, _ = traced
        snapshot = obs.metrics.snapshot()
        periods = traced_spec.n_epochs * traced_spec.config.periods_per_epoch
        assert snapshot["timings"]["span.kernel_period"]["count"] == periods
        counters = snapshot["counters"]
        assert counters["kernel.periods"] == periods
        assert 0 < counters["kernel.steady_periods"] < periods


#: Batch used for the worker-count determinism check: three distinct
#: SmartBalance jobs, small enough to finish quickly even serially.
PARALLEL_SPECS = [
    RunSpec(
        workload="MTMI",
        platform="biglittle",
        threads=4,
        balancer="smartbalance",
        n_epochs=4,
        seed=seed,
    )
    for seed in (0, 1, 2)
]


class TestWorkerCountDeterminism:
    def test_jobs1_and_jobs4_write_identical_artifacts(self, tmp_path):
        serial_dir = tmp_path / "serial"
        pooled_dir = tmp_path / "pooled"
        serial = run_specs(PARALLEL_SPECS, jobs=1, trace_dir=str(serial_dir))
        pooled = run_specs(PARALLEL_SPECS, jobs=4, trace_dir=str(pooled_dir))

        # Simulated results identical.
        for a, b in zip(serial, pooled):
            assert metrics_digest(a) == metrics_digest(b)

        # Same artefact set, spec-keyed.
        serial_names = sorted(p.name for p in serial_dir.iterdir())
        pooled_names = sorted(p.name for p in pooled_dir.iterdir())
        assert serial_names == pooled_names
        assert len(serial_names) == 2 * len(PARALLEL_SPECS)

        for name in serial_names:
            if name.endswith(".metrics.json"):
                # Deterministic snapshot: byte-identical.
                assert (serial_dir / name).read_bytes() == (
                    pooled_dir / name
                ).read_bytes()
            else:
                # Event stream: identical after dropping the wall-clock
                # phase_profile event (the one deliberately
                # non-deterministic record in a trace).
                serial_events = deterministic_events(
                    read_jsonl(str(serial_dir / name))
                )
                pooled_events = deterministic_events(
                    read_jsonl(str(pooled_dir / name))
                )
                assert serial_events == pooled_events

    def test_trace_dir_bypasses_cache(self, tmp_path):
        from repro.runner import ResultCache

        cache = ResultCache(str(tmp_path / "cache"))
        spec = PARALLEL_SPECS[0]
        run_specs([spec], jobs=1, cache=cache)
        assert cache.get(spec) is not None
        trace_dir = tmp_path / "traces"
        run_specs([spec], jobs=1, cache=cache, trace_dir=str(trace_dir))
        # The traced run executed (and left artefacts) instead of
        # serving the cache hit.
        assert len(list(trace_dir.iterdir())) == 2
