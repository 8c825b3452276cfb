"""Scenario runtimes driven through real simulator runs.

Each family's runtime is exercised end-to-end: build the scenario,
run the System, and assert on the ``RunResult.scenario`` stats and
the emitted events rather than on internals.
"""

import pytest

from repro.kernel.simulator import SimulationConfig, System
from repro.kernel.task import TaskState
from repro.obs import ObsContext
from repro.obs import events as ev
from repro.runner.factories import make_balancer, make_platform
from repro.runner.serialize import metrics_digest
from repro.scenarios import build_scenario
from repro.scenarios.runtime import OpenLoopRuntime
from repro.workload.characteristics import COMPUTE_PHASE
from repro.workload.thread import steady_thread


def run_scenario(
    text, platform="quad", n_epochs=2, seed=1, base=None, balancer="none"
):
    plat = make_platform(platform)
    config = SimulationConfig(seed=seed)
    behaviors = base if base is not None else [
        steady_thread("base/0", COMPUTE_PHASE)
    ]
    behaviors, runtime = build_scenario(
        text,
        behaviors,
        seed=seed,
        period_s=config.period_s,
        periods_per_epoch=config.periods_per_epoch,
        n_epochs=n_epochs,
    )
    obs = ObsContext()
    system = System(
        plat, behaviors, make_balancer(balancer), config,
        obs=obs, scenario=runtime,
    )
    result = system.run(n_epochs=n_epochs)
    return result, system, obs


class TestOpenLoopRuntime:
    def test_latency_stats_and_events(self):
        result, system, obs = run_scenario(
            "openloop:rate=120,slo_ms=15,work_minstr=2", n_epochs=3
        )
        stats = result.scenario
        assert stats["family"] == "openloop"
        assert stats["slo_s"] == 15e-3
        assert stats["requests"] > 0
        assert 0 < stats["completed"] <= stats["requests"]
        assert 0.0 <= stats["slo_miss_rate"] <= 1.0
        # Nearest-rank percentiles over real samples: ordered, and
        # every one an actual observed latency.
        p50, p95, p99 = (
            stats["latency_p50_s"],
            stats["latency_p95_s"],
            stats["latency_p99_s"],
        )
        assert 0 < p50 <= p95 <= p99
        completed = obs.tracer.by_type(ev.REQUEST_COMPLETED)
        arrived = obs.tracer.by_type(ev.REQUEST_ARRIVED)
        assert len(completed) == stats["completed"]
        assert len(arrived) >= len(completed)
        misses = sum(1 for e in completed if e["slo_miss"])
        assert misses == stats["slo_misses"]

    def test_latency_is_at_least_service_time(self):
        result, _, _ = run_scenario(
            "openloop:rate=120,slo_ms=15,work_minstr=2", n_epochs=3
        )
        # A request cannot complete before it arrived; every latency is
        # strictly positive and bounded by the run horizon.
        assert all(
            0 < lat < result.duration_s
            for lat in [result.scenario["latency_p99_s"]]
        )

    def test_builder_name_mismatch_raises(self):
        plat = make_platform("quad")
        config = SimulationConfig(seed=0)
        runtime = OpenLoopRuntime({"req/9999": 0.01}, slo_s=0.02)
        with pytest.raises(ValueError, match="do not match"):
            System(
                plat,
                [steady_thread("base/0", COMPUTE_PHASE)],
                make_balancer("none"),
                config,
                scenario=runtime,
            )


class BruteForceOpenLoop(OpenLoopRuntime):
    """The open-loop runtime as a scan of every incomplete request each
    period, arrived or not: the reference for the runtime's early stop
    at the first pending request.  Also records, per period, which
    requests were first seen arrived and which completed."""

    def __init__(self, request_names, slo_s):
        super().__init__(request_names, slo_s)
        self.periods = []

    def on_period(self, system):
        now = system.time_s
        obs = system.obs
        still_pending = []
        seen, done = [], []
        for request in self._pending:
            task = system.tasks[request.tid]
            if task.state is not TaskState.PENDING and (
                request.tid not in self._announced
            ):
                self._announced.add(request.tid)
                seen.append(request.tid)
                if obs.enabled:
                    obs.tracer.emit(
                        ev.REQUEST_ARRIVED,
                        request.arrival_s,
                        tid=request.tid,
                        name=request.name,
                    )
            if task.state is not TaskState.EXITED:
                still_pending.append(request)
                continue
            done.append(request.tid)
            request.completed_s = now
            latency = now - request.arrival_s
            self.latencies_s.append(latency)
            miss = latency > self.slo_s
            if miss:
                self.slo_misses += 1
            if obs.enabled:
                obs.tracer.emit(
                    ev.REQUEST_COMPLETED,
                    now,
                    tid=request.tid,
                    name=request.name,
                    latency_s=latency,
                    slo_s=self.slo_s,
                    slo_miss=miss,
                )
                obs.metrics.inc("scenario.requests_completed")
                if miss:
                    obs.metrics.inc("scenario.slo_misses")
        self._pending = still_pending
        self.periods.append((seen, done))

    def task_extras(self, system):
        now = system.time_s
        extras = {}
        for request in self._pending:
            if system.tasks[request.tid].state is not TaskState.ACTIVE:
                continue
            slack = (self.slo_s - (now - request.arrival_s)) / self.slo_s
            extras[request.tid] = {"slo_slack_frac": max(slack, -1.0)}
        return extras


def run_openloop(text, runtime_cls, n_epochs=4, seed=3):
    """(result, runtime, request events, per-view extras) of one
    biglittle run with ``runtime_cls`` as the runtime.  The vanilla
    balancer takes a view every period, so every period's in-flight
    requests reach ``task_extras``."""
    config = SimulationConfig(seed=seed)
    behaviors, built = build_scenario(
        text,
        [steady_thread(f"base/{i}", COMPUTE_PHASE) for i in range(2)],
        seed=seed,
        period_s=config.period_s,
        periods_per_epoch=config.periods_per_epoch,
        n_epochs=n_epochs,
    )
    runtime = runtime_cls(built._names, built.slo_s)
    extras = []
    task_extras = runtime.task_extras

    def recording_extras(system):
        out = task_extras(system)
        extras.append(out)
        return out

    runtime.task_extras = recording_extras
    obs = ObsContext()
    system = System(
        make_platform("biglittle"), behaviors, make_balancer("vanilla"), config,
        obs=obs, scenario=runtime,
    )
    result = system.run(n_epochs=n_epochs)
    events = [
        e for e in obs.tracer.events
        if e["type"] in (ev.REQUEST_ARRIVED, ev.REQUEST_COMPLETED)
    ]
    return result, runtime, events, extras


@pytest.mark.parametrize(
    "text",
    [
        "openloop:pattern=spike,rate=400,work_minstr=0.5",
        "openloop:rate=200,slo_ms=5,work_minstr=20",
    ],
)
def test_openloop_runtime_equals_brute_force_scan(text):
    result, runtime, events, extras = run_openloop(text, OpenLoopRuntime)
    ref, reference, ref_events, ref_extras = run_openloop(
        text, BruteForceOpenLoop
    )
    assert metrics_digest(result) == metrics_digest(ref)
    assert result.scenario == ref.scenario
    assert runtime.latencies_s == reference.latencies_s
    assert events == ref_events
    assert extras == ref_extras
    assert any(extras), "no view carried an in-flight request"
    order = {r.tid: i for i, r in enumerate(reference._requests)}
    # The stop at the first pending request is exercised where it
    # matters: many requests arrive in one period, and a request
    # completes in the period a later one is first seen.
    assert max(len(seen) for seen, _ in reference.periods) >= 3
    assert any(
        done and seen and min(order[t] for t in done) < max(
            order[t] for t in seen
        )
        for seen, done in reference.periods
    )
    assert result.scenario["completed"] > 0


class TestBarrierRuntime:
    def test_all_barriers_release_and_groups_finish(self):
        result, _, obs = run_scenario(
            "barrier:groups=2,members=3,intervals=3,interval_minstr=5",
            n_epochs=3,
        )
        stats = result.scenario
        assert stats["family"] == "barrier"
        assert stats["groups"] == 2
        assert stats["members"] == 6
        # Every *interior* interval ends in a release; the final
        # barrier coincides with exit (the kernel retires the thread),
        # so a finished run released groups x (intervals - 1).
        assert stats["barriers_released"] == 2 * (3 - 1)
        assert stats["groups_completed"] == 2
        assert stats["makespan_s"] is not None
        assert 0 < stats["makespan_s"] <= result.duration_s
        assert stats["stall_s"] >= 0.0
        stalls = obs.tracer.by_type(ev.BARRIER_STALL)
        assert len(stalls) == stats["barriers_released"]
        assert sum(e["stall_s"] for e in stalls) == pytest.approx(
            stats["stall_s"]
        )

    def test_unfinished_group_reports_no_makespan(self):
        # One epoch is nowhere near enough for this much work.
        result, _, _ = run_scenario(
            "barrier:groups=1,members=2,intervals=8,interval_minstr=500",
            n_epochs=1,
        )
        stats = result.scenario
        assert stats["makespan_s"] is None
        assert stats["groups_completed"] == 0
        assert stats["barriers_released"] < 8

    def test_members_block_while_waiting(self):
        # Strong imbalance: fast members must block at the barrier
        # until the slowest arrives, which shows up as stall time.
        result, _, _ = run_scenario(
            "barrier:groups=1,members=4,intervals=3,"
            "interval_minstr=8,imbalance=1",
            n_epochs=3,
        )
        assert result.scenario["stall_s"] > 0.0


class TestSmtRuntime:
    def test_core_selection_shapes(self):
        plat = make_platform("biglittle")
        n = len(plat.cores)
        big_ids = {
            c.core_id
            for c in sorted(
                plat.cores,
                key=lambda c: c.core_type.freq_mhz * c.core_type.issue_width,
                reverse=True,
            )[: n // 2]
        }
        cases = {
            "all": n,
            "half": n // 2,
            "big": n // 2,
        }
        for select, expected in cases.items():
            result, system, _ = run_scenario(
                f"smt:cores={select},corunners=2", platform="biglittle"
            )
            stats = result.scenario
            assert stats["family"] == "smt"
            assert stats["corunners"] == 2
            assert len(stats["smt_cores"]) == expected, select
            flagged = {
                q.core.core_id for q in system.runqueues if q.smt
            }
            assert flagged == set(stats["smt_cores"])
            if select == "big":
                assert flagged == big_ids

    def test_smt_cores_actually_corun(self):
        # With co-runners forced onto shared big cores the run must
        # record SMT contention (visible as throughput below the sum
        # of isolated rates — asserted indirectly: the scenario runs
        # to completion and reports the chosen cores).
        result, system, _ = run_scenario(
            "smt:cores=big,corunners=4", platform="biglittle", n_epochs=2
        )
        assert result.scenario["smt_cores"]
        assert result.instructions > 0
