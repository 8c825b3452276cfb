"""Differential equivalence: SoA kernel vs reference kernel.

The structure-of-arrays engine (:mod:`repro.kernel.soa`) promises
**bit identity** with the object-per-task reference kernel
(``reference_kernel.py``, the test oracle): for any platform, workload,
balancer, seed and fault schedule, the two kernels must produce
byte-for-byte equal :func:`metrics_digest` fingerprints.  This file is
the lock on that promise.

* Hypothesis fuzzes the full cross-product — platform shapes up to
  1024 cores, steady/phased/arriving/pinned/weighted workloads, every
  named fault scenario — and asserts digest identity per example.
  Shrinking therefore minimises any divergence to the smallest
  workload/platform that still exhibits it.
* Pinned cases cover the expensive balancers (smartbalance, gts) that
  would dominate fuzz wall-clock if sampled freely.

Equivalence failures print both digests; rerun the shrunken example
under ``reference_kernel()`` and plainly to bisect (``docs/kernel.md``).
"""

import contextlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_kernel import kernel_engine, reference_kernel
from repro.faults import SCENARIOS, scenario
from repro.hardware.platform import quad_hmp
from repro.kernel.simulator import SimulationConfig, System
from repro.kernel.soa import SoaKernel
from repro.kernel.task import TaskState
from repro.runner.factories import make_balancer, make_platform, make_workload
from repro.runner.serialize import metrics_digest
from repro.workload.characteristics import (
    COMPUTE_PHASE,
    MEMORY_PHASE,
    PEAK_PHASE,
)
from repro.workload.phases import PhaseSchedule, PhaseSegment
from repro.workload.thread import ThreadBehavior, steady_thread

PHASES = (PEAK_PHASE, COMPUTE_PHASE, MEMORY_PHASE)

#: Fuzzed platform shapes.  Small shapes dominate (they shrink well and
#: run the slow reference kernel quickly); hmp:256 keeps the SoA gather
#: /scatter paths honest at scale every run.
FUZZ_PLATFORMS = ("quad", "biglittle", "hmp:3", "hmp:16", "hmp:64", "hmp:256")

#: Cheap balancers safe to sample freely.  gts/iks need exactly two
#: clusters (sampled only on biglittle) and smartbalance trains a
#: predictor at construction; those get pinned cases below too.
FUZZ_BALANCERS = ("none", "vanilla")
BIGLITTLE_BALANCERS = FUZZ_BALANCERS + ("iks", "gts")

#: Workload scenarios (repro.scenarios) sampled alongside fault
#: scenarios: arriving/departing request threads, barrier-blocked
#: groups and SMT co-run cores all mutate engine state mid-run through
#: the narrow hooks, so each family must hold bit identity on its own.
#: None dominates so the plain paths keep their fuzz coverage.
FUZZ_SCENARIOS = (
    None,
    None,
    "openloop:rate=60,slo_ms=15,work_minstr=2",
    "barrier:groups=1,members=3,intervals=3,interval_minstr=8",
    "smt:cores=half,corunners=2",
)


def run_digest(
    engine,
    platform,
    behaviors,
    balancer="none",
    n_epochs=2,
    seed=0,
    faults=None,
    workload_scenario=None,
    **config_kwargs,
):
    """Digest of one complete run inside the ``engine`` context."""
    plat = make_platform(platform)
    plan = None
    if faults is not None:
        plan = scenario(
            faults,
            seed=seed,
            n_cores=len(plat.cores),
            duration_s=n_epochs * 0.06,
        )
    config = SimulationConfig(seed=seed, faults=plan, **config_kwargs)
    scenario_rt = None
    if workload_scenario is not None:
        from repro.scenarios import build_scenario

        behaviors, scenario_rt = build_scenario(
            workload_scenario,
            behaviors,
            seed=seed,
            period_s=config.period_s,
            periods_per_epoch=config.periods_per_epoch,
            n_epochs=n_epochs,
        )
    with engine:
        system = System(
            plat, behaviors, make_balancer(balancer), config, scenario=scenario_rt
        )
    return metrics_digest(system.run(n_epochs=n_epochs))


def assert_equivalent(platform, behaviors, **kwargs):
    ref = run_digest(reference_kernel(), platform, behaviors, **kwargs)
    soa = run_digest(contextlib.nullcontext(), platform, behaviors, **kwargs)
    assert soa == ref, (
        f"kernel divergence on {platform} ({len(behaviors)} threads, "
        f"{kwargs}): reference={ref} soa={soa}"
    )


@st.composite
def behavior_lists(draw, n_cores):
    """1–6 threads mixing every ThreadBehavior degree of freedom."""
    n = draw(st.integers(min_value=1, max_value=6))
    out = []
    for i in range(n):
        if draw(st.booleans()):
            schedule = PhaseSchedule.steady(draw(st.sampled_from(PHASES)))
        else:
            segments = [
                PhaseSegment(
                    draw(st.sampled_from(PHASES)),
                    draw(st.sampled_from((5e7, 2e8))),
                )
                for _ in range(draw(st.integers(min_value=2, max_value=3)))
            ]
            schedule = PhaseSchedule(segments, cyclic=draw(st.booleans()))
        allowed = None
        if draw(st.booleans()):
            allowed = frozenset(
                draw(
                    st.sets(
                        st.integers(min_value=0, max_value=min(n_cores, 8) - 1),
                        min_size=1,
                        max_size=3,
                    )
                )
            )
        out.append(
            ThreadBehavior(
                name=f"fuzz-{i}",
                schedule=schedule,
                total_instructions=draw(st.sampled_from((None, 2e8, 1.5e9))),
                arrival_s=draw(st.sampled_from((0.0, 0.031, 0.09))),
                nice_weight=draw(st.sampled_from((1.0, 0.5, 3.0, 1e-6))),
                allowed_cores=allowed,
            )
        )
    return out


@st.composite
def differential_cases(draw):
    platform = draw(st.sampled_from(FUZZ_PLATFORMS))
    n_cores = len(make_platform(platform).cores)
    balancers = (
        BIGLITTLE_BALANCERS if platform == "biglittle" else FUZZ_BALANCERS
    )
    return {
        "platform": platform,
        "behaviors": draw(behavior_lists(n_cores)),
        "balancer": draw(st.sampled_from(balancers)),
        "seed": draw(st.integers(min_value=0, max_value=3)),
        "faults": draw(st.sampled_from((None, None) + SCENARIOS)),
        "workload_scenario": draw(st.sampled_from(FUZZ_SCENARIOS)),
        "os_noise_tasks": draw(st.sampled_from((0, 0, 2))),
        "thermal_enabled": draw(st.sampled_from((False, False, True))),
    }


class TestFuzzedEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        print_blob=True,
    )
    @given(case=differential_cases())
    def test_digest_identity(self, case):
        case = dict(case)
        platform = case.pop("platform")
        behaviors = case.pop("behaviors")
        assert_equivalent(platform, behaviors, **case)

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        print_blob=True,
    )
    @given(
        platform=st.sampled_from(("hmp:512", "hmp:1024")),
        n_threads=st.integers(min_value=8, max_value=48),
        seed=st.integers(min_value=0, max_value=2),
        faults=st.sampled_from((None, "hotplug", "thermal")),
    )
    def test_digest_identity_at_scale(self, platform, n_threads, seed, faults):
        """The gather/scatter paths stay exact up to 1024 cores."""
        behaviors = make_workload("MTMI", n_threads, seed=seed)
        assert_equivalent(
            platform,
            behaviors,
            n_epochs=1,
            seed=seed,
            faults=faults,
        )


class TestPinnedEquivalence:
    """The expensive balancers, pinned rather than fuzzed."""

    @pytest.mark.parametrize(
        "platform,workload,faults",
        [
            ("quad", "MTMI", None),
            ("hmp:16", "Mix1", "combined"),
            ("biglittle", "blackscholes", "migration"),
        ],
    )
    def test_smartbalance(self, platform, workload, faults):
        behaviors = make_workload(workload, 8, seed=0)
        assert_equivalent(
            platform, behaviors, balancer="smartbalance", faults=faults
        )

    def test_gts_biglittle(self):
        behaviors = make_workload("HTLI", 8, seed=1)
        assert_equivalent("biglittle", behaviors, balancer="gts")

class TestScenarioEquivalence:
    """Workload scenarios: pinned families, variants and edge cases."""

    @pytest.mark.parametrize(
        "platform,workload_scenario,balancer",
        [
            ("quad", "openloop:rate=80,slo_ms=20", "vanilla"),
            ("biglittle", "barrier:groups=2,members=4,intervals=3,"
             "interval_minstr=10", "gts"),
            ("hmp:3", "barrier:groups=1,members=2,intervals=2,"
             "interval_minstr=5", "none"),
            ("hmp:256", "smt:cores=big,corunners=8", "vanilla"),
        ],
    )
    def test_families(self, platform, workload_scenario, balancer):
        behaviors = make_workload("MTMI", 4, seed=1)
        assert_equivalent(
            platform,
            behaviors,
            balancer=balancer,
            workload_scenario=workload_scenario,
            seed=1,
        )

    @pytest.mark.parametrize(
        "balancer,workload_scenario",
        [
            ("tpeq", "barrier:groups=1,members=4,intervals=3,"
             "interval_minstr=10,imbalance=0.8"),
            ("slo", "openloop:rate=60,slo_ms=15"),
        ],
    )
    def test_scenario_variants(self, balancer, workload_scenario):
        """The row-scaling variants hold bit identity too."""
        behaviors = make_workload("MTMI", 4, seed=2)
        assert_equivalent(
            "quad",
            behaviors,
            balancer=balancer,
            workload_scenario=workload_scenario,
            n_epochs=3,
            seed=2,
        )

    def test_member_departs_while_group_blocked(self):
        """A member exiting before its stop must not wedge the group.

        The group's other members reach the barrier and block; the
        short member exits mid-interval (EXITED counts as arrived), so
        the group must still release — on both kernels, identically.
        """
        from repro.scenarios.runtime import BarrierRuntime, _BarrierGroup
        from repro.workload.characteristics import COMPUTE_PHASE
        from repro.workload.thread import steady_thread

        def build():
            behaviors = [
                steady_thread("bar/g0/m0", COMPUTE_PHASE,
                              total_instructions=4e6),
                steady_thread("bar/g0/m1", PEAK_PHASE,
                              total_instructions=3e7),
                steady_thread("bar/g0/m2", PEAK_PHASE,
                              total_instructions=3e7),
            ]
            runtime = BarrierRuntime([
                _BarrierGroup(
                    name="g0",
                    member_names=("bar/g0/m0", "bar/g0/m1", "bar/g0/m2"),
                    interval_instr=1e7,
                    n_intervals=3,
                )
            ])
            return behaviors, runtime

        digests = {}
        stats = {}
        engines = {"reference": reference_kernel(), "soa": contextlib.nullcontext()}
        for kernel, engine in engines.items():
            behaviors, runtime = build()
            with engine:
                system = System(
                    make_platform("quad"),
                    behaviors,
                    make_balancer("none"),
                    SimulationConfig(seed=0),
                    scenario=runtime,
                )
            digests[kernel] = metrics_digest(system.run(n_epochs=3))
            stats[kernel] = runtime.stats()
        assert digests["reference"] == digests["soa"]
        assert stats["reference"] == stats["soa"]
        # The short member exited, yet every barrier still released and
        # the group completed.
        assert stats["soa"]["barriers_released"] == 2
        assert stats["soa"]["groups_completed"] == 1

    def test_smt_single_occupant_is_level_zero(self):
        """One thread alone on an SMT core must take the exact pre-SMT
        code path: full-core capacity, contention level 0.  A
        corunner-free SMT run on a single-thread workload is therefore
        metrics-identical to no scenario — only the scenario stats dict
        (which records the SMT core ids) may differ."""
        from repro.runner.serialize import metrics_dict
        from repro.scenarios import build_scenario
        from repro.workload.characteristics import COMPUTE_PHASE
        from repro.workload.thread import steady_thread

        engines = {"reference": reference_kernel, "soa": contextlib.nullcontext}
        for kernel, engine in engines.items():
            plat = make_platform("quad")
            config = SimulationConfig(seed=0)
            metrics = []
            for scenario_text in ("smt:cores=all,corunners=0", None):
                behaviors = [steady_thread("solo", COMPUTE_PHASE)]
                scenario_rt = None
                if scenario_text is not None:
                    behaviors, scenario_rt = build_scenario(
                        scenario_text,
                        behaviors,
                        seed=0,
                        period_s=config.period_s,
                        periods_per_epoch=config.periods_per_epoch,
                        n_epochs=2,
                    )
                with engine():
                    system = System(
                        plat, behaviors, make_balancer("none"), config,
                        scenario=scenario_rt,
                    )
                data = metrics_dict(system.run(n_epochs=2))
                data.pop("scenario", None)
                metrics.append(data)
            assert metrics[0] == metrics[1], kernel

    def test_core_left_empty_by_departures(self):
        """Every request thread retires before the run ends, leaving
        cores empty; both kernels agree through the drain."""
        behaviors = make_workload("LTLI", 2, seed=3)
        assert_equivalent(
            "hmp:3",
            behaviors,
            workload_scenario="openloop:rate=30,slo_ms=10,work_minstr=1",
            n_epochs=3,
            seed=3,
        )


class TestFastPathExit:
    """A thread whose one-step slice retires exactly its remaining
    instructions exits on the SoA fast path (``SoaKernel._apply``),
    not through the scalar slow path, and both kernels agree."""

    @staticmethod
    def build(total, period_s):
        return System(
            quad_hmp(),
            [steady_thread("t", COMPUTE_PHASE, total_instructions=total)],
            make_balancer("none"),
            SimulationConfig(period_s=period_s),
        )

    def test_exact_slice_exits_on_the_fast_path(self):
        slow = []

        class Counting(SoaKernel):
            def _execute_slow(self, t, *args):
                slow.append(t)
                return super()._execute_slow(t, *args)

        # Whether total / IPS rounds below the grant depends on the
        # operands; try neighbouring grants until the slice stays on
        # the one-step path.
        for k in range(20):
            period_s = 0.006 + k * 1e-6
            probe = self.build(None, period_s)
            probe.engine.simulate_period(period_s)
            total = float(probe.engine.progress[0])
            slow.clear()
            with kernel_engine(Counting):
                system = self.build(total, period_s)
            system.engine.simulate_period(period_s)
            if not slow:
                break
        else:
            pytest.fail("no grant kept the exact slice on the fast path")
        assert system.tasks[0].state is TaskState.EXITED
        assert system.engine.total_instr[0] == total

        soa = metrics_digest(self.build(total, period_s).run(n_epochs=1))
        with reference_kernel():
            reference = self.build(total, period_s)
        assert soa == metrics_digest(reference.run(n_epochs=1))


class TestPlatformPresets:
    def test_preset_platforms_resolve_to_scaled_hmp(self):
        """hmp256/512/1024 presets are exactly the hmp:<n> shapes."""
        for n in (256, 512, 1024):
            preset = make_platform(f"hmp{n}")
            pattern = make_platform(f"hmp:{n}")
            assert len(preset.cores) == n
            assert [c.core_type.name for c in preset.cores] == [
                c.core_type.name for c in pattern.cores
            ]
