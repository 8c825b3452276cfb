"""CFS run-queue edge cases, pinned against the reference kernel.

Each scenario here is a boundary condition of the scheduling core that
the structure-of-arrays engine could plausibly mishandle — empty
masks, single-lane reductions, one hot queue against many empty ones,
denormal-range weights.  Every test asserts (a) the physics is sane
and (b) the SoA digest equals the reference-kernel oracle's digest, so
a regression in either trips it.
"""

import contextlib
import math

import pytest

from reference_kernel import reference_kernel
from repro.kernel.simulator import SimulationConfig, System
from repro.runner.factories import make_balancer, make_platform
from repro.runner.serialize import metrics_digest
from repro.workload.characteristics import COMPUTE_PHASE, MEMORY_PHASE
from repro.workload.phases import PhaseSchedule
from repro.workload.thread import ThreadBehavior, steady_thread

def run(engine, behaviors, platform="quad", balancer="vanilla", n_epochs=2):
    with engine:
        system = System(
            make_platform(platform),
            behaviors,
            make_balancer(balancer),
            SimulationConfig(seed=0),
        )
    return system.run(n_epochs=n_epochs)


def both_kernels(behaviors, **kwargs):
    """Run both kernels, assert digest identity, return the results."""
    ref = run(reference_kernel(), behaviors, **kwargs)
    soa = run(contextlib.nullcontext(), behaviors, **kwargs)
    assert metrics_digest(soa) == metrics_digest(ref)
    return ref, soa


class TestZeroRunnable:
    def test_all_tasks_arrive_late(self):
        """Epoch 1 has zero runnable tasks everywhere: the chip idles,
        burns idle/sleep energy, commits nothing."""
        behaviors = [
            steady_thread("late-0", COMPUTE_PHASE, arrival_s=0.09),
            steady_thread("late-1", MEMORY_PHASE, arrival_s=0.09),
        ]
        ref, _ = both_kernels(behaviors, n_epochs=3)
        first = ref.epochs[0]
        assert first.instructions == 0.0
        assert first.energy_j > 0.0
        assert ref.instructions > 0.0  # they do run after arriving

    def test_everything_exits_early(self):
        """All work completes mid-run; the tail epochs schedule an
        empty system without dividing by zero anywhere."""
        behaviors = [
            steady_thread("tiny", COMPUTE_PHASE, total_instructions=1e6),
        ]
        ref, _ = both_kernels(behaviors, n_epochs=3)
        assert ref.task_stats[0].instructions == pytest.approx(1e6)
        assert ref.epochs[-1].instructions == 0.0


class TestSingleTask:
    def test_one_task_one_core(self):
        """A single steady task: the degenerate fair-share split where
        one lane owns the whole period."""
        ref, _ = both_kernels([steady_thread("solo", COMPUTE_PHASE)])
        busiest = max(c.busy_s for c in ref.core_stats)
        assert busiest == pytest.approx(ref.duration_s, rel=0.05)

    def test_one_task_many_cores(self):
        """One task on 64 cores: 63 queues stay empty every period."""
        behaviors = [steady_thread("solo", COMPUTE_PHASE)]
        ref, _ = both_kernels(behaviors, platform="hmp:64", n_epochs=1)
        active_cores = sum(1 for c in ref.core_stats if c.instructions > 0)
        assert active_cores == 1


class TestPileup:
    def test_all_tasks_pinned_to_one_core(self):
        """Twelve threads cpuset-pinned onto core 0 of a quad: one
        saturated queue, three idle ones, and no balancer escape."""
        behaviors = [
            ThreadBehavior(
                name=f"pin-{i}",
                schedule=PhaseSchedule.steady(COMPUTE_PHASE),
                allowed_cores=frozenset({0}),
            )
            for i in range(12)
        ]
        ref, _ = both_kernels(behaviors)
        by_core = {c.core_id: c for c in ref.core_stats}
        assert by_core[0].instructions > 0
        assert all(by_core[c].instructions == 0 for c in (1, 2, 3))
        assert ref.migrations == 0

    def test_pileup_with_late_arrivals(self):
        """The pinned queue keeps absorbing tasks as they arrive."""
        behaviors = [
            ThreadBehavior(
                name=f"pin-{i}",
                schedule=PhaseSchedule.steady(COMPUTE_PHASE),
                allowed_cores=frozenset({0}),
                arrival_s=0.02 * i,
            )
            for i in range(6)
        ]
        ref, _ = both_kernels(behaviors, n_epochs=3)
        assert ref.instructions > 0


class TestWeightUnderflow:
    @pytest.mark.parametrize("tiny", [1e-9, 1e-150, 1e-300])
    def test_tiny_weight_starves_but_stays_finite(self, tiny):
        """A denormal-range nice weight must not poison the vruntime
        arithmetic (granted/weight explodes toward inf) in either
        kernel; the heavy sibling gets essentially the whole core."""
        behaviors = [
            ThreadBehavior(
                name="heavy",
                schedule=PhaseSchedule.steady(COMPUTE_PHASE),
                allowed_cores=frozenset({0}),
            ),
            ThreadBehavior(
                name="feather",
                schedule=PhaseSchedule.steady(COMPUTE_PHASE),
                nice_weight=tiny,
                allowed_cores=frozenset({0}),
            ),
        ]
        ref, _ = both_kernels(behaviors, balancer="none")
        stats = {t.name: t for t in ref.task_stats}
        assert math.isfinite(stats["heavy"].instructions)
        assert math.isfinite(stats["feather"].instructions)
        assert stats["heavy"].instructions > stats["feather"].instructions

    def test_mixed_weights_share_proportionally(self):
        """3:1 weights on one queue yield a roughly 3:1 work split."""
        behaviors = [
            ThreadBehavior(
                name="w3",
                schedule=PhaseSchedule.steady(COMPUTE_PHASE),
                nice_weight=3.0,
                allowed_cores=frozenset({0}),
            ),
            ThreadBehavior(
                name="w1",
                schedule=PhaseSchedule.steady(COMPUTE_PHASE),
                nice_weight=1.0,
                allowed_cores=frozenset({0}),
            ),
        ]
        ref, _ = both_kernels(behaviors, balancer="none")
        stats = {t.name: t for t in ref.task_stats}
        ratio = stats["w3"].instructions / stats["w1"].instructions
        assert ratio == pytest.approx(3.0, rel=0.1)
