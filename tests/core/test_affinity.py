"""Tests for per-thread core affinity constraints (paper Section 5.1)."""

import numpy as np
import pytest

from repro.core.allocation import Allocation
from repro.core.annealing import SAConfig, anneal
from repro.core.balancer import SmartBalance
from repro.core.objective import (
    AFFINITY_VIOLATION_PENALTY,
    EnergyEfficiencyObjective,
    IncrementalEvaluator,
)
from repro.hardware.platform import quad_hmp
from repro.kernel.balancers.vanilla import VanillaBalancer
from repro.kernel.simulator import SimulationConfig, System
from repro.workload.characteristics import COMPUTE_PHASE
from repro.workload.demand import with_duty
from repro.workload.synthetic import imb_threads
from repro.workload.thread import ThreadBehavior, steady_thread


def make_objective(m=4, n=3, seed=0, allowed=None):
    rng = np.random.default_rng(seed)
    idle = rng.uniform(0.05, 1.5, size=n)
    return EnergyEfficiencyObjective(
        ips=rng.uniform(1e8, 5e9, size=(m, n)),
        power=rng.uniform(0.05, 8.0, size=(m, n)),
        utilization=rng.uniform(0.1, 1.0, size=(m, n)),
        idle_power=idle,
        sleep_power=0.1 * idle,
        allowed=allowed,
    )


def pinned_thread(name, cores, duty=0.4):
    phase = with_duty(COMPUTE_PHASE, duty=duty)
    base = steady_thread(name, phase)
    return ThreadBehavior(
        name=base.name,
        schedule=base.schedule,
        allowed_cores=frozenset(cores),
    )


class TestObjectiveAffinity:
    def test_all_true_mask_is_no_constraint(self):
        obj = make_objective(allowed=np.ones((4, 3), dtype=bool))
        assert obj.allowed is None

    def test_violation_penalised(self):
        allowed = np.ones((4, 3), dtype=bool)
        allowed[0, :] = [True, False, False]  # thread 0 pinned to core 0
        obj = make_objective(allowed=allowed)
        ok = Allocation.from_mapping([0, 1, 2, 0], n_cores=3)
        bad = Allocation.from_mapping([1, 1, 2, 0], n_cores=3)
        assert obj.violations(ok) == 0
        assert obj.violations(bad) == 1
        assert obj.evaluate(bad) < obj.evaluate(ok) - 0.5 * AFFINITY_VIOLATION_PENALTY

    def test_unsatisfiable_mask_rejected(self):
        allowed = np.ones((4, 3), dtype=bool)
        allowed[2, :] = False
        with pytest.raises(ValueError, match="no allowed core"):
            make_objective(allowed=allowed)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="m x n"):
            make_objective(allowed=np.ones((2, 2), dtype=bool))

    def test_incremental_tracks_violations(self):
        allowed = np.ones((4, 3), dtype=bool)
        allowed[0, :] = [True, False, False]
        obj = make_objective(allowed=allowed, seed=3)
        alloc = Allocation.from_mapping([0, 1, 2, 0], n_cores=3)
        evaluator = IncrementalEvaluator(obj, alloc)
        import itertools

        for a, b in itertools.product(range(len(alloc)), repeat=2):
            evaluator.apply_swap(a, b)
            assert evaluator.value == pytest.approx(
                obj.evaluate(alloc), rel=1e-9, abs=1e-6
            )
            evaluator.apply_swap(a, b)  # revert

    def test_annealer_respects_affinity(self):
        """From a feasible start the annealer returns a feasible end."""
        allowed = np.ones((4, 3), dtype=bool)
        allowed[0, :] = [True, False, False]
        allowed[1, :] = [False, True, True]
        obj = make_objective(allowed=allowed, seed=5)
        initial = Allocation.from_mapping([0, 1, 2, 0], n_cores=3)
        result = anneal(obj, initial, SAConfig(max_iterations=2000, seed=2))
        assert obj.violations(result.best_allocation) == 0

    def test_annealer_escapes_infeasible_start(self):
        """The penalty is traversable: an infeasible incumbent gets
        repaired rather than locked in."""
        allowed = np.ones((4, 3), dtype=bool)
        allowed[0, :] = [True, False, False]
        obj = make_objective(allowed=allowed, seed=7)
        infeasible = Allocation.from_mapping([2, 1, 2, 0], n_cores=3)
        result = anneal(obj, infeasible, SAConfig(max_iterations=3000, seed=3))
        assert obj.violations(result.best_allocation) == 0


class TestKernelAffinity:
    def test_initial_placement_respects_cpuset(self):
        threads = [pinned_thread("pin3", {3})] + imb_threads("MTMI", 2)
        system = System(quad_hmp(), threads, VanillaBalancer())
        assert system.tasks[0].core_id == 3

    def test_migrate_rejects_forbidden_core(self):
        threads = [pinned_thread("pin3", {3})]
        system = System(quad_hmp(), threads, VanillaBalancer())
        with pytest.raises(ValueError, match="not allowed"):
            system.migrate(system.tasks[0], 0)

    def test_apply_placement_filters_forbidden_moves(self):
        threads = [pinned_thread("pin3", {3})]
        system = System(quad_hmp(), threads, VanillaBalancer())
        moved = system.apply_placement({0: 1})
        assert moved == 0
        assert system.tasks[0].core_id == 3

    def test_unplaceable_task_rejected_at_construction(self):
        threads = [pinned_thread("pin9", {9})]
        with pytest.raises(ValueError, match="no allowed core"):
            System(quad_hmp(), threads, VanillaBalancer())

    def test_smartbalance_honours_cpuset_end_to_end(self):
        """A thread pinned to the Small core stays there for the whole
        run even though the balancer would otherwise move it."""
        threads = [pinned_thread("pin3", {3}, duty=0.8)] + imb_threads("MTMI", 5)
        system = System(
            quad_hmp(), threads, SmartBalance(),
            SimulationConfig(seed=2),
        )
        result = system.run(n_epochs=15)
        pinned = [t for t in result.task_stats if t.name == "pin3"][0]
        assert pinned.migrations == 0
        assert system.tasks[0].core_id == 3
        assert result.instructions > 0
