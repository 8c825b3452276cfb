"""Tests for the alternative allocation optimizers."""

import numpy as np
import pytest

from repro.core.allocation import Allocation
from repro.core.annealing import SAConfig, anneal
from repro.core.objective import EnergyEfficiencyObjective
from repro.core.optimizers import greedy_allocate, random_search
from repro.experiments.fig8 import brute_force_optimum


def make_objective(m=5, n=3, seed=0):
    rng = np.random.default_rng(seed)
    ips = rng.uniform(1e8, 5e9, size=(m, n))
    power = rng.uniform(0.05, 8.0, size=(m, n))
    util = rng.uniform(0.1, 1.0, size=(m, n))
    idle = rng.uniform(0.05, 1.5, size=n)
    return EnergyEfficiencyObjective(
        ips=ips, power=power, utilization=util, idle_power=idle,
        sleep_power=0.1 * idle,
    )


class TestGreedy:
    def test_never_worse_than_initial(self):
        objective = make_objective()
        result = greedy_allocate(objective, Allocation.round_robin(5, 3))
        assert result.best_value >= result.initial_value

    def test_initial_untouched(self):
        objective = make_objective()
        initial = Allocation.round_robin(5, 3)
        before = initial.mapping()
        greedy_allocate(objective, initial)
        assert initial.mapping() == before

    def test_result_complete(self):
        objective = make_objective(seed=4)
        result = greedy_allocate(objective, Allocation.round_robin(5, 3))
        assert result.best_allocation.is_complete()

    def test_reaches_local_optimum(self):
        """Running greedy again from its own output must not improve."""
        objective = make_objective(seed=9)
        first = greedy_allocate(objective, Allocation.round_robin(5, 3))
        second = greedy_allocate(objective, first.best_allocation)
        assert second.best_value == pytest.approx(first.best_value, rel=1e-12)

    def test_invalid_rounds_rejected(self):
        with pytest.raises(ValueError):
            greedy_allocate(make_objective(), Allocation.round_robin(5, 3),
                            max_rounds=0)


class TestRandomSearch:
    def test_never_worse(self):
        objective = make_objective(seed=2)
        result = random_search(objective, Allocation.round_robin(5, 3),
                               iterations=500)
        assert result.best_value >= result.initial_value
        assert result.evaluations == 500

    def test_deterministic_per_seed(self):
        objective = make_objective(seed=3)
        initial = Allocation.round_robin(5, 3)
        a = random_search(objective, initial, iterations=200, seed=42)
        b = random_search(objective, initial, iterations=200, seed=42)
        assert a.best_value == b.best_value

    def test_invalid_iterations_rejected(self):
        with pytest.raises(ValueError):
            random_search(make_objective(), Allocation.round_robin(5, 3),
                          iterations=0)


class TestExhaustive:
    def test_finds_true_optimum(self):
        """The exhaustive optimum must dominate every optimizer."""
        objective = make_objective(m=5, n=3, seed=7)
        initial = Allocation.round_robin(5, 3)
        optimum = brute_force_optimum(objective)
        for result in (
            greedy_allocate(objective, initial),
            random_search(objective, initial),
            anneal(objective, initial),
        ):
            # Compare fresh evaluations: incrementally-tracked values
            # carry last-ulp drift.
            fresh = objective.evaluate(result.best_allocation)
            assert fresh <= optimum * (1 + 1e-9)


class TestSharedContract:
    @pytest.mark.parametrize(
        "run",
        [
            lambda objective, initial: anneal(
                objective, initial, SAConfig(max_iterations=300, seed=2)
            ),
            greedy_allocate,
            lambda objective, initial: random_search(
                objective, initial, iterations=300
            ),
        ],
        ids=["annealing", "greedy", "random"],
    )
    def test_each_compared_optimizer_keeps_it(self, run):
        """Each optimizer of the comparison table leaves the initial
        allocation alone and returns a complete allocation, no worse
        than the start, whose value a fresh evaluation reproduces."""
        objective = make_objective(m=4, n=2, seed=1)
        initial = Allocation.round_robin(4, 2)
        before = initial.mapping()
        result = run(objective, initial)
        assert initial.mapping() == before
        assert result.best_allocation.is_complete()
        assert result.best_value >= result.initial_value
        assert objective.evaluate(result.best_allocation) == pytest.approx(
            result.best_value, rel=1e-9
        )


class TestOptimizeDispatch:
    def test_annealing_close_to_exhaustive(self):
        """The paper's claim: SA is near-optimal on small problems."""
        objective = make_objective(m=6, n=3, seed=13)
        initial = Allocation.round_robin(6, 3)
        optimum = brute_force_optimum(objective)
        sa = anneal(objective, initial, SAConfig(max_iterations=3000, seed=3))
        assert sa.best_value >= 0.95 * optimum
