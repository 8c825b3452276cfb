"""Tests for the simulated-annealing optimizer (Algorithm 1).

The float ``e^x`` and full re-evaluation ablations exist only in the
reference loop ``sa_oracle.anneal``, which takes them as switches.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sa_oracle
from repro.core.allocation import Allocation
from repro.core.annealing import (
    MAX_ITERATION_CAP,
    MIN_ITERATION_CAP,
    SAConfig,
    anneal,
    default_iteration_cap,
)
from repro.core.objective import EnergyEfficiencyObjective


def make_objective(m=6, n=3, seed=0):
    rng = np.random.default_rng(seed)
    ips = rng.uniform(1e8, 5e9, size=(m, n))
    power = rng.uniform(0.05, 8.0, size=(m, n))
    util = rng.uniform(0.1, 1.0, size=(m, n))
    idle = rng.uniform(0.05, 1.5, size=n)
    return EnergyEfficiencyObjective(
        ips=ips, power=power, utilization=util, idle_power=idle,
        sleep_power=0.1 * idle,
    )


class TestSAConfig:
    def test_defaults_valid(self):
        SAConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"initial_perturbation": 1.5},
            {"perturbation_decay": 0.0},
            {"acceptance_decay": 1.5},
            {"initial_acceptance": 0.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SAConfig(**kwargs)


class TestIterationCap:
    def test_bounds(self):
        assert default_iteration_cap(2, 2) >= MIN_ITERATION_CAP
        assert default_iteration_cap(128, 256) <= MAX_ITERATION_CAP

    def test_monotone_in_threads(self):
        assert default_iteration_cap(4, 16) >= default_iteration_cap(4, 8)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            default_iteration_cap(0, 4)


class TestAnneal:
    def test_never_worse_than_initial(self):
        objective = make_objective()
        initial = Allocation.round_robin(6, 3)
        result = anneal(objective, initial, SAConfig(max_iterations=200))
        assert result.best_value >= result.initial_value

    def test_initial_not_mutated(self):
        objective = make_objective()
        initial = Allocation.round_robin(6, 3)
        before = initial.mapping()
        anneal(objective, initial, SAConfig(max_iterations=100))
        assert initial.mapping() == before

    def test_best_allocation_value_consistent(self):
        """The reported best value must equal a fresh evaluation of the
        reported best allocation."""
        objective = make_objective(seed=3)
        initial = Allocation.round_robin(6, 3)
        result = anneal(objective, initial, SAConfig(max_iterations=500))
        assert objective.evaluate(result.best_allocation) == pytest.approx(
            result.best_value, rel=1e-9
        )

    def test_deterministic_for_seed(self):
        objective = make_objective()
        initial = Allocation.round_robin(6, 3)
        config = SAConfig(max_iterations=300, seed=99)
        a = anneal(objective, initial, config)
        b = anneal(objective, initial, config)
        assert a.best_value == b.best_value
        assert a.best_allocation.mapping() == b.best_allocation.mapping()

    def test_different_seeds_explore_differently(self):
        objective = make_objective(m=10, n=4, seed=5)
        initial = Allocation.round_robin(10, 4)
        a = anneal(objective, initial, SAConfig(max_iterations=50, seed=1))
        b = anneal(objective, initial, SAConfig(max_iterations=50, seed=2))
        assert (
            a.best_allocation.mapping() != b.best_allocation.mapping()
            or a.best_value == b.best_value
        )

    def test_more_iterations_no_worse(self):
        objective = make_objective(m=8, n=4, seed=7)
        initial = Allocation.round_robin(8, 4)
        short = anneal(objective, initial, SAConfig(max_iterations=20, seed=4))
        long = anneal(objective, initial, SAConfig(max_iterations=2000, seed=4))
        assert long.best_value >= short.best_value - 1e-12

    def test_uphill_moves_happen(self):
        """SA must accept some worse moves early on (it is not greedy)."""
        objective = make_objective(m=10, n=4, seed=11)
        initial = Allocation.round_robin(10, 4)
        result = anneal(
            objective, initial,
            SAConfig(max_iterations=3000, initial_acceptance=0.5, seed=13),
        )
        assert result.uphill_accepts > 0

    def test_default_iterations_from_problem_size(self):
        objective = make_objective(m=6, n=3)
        initial = Allocation.round_robin(6, 3)
        result = anneal(objective, initial, SAConfig(max_iterations=None))
        assert result.iterations == default_iteration_cap(3, 6)

    def test_fixed_point_and_float_both_work(self):
        objective = make_objective(m=8, n=4, seed=21)
        initial = Allocation.round_robin(8, 4)
        config = SAConfig(max_iterations=500, seed=5)
        for use_fp in (True, False):
            result = sa_oracle.anneal(
                objective, initial, config, fixed_point_exp=use_fp
            )
            assert result.best_value >= result.initial_value

    def test_incremental_and_full_agree_on_quality(self):
        """Ablation sanity: both objective evaluation modes reach
        comparable solutions.  Trajectories may diverge (the incremental
        value differs from a fresh evaluation at the last-ulp level,
        flipping borderline accepts), so we compare solution quality,
        not the exact walk."""
        objective = make_objective(m=8, n=4, seed=31)
        initial = Allocation.round_robin(8, 4)
        config = SAConfig(max_iterations=2000, seed=6)
        inc = anneal(objective, initial, config)
        full = sa_oracle.anneal(objective, initial, config, incremental=False)
        assert inc.best_value >= inc.initial_value
        assert full.best_value >= full.initial_value
        assert inc.best_value == pytest.approx(full.best_value, rel=0.05)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_result_is_valid_allocation(self, seed):
        """Property: the optimizer always returns a complete allocation
        at least as good as the start."""
        objective = make_objective(m=7, n=3, seed=seed % 100)
        initial = Allocation.round_robin(7, 3)
        result = anneal(objective, initial, SAConfig(max_iterations=100, seed=seed))
        assert result.best_allocation.is_complete()
        assert sorted(
            t for t in result.best_allocation.slots if t != -1
        ) == list(range(7))
        assert result.best_value >= result.initial_value


class TestConvergence:
    def test_finds_obvious_optimum(self):
        """One core strictly dominates: everything should land there."""
        m, n = 4, 2
        ips = np.full((m, n), 1e9)
        ips[:, 0] = 4e9  # core 0 is 4x faster
        power = np.full((m, n), 1.0)
        power[:, 0] = 0.5  # and cheaper
        util = np.full((m, n), 0.2)
        objective = EnergyEfficiencyObjective(
            ips=ips, power=power, utilization=util,
            idle_power=[0.2, 0.2], sleep_power=[0.001, 0.001],
        )
        initial = Allocation.from_mapping([1, 1, 1, 1], n_cores=2)
        result = anneal(objective, initial, SAConfig(max_iterations=3000, seed=17))
        assert result.best_allocation.mapping() == [0, 0, 0, 0]
