"""Tests for the J_E objective and its incremental evaluator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import Allocation
from repro.core.objective import (
    POWER_FLOOR_W,
    EnergyEfficiencyObjective,
    IncrementalEvaluator,
)


def make_objective(m=4, n=3, mode="global", seed=0, alpha=1.7, **kwargs):
    rng = np.random.default_rng(seed)
    ips = rng.uniform(1e8, 5e9, size=(m, n))
    power = rng.uniform(0.05, 8.0, size=(m, n))
    util = rng.uniform(0.05, 1.0, size=(m, n))
    idle = rng.uniform(0.05, 1.5, size=n)
    sleep = 0.1 * idle
    return EnergyEfficiencyObjective(
        ips=ips, power=power, utilization=util, idle_power=idle,
        sleep_power=sleep, mode=mode, throughput_exponent=alpha, **kwargs
    )


class TestValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EnergyEfficiencyObjective(
                ips=np.ones((2, 3)), power=np.ones((3, 2)),
                utilization=np.ones(2), idle_power=np.ones(3),
            )

    def test_util_vector_broadcasts(self):
        obj = EnergyEfficiencyObjective(
            ips=np.ones((2, 3)), power=np.ones((2, 3)),
            utilization=[0.5, 0.7], idle_power=np.ones(3),
        )
        assert obj.utilization.shape == (2, 3)
        assert obj.utilization[1, 2] == 0.7

    def test_util_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            EnergyEfficiencyObjective(
                ips=np.ones((1, 2)), power=np.ones((1, 2)),
                utilization=[1.5], idle_power=np.ones(2),
            )

    def test_nonpositive_power_clamped_to_floor(self):
        # Zero/negative/non-finite thread power is clamped, not fatal:
        # a corrupt predictor row must not crash the balance phase, and
        # the clamped row must not make J_E infinite.
        obj = EnergyEfficiencyObjective(
            ips=np.ones((1, 2)), power=np.array([[0.0, -3.0]]),
            utilization=[0.5], idle_power=np.ones(2),
        )
        assert np.all(obj.power >= POWER_FLOOR_W)
        value = obj.evaluate_mapping([0])
        assert np.isfinite(value)

    def test_nonfinite_matrix_entries_neutralised(self):
        obj = EnergyEfficiencyObjective(
            ips=np.array([[np.nan, 1e9]]), power=np.array([[np.inf, 1.0]]),
            utilization=[0.5], idle_power=np.ones(2),
        )
        assert obj.ips[0, 0] == 0.0
        assert obj.power[0, 0] == POWER_FLOOR_W
        assert np.isfinite(obj.evaluate_mapping([0]))

    def test_nonpositive_idle_power_still_rejected(self):
        with pytest.raises(ValueError):
            EnergyEfficiencyObjective(
                ips=np.ones((1, 2)), power=np.ones((1, 2)),
                utilization=[0.5], idle_power=np.zeros(2),
            )

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            make_objective(mode="banana")

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            make_objective(alpha=0.5)

    def test_incomplete_allocation_rejected(self):
        obj = make_objective(m=3, n=2)
        alloc = Allocation(3, 2)
        alloc.place(0, 0)
        with pytest.raises(ValueError):
            obj.evaluate(alloc)


class TestCoreTerms:
    def test_empty_core_sleeps(self):
        obj = make_objective()
        ips, pwr = obj.core_terms(0, 0.0, 0.0, 0.0)
        assert ips == 0.0
        assert pwr == pytest.approx(obj.sleep_power[0])

    def test_undersubscribed_core_pays_idle(self):
        obj = make_objective()
        ips, pwr = obj.core_terms(0, 0.5, 1e9, 1.0)
        assert ips == pytest.approx(1e9)
        assert pwr == pytest.approx(1.0 + 0.5 * obj.idle_power[0])

    def test_oversubscribed_core_compresses(self):
        obj = make_objective()
        ips, pwr = obj.core_terms(0, 2.0, 4e9, 6.0)
        assert ips == pytest.approx(2e9)
        assert pwr == pytest.approx(3.0)

    def test_exactly_full_core_continuous(self):
        """No discontinuity at D_j = 1."""
        obj = make_objective()
        below = obj.core_terms(0, 1.0 - 1e-12, 2e9, 3.0)
        above = obj.core_terms(0, 1.0 + 1e-12, 2e9, 3.0)
        assert below[0] == pytest.approx(above[0], rel=1e-6)
        assert below[1] == pytest.approx(above[1], rel=1e-6)


class TestModes:
    def test_global_mode_is_ips_alpha_over_power(self):
        obj = make_objective(m=2, n=2, mode="global", alpha=2.0)
        alloc = Allocation.from_mapping([0, 1], n_cores=2)
        value = obj.evaluate(alloc)
        # recompute by hand
        terms = []
        for core in range(2):
            t = alloc.threads_on(core)[0]
            u = obj.utilization[t, core]
            terms.append(
                obj.core_terms(
                    core, u, u * obj.ips[t, core], u * obj.power[t, core]
                )
            )
        ips = sum(x[0] for x in terms)
        pwr = sum(x[1] for x in terms)
        assert value == pytest.approx(ips ** 2 / pwr)

    def test_per_core_sum_mode_matches_eq11(self):
        obj = make_objective(m=2, n=2, mode="per_core_sum")
        alloc = Allocation.from_mapping([0, 1], n_cores=2)
        value = obj.evaluate(alloc)
        total = 0.0
        for core in range(2):
            t = alloc.threads_on(core)[0]
            u = obj.utilization[t, core]
            ips, pwr = obj.core_terms(
                core, u, u * obj.ips[t, core], u * obj.power[t, core]
            )
            total += ips / pwr
        assert value == pytest.approx(total)

    def test_weights_scale_core_contributions(self):
        base = make_objective(m=2, n=2, mode="per_core_sum", seed=3)
        weighted = EnergyEfficiencyObjective(
            ips=base.ips, power=base.power, utilization=base.utilization,
            idle_power=base.idle_power, sleep_power=base.sleep_power,
            weights=[2.0, 0.0], mode="per_core_sum",
        )
        alloc = Allocation.from_mapping([0, 1], n_cores=2)
        # zero weight on core 1 removes its term entirely
        assert weighted.evaluate(alloc) != base.evaluate(alloc)


class TestIncrementalEvaluator:
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=2 ** 31),
        st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
                 min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_incremental_matches_full_evaluation(self, m, n, seed, swaps):
        """Property: after any swap sequence the incrementally-tracked
        value equals a from-scratch evaluation."""
        for mode in ("global", "per_core_sum"):
            obj = make_objective(m=m, n=n, mode=mode, seed=seed)
            alloc = Allocation.round_robin(m, n)
            evaluator = IncrementalEvaluator(obj, alloc)
            total = len(alloc)
            for a, b in swaps:
                evaluator.apply_swap(a % total, b % total)
            assert evaluator.value == pytest.approx(
                obj.evaluate(alloc), rel=1e-9, abs=1e-12
            )

    def test_initial_value_matches_full(self):
        obj = make_objective(m=5, n=3)
        alloc = Allocation.round_robin(5, 3)
        evaluator = IncrementalEvaluator(obj, alloc)
        assert evaluator.value == pytest.approx(obj.evaluate(alloc))

    def test_revert_restores_value(self):
        obj = make_objective(m=5, n=3)
        alloc = Allocation.round_robin(5, 3)
        evaluator = IncrementalEvaluator(obj, alloc)
        before = evaluator.value
        evaluator.apply_swap(1, 7)
        evaluator.apply_swap(1, 7)
        assert evaluator.value == pytest.approx(before, rel=1e-12)

    def test_intra_core_swap_keeps_value(self):
        obj = make_objective(m=4, n=2)
        alloc = Allocation.round_robin(4, 2)
        evaluator = IncrementalEvaluator(obj, alloc)
        before = evaluator.value
        evaluator.apply_swap(0, 1)  # both slots on core 0
        assert evaluator.value == before

    @pytest.mark.parametrize("pair", [(0, 8), (8, 0), (-1, 0), (0, -1)])
    def test_out_of_range_slot_raises_without_moving(self, pair):
        obj = make_objective(m=4, n=2)
        alloc = Allocation.round_robin(4, 2)
        evaluator = IncrementalEvaluator(obj, alloc)
        before, slots = evaluator.value, list(alloc.slots)
        with pytest.raises(IndexError):
            evaluator.apply_swap(*pair)
        assert alloc.slots == slots
        assert evaluator.value == before


class TestEvaluateMapping:
    def test_matches_allocation_evaluate(self):
        obj = make_objective(m=4, n=3)
        mapping = [0, 2, 1, 2]
        alloc = Allocation.from_mapping(mapping, n_cores=3)
        assert obj.evaluate_mapping(mapping) == pytest.approx(obj.evaluate(alloc))
