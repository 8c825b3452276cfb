"""Tests for the fixed-point optimizer primitives (rand, e^-x)."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.fixed_point import (
    ONE_Q16,
    Xorshift32,
    exp_neg,
    exp_neg_q16,
    from_q16,
    to_q16,
)


class TestQ16Conversion:
    def test_roundtrip_exact_for_representable(self):
        assert from_q16(to_q16(0.5)) == 0.5
        assert from_q16(ONE_Q16) == 1.0

    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_roundtrip_error_bounded(self, x):
        assert abs(from_q16(to_q16(x)) - x) <= 0.5 / ONE_Q16 + 1e-12


class TestXorshift32:
    def test_deterministic(self):
        a = Xorshift32(seed=123)
        b = Xorshift32(seed=123)
        assert [a.randi() for _ in range(10)] == [b.randi() for _ in range(10)]

    def test_zero_seed_remapped(self):
        rng = Xorshift32(seed=0)
        assert rng.state != 0
        assert rng.randi() != 0

    def test_range_is_32bit(self):
        rng = Xorshift32(seed=7)
        for _ in range(1000):
            value = rng.randi()
            assert 0 <= value < 2 ** 32

    def test_randi_range_bounds(self):
        rng = Xorshift32(seed=9)
        for _ in range(1000):
            value = rng.randi_range(5, 17)
            assert 5 <= value < 17

    def test_randi_range_negative_low(self):
        rng = Xorshift32(seed=11)
        values = [rng.randi_range(-10, 10) for _ in range(2000)]
        assert min(values) < 0 < max(values)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            Xorshift32().randi_range(5, 5)

    def test_roughly_uniform(self):
        rng = Xorshift32(seed=13)
        buckets = [0] * 8
        for _ in range(8000):
            buckets[rng.randi_range(0, 8)] += 1
        for count in buckets:
            assert 800 <= count <= 1200

    def test_full_period_no_short_cycle(self):
        rng = Xorshift32(seed=42)
        start = rng.state
        for _ in range(10000):
            rng.randi()
            assert rng.state != start or False  # no cycle in 10k draws


class TestRandiBlock:
    """``randi_block(n)`` is ``n`` successive ``randi()`` calls: the same
    values, as Python ints, and the same state afterwards."""

    @pytest.mark.parametrize("n", [0, 1, 2, 511, 512, 513, 5000])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 0x5EED5EED])
    def test_equals_successive_randi(self, seed, n):
        block, scalar = Xorshift32(seed), Xorshift32(seed)
        values = block.randi_block(n)
        assert values == [scalar.randi() for _ in range(n)]
        assert all(type(value) is int for value in values)
        assert block.state == scalar.state

    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(
            st.tuples(st.integers(0, 1100), st.integers(0, 3)), max_size=6
        ),
    )
    def test_blocks_interleaved_with_scalar_calls(self, seed, steps):
        block, scalar = Xorshift32(seed), Xorshift32(seed)
        for n, singles in steps:
            assert block.randi_block(n) == [scalar.randi() for _ in range(n)]
            for _ in range(singles):
                assert block.randi() == scalar.randi()
            assert block.state == scalar.state

    @pytest.mark.parametrize("n", [0, 1, 300, 512, 1025])
    def test_array_form(self, n):
        """``randi_array(n)`` is the same draws as a ``uint32`` array,
        with the same state afterwards."""
        array, scalar = Xorshift32(7), Xorshift32(7)
        values = array.randi_array(n)
        assert values.dtype == np.uint32 and values.shape == (n,)
        assert values.tolist() == [scalar.randi() for _ in range(n)]
        assert type(array.state) is int and array.state == scalar.state


class TestExpNeg:
    def test_exact_at_zero(self):
        assert exp_neg_q16(0) == ONE_Q16

    @pytest.mark.parametrize("x", [0.0, 0.1, 0.5, 1.0, 2.0, 3.5, 5.0, 8.0, 10.0])
    def test_absolute_error_bound(self, x):
        assert abs(exp_neg(x) - math.exp(-x)) < 0.004

    @given(st.floats(min_value=0.0, max_value=11.0))
    def test_error_bound_property(self, x):
        assert abs(exp_neg(x) - math.exp(-x)) < 0.004

    @given(st.floats(min_value=0.0, max_value=10.0), st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_decreasing(self, x, dx):
        assert exp_neg_q16(to_q16(x + dx)) <= exp_neg_q16(to_q16(x))

    def test_underflow_to_zero(self):
        assert exp_neg(11.5) == 0.0
        assert exp_neg_q16(to_q16(50.0)) == 0.0

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            exp_neg(-1.0)
        with pytest.raises(ValueError):
            exp_neg_q16(-1)

    def test_output_in_unit_interval(self):
        for i in range(0, 12 * ONE_Q16, ONE_Q16 // 7):
            value = exp_neg_q16(i)
            assert 0 <= value <= ONE_Q16
