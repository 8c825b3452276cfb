"""Tests for the noisy sensing interface."""

import random
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import microarch
from repro.hardware.counters import COUNT_FIELDS, CounterBlock
from repro.hardware.features import BIG
from repro.hardware.sensors import (
    IDEAL_NOISE,
    NoiseModel,
    SensingInterface,
    gauss_batch,
)
from repro.workload.characteristics import COMPUTE_PHASE


def charged_block() -> CounterBlock:
    block = CounterBlock()
    perf = microarch.estimate(COMPUTE_PHASE, BIG)
    block.charge_execution(perf, BIG, 0.01, 0.3, 0.1)
    return block


NO_BANKS = np.empty((0, len(COUNT_FIELDS) + 1))


def read_task(sensing, block, power_w=0.0):
    """Read one task bank and its power through the batched read."""
    counts, power, _, _ = sensing.read(
        np.array([astuple(block)]), np.array([power_w]), NO_BANKS, np.empty(0)
    )
    return CounterBlock(*counts[0].tolist()), power[0]


class TestNoiseModel:
    def test_zero_sigma_is_identity(self):
        rng = random.Random(0)
        assert IDEAL_NOISE.apply(42.0, rng) == 42.0

    def test_zero_value_stays_zero(self):
        rng = random.Random(0)
        assert NoiseModel(sigma=0.5).apply(0.0, rng) == 0.0

    def test_noise_bounded_by_clip(self):
        model = NoiseModel(sigma=0.5, clip=0.2)
        rng = random.Random(1)
        for _ in range(500):
            reading = model.apply(100.0, rng)
            assert 80.0 <= reading <= 120.0

    def test_noise_unbiased(self):
        model = NoiseModel(sigma=0.05)
        rng = random.Random(2)
        readings = [model.apply(100.0, rng) for _ in range(4000)]
        assert sum(readings) / len(readings) == pytest.approx(100.0, rel=0.01)

    def test_invalid_sigma_rejected(self):
        for sigma in (-0.1, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                NoiseModel(sigma=sigma)

    def test_invalid_clip_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(clip=1.5)


class TestSensingInterface:
    def test_deterministic_for_seed(self):
        block = charged_block()
        a, _ = read_task(SensingInterface(seed=7), block)
        b, _ = read_task(SensingInterface(seed=7), block)
        assert a.instructions == b.instructions
        assert a.l1d_misses == b.l1d_misses

    def test_different_seeds_differ(self):
        block = charged_block()
        a, _ = read_task(SensingInterface(seed=1), block)
        b, _ = read_task(SensingInterface(seed=2), block)
        assert a.instructions != b.instructions

    def test_ideal_sensor_passthrough(self):
        block = charged_block()
        sensing = SensingInterface(
            counter_noise=IDEAL_NOISE, power_noise=IDEAL_NOISE
        )
        noisy, power = read_task(sensing, block, power_w=3.2)
        assert noisy.instructions == block.instructions
        assert power == 3.2

    def test_read_does_not_mutate_source(self):
        counts = np.array([astuple(charged_block())])
        power = np.array([2.0])
        before = counts.copy(), power.copy()
        SensingInterface(seed=3).read(counts, power, counts, power)
        assert np.array_equal(counts, before[0])
        assert np.array_equal(power, before[1])

    def test_busy_time_read_exactly(self):
        """Timing is kernel bookkeeping, not a noisy hardware counter."""
        block = charged_block()
        noisy, _ = read_task(SensingInterface(seed=4), block)
        assert noisy.busy_time_s == block.busy_time_s

    def test_power_reading_non_negative(self):
        sensing = SensingInterface(seed=5)
        for _ in range(100):
            assert read_task(sensing, CounterBlock(), power_w=0.001)[1] >= 0.0

    def test_noise_is_relative(self):
        block = charged_block()
        noisy, _ = read_task(SensingInterface(seed=6), block)
        assert noisy.instructions == pytest.approx(block.instructions, rel=0.3)

    def test_draw_order_and_zero_slots(self):
        """Each task's counters in field order then its power; then each
        core's power then its counters.  A zero slot takes no draw."""
        counter, power = NoiseModel(sigma=0.1, clip=0.5), NoiseModel(sigma=0.2)
        task = charged_block()
        task.cy_sleep = 0.0
        core = charged_block()
        core.itlb_misses = 0.0
        sensing = SensingInterface(counter, power, seed=11)
        t_counts, t_power, c_counts, c_power = sensing.read(
            np.array([astuple(task)]),
            np.array([1.5]),
            np.array([astuple(core)]),
            np.array([0.0]),
        )
        rng = random.Random(11)

        def factor(model):
            return min(max(rng.gauss(1.0, model.sigma), 1 - model.clip), 1 + model.clip)

        expected_task = [v and v * factor(counter) for v in astuple(task)[:11]]
        expected_power = 1.5 * factor(power)
        expected_core = [v and v * factor(counter) for v in astuple(core)[:11]]
        assert t_power[0] == expected_power
        assert c_power[0] == 0.0
        # Registers outside the cycle triple are not rescaled.
        assert t_counts[0, 3:11].tolist() == expected_task[3:]
        assert c_counts[0, 3:11].tolist() == expected_core[3:]
        assert sensing._rng.getstate() == rng.getstate()


class TestGaussBatch:
    """``gauss_batch`` against ``Random.gauss`` on the running
    interpreter: the same floats, bit for bit, and the same RNG state,
    ``gauss_next`` included, after every batch."""

    @staticmethod
    def assert_same(batch, scalar):
        assert np.asarray(batch).tobytes() == np.asarray(scalar).tobytes()

    @staticmethod
    def sigmas(n, rng):
        """Mixed sigmas: the two default models and arbitrary ones."""
        return np.array([rng.choice((0.015, 0.025, rng.random())) for _ in range(n)])

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 10, 101, 1600])
    def test_matches_scalar_calls(self, n, pending):
        sigma = self.sigmas(n, random.Random(n))
        batched, scalar = random.Random(42), random.Random(42)
        if pending:
            assert batched.gauss(0.0, 1.0) == scalar.gauss(0.0, 1.0)
            assert scalar.gauss_next is not None
        expected = [scalar.gauss(1.0, s) for s in sigma.tolist()]
        self.assert_same(gauss_batch(batched, sigma), expected)
        assert batched.getstate() == scalar.getstate()

    def test_empty_batch_keeps_pending_value(self):
        rng = random.Random(1)
        rng.gauss(0.0, 1.0)
        before = rng.getstate()
        assert len(gauss_batch(rng, np.empty(0))) == 0
        assert rng.getstate() == before
        assert rng.gauss_next is not None

    def test_interleaved_with_scalar_calls(self):
        """Batches of every parity between scalar gauss calls: the
        pending sine passes both ways."""
        plan = random.Random(5)
        batched, scalar = random.Random(9), random.Random(9)
        for _ in range(300):
            if plan.random() < 0.3:
                assert batched.gauss(1.0, 0.5) == scalar.gauss(1.0, 0.5)
            else:
                sigma = self.sigmas(plan.randrange(12), plan)
                expected = [scalar.gauss(1.0, s) for s in sigma.tolist()]
                self.assert_same(gauss_batch(batched, sigma), expected)
            assert batched.getstate() == scalar.getstate()


# ----------------------------------------------------------------------
# Property tests (hypothesis)
# ----------------------------------------------------------------------

#: Registers the cycle-total repair leaves alone.
EVENT_REGISTERS = slice(3, len(COUNT_FIELDS))


def read_flat(value, model, seed):
    """Every register of one task bank and its power hold ``value``;
    returns the noisy event registers and the power reading."""
    block = CounterBlock(*([value] * len(COUNT_FIELDS)), busy_time_s=0.01)
    sensing = SensingInterface(counter_noise=model, power_noise=model, seed=seed)
    noisy, power = read_task(sensing, block, power_w=value)
    return list(astuple(noisy)[EVENT_REGISTERS]) + [power]


class TestGaussBatchProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        warm=st.integers(min_value=0, max_value=3),
        sizes=st.lists(st.integers(min_value=0, max_value=40), max_size=6),
        sigma=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=200)
    def test_batches_equal_scalar_calls(self, seed, warm, sizes, sigma):
        batched, scalar = random.Random(seed), random.Random(seed)
        for _ in range(warm):
            assert batched.gauss(0.0, 1.0) == scalar.gauss(0.0, 1.0)
        for size in sizes:
            sigmas = np.full(size, sigma)
            expected = [scalar.gauss(1.0, sigma) for _ in range(size)]
            got = gauss_batch(batched, sigmas)
            assert got.tobytes() == np.array(expected, dtype=float).tobytes()
            assert batched.getstate() == scalar.getstate()


class TestNoiseModelProperties:
    @given(
        value=st.floats(min_value=0.0, max_value=1e12),
        sigma=st.floats(min_value=0.0, max_value=2.0),
        clip=st.floats(min_value=0.01, max_value=0.99),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=200)
    def test_reading_bounded_by_clip(self, value, sigma, clip, seed):
        model = NoiseModel(sigma=sigma, clip=clip)
        for reading in read_flat(value, model, seed):
            assert (1.0 - clip) * value <= reading <= (1.0 + clip) * value

    @given(
        value=st.floats(min_value=0.0, max_value=1e12),
        sigma=st.floats(min_value=0.0, max_value=2.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=200)
    def test_reading_never_negative(self, value, sigma, seed):
        for reading in read_flat(value, NoiseModel(sigma=sigma), seed):
            assert reading >= 0.0

    @given(
        value=st.floats(min_value=0.0, max_value=1e12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100)
    def test_zero_sigma_is_exact_passthrough(self, value, seed):
        readings = read_flat(value, NoiseModel(sigma=0.0), seed)
        assert readings == [value] * len(readings)


class TestCycleIdentityRepair:
    @given(
        busy_s=st.floats(min_value=1e-4, max_value=0.06),
        sigma=st.floats(min_value=0.0, max_value=0.3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100)
    def test_cycle_counters_preserve_total(self, busy_s, sigma, seed):
        """Independent noise draws must not mint or destroy cycles:
        the read-out rescales the three cycle counters so their sum
        matches the true total, keeping derived utilisation in [0, 1]."""
        block = CounterBlock()
        perf = microarch.estimate(COMPUTE_PHASE, BIG)
        block.charge_execution(perf, BIG, busy_s, 0.3, 0.1)
        block.cy_idle = 0.25 * block.cy_busy
        block.cy_sleep = 0.10 * block.cy_busy
        sensing = SensingInterface(
            counter_noise=NoiseModel(sigma=sigma), seed=seed
        )
        rows = np.array([astuple(block)] * 2)
        task_counts, _, core_counts, _ = sensing.read(
            rows[:1], np.zeros(1), rows[1:], np.zeros(1)
        )
        true_total = block.cy_busy + block.cy_idle + block.cy_sleep
        for noisy in (task_counts[0], core_counts[0]):
            noisy_total = noisy[0] + noisy[1] + noisy[2]
            assert noisy_total == pytest.approx(true_total, rel=1e-9)
            share = noisy[0] / noisy_total
            assert 0.0 <= share <= 1.0
