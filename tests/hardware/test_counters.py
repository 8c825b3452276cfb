"""Tests for the hardware performance counters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_sensing import derive_rates, snapshot
from repro.hardware import microarch
from repro.hardware.counters import CounterBlock, DerivedRates, derived_rates
from repro.hardware.features import BIG, MEDIUM
from repro.workload.characteristics import COMPUTE_PHASE, MEMORY_PHASE


def charged_block(phase=COMPUTE_PHASE, core=BIG, duration=0.01) -> CounterBlock:
    block = CounterBlock()
    perf = microarch.estimate(phase, core)
    block.charge_execution(perf, core, duration, phase.mem_share, phase.branch_share)
    return block


class TestChargeExecution:
    def test_returns_committed_instructions(self):
        block = CounterBlock()
        perf = microarch.estimate(COMPUTE_PHASE, BIG)
        retired = block.charge_execution(
            perf, BIG, 0.01, COMPUTE_PHASE.mem_share, COMPUTE_PHASE.branch_share
        )
        assert retired == pytest.approx(perf.ipc * BIG.freq_hz * 0.01)
        assert block.instructions == pytest.approx(retired)

    def test_cycles_conserved(self):
        """busy + idle == wall cycles of the slice."""
        block = charged_block(duration=0.02)
        assert block.cy_busy + block.cy_idle == pytest.approx(0.02 * BIG.freq_hz)

    def test_instruction_mix_shares(self):
        block = charged_block()
        assert block.mem_instructions / block.instructions == pytest.approx(
            COMPUTE_PHASE.mem_share
        )
        assert block.branch_instructions / block.instructions == pytest.approx(
            COMPUTE_PHASE.branch_share
        )

    def test_event_counts_match_rates(self):
        block = CounterBlock()
        perf = microarch.estimate(MEMORY_PHASE, MEDIUM)
        block.charge_execution(
            perf, MEDIUM, 0.01, MEMORY_PHASE.mem_share, MEMORY_PHASE.branch_share
        )
        assert block.l1d_misses == pytest.approx(
            block.mem_instructions * perf.dcache_miss_rate
        )
        assert block.branch_mispredicts == pytest.approx(
            block.branch_instructions * perf.branch_miss_rate
        )

    def test_accumulates_across_slices(self):
        block = CounterBlock()
        perf = microarch.estimate(COMPUTE_PHASE, BIG)
        for _ in range(3):
            block.charge_execution(perf, BIG, 0.005, 0.3, 0.1)
        assert block.busy_time_s == pytest.approx(0.015)

    def test_negative_duration_rejected(self):
        block = CounterBlock()
        perf = microarch.estimate(COMPUTE_PHASE, BIG)
        with pytest.raises(ValueError):
            block.charge_execution(perf, BIG, -1.0, 0.3, 0.1)


class TestSleepAndReset:
    def test_snapshot_is_independent(self):
        """The sensing oracle's copy of a bank shares no state with it."""
        block = charged_block()
        snap = snapshot(block)
        block.instructions = 0.0
        assert snap.instructions > 0.0


class TestDerivedRates:
    def test_roundtrip_rates(self):
        """derive_rates must invert charge_execution's event rates."""
        phase, core = MEMORY_PHASE, MEDIUM
        block = CounterBlock()
        perf = microarch.estimate(phase, core)
        block.charge_execution(perf, core, 0.05, phase.mem_share, phase.branch_share)
        rates = block.derive_rates()
        assert rates.ipc == pytest.approx(perf.ipc, rel=1e-9)
        assert rates.mem_share == pytest.approx(phase.mem_share)
        assert rates.branch_share == pytest.approx(phase.branch_share)
        assert rates.l1d_miss_rate == pytest.approx(perf.dcache_miss_rate)
        assert rates.l1i_miss_rate == pytest.approx(perf.icache_miss_rate)
        assert rates.branch_miss_rate == pytest.approx(perf.branch_miss_rate)
        assert rates.dtlb_miss_rate == pytest.approx(perf.dtlb_miss_rate)
        assert rates.itlb_miss_rate == pytest.approx(perf.itlb_miss_rate)

    def test_stall_fraction_matches_model(self):
        phase, core = MEMORY_PHASE, MEDIUM
        block = CounterBlock()
        perf = microarch.estimate(phase, core)
        block.charge_execution(perf, core, 0.05, phase.mem_share, phase.branch_share)
        rates = block.derive_rates()
        assert rates.stall_fraction == pytest.approx(perf.stall_cpi / perf.cpi)

    def test_ips_is_instructions_per_busy_second(self):
        block = charged_block(duration=0.02)
        rates = block.derive_rates()
        assert rates.ips == pytest.approx(block.instructions / 0.02)

    def test_empty_block_rates_are_zero(self):
        rates = CounterBlock().derive_rates()
        assert rates.ipc == 0.0
        assert rates.ips == 0.0

    @given(
        rows=st.lists(
            st.lists(
                st.sampled_from([0.0, 1.0, 3.5e-3, 2.0e7])
                | st.floats(min_value=0.0, max_value=1e12),
                min_size=12,
                max_size=12,
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=100)
    def test_batch_matches_scalar_oracle(self, rows):
        """One vectorised formula, bit-identical to one ratio at a time,
        zero denominators included."""
        batch = derived_rates(np.array(rows)).tolist()
        assert [DerivedRates(*r) for r in batch] == [
            derive_rates(CounterBlock(*row)) for row in rows
        ]

