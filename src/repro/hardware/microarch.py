"""Analytical micro-architecture performance model.

Replaces the Gem5 cycle-accurate cores of the paper's platform with an
interval-style model: the steady-state CPI of a thread on a core is the
base CPI the out-of-order engine achieves on the instruction stream,
plus stall CPI contributed by branch mispredictions and cache/TLB
misses, attenuated by the memory-level parallelism a wider window can
extract.

The model's job is not cycle accuracy — SmartBalance only consumes
per-epoch averages — but to preserve the *structure* the paper's
predictor exploits:

* wide/windowed cores (Huge) excel on high-ILP, cache-friendly code;
* large working sets collapse IPC on small-cache cores;
* a thread's IPC on one core type correlates (nonlinearly, through the
  shared workload features) with its IPC on every other core type.

Constants are calibrated so the Table 2 core types land near the
paper's reported peak throughput (4.18 / 2.60 / 1.31 / 0.91 IPC for
Huge / Big / Medium / Small); the calibration is asserted by the test
suite and regenerated by the ``table2`` experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.hardware import cache
from repro.hardware.features import CoreType
from repro.workload.characteristics import PEAK_PHASE, WorkloadPhase

#: Warm-up fractions are quantised to this many levels so estimates can
#: be memoised: the simulator calls the model with slowly-decaying
#: warm-up values, and a 1/16 quantisation changes IPC by well under
#: the sensor noise floor while making repeated evaluation O(1).
WARMUP_QUANTISATION = 16

#: SMT contention is quantised like warm-up: the co-runner pressure a
#: hardware thread sees (sum of its siblings' memory shares, capped at
#: 1.0) maps to one of these levels before the memoised estimate.
#: Level 0 — no sibling, or SMT disabled — takes the exact pre-SMT
#: code path, so non-SMT runs are bit-identical to before the model
#: existed.
SMT_QUANTISATION = 16
#: Peak multiplicative inflation of data-side miss rates under full
#: SMT contention: siblings share L1D/L2 capacity, so a memory-hungry
#: co-runner evicts the thread's working set.
SMT_MISS_INFLATION = 1.5
#: Peak divisor applied to the stall-free IPC under full contention:
#: fetch/issue bandwidth and ROB entries are partitioned between the
#: hardware threads.
SMT_ISSUE_PENALTY = 0.35

#: L2 hit latency (cycles) charged to an L1 miss; the platform uses
#: private L2s on a shared bus, folded into one average penalty.
L1_MISS_PENALTY_CYCLES = 24.0
#: TLB fill latency (cycles); software-walked, as on Alpha.
TLB_MISS_PENALTY_CYCLES = 40.0
#: Pipeline-refill penalty per mispredicted branch scales with the
#: front-end depth, which in turn tracks issue width.
BRANCH_PENALTY_BASE_CYCLES = 8.0
BRANCH_PENALTY_PER_WIDTH = 1.5
#: Window half-saturation constant: how many ROB entries are needed to
#: expose each unit of intrinsic ILP.
WINDOW_ILP_COST = 18.0
#: Fraction of the nominal issue width sustainable on real code.
ISSUE_EFFICIENCY = 0.53
#: Exponent of the MLP overlap factor: wider cores hide a larger share
#: of memory stall cycles.
MLP_EXPONENT = 0.5


@dataclass(frozen=True)
class PerfEstimate:
    """Steady-state performance of one phase on one core.

    Carries both the headline IPC and the per-event rates needed to
    drive the performance counters of :mod:`repro.hardware.counters`.
    Rates are per committed instruction except ``branch_miss_rate``
    (per branch) and the cache/TLB rates (per relevant access), which
    match how the paper's counters are ratioed in Section 4.1.
    """

    ipc: float
    base_cpi: float
    stall_cpi: float
    dcache_miss_rate: float
    icache_miss_rate: float
    dtlb_miss_rate: float
    itlb_miss_rate: float
    branch_miss_rate: float

    @property
    def cpi(self) -> float:
        """Total cycles per instruction."""
        return self.base_cpi + self.stall_cpi

    def ips(self, core: CoreType) -> float:
        """Throughput in instructions per second on ``core``."""
        return self.ipc * core.freq_hz


def effective_window(core: CoreType) -> float:
    """Effective out-of-order window size of a core.

    The smallest of the structures that bound the in-flight window:
    the ROB, twice the issue queue (the IQ drains), and the physical
    registers beyond the architectural set.
    """
    regs_window = max(core.num_regs - 32, 8)
    return float(min(core.rob_size, 2 * core.iq_size, regs_window))


def mlp_overlap(core: CoreType) -> float:
    """Memory-level-parallelism overlap factor (>= 1).

    Divides memory stall cycles: a wider, deeper core overlaps multiple
    outstanding misses.  Bounded by the load-queue size.
    """
    width_factor = core.issue_width ** MLP_EXPONENT
    lq_factor = math.sqrt(core.lq_size / 8.0)
    return max(1.0, min(width_factor, lq_factor) + 0.5 * abs(width_factor - lq_factor))


def base_ipc(phase: WorkloadPhase, core: CoreType) -> float:
    """Stall-free IPC: intrinsic ILP filtered by window and issue width."""
    window = effective_window(core)
    ilp_window = phase.ilp * window / (window + WINDOW_ILP_COST * phase.ilp)
    issue_cap = core.issue_width * ISSUE_EFFICIENCY + 0.38
    return min(ilp_window, issue_cap)


def estimate(
    phase: WorkloadPhase,
    core: CoreType,
    warmup_fraction: float = 0.0,
    smt_contention: float = 0.0,
) -> PerfEstimate:
    """Estimate steady-state performance of ``phase`` on ``core``.

    ``warmup_fraction`` (0.0 = warm, 1.0 = caches fully cold) inflates
    cache and TLB miss rates per :func:`repro.hardware.cache.warmup_inflation`,
    modelling the aftermath of a thread migration.  ``smt_contention``
    (0.0 = running alone) is the co-runner pressure on an SMT core —
    the sibling hardware threads' summed memory share, capped at 1.0 —
    and degrades the estimate via shared-cache and shared-pipeline
    terms.  Results are memoised with both fractions quantised to
    ``1/WARMUP_QUANTISATION`` (respectively ``1/SMT_QUANTISATION``)
    steps.
    """
    quantised = round(
        min(max(warmup_fraction, 0.0), 1.0) * WARMUP_QUANTISATION
    )
    smt_level = round(
        min(max(smt_contention, 0.0), 1.0) * SMT_QUANTISATION
    )
    return _estimate_cached(phase, core, quantised, smt_level)


@lru_cache(maxsize=65536)
def _estimate_cached(
    phase: WorkloadPhase, core: CoreType, warmup_level: int, smt_level: int = 0
) -> PerfEstimate:
    warmup_fraction = warmup_level / WARMUP_QUANTISATION
    inflation = cache.warmup_inflation(warmup_fraction)
    mr_d = min(1.0, cache.dcache_miss_rate(phase, core) * inflation)
    mr_i = min(1.0, cache.icache_miss_rate(phase, core) * inflation)
    mr_dtlb = min(1.0, cache.dtlb_miss_rate(phase, core) * inflation)
    mr_itlb = min(1.0, cache.itlb_miss_rate(phase, core) * inflation)
    mr_b = cache.branch_miss_rate(phase, core)

    ipc_base = base_ipc(phase, core)

    if smt_level > 0:
        # Characteristics-driven SMT interference: a memory-hungry
        # sibling both shrinks the thread's effective cache (miss-rate
        # inflation on the data side) and competes for issue slots.
        # Guarded so level 0 reproduces the pre-SMT floats exactly.
        smt_fraction = smt_level / SMT_QUANTISATION
        smt_inflation = 1.0 + SMT_MISS_INFLATION * smt_fraction
        mr_d = min(1.0, mr_d * smt_inflation)
        mr_dtlb = min(1.0, mr_dtlb * smt_inflation)
        ipc_base = ipc_base / (1.0 + SMT_ISSUE_PENALTY * smt_fraction)

    cpi_base = 1.0 / ipc_base

    overlap = mlp_overlap(core)
    stall_dmem = phase.mem_share * mr_d * L1_MISS_PENALTY_CYCLES / overlap
    stall_imem = mr_i * L1_MISS_PENALTY_CYCLES
    stall_dtlb = phase.mem_share * mr_dtlb * TLB_MISS_PENALTY_CYCLES / overlap
    stall_itlb = mr_itlb * TLB_MISS_PENALTY_CYCLES
    branch_penalty = (
        BRANCH_PENALTY_BASE_CYCLES + BRANCH_PENALTY_PER_WIDTH * core.issue_width
    )
    stall_branch = phase.branch_share * mr_b * branch_penalty
    stall = stall_dmem + stall_imem + stall_dtlb + stall_itlb + stall_branch

    return PerfEstimate(
        ipc=1.0 / (cpi_base + stall),
        base_cpi=cpi_base,
        stall_cpi=stall,
        dcache_miss_rate=mr_d,
        icache_miss_rate=mr_i,
        dtlb_miss_rate=mr_dtlb,
        itlb_miss_rate=mr_itlb,
        branch_miss_rate=mr_b,
    )


@lru_cache(maxsize=None)
def peak_ipc(core: CoreType) -> float:
    """Peak sustainable IPC of a core type (Table 2 'Peak Throughput').

    Memoised per type: ``power.busy_power`` reads it on every call, and
    a run makes a handful of types (OPP variants and throttle clones).
    """
    return estimate(PEAK_PHASE, core).ipc


def peak_ips(core: CoreType) -> float:
    """Peak throughput in instructions per second."""
    return peak_ipc(core) * core.freq_hz
