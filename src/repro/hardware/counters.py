"""Hardware performance counters (paper Section 4.1).

The sensing phase of SmartBalance samples, per thread and per core, the
ten counters the paper enumerates:

* cycle counters — busy (``cyBusy``), idle (``cyIdle``, stalls) and
  sleep (``cySleep``) cycles;
* instruction counters — total, memory (loads+stores) and branch
  instructions committed;
* performance-event counters — branch mispredictions, L1I misses,
  L1D misses, I-TLB misses, D-TLB misses.

:class:`CounterBlock` is one bank of the register file, in the column
order of the kernel engine's per-thread and per-core counter arrays;
events are charged from the micro-architecture model's
:class:`~repro.hardware.microarch.PerfEstimate` whenever a thread
executes for a time slice, and the sensing views carry noisy copies.
Derived rates (miss rates, instruction shares) are computed by
:meth:`CounterBlock.derive_rates` exactly as the paper defines them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.features import CoreType
from repro.hardware.microarch import PerfEstimate


@dataclass
class CounterBlock:
    """One set of accumulating hardware counters.

    All values are event *counts* since the start of the sensing
    window (the epoch boundary, in SmartBalance's usage).
    """

    cy_busy: float = 0.0
    cy_idle: float = 0.0
    cy_sleep: float = 0.0
    instructions: float = 0.0
    mem_instructions: float = 0.0
    branch_instructions: float = 0.0
    branch_mispredicts: float = 0.0
    l1i_misses: float = 0.0
    l1d_misses: float = 0.0
    itlb_misses: float = 0.0
    dtlb_misses: float = 0.0
    #: Accumulated busy wall time (seconds) — the τ of Eqs. 4–5.
    busy_time_s: float = 0.0

    def charge_execution(
        self,
        perf: PerfEstimate,
        core: CoreType,
        duration_s: float,
        mem_share: float,
        branch_share: float,
    ) -> float:
        """Charge ``duration_s`` of execution at ``perf`` on ``core``.

        Returns the number of instructions committed so callers can
        advance thread progress.  Busy cycles are the stall-free
        execution cycles; idle cycles are the stall cycles — matching
        the paper's definition that idle cycles "capture idling time
        due to pipeline stalls or cache misses".
        """
        if duration_s < 0:
            raise ValueError(f"duration must be non-negative, got {duration_s}")
        cycles = duration_s * core.freq_hz
        instructions = perf.ipc * cycles
        busy = instructions * perf.base_cpi
        idle = max(cycles - busy, 0.0)

        mem_instr = instructions * mem_share
        branch_instr = instructions * branch_share

        self.cy_busy += busy
        self.cy_idle += idle
        self.instructions += instructions
        self.mem_instructions += mem_instr
        self.branch_instructions += branch_instr
        self.branch_mispredicts += branch_instr * perf.branch_miss_rate
        self.l1i_misses += instructions * perf.icache_miss_rate
        self.l1d_misses += mem_instr * perf.dcache_miss_rate
        self.itlb_misses += instructions * perf.itlb_miss_rate
        self.dtlb_misses += mem_instr * perf.dtlb_miss_rate
        self.busy_time_s += duration_s
        return instructions

    def snapshot(self) -> "CounterBlock":
        """Return an independent copy of the current counter values."""
        return CounterBlock(
            **{name: getattr(self, name) for name in self.__dataclass_fields__}
        )

    def derive_rates(self) -> "DerivedRates":
        """Compute the paper's derived per-epoch rates from raw counts."""
        instr = self.instructions
        mem = self.mem_instructions
        branch = self.branch_instructions
        active_cycles = self.cy_busy + self.cy_idle

        def ratio(num: float, den: float) -> float:
            return num / den if den > 0 else 0.0

        return DerivedRates(
            ipc=ratio(instr, active_cycles),
            mem_share=ratio(mem, instr),
            branch_share=ratio(branch, instr),
            branch_miss_rate=ratio(self.branch_mispredicts, branch),
            l1i_miss_rate=ratio(self.l1i_misses, instr),
            l1d_miss_rate=ratio(self.l1d_misses, mem),
            itlb_miss_rate=ratio(self.itlb_misses, instr),
            dtlb_miss_rate=ratio(self.dtlb_misses, mem),
            stall_fraction=ratio(self.cy_idle, active_cycles),
            ips=ratio(instr, self.busy_time_s),
        )


#: Count-valued fields of a :class:`CounterBlock` — everything a real
#: counter register holds.  ``busy_time_s`` is kernel bookkeeping, not
#: a hardware register, and is exempt from register-width pathologies.
COUNT_FIELDS = (
    "cy_busy",
    "cy_idle",
    "cy_sleep",
    "instructions",
    "mem_instructions",
    "branch_instructions",
    "branch_mispredicts",
    "l1i_misses",
    "l1d_misses",
    "itlb_misses",
    "dtlb_misses",
)


def apply_overflow(block: CounterBlock, bits: int) -> int:
    """Wrap every count field modulo ``2**bits``, in place.

    Models a counter register narrower than the epoch's event count —
    the classic unserviced-overflow failure of real PMUs.  Returns the
    number of fields that actually wrapped.
    """
    if bits < 1:
        raise ValueError(f"bits must be positive, got {bits}")
    modulus = float(2**bits)
    wrapped = 0
    for name in COUNT_FIELDS:
        value = getattr(block, name)
        if value >= modulus:
            setattr(block, name, value % modulus)
            wrapped += 1
    return wrapped


def apply_saturation(block: CounterBlock, ceiling: float) -> int:
    """Clamp every count field at ``ceiling``, in place.

    Models saturating counters that stick at full scale instead of
    wrapping.  Returns the number of fields clamped.
    """
    if ceiling <= 0:
        raise ValueError(f"ceiling must be positive, got {ceiling}")
    clamped = 0
    for name in COUNT_FIELDS:
        if getattr(block, name) > ceiling:
            setattr(block, name, ceiling)
            clamped += 1
    return clamped


@dataclass(frozen=True)
class DerivedRates:
    """Per-epoch rates derived from a :class:`CounterBlock`.

    ``ipc`` counts only non-sleep cycles; ``ips`` is instructions per
    second of *busy wall time* (the thread's own τ), matching
    ``ips_ij = Σ I / Σ τ`` of Eq. 4.
    """

    ipc: float
    mem_share: float
    branch_share: float
    branch_miss_rate: float
    l1i_miss_rate: float
    l1d_miss_rate: float
    itlb_miss_rate: float
    dtlb_miss_rate: float
    #: Fraction of non-sleep cycles lost to stalls
    #: (``cyIdle / (cyBusy + cyIdle)``).
    stall_fraction: float
    ips: float
