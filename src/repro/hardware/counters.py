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
executes for a time slice.  The engine keeps every bank as a row of
those arrays, and the sensing read works on rows too: it adds noise to
them, a fault plan corrupts them as lists (:func:`apply_overflow`,
:func:`apply_saturation`), and a view carries only the rates derived
from them.  Derived rates (miss rates, instruction shares) are
computed by :func:`derived_rates`, one vectorised formula over a
counter matrix, exactly as the paper defines them;
:meth:`CounterBlock.derive_rates` applies it to one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from repro.hardware.features import CoreType
from repro.hardware.microarch import PerfEstimate


@dataclass
class CounterBlock:
    """One set of accumulating hardware counters.

    All values are event *counts* since the start of the sensing
    window (the epoch boundary, in SmartBalance's usage).  The kernel
    engine charges one time slice into a block on its scalar path, and
    synthetic views charge one to derive a thread's rates; no view
    carries a block.
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

    def derive_rates(self) -> "DerivedRates":
        """Compute the paper's derived per-epoch rates from raw counts."""
        row = np.array([counter_row(self)])
        return DerivedRates(*derived_rates(row)[0].tolist())


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
#: Column of ``busy_time_s`` in a counter row, after the registers.
BUSY_COLUMN = len(COUNT_FIELDS)
#: A block's counter row: its field values in field order, as a tuple.
counter_row = attrgetter(*COUNT_FIELDS, "busy_time_s")


def apply_overflow(row: "list[float]", bits: int) -> int:
    """Wrap every register of a counter row modulo ``2**bits``, in place.

    Models a counter register narrower than the epoch's event count —
    the classic unserviced-overflow failure of real PMUs.  ``row`` is a
    counter row as a list; its busy time is left alone.  Returns the
    number of registers that actually wrapped.
    """
    if bits < 1:
        raise ValueError(f"bits must be positive, got {bits}")
    modulus = float(2**bits)
    wrapped = 0
    for column in range(BUSY_COLUMN):
        if row[column] >= modulus:
            row[column] %= modulus
            wrapped += 1
    return wrapped


def apply_saturation(row: "list[float]", ceiling: float) -> int:
    """Clamp every register of a counter row at ``ceiling``, in place.

    Models saturating counters that stick at full scale instead of
    wrapping.  Returns the number of registers clamped.
    """
    if ceiling <= 0:
        raise ValueError(f"ceiling must be positive, got {ceiling}")
    clamped = 0
    for column in range(BUSY_COLUMN):
        if row[column] > ceiling:
            row[column] = ceiling
            clamped += 1
    return clamped


class DerivedRates(NamedTuple):
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


#: ``derived_rates`` columns (:class:`DerivedRates` field order) as
#: (numerator, denominator) columns of a counter row extended by the
#: active-cycle count ``cy_busy + cy_idle``.
_ACTIVE = BUSY_COLUMN + 1
_RATE_NUM = (3, 4, 5, 6, 7, 8, 9, 10, 1, 3)
_RATE_DEN = (_ACTIVE, 3, 3, 5, 3, 4, 3, 4, _ACTIVE, BUSY_COLUMN)


def derived_rates(counts: np.ndarray) -> np.ndarray:
    """The paper's derived rates of every row of a counter matrix.

    ``counts`` is ``(n, 12)`` in :class:`CounterBlock` field order; the
    result is ``(n, 10)`` in :class:`DerivedRates` field order.  Each
    rate is one float division, and reads 0 where its denominator is
    not positive.  Like a Python float division, an overflow reads
    ``inf`` without a warning.
    """
    active = counts[:, 0] + counts[:, 1]
    extended = np.column_stack((counts, active))
    num = extended[:, _RATE_NUM]
    den = extended[:, _RATE_DEN]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.divide(num, den, out=np.zeros_like(num), where=den > 0)
