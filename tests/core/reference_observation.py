"""Reference copy of the sense phase's plausibility check, for
differential tests.

This is :func:`repro.core.sensing.observation_fault` as it was when it
read each record field by attribute.  It reads a view's task through
``sensed_tasks.SensedTask``, the record with its PMU readings.
``test_observation_fault.py`` requires the columnar check in
``repro.core.sensing`` to return the same reason as this copy on every
planted corruption.

Keep it as it is: it is the specification, not code to optimise.
"""

from __future__ import annotations

import math

from repro.core.sensing import (
    CLOCK_IDENTITY_TOLERANCE,
    MAX_IPC,
    MAX_POWER_W,
    MIN_POWER_W,
)
from sensed_tasks import SensedTask


def observation_fault(task: SensedTask) -> "str | None":
    """Sanity-check one measured task view; returns the fault reason
    or ``None`` when the sample is physically plausible.

    The checks encode invariants no healthy sensor can violate:

    * every reading is finite;
    * IPC lies in ``(0, MAX_IPC]``;
    * per-thread power lies in ``[MIN_POWER_W, MAX_POWER_W]``;
    * every derived rate is a ratio of event counts and must lie in
      [0, 1] — a memory-instruction share of 15 can only mean a
      corrupted numerator;
    * the cycle/clock identity holds: a thread's non-sleep cycles per
      second of its own busy time must match the core clock
      (``ips / ipc ~= f``), which catches counter overflow wrap — a
      wrapped instruction or cycle count breaks the ratio even though
      each value alone still looks plausible.
    """
    rates = task.rates
    ratio_fields = (
        rates.mem_share,
        rates.branch_share,
        rates.branch_miss_rate,
        rates.l1i_miss_rate,
        rates.l1d_miss_rate,
        rates.itlb_miss_rate,
        rates.dtlb_miss_rate,
        rates.stall_fraction,
    )
    values = (
        rates.ips,
        rates.ipc,
        task.power_w,
        task.utilization,
    ) + ratio_fields
    if not all(math.isfinite(v) for v in values):
        return "non-finite reading"
    if rates.ipc <= 0 or rates.ipc > MAX_IPC:
        return "impossible IPC"
    if task.power_w < MIN_POWER_W or task.power_w > MAX_POWER_W:
        return "implausible power"
    if rates.ips <= 0:
        return "non-positive throughput"
    if any(r < 0 or r > 1 for r in ratio_fields):
        return "rate outside [0, 1]"
    implied_clock_hz = rates.ips / rates.ipc
    nominal_hz = task.core_type.freq_hz
    if nominal_hz > 0:
        deviation = abs(implied_clock_hz - nominal_hz) / nominal_hz
        if deviation > CLOCK_IDENTITY_TOLERANCE:
            return "cycle/clock identity violated"
    return None
