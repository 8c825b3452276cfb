"""Sense phase: the plausibility check on each thread's measurement.

Section 4.1/4.2.1 of the paper: per-thread counters sampled at context
switches are aggregated over the epoch, giving each thread's measured
throughput ``ips_ij = Σ I / Σ τ`` (Eq. 4) and power ``p_ij = Σ ε / Σ τ``
(Eq. 5) *on the core it actually ran on*.  The kernel's
:class:`~repro.kernel.view.TaskView` already carries both
(``rates.ips`` and ``power_w``) together with the counter-derived
characterisation rates the predictor consumes; this module decides
whether such a measurement is physically plausible.

Threads with no execution time in the window (e.g. just-arrived) carry
``has_measurement=False`` and are passed through to the balance phase
with utilisation only.
"""

from __future__ import annotations

import math

from repro.kernel.view import TaskView

#: No core retires more instructions per cycle than this generous
#: multiple of its issue width.
MAX_IPC = 16.0
#: A running thread draws neither zero nor data-centre-rack power (W).
MIN_POWER_W = 1e-3
MAX_POWER_W = 64.0
#: Allowed relative deviation of the observed cycles per busy second
#: (``ips / ipc``) from the core clock (catches counter wrap).
CLOCK_IDENTITY_TOLERANCE = 0.5


def observation_fault(task: TaskView) -> "str | None":
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
    ipc, *ratio_fields, ips = task.rates  # DerivedRates field order
    power_w = task.power_w
    if not all(
        map(math.isfinite, (ips, ipc, power_w, task.utilization, *ratio_fields))
    ):
        return "non-finite reading"
    if ipc <= 0 or ipc > MAX_IPC:
        return "impossible IPC"
    if power_w < MIN_POWER_W or power_w > MAX_POWER_W:
        return "implausible power"
    if ips <= 0:
        return "non-positive throughput"
    for ratio in ratio_fields:
        if ratio < 0 or ratio > 1:
            return "rate outside [0, 1]"
    implied_clock_hz = ips / ipc
    nominal_hz = task.core_type.freq_hz
    if nominal_hz > 0:
        deviation = abs(implied_clock_hz - nominal_hz) / nominal_hz
        if deviation > CLOCK_IDENTITY_TOLERANCE:
            return "cycle/clock identity violated"
    return None
