"""Sense phase: one view's user threads in columns, and the
plausibility check on each measurement.

Section 4.1/4.2.1 of the paper: per-thread counters sampled at context
switches are aggregated over the epoch, giving each thread's measured
throughput ``ips_ij = Σ I / Σ τ`` (Eq. 4) and power ``p_ij = Σ ε / Σ τ``
(Eq. 5) *on the core it actually ran on*.  The kernel's
:class:`~repro.kernel.view.SystemView` already carries both, with the
counter-derived characterisation rates the predictor consumes, as its
PMU block (``view.pmu``, columns
:data:`~repro.kernel.view.PMU_COLUMNS`).

:func:`gather_tasks` joins the user threads' PMU rows to four OS
numbers of their records once per decision, into :class:`TaskColumns`;
the plausibility check (:func:`observation_faults`), the predictor
watchdog, the adaptation hooks and the S/P matrix assembly all work on
its columns.

Threads with no execution time or no retired instruction in the window
(e.g. just-arrived) are unmeasured (``TaskColumns.measured``) and sit
the epoch out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress
from operator import attrgetter

import numpy as np

from repro.kernel.view import PMU_COLUMNS, SystemView, TaskView

#: No core retires more instructions per cycle than this generous
#: multiple of its issue width.
MAX_IPC = 16.0
#: A running thread draws neither zero nor data-centre-rack power (W).
MIN_POWER_W = 1e-3
MAX_POWER_W = 64.0
#: Allowed relative deviation of the observed cycles per busy second
#: (``ips / ipc``) from the core clock (catches counter wrap).
CLOCK_IDENTITY_TOLERANCE = 0.5

#: The record fields read after the PMU columns, in column order.
_FIELDS = ("utilization", "core_type.freq_mhz", "busy_time_s", "core_id")
#: Columns of :attr:`TaskColumns.values`: the view's PMU columns (the
#: rates, then the measured power), then the record's utilisation,
#: core-type frequency (MHz), busy time and core id.
COLUMNS = PMU_COLUMNS + tuple(name.rpartition(".")[2] for name in _FIELDS)
IPC = COLUMNS.index("ipc")
IPS = COLUMNS.index("ips")
POWER = COLUMNS.index("power_w")
UTILIZATION = COLUMNS.index("utilization")
FREQ_MHZ = COLUMNS.index("freq_mhz")
BUSY_TIME_S = COLUMNS.index("busy_time_s")
CORE_ID = COLUMNS.index("core_id")

_N_PMU = len(PMU_COLUMNS)
_IS_USER = attrgetter("is_user")
_OTHERS = attrgetter(*_FIELDS)


@dataclass(frozen=True, eq=False)
class TaskColumns:
    """Thread records and their numbers in columns: row ``i`` of each
    array is ``records[i]``."""

    records: "tuple[TaskView, ...]"
    #: ``(k, len(COLUMNS))`` floats; NaN PMU readings when the view
    #: had no PMU part.
    values: np.ndarray
    core_id: np.ndarray
    #: Rows whose thread ran (busy time) and retired instructions
    #: (``ips > 0``) in the window; never a row without PMU readings.
    measured: np.ndarray

    def __len__(self) -> int:
        return len(self.records)

    def take(self, rows: np.ndarray) -> "TaskColumns":
        """The rows at the indices ``rows``, in that order."""
        return TaskColumns(
            tuple(map(self.records.__getitem__, rows.tolist())),
            self.values[rows],
            self.core_id[rows],
            self.measured[rows],
        )


def gather_tasks(view: SystemView) -> TaskColumns:
    """The user threads of ``view`` in columns: their rows of
    ``view.pmu`` (NaN when the view has none), joined to four numbers
    of each record, which one ``np.fromiter`` reads."""
    tasks = view.tasks
    users = list(map(_IS_USER, tasks))
    records = tuple(compress(tasks, users))
    k = len(records)
    pmu = view.pmu
    if pmu is None:
        pmu = np.full((k, _N_PMU), math.nan)
    elif k != len(tasks):
        pmu = pmu[users]
    others = np.fromiter(
        chain.from_iterable(map(_OTHERS, records)),
        dtype=float,
        count=len(_FIELDS) * k,
    ).reshape(k, len(_FIELDS))
    values = np.concatenate((pmu, others), axis=1)
    measured = (values[:, BUSY_TIME_S] > 0) & (values[:, IPS] > 0)
    return TaskColumns(records, values, values[:, CORE_ID].astype(np.intp), measured)


#: The plausibility checks' fault reasons, in check order; the code
#: :data:`PLAUSIBLE` (``None``) means every check passed.
FAULT_REASONS = (
    "non-finite reading",
    "impossible IPC",
    "implausible power",
    "non-positive throughput",
    "rate outside [0, 1]",
    "cycle/clock identity violated",
    None,
)
PLAUSIBLE = FAULT_REASONS.index(None)
_CLOCK = FAULT_REASONS.index("cycle/clock identity violated")

#: Per checked column (the rates, power and utilisation): the range a
#: healthy reading lies in and the fault a reading outside it is.
#: ``x <= 0`` is ``x <`` the smallest positive float.
_CHECKED = UTILIZATION + 1
_TINY = float(np.nextafter(0.0, 1.0))
_LOW = np.zeros(_CHECKED)
_HIGH = np.ones(_CHECKED)
_RANGE_FAULT = np.full(_CHECKED, FAULT_REASONS.index("rate outside [0, 1]"))
_LOW[IPC], _HIGH[IPC] = _TINY, MAX_IPC
_RANGE_FAULT[IPC] = FAULT_REASONS.index("impossible IPC")
_LOW[IPS], _HIGH[IPS] = _TINY, math.inf
_RANGE_FAULT[IPS] = FAULT_REASONS.index("non-positive throughput")
_LOW[POWER], _HIGH[POWER] = MIN_POWER_W, MAX_POWER_W
_RANGE_FAULT[POWER] = FAULT_REASONS.index("implausible power")
_LOW[UTILIZATION], _HIGH[UTILIZATION] = -math.inf, math.inf


def observation_faults(tasks: TaskColumns) -> np.ndarray:
    """Sanity-check each row's measurement; returns each row's first
    failing check as an index into :data:`FAULT_REASONS`
    (:data:`PLAUSIBLE` when the sample is physically plausible).

    The checks, in order, encode invariants no healthy sensor can
    violate:

    * every reading is finite;
    * IPC lies in ``(0, MAX_IPC]``;
    * per-thread power lies in ``[MIN_POWER_W, MAX_POWER_W]``;
    * throughput is positive;
    * every other derived rate is a ratio of event counts and must lie
      in [0, 1] — a memory-instruction share of 15 can only mean a
      corrupted numerator;
    * the cycle/clock identity holds: a thread's non-sleep cycles per
      second of its own busy time must match the core clock
      (``ips / ipc ~= f``), which catches counter overflow wrap — a
      wrapped instruction or cycle count breaks the ratio even though
      each value alone still looks plausible.
    """
    values = tasks.values
    checked = values[:, :_CHECKED]
    out_of_range = (checked < _LOW) | (checked > _HIGH)
    faults = np.where(
        np.isfinite(checked), np.where(out_of_range, _RANGE_FAULT, PLAUSIBLE), 0
    ).min(axis=1)
    nominal_hz = values[:, FREQ_MHZ] * 1e6
    with np.errstate(all="ignore"):
        deviation = np.abs(values[:, IPS] / values[:, IPC] - nominal_hz) / nominal_hz
    clock_off = (deviation > CLOCK_IDENTITY_TOLERANCE) & (nominal_hz > 0)
    return np.minimum(faults, np.where(clock_off, _CLOCK, PLAUSIBLE))
