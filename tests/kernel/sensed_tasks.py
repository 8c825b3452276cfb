"""Test helper: a view's task records paired with their PMU rows.

A :class:`~repro.kernel.view.SystemView` carries each task's OS part as
a :class:`~repro.kernel.view.TaskView` record and its PMU part (rates
and measured power) as a row of one array, ``view.pmu``.  The
record-at-a-time oracles (``reference_observation.py``,
``reference_watchdog.py``, ``scalar_matrices.py``,
``reference_sensing.py``) read a task the readable way, one record
with its readings as attributes.  :class:`SensedTask` is that record:
a ``TaskView``'s fields with ``rates`` and ``power_w`` in between, and
``has_measurement``.  :func:`sensed_tasks` splits a view into them and
:func:`sensed_view` builds a view from them, so a test can plant a
reading with ``_replace`` and hand the result to the columnar code.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.core.sensing import TaskColumns, gather_tasks
from repro.hardware.counters import DerivedRates
from repro.hardware.features import CoreType
from repro.kernel.view import PMU_COLUMNS, SystemView, TaskView

#: ``TaskView`` fields before the PMU readings in a :class:`SensedTask`.
_HEAD = TaskView._fields.index("busy_time_s")


class SensedTask(NamedTuple):
    """One task's record and PMU readings, as one record."""

    tid: int
    name: str
    core_id: int
    core_type: CoreType
    weight: float
    is_user: bool
    utilization: float
    #: The task's rates; ``None`` in a view without the PMU part.
    rates: "DerivedRates | None"
    #: Measured power (W); ``None`` in a view without the PMU part.
    power_w: "float | None"
    busy_time_s: float
    allowed_cores: "frozenset[int] | None" = None
    progress_frac: "float | None" = None
    slo_slack_frac: "float | None" = None

    @property
    def has_measurement(self) -> bool:
        """True when the task ran and retired instructions in the window;
        never without the PMU part."""
        rates = self.rates
        return rates is not None and self.busy_time_s > 0 and rates.ips > 0

    @property
    def record(self) -> TaskView:
        """The OS part: the view's record of this task."""
        return TaskView(*self[:_HEAD], *self[_HEAD + 2 :])

    @property
    def pmu_row(self) -> "tuple[float, ...] | None":
        """The task's row of ``SystemView.pmu``."""
        if self.rates is None:
            return None
        return (*self.rates, self.power_w)


def sensed_tasks(view: SystemView) -> "list[SensedTask]":
    """Each record of ``view`` with its PMU row; ``rates`` and
    ``power_w`` are ``None`` when ``view.pmu`` is."""
    if view.pmu is None:
        return [
            SensedTask(*task[:_HEAD], None, None, *task[_HEAD:]) for task in view.tasks
        ]
    return [
        SensedTask(*task[:_HEAD], DerivedRates(*row[:-1]), row[-1], *task[_HEAD:])
        for task, row in zip(view.tasks, view.pmu.tolist())
    ]


def sensed_view(
    tasks: Sequence[SensedTask],
    base: Optional[SystemView] = None,
    sensed: bool = True,
) -> SystemView:
    """A view of ``tasks``: their records, and their PMU rows as the
    block when ``sensed`` (every task then has ``rates``; without it
    none has).

    The other fields are ``base``'s, or empty when there is no
    ``base`` (enough for :func:`repro.core.sensing.gather_tasks`).
    """
    rows = [task.pmu_row for task in tasks]
    pmu = None
    if sensed:
        pmu = np.array(rows, dtype=float).reshape(len(rows), len(PMU_COLUMNS))
    else:
        assert rows == [None] * len(rows), "an unsensed task has no readings"
    records = tuple(task.record for task in tasks)
    if base is None:
        return SystemView(0, 0.0, 0.0, None, records, (), pmu)
    return replace(base, tasks=records, pmu=pmu)


def gather(tasks: Sequence[SensedTask]) -> TaskColumns:
    """:func:`~repro.core.sensing.gather_tasks` over a view of ``tasks``."""
    return gather_tasks(sensed_view(tasks))


def comparable(view: SystemView) -> tuple:
    """``view`` as a tuple that ``==`` compares exactly: its fields,
    also by ``repr`` (so an int ``0`` for a float ``0.0`` counts as a
    difference), and the PMU block by dtype, shape and bytes (numpy's
    ``repr`` truncates a large array, and the bytes tell NaN and -0.0
    apart)."""
    fields = (
        view.epoch_index,
        view.time_s,
        view.window_s,
        view.platform,
        view.tasks,
        view.cores,
    )
    pmu = view.pmu
    block = None if pmu is None else (pmu.dtype.str, pmu.shape, pmu.tobytes())
    return fields, repr(fields), block
