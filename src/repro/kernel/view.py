"""The kernel-side system view handed to load balancers.

This is the boundary between *ground truth* (which only the simulator
sees) and *observations* (what a real kernel could know).  A view has
two parts.

The **OS part** is in every view: what the kernel's own bookkeeping and
firmware tables know, as one :class:`TaskView` record per task and one
:class:`CoreView` per core.

* per task: ``tid``, ``name``, ``core_id``, ``core_type``, ``weight``,
  ``is_user``, the PELT-style ``utilization`` (runnable-time tracking —
  standard kernel bookkeeping, also what ARM GTS consumes),
  ``busy_time_s``, ``allowed_cores`` and the scenario extras
  (``progress_frac``, ``slo_slack_frac``);
* per core: ``core_type`` (frequency and type parameters),
  ``idle_power_w`` and ``sleep_power_w`` from firmware tables,
  ``temperature_c`` and the ``online`` flag.

The **PMU part** is what SmartBalance adds (Section 4.1), per task:
the rates derived from the hardware counters read through the noisy
sensing interface at the epoch boundary (the paper's per-thread
sampling at context switches, aggregated per epoch), and the measured
power attributed from per-core power sensors by time share (Eq. 5's
``p = ε / τ``).  It is one read-only float array,
:attr:`SystemView.pmu`: row ``i`` belongs to ``tasks[i]`` and the
columns are :data:`PMU_COLUMNS`.  The counter readings themselves, and
the per-core counter and power readings, stay in the simulator: no
balancer reads them.

The simulator reads the PMU part only for a balancer whose
``reads_sensors`` is set.  A view without it has ``pmu`` ``None``,
never zero placeholders a balancer could take for a measurement.

Balancers must make decisions *only* from a :class:`SystemView`; tests
assert that no ground-truth phase objects leak through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from repro.hardware.counters import DerivedRates
from repro.hardware.features import CoreType
from repro.hardware.platform import Platform

#: Columns of :attr:`SystemView.pmu`: the :class:`DerivedRates` fields
#: in their order (``ips`` is Eq. 4's measured throughput), then the
#: measured power in W (Eq. 5; 0 for a task that never ran).
PMU_COLUMNS = DerivedRates._fields + ("power_w",)


class TaskView(NamedTuple):
    """OS-visible state of one task over the last sensing window.

    The task's PMU readings, taken on ``core_type``, are its row of
    :attr:`SystemView.pmu`.
    """

    tid: int
    name: str
    core_id: int
    #: OS-visible type of ``core_id`` (the one its :class:`CoreView`
    #: reports): the governor's operating point, never a throttled clone.
    core_type: CoreType
    weight: float
    is_user: bool
    #: PELT-style demanded-CPU fraction estimate in [0, 1].
    utilization: float
    #: Wall time the task actually executed during the window (s).
    busy_time_s: float
    #: cpuset affinity (core ids); None = any core.
    allowed_cores: "frozenset[int] | None" = None
    #: Scenario observable: fraction of the thread's total barrier work
    #: completed, for progress-equalising placement.  ``None`` for
    #: every thread outside a barrier scenario.
    progress_frac: "float | None" = None
    #: Scenario observable: remaining fraction of a request's latency
    #: budget (1 at arrival, 0 at the deadline, clamped at -1 when
    #: overdue).  ``None`` for every thread outside an open-loop
    #: scenario.
    slo_slack_frac: "float | None" = None


class CoreView(NamedTuple):
    """Observed state of one core over the last sensing window.

    A core's cluster is ``view.platform[core_id].cluster``; the threads
    on it are the :class:`TaskView` records with its ``core_id``.
    A core record is OS part only, so a sensed view's cores equal an
    unsensed view's.
    """

    core_id: int
    core_type: CoreType
    #: Idle and sleep power from firmware tables (W).
    idle_power_w: float
    sleep_power_w: float
    #: Core temperature (deg C) from the thermal sensor; ambient when
    #: the thermal model is disabled.
    temperature_c: float = 45.0
    #: False while the core is hot-unplugged; an offline core schedules
    #: nothing and must be masked out of placement searches.
    online: bool = True


@dataclass(frozen=True, eq=False)
class SystemView:
    """Everything a balancer may observe at a rebalancing point.

    ``cores`` lists every core in id order, so ``cores[core_id]`` is
    that core's record.  ``pmu`` is the PMU part: ``(len(tasks),
    len(PMU_COLUMNS))`` float64 in ``tasks`` order, or ``None`` when
    the view was not sensed.  Building a view marks its block
    read-only.  Views compare by identity: compare their records and
    ``pmu.tobytes()``.
    """

    epoch_index: int
    time_s: float
    window_s: float
    platform: Platform
    tasks: tuple[TaskView, ...]
    cores: tuple[CoreView, ...]
    pmu: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.pmu is not None:
            self.pmu.flags.writeable = False
