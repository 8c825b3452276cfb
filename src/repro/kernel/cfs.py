"""Per-core CFS run queues and the constants of the scheduling core.

SmartBalance keeps Linux CFS for *within-core* scheduling and only
replaces the *cross-core* balancer (paper Fig. 1/2).  The experiments
therefore need CFS fidelity at the granularity the balancers observe:
per-period time shares, context-switch sampling points and idle/sleep
accounting — not instruction-level interleaving.

The scheduling core itself is :class:`~repro.kernel.soa.SoaKernel`:
within one scheduling period, runnable tasks receive CPU time
proportional to their load weight, capped by their own demand (duty
cycle), with leftover capacity redistributed (progressive filling),
and each granted slice is executed against the hardware model in
sub-slices that respect workload phase boundaries.  A
:class:`CfsRunQueue` is the queue's identity and membership only: the
core it runs on, the tasks placed on it in run-queue slot order, and
its SMT flag.  Every number the period produces lives in the engine.
"""

from __future__ import annotations

from typing import Sequence

from repro.hardware.platform import Core
from repro.kernel.task import Task, TaskState

#: Kernel time consumed per context switch (seconds); charged against
#: the period's capacity, one switch per runnable task per period.
CONTEXT_SWITCH_COST_S = 4e-6
#: Cache warm-up wall time after a migration (seconds of execution on
#: the new core during which miss rates are inflated).
CACHE_WARMUP_S = 2e-3
#: cpuidle governor latency: idle time beyond this within one period is
#: spent in the power-gated sleep state rather than shallow idle.
IDLE_TO_SLEEP_LATENCY_S = 1.5e-3
#: Geometric decay of the utilisation EWMA per scheduling period,
#: approximating Linux PELT's 32 ms half-life at a 6 ms period.
UTIL_DECAY = 0.82


class CfsRunQueue:
    """One core's run queue: the core, its members and its SMT flag."""

    def __init__(self, core: Core) -> None:
        self.core = core
        #: Members in run-queue slot order (arrival on this queue); the
        #: engine's per-queue reductions run in exactly this order.
        self.tasks: list[Task] = []
        #: Opt-in SMT mode (set by the SMT co-run scenario before the
        #: first period): the core exposes two hardware threads, so
        #: the period's time capacity doubles and co-running tasks
        #: degrade each other through
        #: :func:`repro.hardware.microarch.estimate`'s contention term.
        self.smt = False

    def enqueue(self, task: Task) -> None:
        """Place a task on this core's queue (last slot)."""
        if task in self.tasks:
            raise ValueError(f"task {task.tid} already on core {self.core.core_id}")
        task.core_id = self.core.core_id
        self.tasks.append(task)

    def dequeue(self, task: Task) -> None:
        self.tasks.remove(task)

    def runnable_tasks(self) -> list[Task]:
        return [t for t in self.tasks if t.state is TaskState.ACTIVE]

    def load(self, utilization: Sequence[float]) -> float:
        """CFS-style load: utilisation-weighted sum of task weights.

        ``utilization`` is the engine's per-task EWMA, indexed by tid.
        """
        return sum(
            t.weight * max(utilization[t.tid], 0.05) for t in self.runnable_tasks()
        )
