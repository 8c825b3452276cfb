"""Task entities: the kernel's view of a thread.

Mirrors the Linux model the paper builds on: processes and threads are
all *task entities* scheduled independently (Section 3).  A
:class:`Task` pairs an immutable :class:`~repro.workload.thread.ThreadBehavior`
with the task's identity and lifecycle — placement, state and
migration count.  Its numeric scheduling state (progress, utilisation,
warm-up, hardware counters, energy) lives in the kernel engine's
arrays, indexed by ``tid``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.workload.thread import ThreadBehavior


class TaskState(enum.Enum):
    """Lifecycle of a task within the simulation."""

    #: Created but not yet arrived (``arrival_s`` in the future).
    PENDING = "pending"
    #: Arrived and schedulable (may still sleep part of each period —
    #: the duty cycle lives in the workload phase).
    ACTIVE = "active"
    #: Waiting at a synchronisation barrier (``TASK_UNINTERRUPTIBLE``):
    #: not runnable, demands nothing, utilisation frozen.  Entered and
    #: released by the scenario runtime's barrier state machine.
    BLOCKED = "blocked"
    #: Retired all its instructions.
    EXITED = "exited"


@dataclass
class Task:
    """One schedulable task entity."""

    tid: int
    behavior: ThreadBehavior
    core_id: int
    is_user: bool = True
    state: TaskState = TaskState.PENDING
    migrations: int = 0

    @property
    def name(self) -> str:
        return self.behavior.name

    @property
    def weight(self) -> float:
        return self.behavior.nice_weight

    def may_run_on(self, core_id: int) -> bool:
        """cpuset check: may this task be placed on ``core_id``?"""
        allowed = self.behavior.allowed_cores
        return allowed is None or core_id in allowed
