"""Linux-like kernel scheduling substrate.

Stands in for the modified Linux 2.6 kernel of the paper's prototype:
task entities, per-core CFS run queues, the structure-of-arrays
scheduling core, epoch-aligned sensing views, thread migration with
cache warm-up, pluggable cross-core balancers and a full-system
discrete-time simulator.
"""

from repro.kernel.cfs import CACHE_WARMUP_S, CONTEXT_SWITCH_COST_S, CfsRunQueue
from repro.kernel.metrics import CoreStats, EpochRecord, RunResult, TaskStats
from repro.kernel.simulator import MIGRATION_KERNEL_COST_S, SimulationConfig, System
from repro.kernel.soa import SoaKernel
from repro.kernel.task import Task, TaskState
from repro.kernel.view import CoreView, SystemView, TaskView

__all__ = [
    "Task",
    "TaskState",
    "CfsRunQueue",
    "CACHE_WARMUP_S",
    "CONTEXT_SWITCH_COST_S",
    "MIGRATION_KERNEL_COST_S",
    "System",
    "SimulationConfig",
    "SoaKernel",
    "SystemView",
    "TaskView",
    "CoreView",
    "RunResult",
    "EpochRecord",
    "CoreStats",
    "TaskStats",
]
