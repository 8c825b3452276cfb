"""Tests for the task entity and its per-task CFS state.

:class:`repro.kernel.task.Task` holds identity and lifecycle; the
numeric per-task state is the reference kernel's :class:`RefTask`
(``reference_kernel.py``), the oracle of the SoA engine's per-tid rows.
"""

import pytest

from reference_kernel import RefQueue, RefTask
from repro.hardware.features import BIG, HUGE, MEDIUM, SMALL
from repro.hardware.platform import Core
from repro.kernel.cfs import UTIL_DECAY, CfsRunQueue
from repro.kernel.task import Task, TaskState
from repro.workload.characteristics import COMPUTE_PHASE, MEMORY_PHASE
from repro.workload.demand import with_duty
from repro.workload.thread import phased_thread, steady_thread


def make_task(behavior=None, **kwargs) -> RefTask:
    behavior = behavior or steady_thread("t", COMPUTE_PHASE)
    defaults = dict(tid=0, behavior=behavior, core_id=0, state=TaskState.ACTIVE)
    defaults.update(kwargs)
    return RefTask(Task(**defaults))


def run_slice(task: RefTask, granted_s: float) -> None:
    """Execute one slice of ``task`` on a big core."""
    queue = RefQueue(CfsRunQueue(Core(core_id=0, core_type=BIG)))
    queue.enqueue(task)
    queue._execute_slice(task, granted_s)


class TestLifecycle:
    def test_defaults(self):
        task = Task(tid=1, behavior=steady_thread("t", COMPUTE_PHASE), core_id=2)
        assert task.state is TaskState.PENDING
        assert task.migrations == 0
        record = RefTask(task)
        assert record.progress_instructions == 0.0
        assert record.utilization == 0.0

    def test_retire_accumulates(self):
        """Instructions retired by successive slices accumulate into
        progress and into the lifetime and window totals."""
        task = make_task()
        run_slice(task, 0.001)
        first = task.progress_instructions
        run_slice(task, 0.0005)
        assert first > 0.0
        assert task.progress_instructions > first
        assert task.total_instructions == task.progress_instructions
        assert task.total_busy_time_s == pytest.approx(0.0015)
        assert task.total_energy_j > 0.0
        assert task.epoch_energy_j == task.total_energy_j

    def test_exits_when_work_done(self):
        behavior = steady_thread("t", COMPUTE_PHASE, total_instructions=1000.0)
        task = make_task(behavior=behavior)
        task.progress_instructions = 999.0
        assert task.remaining_instructions() == 1.0
        assert task.state is TaskState.ACTIVE
        run_slice(task, 0.001)
        assert task.state is TaskState.EXITED
        assert task.remaining_instructions() == 0.0

    def test_unbounded_task_never_exits(self):
        task = make_task()
        task.progress_instructions = 1e15
        run_slice(task, 0.001)
        assert task.state is TaskState.ACTIVE
        assert task.remaining_instructions() == float("inf")


class TestDemand:
    def test_inactive_task_demands_nothing(self):
        task = make_task(state=TaskState.PENDING)
        assert task.demanded_fraction(HUGE) == 0.0
        task.state = TaskState.EXITED
        assert task.demanded_fraction(HUGE) == 0.0

    def test_cpu_bound_demands_full_core(self):
        task = make_task()
        assert task.demanded_fraction(HUGE) == 1.0
        assert task.demanded_fraction(SMALL) == 1.0

    def test_rate_limited_demand_is_core_dependent(self):
        phase = with_duty(COMPUTE_PHASE, duty=0.5)
        task = make_task(behavior=steady_thread("t", phase))
        assert task.demanded_fraction(HUGE) < task.demanded_fraction(MEDIUM)
        assert task.demanded_fraction(MEDIUM) == pytest.approx(0.5)

    def test_demand_follows_phase_progress(self):
        light = with_duty(COMPUTE_PHASE, duty=0.2)
        behavior = phased_thread(
            "t", [(light, 100.0), (MEMORY_PHASE, 100.0)], cyclic=False
        )
        task = make_task(behavior=behavior)
        before = task.demanded_fraction(MEDIUM)
        task.progress_instructions = 150.0
        after = task.demanded_fraction(MEDIUM)
        assert before == pytest.approx(0.2)
        assert after == 1.0  # MEMORY_PHASE is CPU-bound (legacy duty 1.0)


class TestUtilization:
    def test_ewma_converges(self):
        task = make_task()
        for _ in range(100):
            task.update_utilization(0.7)
        assert task.utilization == pytest.approx(0.7, abs=1e-6)

    def test_ewma_decay_rate(self):
        task = make_task()
        task.update_utilization(1.0)
        assert task.utilization == pytest.approx(1.0 - UTIL_DECAY)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            make_task().update_utilization(1.5)


class TestEpochAccounting:
    def test_reset_clears_epoch_scope_only(self):
        task = make_task()
        run_slice(task, 0.001)
        progress = task.progress_instructions
        total_energy = task.total_energy_j
        assert task.counters.cy_busy > 0.0
        task.reset_epoch_accounting()
        assert task.epoch_energy_j == 0.0
        assert task.counters.cy_busy == 0.0
        assert task.total_energy_j == total_energy > 0.0
        assert task.progress_instructions == progress
