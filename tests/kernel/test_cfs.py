"""Tests for the per-core CFS run queue and fluid allocation.

The run queue's membership lives in :class:`repro.kernel.cfs.CfsRunQueue`;
the period semantics are the reference kernel's
(``reference_kernel.py``), the oracle the SoA engine is held to.
"""

import pytest

from reference_kernel import RefQueue, RefTask, fair_shares
from repro.hardware.platform import Core
from repro.hardware.features import BIG, MEDIUM, SMALL
from repro.kernel.cfs import CACHE_WARMUP_S, CONTEXT_SWITCH_COST_S, CfsRunQueue
from repro.kernel.task import Task, TaskState
from repro.workload.characteristics import COMPUTE_PHASE, MEMORY_PHASE
from repro.workload.demand import with_duty
from repro.workload.thread import steady_thread


def make_task(tid=0, duty=1.0, weight=1.0, total=None) -> RefTask:
    phase = with_duty(COMPUTE_PHASE, duty=duty)
    behavior = steady_thread(f"t{tid}", phase, total_instructions=total)
    behavior = behavior.__class__(
        name=behavior.name, schedule=behavior.schedule,
        total_instructions=behavior.total_instructions, nice_weight=weight,
    )
    return RefTask(Task(tid=tid, behavior=behavior, core_id=0, state=TaskState.ACTIVE))


def make_queue(core_type=BIG) -> RefQueue:
    return RefQueue(CfsRunQueue(Core(core_id=0, core_type=core_type)))


class TestFairShares:
    def test_equal_weights_equal_demands(self):
        grants = fair_shares([1.0, 1.0], [1.0, 1.0], 1.0)
        assert grants == pytest.approx([0.5, 0.5])

    def test_weighted_split(self):
        grants = fair_shares([1.0, 1.0], [2.0, 1.0], 0.9)
        assert grants == pytest.approx([0.6, 0.3])

    def test_demand_caps_grant(self):
        grants = fair_shares([0.1, 1.0], [1.0, 1.0], 1.0)
        assert grants[0] == pytest.approx(0.1)
        assert grants[1] == pytest.approx(0.9)

    def test_leftover_redistributed(self):
        grants = fair_shares([0.2, 0.2, 1.0], [1.0, 1.0, 1.0], 1.0)
        assert grants[2] == pytest.approx(0.6)

    def test_undersubscribed(self):
        grants = fair_shares([0.2, 0.3], [1.0, 1.0], 1.0)
        assert grants == pytest.approx([0.2, 0.3])

    def test_total_never_exceeds_capacity(self):
        grants = fair_shares([0.9, 0.8, 0.7], [3.0, 2.0, 1.0], 1.0)
        assert sum(grants) <= 1.0 + 1e-12

    def test_zero_demand_gets_nothing(self):
        grants = fair_shares([0.0, 1.0], [1.0, 1.0], 1.0)
        assert grants[0] == 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            fair_shares([1.0], [1.0, 2.0], 1.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            fair_shares([1.0], [1.0], -1.0)


class TestEnqueueDequeue:
    def test_enqueue_sets_core(self):
        queue = CfsRunQueue(Core(core_id=0, core_type=BIG))
        task = make_task().task
        task.core_id = 99
        queue.enqueue(task)
        assert task.core_id == 0
        assert queue.runnable_tasks() == [task]

    def test_double_enqueue_rejected(self):
        queue = CfsRunQueue(Core(core_id=0, core_type=BIG))
        task = make_task().task
        queue.enqueue(task)
        with pytest.raises(ValueError):
            queue.enqueue(task)

    def test_vruntime_floored_to_queue_min(self):
        queue = make_queue()
        old = make_task(tid=0)
        old.vruntime = 10.0
        queue.enqueue(old)
        fresh = make_task(tid=1)
        queue.enqueue(fresh)
        assert fresh.vruntime == 10.0


class TestSchedulePeriod:
    def test_empty_queue_sleeps(self):
        queue = make_queue()
        result = queue.schedule_period(0.006)
        assert result.sleep_s == pytest.approx(0.006)
        assert result.busy_s == 0.0
        assert result.sleep_energy_j > 0.0
        assert queue.counters.cy_sleep > 0.0

    def test_cpu_bound_task_uses_whole_period(self):
        queue = make_queue()
        queue.enqueue(make_task(duty=1.0))
        result = queue.schedule_period(0.006)
        expected = 0.006 - CONTEXT_SWITCH_COST_S
        assert result.busy_s == pytest.approx(expected, rel=1e-6)

    def test_rate_limited_task_leaves_idle_time(self):
        queue = make_queue(MEDIUM)
        queue.enqueue(make_task(duty=0.3))
        result = queue.schedule_period(0.006)
        assert result.busy_s == pytest.approx(0.3 * 0.006, rel=0.01)
        assert result.idle_s + result.sleep_s > 0.0

    def test_two_equal_tasks_share_equally(self):
        queue = make_queue()
        a, b = make_task(tid=0), make_task(tid=1)
        queue.enqueue(a)
        queue.enqueue(b)
        result = queue.schedule_period(0.006)
        grants = {s.task.tid: s.granted_s for s in result.slices}
        assert grants[0] == pytest.approx(grants[1], rel=1e-9)

    def test_weighted_tasks_share_proportionally(self):
        queue = make_queue()
        heavy = make_task(tid=0, weight=3.0)
        light = make_task(tid=1, weight=1.0)
        queue.enqueue(heavy)
        queue.enqueue(light)
        result = queue.schedule_period(0.006)
        grants = {s.task.tid: s.granted_s for s in result.slices}
        assert grants[0] == pytest.approx(3 * grants[1], rel=1e-9)

    def test_vruntime_fairness_invariant(self):
        """Equal-weight CPU-bound tasks keep equal vruntimes."""
        queue = make_queue()
        tasks = [make_task(tid=i) for i in range(3)]
        for task in tasks:
            queue.enqueue(task)
        for _ in range(20):
            queue.schedule_period(0.006)
        vruntimes = [t.vruntime for t in tasks]
        assert max(vruntimes) - min(vruntimes) < 1e-9

    def test_energy_conservation(self):
        """Period energy equals the sum of its components."""
        queue = make_queue()
        queue.enqueue(make_task(duty=0.5))
        result = queue.schedule_period(0.006)
        assert result.energy_j == pytest.approx(
            result.busy_energy_j + result.idle_energy_j + result.sleep_energy_j
        )

    def test_exited_task_not_scheduled(self):
        queue = make_queue()
        task = make_task(total=1.0)
        queue.enqueue(task)
        queue.schedule_period(0.006)
        assert task.state is TaskState.EXITED
        result = queue.schedule_period(0.006)
        assert result.slices == []

    def test_counters_charged_on_task_and_core(self):
        queue = make_queue()
        task = make_task()
        queue.enqueue(task)
        queue.schedule_period(0.006)
        assert task.counters.instructions > 0.0
        assert queue.counters.instructions == pytest.approx(
            task.counters.instructions
        )

    def test_warmup_consumed_by_execution(self):
        queue = make_queue()
        task = make_task()
        task.warmup_remaining_s = CACHE_WARMUP_S
        queue.enqueue(task)
        queue.schedule_period(0.006)
        assert task.warmup_remaining_s == 0.0

    def test_warmup_reduces_throughput(self):
        cold_q, warm_q = make_queue(SMALL), make_queue(SMALL)

        def memory_task(tid):
            behavior = steady_thread(f"m{tid}", MEMORY_PHASE)
            return RefTask(Task(tid=tid, behavior=behavior, core_id=0,
                                state=TaskState.ACTIVE))

        cold = memory_task(0)
        cold.warmup_remaining_s = 100.0  # stays cold all period
        warm = memory_task(1)
        cold_q.enqueue(cold)
        warm_q.enqueue(warm)
        cold_r = cold_q.schedule_period(0.006)
        warm_r = warm_q.schedule_period(0.006)
        assert cold_r.slices[0].instructions < warm_r.slices[0].instructions

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            make_queue().schedule_period(0.0)


class TestEpochAccounting:
    def test_reset_epoch_accounting(self):
        queue = make_queue()
        queue.enqueue(make_task())
        queue.schedule_period(0.006)
        assert queue.epoch_energy_j > 0.0
        queue.reset_epoch_accounting()
        assert queue.epoch_energy_j == 0.0
        assert queue.counters.instructions == 0.0
        assert queue.total_energy_j > 0.0  # lifetime survives

    def test_load_reflects_utilization(self):
        queue = CfsRunQueue(Core(core_id=0, core_type=BIG))
        queue.enqueue(make_task().task)
        assert queue.load([0.8]) == pytest.approx(0.8)
