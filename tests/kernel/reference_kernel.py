"""Reference CFS kernel: the object-per-task oracle of ``SoaKernel``.

The simulator keeps one kernel state, the arrays of
:class:`repro.kernel.soa.SoaKernel`.  This module states the same CFS
semantics the readable way — one record per task, one per run queue, a
fluid fair-share split per queue and a scalar slice loop per task — so
the differential suite can hold the vectorised engine to it:

* :func:`fair_shares` is the standard fluid (GPS) approximation of
  CFS: within one scheduling period, runnable tasks receive CPU time
  proportional to their load weight, capped by their own demand (duty
  cycle), with leftover capacity redistributed (progressive filling).
  Task vruntimes advance by ``granted / weight``, so the classic CFS
  invariant — bounded vruntime spread — holds and is property-tested;
  nothing observable reads vruntime, which is why ``SoaKernel`` does
  not keep it.
* :meth:`RefQueue._execute_slice` runs each granted slice against the
  hardware model in sub-slices that respect workload phase boundaries,
  exits and barrier stops, charging counters and energy exactly as the
  simulated chip would.
* :meth:`ReferenceKernel.simulate_period` is the per-period object
  loop: every online queue's period, then the PELT-style utilisation
  update of every active task on an online core.
* :class:`ThermalState` steps one core's RC thermal model and its
  leakage feedback with scalar floats, the oracle of the engine's
  batched thermal helpers.

:class:`ReferenceKernel` answers the engine interface ``System`` uses
(the ``on_*``/``set_*`` notifications, ``simulate_period`` and the
read-only state arrays).  It reads run-queue membership, task lifecycle
states, online flags and core types from the ``System`` objects
themselves, so ``SoaKernel``'s mirrors of those are checked too.
Tests swap it in with :func:`reference_kernel` — a context manager,
because hypothesis examples cannot take function-scoped fixtures — and
:func:`kernel_engine` swaps in any engine class the same way, such as
:class:`NoReplayKernel`, the engine with its steady-period memo off.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import astuple, dataclass, field, fields
from typing import Optional

import numpy as np

from repro.hardware import microarch, power
from repro.hardware.counters import CounterBlock
from repro.hardware.features import CoreType
from repro.hardware.platform import Core
from repro.hardware.thermal import (
    AMBIENT_C,
    T_JUNCTION_MAX_C,
    leakage_multiplier,
    steady_state_temperature,
    thermal_time_constant,
)
from repro.kernel import simulator
from repro.kernel.cfs import (
    CACHE_WARMUP_S,
    CONTEXT_SWITCH_COST_S,
    IDLE_TO_SLEEP_LATENCY_S,
    UTIL_DECAY,
    CfsRunQueue,
)
from repro.kernel.soa import SoaKernel
from repro.kernel.task import Task, TaskState
from repro.workload.characteristics import WorkloadPhase
from repro.workload.demand import demanded_fraction_on

_COUNTER_FIELDS = tuple(f.name for f in fields(CounterBlock))


def merge_counters(into: CounterBlock, block: CounterBlock) -> None:
    """Accumulate ``block`` into ``into``, one float add per counter."""
    for name in _COUNTER_FIELDS:
        setattr(into, name, getattr(into, name) + getattr(block, name))


def charge_sleep(block: CounterBlock, core: CoreType, duration_s: float) -> None:
    """Charge quiescent (no-runnable-thread) time as sleep cycles."""
    block.cy_sleep += duration_s * core.freq_hz


def reset_counters(block: CounterBlock) -> None:
    """Zero every counter (sensing-window rollover)."""
    for name in _COUNTER_FIELDS:
        setattr(block, name, 0.0)


@dataclass
class ThermalState:
    """Mutable thermal state of one core: the scalar oracle of
    :func:`repro.hardware.thermal.step_batch` and
    :func:`~repro.hardware.thermal.extra_leakage_batch`, which the
    engine runs over every core at once."""

    core: CoreType
    temp_c: float = AMBIENT_C
    peak_c: float = field(default=AMBIENT_C)

    def step(self, power_w: float, dt_s: float) -> float:
        """Advance the RC model by ``dt_s`` under ``power_w``; returns
        the new temperature.

        Uses the exact exponential solution of the first-order ODE for
        a constant-power interval, so arbitrarily long steps stay
        stable.
        """
        if power_w < 0:
            raise ValueError(f"power must be non-negative, got {power_w}")
        if dt_s < 0:
            raise ValueError(f"dt must be non-negative, got {dt_s}")
        target = steady_state_temperature(self.core, power_w)
        tau = thermal_time_constant(self.core)
        decay = math.exp(-dt_s / tau) if tau > 0 else 0.0
        self.temp_c = target + (self.temp_c - target) * decay
        self.peak_c = max(self.peak_c, self.temp_c)
        return self.temp_c

    @property
    def over_limit(self) -> bool:
        """True when the core exceeds the junction limit."""
        return self.temp_c > T_JUNCTION_MAX_C

    def extra_leakage_w(self, base_leakage_w: float) -> float:
        """Additional leakage power due to self-heating (W)."""
        if base_leakage_w < 0:
            raise ValueError(
                f"base leakage must be non-negative, got {base_leakage_w}"
            )
        return base_leakage_w * (leakage_multiplier(self.temp_c) - 1.0)


@dataclass
class RefTask:
    """The numeric CFS state of one task (``SoaKernel``'s per-tid row)."""

    task: Task
    progress_instructions: float = 0.0
    vruntime: float = 0.0
    #: PELT-like EWMA of the demanded CPU fraction, in [0, 1].
    utilization: float = 0.0
    #: Remaining cache warm-up wall time after a migration (seconds of
    #: own execution).
    warmup_remaining_s: float = 0.0
    #: Progress point at which the task hits its next barrier; ``inf``
    #: (no barrier) makes every ``min()`` it joins the identity.
    barrier_stop_instr: float = math.inf
    #: Per-window hardware counters and attributed energy.
    counters: CounterBlock = field(default_factory=CounterBlock)
    epoch_energy_j: float = 0.0
    #: Lifetime accounting.
    total_instructions: float = 0.0
    total_busy_time_s: float = 0.0
    total_energy_j: float = 0.0

    @property
    def tid(self) -> int:
        return self.task.tid

    @property
    def is_user(self) -> bool:
        return self.task.is_user

    @property
    def weight(self) -> float:
        return self.task.weight

    @property
    def behavior(self):
        return self.task.behavior

    @property
    def state(self) -> TaskState:
        return self.task.state

    @state.setter
    def state(self, value: TaskState) -> None:
        self.task.state = value

    def current_phase(self) -> WorkloadPhase:
        """Ground-truth phase at the task's current progress point."""
        return self.behavior.phase_at(self.progress_instructions)

    def demanded_fraction(self, core_type: CoreType) -> float:
        """CPU time fraction the task wants on ``core_type`` right now."""
        if self.state is not TaskState.ACTIVE:
            return 0.0
        return demanded_fraction_on(self.current_phase(), core_type)

    def remaining_instructions(self) -> float:
        """Instructions left before exit (``inf`` for unbounded tasks)."""
        if self.behavior.total_instructions is None:
            return float("inf")
        return max(self.behavior.total_instructions - self.progress_instructions, 0.0)

    def update_utilization(self, demanded_fraction: float) -> None:
        """Fold one period's demanded CPU fraction into the EWMA."""
        if not 0.0 <= demanded_fraction <= 1.0:
            raise ValueError(
                f"demanded fraction must be in [0, 1], got {demanded_fraction}"
            )
        self.utilization = (
            UTIL_DECAY * self.utilization + (1.0 - UTIL_DECAY) * demanded_fraction
        )

    def reset_epoch_accounting(self) -> None:
        """Zero the per-window counters and energy."""
        reset_counters(self.counters)
        self.epoch_energy_j = 0.0


@dataclass
class SliceResult:
    """Execution outcome of one task's slice within a period."""

    task: RefTask
    granted_s: float
    instructions: float
    energy_j: float


@dataclass
class PeriodResult:
    """Outcome of one CFS scheduling period on one core."""

    core: Core
    period_s: float
    slices: list[SliceResult] = field(default_factory=list)
    busy_s: float = 0.0
    idle_s: float = 0.0
    sleep_s: float = 0.0
    busy_energy_j: float = 0.0
    idle_energy_j: float = 0.0
    sleep_energy_j: float = 0.0
    #: Extra leakage from thermal feedback (0 unless thermal enabled).
    thermal_energy_j: float = 0.0
    context_switches: int = 0

    @property
    def energy_j(self) -> float:
        return (
            self.busy_energy_j
            + self.idle_energy_j
            + self.sleep_energy_j
            + self.thermal_energy_j
        )


def fair_shares(
    demands: list[float], weights: list[float], capacity: float
) -> list[float]:
    """Weighted progressive filling: GPS/CFS fluid allocation.

    Distributes ``capacity`` seconds among tasks proportionally to
    ``weights``, never granting a task more than its ``demand``;
    capacity freed by satisfied tasks is re-distributed among the rest.
    Runs in O(n^2) worst case, n = runnable tasks on one core (small).

    Accumulation order is part of the contract: ``remaining`` holds
    small contiguous ints, which CPython sets iterate in ascending
    order, and in-place ``-=`` preserves that order — so every
    cross-task float sum here runs left-to-right over ascending task
    index.  The batched waterfill in :mod:`repro.kernel.soa` replays
    exactly that order (masked cumulative sums) to stay bit-identical.
    """
    if len(demands) != len(weights):
        raise ValueError("demands and weights must have equal length")
    if capacity < 0:
        raise ValueError(f"capacity must be non-negative, got {capacity}")
    grants = [0.0] * len(demands)
    remaining = {i for i, d in enumerate(demands) if d > 0}
    available = capacity
    while remaining and available > 1e-15:
        total_weight = sum(weights[i] for i in remaining)
        satisfied: set[int] = set()
        consumed = 0.0
        for i in remaining:
            offer = available * weights[i] / total_weight
            need = demands[i] - grants[i]
            take = min(offer, need)
            grants[i] += take
            consumed += take
            if grants[i] >= demands[i] - 1e-15:
                satisfied.add(i)
        available -= consumed
        if not satisfied:
            break
        remaining -= satisfied
    return grants


class RefQueue:
    """One run queue's CFS period and its accounting.

    Membership, the core and the SMT flag are the wrapped
    :class:`~repro.kernel.cfs.CfsRunQueue`'s; ``records`` maps each
    member's tid to its :class:`RefTask`.
    """

    def __init__(
        self,
        rq: CfsRunQueue,
        records: "dict[int, RefTask] | None" = None,
        thermal: Optional[ThermalState] = None,
    ) -> None:
        self.rq = rq
        self.records: "dict[int, RefTask]" = {} if records is None else records
        #: Optional per-core thermal state.
        self.thermal = thermal
        #: Per-core hardware counters (window-scoped, like the tasks').
        self.counters = CounterBlock()
        #: Per-core lifetime energy split and instructions.
        self.total_energy_j = 0.0
        self.total_busy_s = 0.0
        self.total_idle_s = 0.0
        self.total_sleep_s = 0.0
        self.total_instructions = 0.0
        #: Window-scoped energy (reset at sensing boundaries).
        self.epoch_energy_j = 0.0
        self.epoch_time_s = 0.0

    @property
    def core(self) -> Core:
        return self.rq.core

    def enqueue(self, record: RefTask) -> None:
        """Place a task on this queue and floor its vruntime."""
        self.rq.enqueue(record.task)
        self.records[record.tid] = record
        self.floor_vruntime(record)

    def floor_vruntime(self, record: RefTask) -> None:
        """As in CFS, an incoming task's vruntime is floored to the
        queue's minimum so it can neither monopolise nor starve."""
        others = [
            self.records[t.tid].vruntime for t in self.rq.tasks if t.tid != record.tid
        ]
        if others:
            record.vruntime = max(record.vruntime, min(others))

    def runnable_tasks(self) -> list[RefTask]:
        return [self.records[t.tid] for t in self.rq.runnable_tasks()]

    def schedule_period(self, period_s: float) -> PeriodResult:
        """Run one CFS scheduling period on this core.

        Grants each runnable task its fluid fair share (bounded by its
        demand), executes the slices against the hardware model, and
        accounts idle/sleep time and energy for the remainder.
        """
        if period_s <= 0:
            raise ValueError(f"period must be positive, got {period_s}")
        result = PeriodResult(core=self.core, period_s=period_s)
        runnable = self.runnable_tasks()
        core_type = self.core.core_type

        if not runnable:
            # Quiescent core: power-gated sleep (paper Section 4.1).
            result.sleep_s = period_s
            result.sleep_energy_j = power.sleep_power(core_type) * period_s
            charge_sleep(self.counters, core_type, period_s)
            self._account(result)
            return result

        smt = self.rq.smt
        result.context_switches = len(runnable)
        capacity = max(period_s - CONTEXT_SWITCH_COST_S * len(runnable), 0.0)
        if smt and len(runnable) > 1:
            # Two hardware threads: twice the thread-seconds per wall
            # period.  A lone occupant owns the whole core exactly as
            # on a non-SMT core — the second hardware thread is idle —
            # so the doubling only applies when the queue is shared.
            # ``* 2.0`` is exact in binary floating point.
            capacity = capacity * 2.0
        demands = [t.demanded_fraction(core_type) * period_s for t in runnable]
        weights = [t.weight for t in runnable]
        grants = fair_shares(demands, weights, capacity)

        # Per-task SMT co-runner pressure, fixed for the period: the
        # summed memory share of the *other* runnable tasks on this
        # core, from their phases at period start.  The total runs
        # left-to-right over run-queue slot order and ``total - own``
        # is exactly 0.0 for a single occupant, so a lone task on an
        # SMT core sees contention level 0 (the unshared code path).
        smt_contentions = [0.0] * len(runnable)
        if smt and len(runnable) > 1:
            mem_shares = [t.current_phase().mem_share for t in runnable]
            total = 0.0
            for share in mem_shares:
                total += share
            smt_contentions = [min(total - share, 1.0) for share in mem_shares]

        for task, granted, contention in zip(runnable, grants, smt_contentions):
            if granted <= 0:
                continue
            slice_result = self._execute_slice(task, granted, contention)
            result.slices.append(slice_result)
            result.busy_s += slice_result.granted_s
            result.busy_energy_j += slice_result.energy_j
            task.vruntime += granted / task.weight

        leftover = max(period_s - result.busy_s, 0.0)
        if leftover > 0:
            # Tasks exist but none want the CPU for the remainder:
            # shallow (clock-gated) idle up to the cpuidle latency,
            # power-gated sleep beyond it.
            shallow = min(leftover, IDLE_TO_SLEEP_LATENCY_S)
            deep = leftover - shallow
            result.idle_s = shallow
            result.idle_energy_j = power.idle_power(core_type).total_w * shallow
            result.sleep_s += deep
            result.sleep_energy_j += power.sleep_power(core_type) * deep
            if deep > 0:
                charge_sleep(self.counters, core_type, deep)
        self._account(result)
        return result

    def _execute_slice(
        self, task: RefTask, granted_s: float, smt_contention: float = 0.0
    ) -> SliceResult:
        """Execute one task for ``granted_s`` seconds on this core.

        Sub-steps across workload phase boundaries so multi-phase
        threads see per-phase IPC/power.  Decrements migration warm-up
        as the task executes.  ``smt_contention`` is the period-fixed
        co-runner pressure on an SMT core (0.0 elsewhere); a barrier
        stop caps the slice exactly like a phase boundary.

        Counters accumulate into a slice-local block that is merged
        exactly once into the task's and the core's accumulators when
        the slice ends — one float add per counter per task per
        period, in run-queue slot order, which is what ``SoaKernel``
        reproduces bit-for-bit.
        """
        core_type = self.core.core_type
        slice_block = CounterBlock()
        remaining = granted_s
        instructions = 0.0
        energy = 0.0
        while remaining > 1e-12 and task.state is TaskState.ACTIVE:
            barrier_room = max(
                task.barrier_stop_instr - task.progress_instructions, 0.0
            )
            if barrier_room <= 0.0:
                break
            phase = task.current_phase()
            warmup_fraction = (
                task.warmup_remaining_s / CACHE_WARMUP_S
                if task.warmup_remaining_s > 0
                else 0.0
            )
            perf = microarch.estimate(
                phase, core_type, warmup_fraction, smt_contention
            )
            ips = perf.ips(core_type)

            boundary = task.behavior.schedule.instructions_until_phase_change(
                task.progress_instructions
            )
            step_limit_instr = min(
                boundary, task.remaining_instructions(), barrier_room
            )
            step_s = remaining
            if step_limit_instr != float("inf") and ips > 0:
                step_s = min(step_s, step_limit_instr / ips)
            step_s = max(step_s, 1e-9)  # forward progress guard
            step_s = min(step_s, remaining)

            retired = slice_block.charge_execution(
                perf, core_type, step_s, phase.mem_share, phase.branch_share
            )
            slice_energy = power.busy_power(core_type, perf.ipc).total_w * step_s
            task.progress_instructions += retired
            if task.remaining_instructions() <= 0:
                task.state = TaskState.EXITED
            task.warmup_remaining_s = max(task.warmup_remaining_s - step_s, 0.0)

            instructions += retired
            energy += slice_energy
            remaining -= step_s
        granted_used = granted_s - remaining
        merge_counters(task.counters, slice_block)
        merge_counters(self.counters, slice_block)
        task.total_instructions += instructions
        task.total_busy_time_s += granted_used
        task.total_energy_j += energy
        task.epoch_energy_j += energy
        return SliceResult(
            task=task,
            granted_s=granted_used,
            instructions=instructions,
            energy_j=energy,
        )

    def _account(self, result: PeriodResult) -> None:
        if self.thermal is not None:
            # Temperature-dependent leakage: step the RC model under
            # this period's average power, then charge the extra
            # leakage of the powered-on (non-power-gated) time.
            base_power = result.energy_j / result.period_s
            self.thermal.step(base_power, result.period_s)
            powered_fraction = (
                (result.busy_s + result.idle_s) / result.period_s
            )
            base_leak = power.leakage_power(self.core.core_type)
            result.thermal_energy_j = (
                self.thermal.extra_leakage_w(base_leak)
                * powered_fraction
                * result.period_s
            )
        self.total_energy_j += result.energy_j
        self.epoch_energy_j += result.energy_j
        self.epoch_time_s += result.period_s
        self.total_busy_s += result.busy_s
        self.total_idle_s += result.idle_s
        self.total_sleep_s += result.sleep_s

    def reset_epoch_accounting(self) -> None:
        """Zero window-scoped counters and energy (sensing rollover)."""
        reset_counters(self.counters)
        self.epoch_energy_j = 0.0
        self.epoch_time_s = 0.0


class ReferenceKernel:
    """The engine interface of ``SoaKernel``, run by the object loop."""

    #: Every period runs the object loop; none is replayed.
    steady_periods = 0

    def __init__(self, system) -> None:
        self.system = system
        self.records = {task.tid: RefTask(task) for task in system.tasks}
        thermal = system.config.thermal_enabled
        self.queues = [
            RefQueue(
                rq,
                self.records,
                ThermalState(core=rq.core.core_type) if thermal else None,
            )
            for rq in system.runqueues
        ]

    # --- notifications from System ------------------------------------

    def on_migration(self, tid: int, warmup_s: float) -> None:
        record = self.records[tid]
        self.queues[record.task.core_id].floor_vruntime(record)
        record.warmup_remaining_s = warmup_s

    def set_barrier_stop(self, tid: int, stop_instr: float) -> None:
        self.records[tid].barrier_stop_instr = stop_instr

    def reset_window_accounting(self) -> None:
        for record in self.records.values():
            record.reset_epoch_accounting()
        for queue in self.queues:
            queue.reset_epoch_accounting()

    # Arrivals, barrier blocks, hotplug and core-type changes are read
    # from the System's own objects each period, so these are no-ops.
    def on_arrival(self, tid: int) -> None:
        pass

    def set_blocked(self, tid: int, blocked: bool) -> None:
        pass

    def set_online(self, core_id: int, online: bool) -> None:
        pass

    def on_core_type_changed(self, core_id: int, ctype) -> None:
        pass

    # --- one CFS period, all cores ------------------------------------

    def simulate_period(self, period_s: float) -> "tuple[float, float]":
        """Advance every online core by one period; returns (instr, energy)."""
        online = self.system._online
        instructions = 0.0
        energy = 0.0
        for queue in self.queues:
            if not online[queue.core.core_id]:
                # An unplugged core executes nothing and draws nothing.
                continue
            result = queue.schedule_period(period_s)
            # Accumulate this queue's period total slot-by-slot, then
            # fold it into the lifetime counter with ONE add — the SoA
            # kernel reproduces exactly that float sequence (cumsum row
            # + one array add).
            period_core_instr = 0.0
            for sl in result.slices:
                if sl.task.is_user:
                    instructions += sl.instructions
                period_core_instr += sl.instructions
            queue.total_instructions += period_core_instr
            energy += result.energy_j
        for record in self.records.values():
            core_id = record.task.core_id
            if record.state is TaskState.ACTIVE and online[core_id]:
                # The queue's current core reflects any active throttle.
                core_type = self.queues[core_id].core.core_type
                record.update_utilization(record.demanded_fraction(core_type))
        return instructions, energy

    # --- the state arrays System and the scenario runtimes read --------

    def _per_task(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records.values()])

    def _per_core(self, name: str) -> np.ndarray:
        return np.array([getattr(q, name) for q in self.queues])

    t_cnt = property(
        lambda self: np.array([astuple(r.counters) for r in self.records.values()])
    )
    progress = property(lambda self: self._per_task("progress_instructions"))
    util = property(lambda self: self._per_task("utilization"))
    barrier_stop = property(lambda self: self._per_task("barrier_stop_instr"))
    epoch_energy = property(lambda self: self._per_task("epoch_energy_j"))
    total_instr = property(lambda self: self._per_task("total_instructions"))
    total_busy = property(lambda self: self._per_task("total_busy_time_s"))
    total_energy = property(lambda self: self._per_task("total_energy_j"))
    c_cnt = property(lambda self: np.array([astuple(q.counters) for q in self.queues]))
    core_instr = property(lambda self: self._per_core("total_instructions"))
    q_total_energy = property(lambda self: self._per_core("total_energy_j"))
    q_total_busy = property(lambda self: self._per_core("total_busy_s"))
    q_total_idle = property(lambda self: self._per_core("total_idle_s"))
    q_total_sleep = property(lambda self: self._per_core("total_sleep_s"))
    q_epoch_energy = property(lambda self: self._per_core("epoch_energy_j"))
    q_epoch_time = property(lambda self: self._per_core("epoch_time_s"))
    thermal_temp = property(
        lambda self: np.array(
            [q.thermal.temp_c if q.thermal else AMBIENT_C for q in self.queues]
        )
    )
    thermal_peak = property(
        lambda self: np.array(
            [q.thermal.peak_c if q.thermal else AMBIENT_C for q in self.queues]
        )
    )


@contextlib.contextmanager
def kernel_engine(engine_cls):
    """Build every ``System`` constructed in the block on ``engine_cls``."""
    original = simulator.SoaKernel
    simulator.SoaKernel = engine_cls
    try:
        yield
    finally:
        simulator.SoaKernel = original


def reference_kernel():
    """Run the block's ``System``s on the reference kernel."""
    return kernel_engine(ReferenceKernel)


class NoReplayKernel(SoaKernel):
    """``SoaKernel`` computing every period in full: the memo of the
    last steady period is dropped before each, so none replays."""

    def simulate_period(self, period_s):
        self._memo = None
        return super().simulate_period(period_s)
