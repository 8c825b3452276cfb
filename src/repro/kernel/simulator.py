"""Full-system discrete-time simulator.

Drives the simulated MPSoC the way the paper's extended Gem5 + Linux
platform does (Fig. 3): per-core CFS scheduling in fixed periods,
epoch-aligned sensing through the noisy sensor interface, pluggable
cross-core balancers, and migration with cache warm-up costs.

Timing structure (paper Fig. 1(c)/Fig. 2): an *epoch* covers ``L`` CFS
scheduling periods.  At each balancer interval boundary the simulator

1. builds a :class:`~repro.kernel.view.SystemView` from the counters
   and energy accumulated since the last view (the sensing window),
2. calls the balancer (timing it — that wall-clock time is the
   overhead Fig. 7 reports),
3. applies the returned migrations, then
4. resets the epoch-scoped accumulators and simulates the next window.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.faults import DELAY, DELIVER, FaultInjector, FaultPlan
from repro.hardware import power as power_model
from repro.hardware.counters import BUSY_COLUMN, derived_rates
from repro.hardware.platform import Platform
from repro.hardware.sensors import (
    DEFAULT_COUNTER_NOISE,
    DEFAULT_POWER_NOISE,
    NoiseModel,
    SensingInterface,
)
from repro.kernel.balancers.base import LoadBalancer, Placement
from repro.kernel.cfs import CACHE_WARMUP_S, IDLE_TO_SLEEP_LATENCY_S, CfsRunQueue
from repro.kernel.metrics import (
    CoreStats,
    EpochRecord,
    ResilienceStats,
    RunResult,
    TaskStats,
)
from repro.kernel.soa import SoaKernel
from repro.kernel.task import Task, TaskState
from repro.kernel.view import CoreView, SystemView, TaskView
from repro.obs import NULL_OBS, ObsContext
from repro.obs import events as obs_events
from repro.obs.log import get_logger
from repro.workload.characteristics import WorkloadPhase
from repro.workload.thread import ThreadBehavior, steady_thread

_log = get_logger("kernel.simulator")

#: Scheduler-side cost per migration (seconds) charged to the migrated
#: task's next slice via warm-up; matches the paper's assumption that
#: migration cost is dominated by cache refill.
MIGRATION_KERNEL_COST_S = 50e-6


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the simulated platform and timing structure."""

    #: CFS scheduling period (seconds).
    period_s: float = 0.006
    #: L — CFS periods per SmartBalance epoch (60 ms epoch by default,
    #: the paper's value).
    periods_per_epoch: int = 10
    #: Sensor fidelity.
    counter_noise: NoiseModel = DEFAULT_COUNTER_NOISE
    power_noise: NoiseModel = DEFAULT_POWER_NOISE
    #: Seed for all sensing noise.
    seed: int = 0
    #: Number of low-duty kernel-daemon background tasks to add
    #: (the OS workload the paper notes it optimises jointly).
    os_noise_tasks: int = 0
    #: Enable the per-core RC thermal model with leakage feedback.
    thermal_enabled: bool = False
    #: Fault-injection plan (None = fault-free run).  Sensor/counter
    #: faults corrupt observations through the sensing interface;
    #: hotplug, throttle and migration faults are executed here on the
    #: simulator timeline.
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.period_s < math.inf:
            raise ValueError(
                f"period_s must be finite and positive, got {self.period_s}"
            )
        if self.periods_per_epoch < 1:
            raise ValueError(
                f"periods_per_epoch must be >= 1, got {self.periods_per_epoch}"
            )
        if self.os_noise_tasks < 0:
            raise ValueError("os_noise_tasks must be non-negative")

    @property
    def epoch_s(self) -> float:
        return self.period_s * self.periods_per_epoch


def _os_noise_behavior(index: int) -> ThreadBehavior:
    """A kernel-daemon-like background thread: tiny, bursty, low duty."""
    phase = WorkloadPhase(
        ilp=1.2,
        mem_share=0.30,
        branch_share=0.15,
        working_set_kb=24.0,
        code_footprint_kb=32.0,
        branch_entropy=0.45,
        data_locality=0.8,
        active_fraction=0.05,
    )
    return steady_thread(f"kworker/{index}", phase)


class System:
    """One simulated machine: platform + tasks + balancer."""

    def __init__(
        self,
        platform: Platform,
        behaviors: Sequence[ThreadBehavior],
        balancer: LoadBalancer,
        config: SimulationConfig | None = None,
        obs: Optional[ObsContext] = None,
        scenario=None,
    ) -> None:
        if not behaviors:
            raise ValueError("need at least one thread behaviour")
        self.platform = platform
        self.balancer = balancer
        #: Optional scenario runtime (repro.scenarios); drives barrier
        #: state machines, request-latency accounting and SMT opt-in.
        self.scenario = scenario
        self.config = config or SimulationConfig()
        self.obs = obs if obs is not None else NULL_OBS
        if obs is not None:
            # Thread the context through the balancer too, so the
            # sense/predict/anneal events land in the same trace.  A
            # balancer configured with its own context keeps it when
            # the simulator was not given one.
            self.balancer.obs = self.obs
        self.faults: Optional[FaultInjector] = None
        if self.config.faults is not None and self.config.faults.active:
            self.faults = FaultInjector(self.config.faults)
            self.faults.obs = self.obs
        self.sensing = SensingInterface(
            counter_noise=self.config.counter_noise,
            power_noise=self.config.power_noise,
            seed=self.config.seed,
        )
        self.runqueues = [CfsRunQueue(core) for core in platform]
        #: Nominal (unthrottled) core of each queue; ``queue.core`` is
        #: swapped for a reduced-frequency clone while throttled.
        self._base_cores = {q.core.core_id: q.core for q in self.runqueues}
        #: Each core's (effective idle, sleep) power from the firmware
        #: tables of its base type, kept with ``_base_cores``.
        self._firmware_power = [
            self._idle_sleep_power(q.core.core_type) for q in self.runqueues
        ]
        self._online = [True] * len(platform)
        plan = self.config.faults
        self._hotplug_pending = sorted(
            plan.hotplug if plan else (), key=lambda e: e.time_s
        )
        self._throttle_pending = sorted(
            plan.throttle if plan else (), key=lambda e: e.time_s
        )
        #: core_id -> throttle end time while a throttle is active.
        self._throttle_until: dict[int, float] = {}
        #: Delayed migrations: (due_period, tid, core_id).
        self._pending_migrations: list[tuple[int, int, int]] = []
        self._period_counter = 0
        self._offline_placements_blocked = 0
        self.tasks: list[Task] = []
        self.time_s = 0.0
        self.total_migrations = 0
        self._window_migrations = 0
        #: Migrations since the last metrics-epoch boundary (independent
        #: of the balancer's own sensing-window resets).
        self._epoch_migrations = 0
        self._epoch_records: list[EpochRecord] = []
        self._view_counter = 0
        #: Per-core (instructions, energy, busy) totals at the current
        #: epoch's start; maintained only while ``obs.enabled`` so the
        #: trace can carry per-core epoch deltas (the Perfetto tracks).
        self._obs_epoch_snapshot: "list[tuple[float, float, float]] | None" = None

        all_behaviors = list(behaviors) + [
            _os_noise_behavior(i) for i in range(self.config.os_noise_tasks)
        ]
        for index, behavior in enumerate(all_behaviors):
            is_user = index < len(behaviors)
            task = Task(
                tid=index,
                behavior=behavior,
                core_id=0,
                is_user=is_user,
            )
            self.tasks.append(task)
        self._place_initial()
        #: Tasks not yet arrived, as a (arrival_s, tid) min-list so the
        #: per-period arrival scan is O(due) instead of O(n_tasks).
        self._pending_arrivals = sorted(
            (t.behavior.arrival_s, t.tid)
            for t in self.tasks
            if t.state is TaskState.PENDING
        )
        #: Tids the next view lists, ascending: every arrived thread
        #: except those that exited before the current sensing window
        #: began.  ``do_exit`` takes a dead task off its run queue and
        #: out of load tracking; a thread that exits inside a window
        #: keeps that window's final measurement.
        self._view_tids = [
            t.tid for t in self.tasks if t.state is not TaskState.PENDING
        ]
        #: The kernel engine: every numeric scheduling state (progress,
        #: utilisation, warm-up, counters, energy, temperatures) lives
        #: in its arrays.
        self.engine = SoaKernel(self)
        # The scenario attaches to the built engine: barrier stops are
        # engine state, and SMT flags on the run queues are read when
        # the engine lays the queues out for the first period.
        if self.scenario is not None:
            self.scenario.attach(self)

    # ------------------------------------------------------------------
    # Placement & migration
    # ------------------------------------------------------------------

    def _place_initial(self) -> None:
        """Round-robin initial placement (what fork balancing gives a
        freshly exec'd thread before any balancer runs), respecting
        each task's cpuset affinity."""
        for index, task in enumerate(self.tasks):
            candidates = self.runqueues
            if task.behavior.allowed_cores is not None:
                candidates = [
                    q for q in candidates if task.may_run_on(q.core.core_id)
                ]
            if not candidates:
                raise ValueError(
                    f"task {task.name!r} has no allowed core on this platform"
                )
            queue = candidates[index % len(candidates)]
            queue.enqueue(task)
            if task.behavior.arrival_s <= 0:
                task.state = TaskState.ACTIVE

    def task_by_tid(self, tid: int) -> Task:
        return self.tasks[tid]

    def migrate(self, task: Task, core_id: int, cause: str = "balancer") -> None:
        """Move a task to another core (``set_cpus_allowed_ptr`` path).

        Charges the kernel-side cost and starts the cache warm-up
        window on the destination core.  ``cause`` records why the
        migration happened (``balancer``, ``hotplug``, ``fault_delay``)
        in the event trace.
        """
        if not 0 <= core_id < len(self.runqueues):
            raise ValueError(f"invalid destination core {core_id}")
        if not task.may_run_on(core_id):
            raise ValueError(
                f"task {task.name!r} is not allowed on core {core_id} "
                f"(cpuset {sorted(task.behavior.allowed_cores)})"
            )
        if core_id == task.core_id:
            return
        from_core = task.core_id
        self._move(task, core_id, CACHE_WARMUP_S + MIGRATION_KERNEL_COST_S)
        task.migrations += 1
        self.total_migrations += 1
        self._window_migrations += 1
        self._epoch_migrations += 1
        if self.obs.enabled:
            self.obs.tracer.emit(
                obs_events.MIGRATION,
                self.time_s,
                tid=task.tid,
                from_core=from_core,
                to_core=core_id,
                cause=cause,
            )
            self.obs.metrics.inc(f"migrations.applied[{cause}]")

    def _move(self, task: Task, core_id: int, warmup_s: float) -> None:
        """Re-queue ``task`` on ``core_id`` with ``warmup_s`` of warm-up."""
        self.runqueues[task.core_id].dequeue(task)
        self.runqueues[core_id].enqueue(task)
        self.engine.on_migration(task.tid, warmup_s)

    def apply_placement(self, placement: Placement) -> int:
        """Apply a balancer's placement delta; returns migration count.

        A tid outside ``[0, n_tasks)`` or a core outside
        ``[0, n_cores)`` rejects the whole placement before any task
        moves, as :meth:`migrate` rejects an invalid core.
        """
        unknown = [tid for tid in placement if not 0 <= tid < len(self.tasks)]
        if unknown:
            raise ValueError(f"placement names unknown task(s) {sorted(unknown)}")
        invalid = [c for c in placement.values() if not 0 <= c < len(self.runqueues)]
        if invalid:
            raise ValueError(f"placement names invalid core(s) {sorted(invalid)}")
        moved = 0
        for tid, core_id in placement.items():
            task = self.task_by_tid(tid)
            if task.state is TaskState.EXITED:
                continue
            if not task.may_run_on(core_id):
                # The kernel enforces cpusets regardless of what a
                # balancer asks for.
                continue
            if not self._online[core_id]:
                # The kernel refuses to migrate onto an unplugged core
                # no matter what the balancer believes exists.
                self._offline_placements_blocked += 1
                if self.obs.enabled:
                    self.obs.tracer.emit(
                        obs_events.MITIGATION,
                        self.time_s,
                        kind="offline_placement_blocked",
                        cause="target_core_offline",
                        tid=tid,
                        core=core_id,
                    )
                    self.obs.metrics.inc("kernel.offline_placements_blocked")
                continue
            if task.core_id == core_id:
                continue
            fate, delay = (
                self.faults.migration_fate() if self.faults else (DELIVER, 0)
            )
            if fate == DELAY:
                self._pending_migrations.append(
                    (self._period_counter + delay, tid, core_id)
                )
                continue
            if fate != DELIVER:
                continue  # lost in the kernel, silently
            self.migrate(task, core_id)
            moved += 1
        return moved

    # ------------------------------------------------------------------
    # Fault-plan timeline events
    # ------------------------------------------------------------------

    def _set_core_online(self, core_id: int, online: bool) -> None:
        if not 0 <= core_id < len(self.runqueues):
            return
        if online == self._online[core_id]:
            return
        if not online and sum(self._online) <= 1:
            return  # never unplug the last core
        self._online[core_id] = online
        self.engine.set_online(core_id, online)
        if self.faults:
            self.faults.counts.hotplug_events += 1
            self.faults._emit(
                "hotplug", core=core_id, detail="online" if online else "offline"
            )
        if online:
            return
        # Offline path: the kernel migrates the dead queue's tasks to
        # the least-loaded online core their cpuset allows; a task
        # allowed nowhere else stays parked (and starves) — exactly
        # what Linux does with an impossible cpuset.  An exited thread
        # has nothing left to move, and a pending one has never run:
        # it is re-placed the way fork balancing would place it, with
        # no migration and no cache to warm.
        queue = self.runqueues[core_id]
        utilization = self.engine.util.tolist()
        for task in list(queue.tasks):
            if task.state is TaskState.EXITED:
                continue
            candidates = [
                q
                for q in self.runqueues
                if self._online[q.core.core_id]
                and q.core.core_id != core_id
                and task.may_run_on(q.core.core_id)
            ]
            if not candidates:
                continue
            target = min(candidates, key=lambda q: q.load(utilization))
            if task.state is TaskState.PENDING:
                self._move(task, target.core.core_id, warmup_s=0.0)
            else:
                self.migrate(task, target.core.core_id, cause="hotplug")

    def _set_throttle(self, core_id: int, freq_scale: Optional[float]) -> None:
        """Apply (or with ``None`` lift) a thermal throttle on a core.

        The clone keeps the core type's *name* so the predictor's
        per-type Θ lookup still resolves — firmware throttling is
        invisible to the OS, which is exactly what makes it a fault.
        """
        if not 0 <= core_id < len(self.runqueues):
            return
        base = self._base_cores[core_id]
        queue = self.runqueues[core_id]
        if freq_scale is None:
            queue.core = base
            self.engine.on_core_type_changed(core_id, base.core_type)
            return
        throttled_type = replace(
            base.core_type, freq_mhz=base.core_type.freq_mhz * freq_scale
        )
        queue.core = replace(base, core_type=throttled_type)
        self.engine.on_core_type_changed(core_id, throttled_type)
        if self.faults:
            self.faults.counts.throttle_events += 1
            self.faults._emit("throttle", core=core_id, detail=freq_scale)

    def set_core_base_type(self, core_id: int, core_type) -> None:
        """Re-base a core onto a governor-chosen operating point.

        Unlike a throttle fault, a DVFS change is *OS-visible*: the new
        type becomes the core's base, so ``build_view`` reports it and
        the firmware idle/sleep tables follow.  An active throttle
        fault keeps its relative frequency scale across the re-base —
        firmware caps track the commanded clock, not the nominal one.
        """
        old_base = self._base_cores[core_id]
        if old_base.core_type == core_type:
            return
        new_base = replace(old_base, core_type=core_type)
        self._base_cores[core_id] = new_base
        self._firmware_power[core_id] = self._idle_sleep_power(core_type)
        queue = self.runqueues[core_id]
        if core_id in self._throttle_until:
            scale = queue.core.core_type.freq_mhz / old_base.core_type.freq_mhz
            queue.core = replace(
                new_base,
                core_type=replace(
                    core_type, freq_mhz=core_type.freq_mhz * scale
                ),
            )
        else:
            queue.core = new_base
        self.engine.on_core_type_changed(core_id, queue.core.core_type)

    def _idle_sleep_power(self, core_type) -> "tuple[float, float]":
        """``core_type``'s (effective idle, sleep) power from firmware
        tables.  Unused capacity costs shallow idle up to the cpuidle
        latency and power-gated sleep beyond — what the kernel's own
        cpuidle accounting would report."""
        shallow_frac = min(IDLE_TO_SLEEP_LATENCY_S / self.config.period_s, 1.0)
        sleep = power_model.sleep_power(core_type)
        return (
            shallow_frac * power_model.idle_power(core_type).total_w
            + (1.0 - shallow_frac) * sleep,
            sleep,
        )

    def _apply_opp_changes(self, changes) -> None:
        """Apply cluster OPP switches adopted by a governor balancer.

        Entries come from :meth:`LoadBalancer.take_opp_request`
        (``repro.kernel`` never imports the governor package):
        ``core_ids``/``new_types`` drive the re-base, the remaining
        fields feed the ``opp_change`` event.
        """
        for change in changes:
            for core_id, new_type in zip(change.core_ids, change.new_types):
                self.set_core_base_type(core_id, new_type)
            if self.obs.enabled:
                self.obs.tracer.emit(
                    obs_events.OPP_CHANGE,
                    self.time_s,
                    cluster=change.cluster,
                    epoch=self._view_counter,
                    from_level=change.from_level,
                    to_level=change.to_level,
                    from_freq_mhz=change.from_freq_mhz,
                    to_freq_mhz=change.to_freq_mhz,
                    from_vdd=change.from_vdd,
                    to_vdd=change.to_vdd,
                    cores=list(change.core_ids),
                    transition_latency_s=change.transition_latency_s,
                    transition_energy_j=change.transition_energy_j,
                )
                self.obs.metrics.inc("kernel.opp_changes")

    def _process_fault_events(self) -> None:
        """Fire every timeline event due at the current simulated time."""
        while self._hotplug_pending and self._hotplug_pending[0].time_s <= self.time_s:
            event = self._hotplug_pending.pop(0)
            self._set_core_online(event.core_id, event.online)
        while (
            self._throttle_pending
            and self._throttle_pending[0].time_s <= self.time_s
        ):
            event = self._throttle_pending.pop(0)
            self._set_throttle(event.core_id, event.freq_scale)
            self._throttle_until[event.core_id] = max(
                self._throttle_until.get(event.core_id, 0.0),
                event.time_s + event.duration_s,
            )
        for core_id in list(self._throttle_until):
            if self.time_s >= self._throttle_until[core_id]:
                self._set_throttle(core_id, None)
                del self._throttle_until[core_id]
        due = [m for m in self._pending_migrations if m[0] <= self._period_counter]
        if due:
            self._pending_migrations = [
                m for m in self._pending_migrations if m[0] > self._period_counter
            ]
            for _, tid, core_id in due:
                task = self.task_by_tid(tid)
                if (
                    task.state is TaskState.EXITED
                    or not task.may_run_on(core_id)
                    or not self._online[core_id]
                    or task.core_id == core_id
                ):
                    continue
                self.migrate(task, core_id, cause="fault_delay")

    # ------------------------------------------------------------------
    # Sensing
    # ------------------------------------------------------------------

    def build_view(self, window_s: float) -> SystemView:
        """Construct the observable system view for the last window.

        Every view carries the OS part (:mod:`repro.kernel.view`): each
        task's placement, weight, PELT utilisation, busy time, affinity
        and scenario extras, and each core's nominal type, firmware idle
        and sleep power, temperature and online flag.  The tasks are the
        threads alive in the window: a pending thread has not arrived
        yet, and a thread that exited before the window began is gone;
        one that exited inside it is listed with its final measurement.

        The PMU part (each task's rates and power, ``SystemView.pmu``)
        is added only when the balancer reads sensors
        (``LoadBalancer.reads_sensors``); without it ``pmu`` is
        ``None``, and the view takes no noise draw and delivers no
        sensor fault.
        """
        engine = self.engine
        # Scenario observables (progress fractions, SLO slack) ride on
        # the TaskViews so scenario-aware balancers can weight threads.
        extras_by_tid: "dict[int, dict]" = (
            self.scenario.task_extras(self) if self.scenario is not None else {}
        )
        tids = self._view_tids
        live = [self.tasks[tid] for tid in tids]
        busy = engine.t_cnt[tids, BUSY_COLUMN]
        busy_s = busy.tolist()
        pmu = self._read_pmu(tids, busy, busy_s) if self.balancer.reads_sensors else None

        # The view reports each core's *nominal* type: firmware-level
        # thermal throttling is invisible to the OS, so a throttled core
        # shows up only as prediction error downstream.
        core_types = [
            self._base_cores[core_id].core_type
            for core_id in range(len(self.runqueues))
        ]
        utilization = engine.util.tolist()
        # Scenario extras go by keyword: one that is no field, or that
        # is set here, raises TypeError.
        task_views = [
            TaskView(
                task.tid,
                task.name,
                task.core_id,
                core_types[task.core_id],
                task.weight,
                task.is_user,
                utilization[task.tid],
                busy_time_s,
                task.behavior.allowed_cores,
                **extras_by_tid.get(task.tid, {}),
            )
            for task, busy_time_s in zip(live, busy_s)
        ]
        # The temperature is ambient on every core when the thermal
        # model is off.
        temperature = engine.thermal_temp.tolist()
        core_views = [
            CoreView(
                core_id,
                core_type,
                idle_w,
                sleep_w,
                temperature[core_id],
                self._online[core_id],
            )
            for core_id, (core_type, (idle_w, sleep_w)) in enumerate(
                zip(core_types, self._firmware_power)
            )
        ]
        return SystemView(
            epoch_index=self._view_counter,
            time_s=self.time_s,
            window_s=window_s,
            platform=self.platform,
            tasks=tuple(task_views),
            cores=tuple(core_views),
            pmu=pmu,
        )

    def _read_pmu(
        self, tids: "list[int]", busy: np.ndarray, busy_s: "list[float]"
    ) -> np.ndarray:
        """The view's PMU part, ``SystemView.pmu``: each task's rates and
        power, one row per task in view order.

        Reads the window's counters and energy through the sensing
        interface in one batch (tasks in tid order, then cores in id
        order — the noise draw order).  An attached fault plan then
        corrupts the noisy rows owner by owner in that same order: each
        task's counters, then its power if it ran; each core's power,
        then its counters.  Rates are derived from the final task rows.
        No view carries a core reading, but the cores are still read
        and corrupted: their draws come between one window's task
        readings and the next window's, so they fix every later value.
        """
        engine = self.engine
        task_power = np.divide(
            engine.epoch_energy[tids], busy, out=np.zeros_like(busy), where=busy > 0
        )
        core_time = engine.q_epoch_time
        core_power = np.divide(
            engine.q_epoch_energy,
            core_time,
            out=np.zeros_like(core_time),
            where=core_time > 0,
        )
        task_counts, task_power, core_counts, core_power = self.sensing.read(
            engine.t_cnt[tids], task_power, engine.c_cnt, core_power
        )
        if self.faults is not None:
            corrupt_counts = self.faults.corrupt_counts
            corrupt_power = self.faults.corrupt_power
            task_rows = task_counts.tolist()
            task_power_w = task_power.tolist()
            for i, tid in enumerate(tids):
                owner = ("task", tid)
                corrupt_counts(owner, task_rows[i])
                if busy_s[i] > 0:
                    task_power_w[i] = corrupt_power(owner, task_power_w[i])
            for core_id, (row, power_w) in enumerate(
                zip(core_counts.tolist(), core_power.tolist())
            ):
                owner = ("core", core_id)
                corrupt_power(owner, power_w)
                corrupt_counts(owner, row)
            task_counts = np.array(task_rows).reshape(task_counts.shape)
            task_power = task_power_w
        return np.column_stack((derived_rates(task_counts), task_power))

    def _reset_window_accounting(self) -> None:
        self.engine.reset_window_accounting()
        self._window_migrations = 0
        # Threads that have exited by now are out of every later view.
        tasks = self.tasks
        self._view_tids = [
            tid for tid in self._view_tids
            if tasks[tid].state is not TaskState.EXITED
        ]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(
        self,
        duration_s: Optional[float] = None,
        n_epochs: Optional[int] = None,
    ) -> RunResult:
        """Simulate for a duration or a number of epochs."""
        if (duration_s is None) == (n_epochs is None):
            raise ValueError("specify exactly one of duration_s or n_epochs")
        if n_epochs is None:
            n_epochs = max(int(round(duration_s / self.config.epoch_s)), 1)
        interval = self.balancer.interval_periods or self.config.periods_per_epoch
        periods_total = n_epochs * self.config.periods_per_epoch

        obs = self.obs
        if obs.enabled:
            plan = self.config.faults
            obs.tracer.emit(
                obs_events.RUN_START,
                self.time_s,
                balancer=self.balancer.name,
                platform=self.platform.name,
                n_tasks=len(self.tasks),
                n_cores=len(self.runqueues),
                core_types=[
                    self._base_cores[q.core.core_id].core_type.name
                    for q in self.runqueues
                ],
                seed=self.config.seed,
                faults=bool(plan is not None and plan.active),
            )

        steady_before = self.engine.steady_periods
        window_instructions = 0.0
        window_energy = 0.0
        window_start = self.time_s
        window_balancer_time = 0.0
        periods_since_rebalance = 0

        for period_index in range(periods_total):
            if obs.enabled and period_index % self.config.periods_per_epoch == 0:
                obs.tracer.emit(
                    obs_events.EPOCH_START,
                    self.time_s,
                    epoch=len(self._epoch_records),
                )
                self._obs_epoch_snapshot = self._core_snapshot()
            # Rebalance at interval boundaries, including t=0 (the
            # first call sees an empty window, as a real kernel would).
            if period_index % interval == 0:
                with obs.span("build_view"):
                    view = self.build_view(
                        window_s=periods_since_rebalance * self.config.period_s
                    )
                t0 = time.perf_counter()
                placement = self.balancer.rebalance(view)
                window_balancer_time += time.perf_counter() - t0
                # Reset the sensing window before applying the new
                # placement so these migrations are charged to the
                # window they affect.
                self._reset_window_accounting()
                if placement:
                    self.apply_placement(placement)
                # A governor balancer may have adopted cluster OPP
                # switches alongside the placement; collect and apply
                # them so the next window runs at the new points.
                opp_changes = self.balancer.take_opp_request()
                if opp_changes:
                    self._apply_opp_changes(opp_changes)
                self._view_counter += 1
                periods_since_rebalance = 0

            self._process_fault_events()
            self._handle_arrivals()
            period_instr, period_energy = self._simulate_period()
            self._period_counter += 1
            if self.scenario is not None:
                self.scenario.on_period(self)
            window_instructions += period_instr
            window_energy += period_energy
            periods_since_rebalance += 1

            # Epoch bookkeeping for metrics (independent of the
            # balancer's own interval so results are comparable).
            if (period_index + 1) % self.config.periods_per_epoch == 0:
                record = EpochRecord(
                    epoch_index=len(self._epoch_records),
                    start_time_s=window_start,
                    duration_s=self.time_s - window_start,
                    instructions=window_instructions,
                    energy_j=window_energy,
                    migrations=self._epoch_migrations,
                    balancer_time_s=window_balancer_time,
                )
                self._epoch_records.append(record)
                if record.degenerate:
                    # ips_per_watt reads 0.0 for this epoch — flag it
                    # loudly instead of letting the zero get averaged
                    # into efficiency figures as if it were real.
                    _log.warning(
                        "epoch %d is degenerate (energy_j=%g <= 0); "
                        "its ips_per_watt of 0.0 is not a real efficiency",
                        record.epoch_index,
                        record.energy_j,
                    )
                if obs.enabled:
                    self._emit_epoch_end(record)
                window_instructions = 0.0
                window_energy = 0.0
                window_balancer_time = 0.0
                window_start = self.time_s
                self._epoch_migrations = 0

        result = self._result()
        if obs.enabled:
            obs.tracer.emit(
                obs_events.RUN_END,
                self.time_s,
                duration_s=result.duration_s,
                instructions=result.instructions,
                energy_j=result.energy_j,
                migrations=result.migrations,
                ips_per_watt=result.ips_per_watt,
            )
            if result.phase_times:
                obs.tracer.emit(
                    obs_events.PHASE_PROFILE,
                    self.time_s,
                    phases=dict(result.phase_times),
                )
            obs.metrics.set_gauge("run.ips_per_watt", result.ips_per_watt)
            obs.metrics.set_gauge("run.energy_j", result.energy_j)
            obs.metrics.set_gauge("run.instructions", result.instructions)
            obs.metrics.inc("kernel.periods", periods_total)
            obs.metrics.inc(
                "kernel.steady_periods",
                self.engine.steady_periods - steady_before,
            )
        return result

    def _core_snapshot(self) -> "list[tuple[float, float, float]]":
        """Per-core cumulative (instructions, energy_j, busy_s)."""
        engine = self.engine
        return list(
            zip(
                engine.core_instr.tolist(),
                engine.q_total_energy.tolist(),
                engine.q_total_busy.tolist(),
            )
        )

    def _emit_epoch_end(self, record: EpochRecord) -> None:
        """Emit the epoch's trace events (per-core deltas included)."""
        obs = self.obs
        per_core = []
        if self._obs_epoch_snapshot is not None:
            current = self._core_snapshot()
            for core_id, (now, then) in enumerate(
                zip(current, self._obs_epoch_snapshot)
            ):
                per_core.append(
                    {
                        "core": core_id,
                        "instructions": now[0] - then[0],
                        "energy_j": now[1] - then[1],
                        "busy_s": now[2] - then[2],
                    }
                )
        obs.tracer.emit(
            obs_events.EPOCH_END,
            self.time_s,
            epoch=record.epoch_index,
            duration_s=record.duration_s,
            instructions=record.instructions,
            energy_j=record.energy_j,
            migrations=record.migrations,
            ips_per_watt=record.ips_per_watt,
            degenerate=record.degenerate,
            per_core=per_core,
        )
        obs.metrics.inc("epochs.total")
        if record.degenerate:
            obs.metrics.inc("balancer.epochs_degenerate")
            obs.tracer.emit(
                obs_events.DEGENERATE_EPOCH,
                self.time_s,
                epoch=record.epoch_index,
                duration_s=record.duration_s,
                instructions=record.instructions,
                energy_j=record.energy_j,
            )

    def _handle_arrivals(self) -> None:
        pending = self._pending_arrivals
        while pending and pending[0][0] <= self.time_s:
            _, tid = pending.pop(0)
            task = self.tasks[tid]
            if task.state is TaskState.PENDING:
                task.state = TaskState.ACTIVE
                self.engine.on_arrival(tid)
                bisect.insort(self._view_tids, tid)

    def _simulate_period(self) -> tuple[float, float]:
        """Advance all cores by one CFS period; returns (instr, energy)."""
        with self.obs.span("kernel_period"):
            instructions, energy = self.engine.simulate_period(
                self.config.period_s
            )
        self.time_s += self.config.period_s
        if self.faults is not None:
            self.faults.time_s = self.time_s
        return instructions, energy

    def _result(self) -> RunResult:
        engine = self.engine
        thermal = self.config.thermal_enabled
        core_stats = tuple(
            CoreStats(
                core_id=q.core.core_id,
                core_type_name=q.core.core_type.name,
                instructions=instructions,
                energy_j=energy,
                busy_s=busy,
                idle_s=idle,
                sleep_s=sleep,
                peak_temp_c=peak if thermal else None,
            )
            for q, instructions, energy, busy, idle, sleep, peak in zip(
                self.runqueues,
                engine.core_instr.tolist(),
                engine.q_total_energy.tolist(),
                engine.q_total_busy.tolist(),
                engine.q_total_idle.tolist(),
                engine.q_total_sleep.tolist(),
                engine.thermal_peak.tolist(),
            )
        )
        task_stats = tuple(
            TaskStats(
                tid=t.tid,
                name=t.name,
                instructions=instructions,
                busy_s=busy,
                energy_j=energy,
                migrations=t.migrations,
            )
            for t, instructions, busy, energy in zip(
                self.tasks,
                engine.total_instr.tolist(),
                engine.total_busy.tolist(),
                engine.total_energy.tolist(),
            )
        )
        user_instructions = sum(t.instructions for t in task_stats if self.tasks[t.tid].is_user)
        total_energy = sum(c.energy_j for c in core_stats)
        # Per-phase wall-clock breakdown when the balancer keeps one
        # (SmartBalance does; kernel baselines do not).
        phase_records = self.balancer.timings
        phase_times: tuple[tuple[str, float], ...] = ()
        if phase_records:
            phase_times = (
                ("sense", sum(t.sense_s for t in phase_records)),
                ("predict", sum(t.predict_s for t in phase_records)),
                ("balance", sum(t.balance_s for t in phase_records)),
            )
        return RunResult(
            resilience=self._resilience_stats(),
            phase_times=phase_times,
            governor=self.balancer.governor_stats,
            scenario=self.scenario.stats() if self.scenario is not None else None,
            balancer_name=self.balancer.name,
            platform_name=self.platform.name,
            duration_s=self.time_s,
            instructions=user_instructions,
            energy_j=total_energy,
            migrations=self.total_migrations,
            epochs=tuple(self._epoch_records),
            core_stats=core_stats,
            task_stats=task_stats,
        )

    def _resilience_stats(self) -> "ResilienceStats | None":
        """Merge injector tallies with the balancer's health telemetry."""
        health = self.balancer.health
        if self.faults is None and health is None:
            return None
        kwargs: dict = {
            "offline_placements_blocked": self._offline_placements_blocked
        }
        if self.faults is not None:
            kwargs.update(asdict(self.faults.counts))
        if health is not None:
            kwargs.update(asdict(health))
        return ResilienceStats(**kwargs)
