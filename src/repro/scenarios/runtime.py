"""Scenario runtimes: the per-period state machines of a scenario.

A :class:`ScenarioRuntime` is the live half of a scenario (the
builders in :mod:`repro.scenarios.builders` are the static half).  The
simulator owns the contract:

* :meth:`ScenarioRuntime.attach` runs inside ``System.__init__`` after
  tasks are placed and the kernel engine is built, before the first
  period: barrier stops go straight into the engine, and SMT flags set
  on the run queues are read when the engine lays the queues out;
* :meth:`ScenarioRuntime.on_period` runs once per simulated CFS
  period, after execution — this is where barriers block and release
  and request completions are timestamped;
* :meth:`ScenarioRuntime.task_extras` feeds scenario-only observables
  (progress fractions, SLO slack) into the :class:`TaskView` rows the
  balancer sees;
* :meth:`ScenarioRuntime.stats` is folded into
  :class:`~repro.kernel.metrics.RunResult` as the ``scenario`` dict.

Everything here reads kernel state from the engine's arrays
(``progress``, ``barrier_stop``) and changes it through the engine's
narrow hooks (``set_blocked``, ``set_barrier_stop``); the task's
lifecycle ``state`` stays on the :class:`~repro.kernel.task.Task`.  The
equivalence suite fuzzes every scenario against the reference kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.stats import percentiles
from repro.kernel.task import TaskState
from repro.obs import events as obs_events


class ScenarioRuntime:
    """Base runtime: a scenario that needs no per-period machinery."""

    #: Family name, mirrored into the stats dict.
    family = "none"

    def attach(self, system) -> None:  # pragma: no cover - trivial
        """Bind to a freshly-built :class:`System` (before its first period)."""

    def on_period(self, system) -> None:  # pragma: no cover - trivial
        """Advance the scenario one CFS period (post-execution)."""

    def task_extras(self, system) -> "dict[int, dict]":
        """``tid -> TaskView field overrides`` for the next view."""
        return {}

    def stats(self) -> dict:
        """JSON-ready scenario metrics for ``RunResult.scenario``."""
        return {"family": self.family}


# ---------------------------------------------------------------------------
# Open-loop request traffic
# ---------------------------------------------------------------------------


@dataclass
class _Request:
    """Bookkeeping for one in-flight request thread."""

    tid: int
    name: str
    arrival_s: float
    completed_s: "float | None" = None


class OpenLoopRuntime(ScenarioRuntime):
    """Timestamps request completions and scores them against the SLO.

    The requests themselves are ordinary short-lived tasks (finite
    ``total_instructions``, future ``arrival_s``) the builder appended
    to the workload; the simulator's arrival machinery starts them and
    the kernel retires them.  This runtime only *observes*: each
    period it scans the arrived, incomplete requests for newly
    ``EXITED`` tasks and records ``latency = now - arrival``.
    Completion is therefore quantised to the CFS period — the same
    resolution the kernel's own accounting has.

    The builder appends the requests in arrival order (the arrival
    processes return non-decreasing times) and the simulator starts
    tasks in arrival order, so the still-``PENDING`` requests are a
    suffix of the incomplete ones: each scan stops at the first.
    """

    family = "openloop"

    def __init__(self, request_names: "dict[str, float]", slo_s: float) -> None:
        #: ``thread name -> arrival_s`` as generated by the builder.
        self._names = dict(request_names)
        self.slo_s = slo_s
        self._requests: "list[_Request]" = []
        self._pending: "list[_Request]" = []
        #: Requests whose arrival event has been emitted.
        self._announced: "set[int]" = set()
        self.latencies_s: "list[float]" = []
        self.slo_misses = 0

    def attach(self, system) -> None:
        for task in system.tasks:
            arrival = self._names.get(task.name)
            if arrival is None:
                continue
            request = _Request(tid=task.tid, name=task.name, arrival_s=arrival)
            self._requests.append(request)
            self._pending.append(request)
        if len(self._requests) != len(self._names):
            raise ValueError(
                "open-loop scenario: request thread names do not match "
                f"the built workload ({len(self._requests)} of "
                f"{len(self._names)} found)"
            )

    def on_period(self, system) -> None:
        if not self._pending:
            return
        now = system.time_s
        obs = system.obs
        tasks = system.tasks
        pending = self._pending
        still_pending: "list[_Request]" = []
        for index, request in enumerate(pending):
            task = tasks[request.tid]
            if task.state is TaskState.PENDING:
                # Not arrived, and neither has any later request.
                still_pending += pending[index:]
                break
            if obs.enabled and request.tid not in self._announced:
                self._announced.add(request.tid)
                obs.tracer.emit(
                    obs_events.REQUEST_ARRIVED,
                    request.arrival_s,
                    tid=request.tid,
                    name=request.name,
                )
            if task.state is not TaskState.EXITED:
                still_pending.append(request)
                continue
            request.completed_s = now
            latency = now - request.arrival_s
            self.latencies_s.append(latency)
            miss = latency > self.slo_s
            if miss:
                self.slo_misses += 1
            if obs.enabled:
                obs.tracer.emit(
                    obs_events.REQUEST_COMPLETED,
                    now,
                    tid=request.tid,
                    name=request.name,
                    latency_s=latency,
                    slo_s=self.slo_s,
                    slo_miss=miss,
                )
                obs.metrics.inc("scenario.requests_completed")
                if miss:
                    obs.metrics.inc("scenario.slo_misses")
        self._pending = still_pending

    def task_extras(self, system) -> "dict[int, dict]":
        """SLO slack of every in-flight request, for SLO-aware placement.

        ``slo_slack_frac`` is the fraction of the budget still left:
        1.0 at arrival, 0.0 exactly at the deadline, negative once
        overdue (clamped at -1 so one hopeless request cannot dominate
        a weighting scheme).
        """
        now = system.time_s
        tasks = system.tasks
        extras: "dict[int, dict]" = {}
        for request in self._pending:
            state = tasks[request.tid].state
            if state is TaskState.PENDING:
                break
            if state is not TaskState.ACTIVE:
                continue
            slack = (self.slo_s - (now - request.arrival_s)) / self.slo_s
            extras[request.tid] = {"slo_slack_frac": max(slack, -1.0)}
        return extras

    def stats(self) -> dict:
        out = {
            "family": self.family,
            "slo_s": self.slo_s,
            "requests": len(self._requests),
            "completed": len(self.latencies_s),
            "slo_misses": self.slo_misses,
            "slo_miss_rate": (
                self.slo_misses / len(self.latencies_s)
                if self.latencies_s
                else 0.0
            ),
        }
        if self.latencies_s:
            p50, p95, p99 = percentiles(self.latencies_s, (0.50, 0.95, 0.99))
            out.update(
                latency_p50_s=p50,
                latency_p95_s=p95,
                latency_p99_s=p99,
                latency_mean_s=sum(self.latencies_s) / len(self.latencies_s),
            )
        return out


# ---------------------------------------------------------------------------
# Barrier-synchronised groups
# ---------------------------------------------------------------------------


@dataclass
class _BarrierGroup:
    """One group of threads sharing a cyclic barrier."""

    name: str
    #: Member thread names (resolved to tids at attach).
    member_names: "tuple[str, ...]"
    interval_instr: float
    n_intervals: int
    tids: "list[int]" = field(default_factory=list)
    #: Barriers released so far (the final barrier coincides with exit
    #: and is never "released" — everyone just exits).
    barriers_released: int = 0
    #: ``tid -> time it blocked`` for the current barrier.
    blocked_since: "dict[int, float]" = field(default_factory=dict)
    stall_s: float = 0.0
    done_s: "float | None" = None


class BarrierRuntime(ScenarioRuntime):
    """The barrier state machine (``pthread_barrier_wait`` semantics).

    Each period, every ``ACTIVE`` member whose progress has reached its
    barrier stop is parked ``BLOCKED`` (the kernel engine already
    refuses to execute past the stop, so no instructions leak
    across the barrier; the state flip stops the parked thread from
    demanding CPU).  Once every member has arrived — ``BLOCKED``, or
    ``EXITED``, which counts as arrived so a thread departing at (or
    while waiting on) a barrier can never wedge its group — all blocked
    members advance their stop by one interval and wake together.
    """

    family = "barrier"

    def __init__(self, groups: "list[_BarrierGroup]") -> None:
        self.groups = groups

    def attach(self, system) -> None:
        by_name = {task.name: task for task in system.tasks}
        for group in self.groups:
            for name in group.member_names:
                task = by_name.get(name)
                if task is None:
                    raise ValueError(
                        f"barrier scenario: member thread {name!r} missing "
                        "from the built workload"
                    )
                group.tids.append(task.tid)
                system.engine.set_barrier_stop(task.tid, group.interval_instr)

    def on_period(self, system) -> None:
        now = system.time_s
        engine = system.engine
        obs = system.obs
        for group in self.groups:
            if group.done_s is not None:
                continue
            arrived = True
            for tid in group.tids:
                task = system.tasks[tid]
                if task.state is TaskState.ACTIVE:
                    if engine.progress[tid] >= engine.barrier_stop[tid]:
                        task.state = TaskState.BLOCKED
                        group.blocked_since[tid] = now
                        engine.set_blocked(tid, True)
                    else:
                        arrived = False
            if arrived and group.blocked_since:
                stall = sum(
                    now - since for since in group.blocked_since.values()
                )
                group.stall_s += stall
                group.barriers_released += 1
                if obs.enabled:
                    obs.tracer.emit(
                        obs_events.BARRIER_STALL,
                        now,
                        group=group.name,
                        barrier=group.barriers_released,
                        stall_s=stall,
                        waiters=len(group.blocked_since),
                    )
                    obs.metrics.inc("scenario.barriers_released")
                for tid in group.blocked_since:
                    engine.set_barrier_stop(
                        tid, float(engine.barrier_stop[tid]) + group.interval_instr
                    )
                    system.tasks[tid].state = TaskState.ACTIVE
                    engine.set_blocked(tid, False)
                group.blocked_since.clear()
            if all(
                system.tasks[tid].state is TaskState.EXITED
                for tid in group.tids
            ):
                group.done_s = now

    def task_extras(self, system) -> "dict[int, dict]":
        """Progress fraction of every member, for progress-equalising
        placement (the ``tpeq`` balancer's input)."""
        extras: "dict[int, dict]" = {}
        progress = system.engine.progress
        for group in self.groups:
            total = group.interval_instr * group.n_intervals
            for tid in group.tids:
                task = system.tasks[tid]
                if task.state in (TaskState.ACTIVE, TaskState.BLOCKED):
                    extras[tid] = {
                        "progress_frac": min(float(progress[tid]) / total, 1.0)
                    }
        return extras

    def stats(self) -> dict:
        done = [g.done_s for g in self.groups if g.done_s is not None]
        return {
            "family": self.family,
            "groups": len(self.groups),
            "members": sum(len(g.tids) for g in self.groups),
            "barriers_released": sum(g.barriers_released for g in self.groups),
            "stall_s": sum(g.stall_s for g in self.groups),
            "groups_completed": len(done),
            # Wall time until the *last* group finished; None while any
            # group is still running at the end of the simulation.
            "makespan_s": max(done) if len(done) == len(self.groups) else None,
        }


# ---------------------------------------------------------------------------
# SMT-style core sharing
# ---------------------------------------------------------------------------


class SmtRuntime(ScenarioRuntime):
    """Switches selected cores into SMT co-run mode (attach-time only).

    The execution model itself lives in the kernel: an SMT core runs
    its runnable threads concurrently with a doubled issue budget, and
    each thread's miss rates and issue share degrade with the summed
    memory appetite of its co-runners (see
    :data:`repro.hardware.microarch.SMT_MISS_INFLATION`).  Nothing to
    do per period — the runtime exists to pick the cores before the
    first period and to report which ones co-ran.
    """

    family = "smt"

    def __init__(self, core_select: str, corunner_names: "tuple[str, ...]") -> None:
        self.core_select = core_select
        self.corunner_names = corunner_names
        self.smt_core_ids: "list[int]" = []

    def attach(self, system) -> None:
        queues = list(system.runqueues)
        if self.core_select == "all":
            chosen = queues
        elif self.core_select == "half":
            chosen = queues[: max(len(queues) // 2, 1)]
        else:  # "big": the more capable half by freq x issue width
            ranked = sorted(
                queues,
                key=lambda q: (
                    q.core.core_type.freq_mhz * q.core.core_type.issue_width
                ),
                reverse=True,
            )
            chosen = ranked[: max(len(queues) // 2, 1)]
        for queue in chosen:
            queue.smt = True
            self.smt_core_ids.append(queue.core.core_id)
        self.smt_core_ids.sort()

    def stats(self) -> dict:
        return {
            "family": self.family,
            "smt_cores": list(self.smt_core_ids),
            "corunners": len(self.corunner_names),
        }
