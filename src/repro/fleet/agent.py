"""Node agents: the per-node workers of the fleet tier.

A :class:`NodeAgent` wraps one simulated node — the same role a
``repro.service`` worker process plays in the single-node tier — as a
piece of virtual-time bookkeeping: it runs one job at a time off a
FIFO queue, and each job costs exactly what the profile phase measured
for its (request slot, node platform) pair through the real
sense→predict→balance simulator.  Agents are where the cluster faults
land:

* **crash** — the agent goes silent forever; its queue and running job
  vanish (the dispatcher's ledger, not the agent, is what rescues them).
* **hang** — progress and heartbeats pause for a window; the running
  job's completion shifts by the full window and queued work waits.
* **partition / telemetry faults** — *not* the agent's concern: the
  agent keeps executing and reporting honestly, and the simulation's
  message layer delays or corrupts what the dispatcher sees.

Completion events are claim-checked by token: every (re)scheduled
completion carries a fresh token, and a stale token (job rescheduled
by a hang, node crashed) is ignored — the virtual-time analogue of an
epoch fence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fleet.profiles import ProfileTable
from repro.fleet.spec import FleetJob
from repro.fleet.telemetry import NodeTelemetry


@dataclass
class RunningJob:
    """The job an agent is currently executing."""

    job: FleetJob
    attempt: int
    start_s: float
    done_s: float
    #: Claim-check for the scheduled completion event.
    token: int


@dataclass
class NodeStats:
    """What one node actually did (accumulated at completion time)."""

    jobs_completed: int = 0
    instructions: float = 0.0
    energy_j: float = 0.0
    busy_s: float = 0.0


class NodeAgent:
    """One node: FIFO queue, single executor, fault bookkeeping."""

    def __init__(self, node: int, platform: str, profiles: ProfileTable) -> None:
        self.node = node
        self.platform = platform
        self._profiles = profiles
        self.crashed = False
        self.hang_until = 0.0
        self.running: "RunningJob | None" = None
        self._queue: "list[tuple[FleetJob, int]]" = []
        self._token = 0
        self.stats = NodeStats()

    # ------------------------------------------------------------------
    # Queue / execution
    # ------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Jobs on the node (running + queued)."""
        return len(self._queue) + (1 if self.running is not None else 0)

    def _start(self, job: FleetJob, attempt: int, now: float) -> RunningJob:
        profile = self._profiles.get(job.slot, self.platform)
        start = max(now, self.hang_until)
        self._token += 1
        self.running = RunningJob(
            job=job,
            attempt=attempt,
            start_s=start,
            done_s=start + profile.duration_s,
            token=self._token,
        )
        return self.running

    def assign(self, job: FleetJob, attempt: int, now: float) -> "RunningJob | None":
        """Accept a dispatched job.

        Returns the :class:`RunningJob` (schedule its completion at
        ``done_s`` with its ``token``) when the node was idle, or None
        when the job was queued behind the current one.
        """
        if self.crashed:
            raise RuntimeError(f"dispatch to crashed node {self.node}")
        if self.running is None:
            return self._start(job, attempt, now)
        self._queue.append((job, attempt))
        return None

    def complete(self, now: float, token: int) -> "tuple[RunningJob, RunningJob | None] | None":
        """Deliver a scheduled completion.

        Returns ``(finished, started_next)`` when the token is live —
        ``started_next`` is the queued job that just began (schedule
        its completion), or None when the queue drained.  A stale
        token (crash, hang-reschedule) returns None: ignore the event.
        """
        running = self.running
        if self.crashed or running is None or running.token != token:
            return None
        self.running = None
        profile = self._profiles.get(running.job.slot, self.platform)
        self.stats.jobs_completed += 1
        self.stats.instructions += profile.instructions
        self.stats.energy_j += profile.energy_j
        self.stats.busy_s += running.done_s - running.start_s
        started = None
        if self._queue:
            job, attempt = self._queue.pop(0)
            started = self._start(job, attempt, now)
        return running, started

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Kill the node: everything on it is lost, it never returns."""
        self.crashed = True
        self.running = None
        self._queue.clear()

    def hang(self, now: float, duration_s: float) -> "RunningJob | None":
        """Freeze the node for a window.

        The running job's completion shifts by the full window (its
        token is refreshed — reschedule it at the new ``done_s``);
        queued jobs simply wait.  Returns the rescheduled running job,
        or None when the node was idle or already dead.
        """
        if self.crashed:
            return None
        self.hang_until = max(self.hang_until, now + duration_s)
        if self.running is None:
            return None
        self._token += 1
        self.running.done_s += duration_s
        self.running.token = self._token
        return self.running

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def responsive(self, now: float) -> bool:
        """Can the node speak right now (not crashed, not mid-hang)?"""
        return not self.crashed and now >= self.hang_until

    def telemetry(self, now: float) -> NodeTelemetry:
        """The node's honest heartbeat sample at ``now``.

        Reported IPS/W is the running job's profiled operating point
        (the platform nominal when idle) — faults that make this lie
        are applied by the message layer, not here.
        """
        if self.running is not None:
            profile = self._profiles.get(self.running.job.slot, self.platform)
            ipw = profile.ips_per_watt
        else:
            ipw = self._profiles.nominal_ips_per_watt(self.platform)
        return NodeTelemetry(
            node=self.node,
            t_s=now,
            ips_per_watt=ipw,
            queue_depth=self.queue_depth,
            busy=self.running is not None,
        )
