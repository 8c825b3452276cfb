"""Scenario-aware SmartBalance variants: tpeq and slo.

Both variants keep the paper's pipeline intact — same sensing, same
predictor, same annealer, same adoption gate — and intervene at one
point only: the IPS matrix the objective scores.  Scaling a thread's
predicted-IPS row makes its placement *worth more* to the optimiser,
steering capable cores toward the threads that currently matter most,
without touching the energy model or the watchdog's prediction-error
accounting (the watchdog reads the unscaled smoothed rows that
:meth:`_blend` stores before :meth:`_optimize` runs).

* :class:`TpeqBalance` ("thread progress equalisation", after Lee et
  al.'s TPEq): in a barrier-synchronised program the group's makespan
  is its *slowest* member, so each member's row is scaled by its
  progress deficit against the group leader.  Laggards get big cores;
  threads already at the barrier get none of the weighting.
* :class:`SloAwareBalance`: open-loop request threads carry an SLO
  slack fraction; rows are scaled by deadline urgency so requests
  about to miss get capable cores and fresh requests yield.

Threads without the corresponding scenario observable (``progress_frac``
/ ``slo_slack_frac`` on their :class:`~repro.kernel.view.TaskView`) are
left unscaled, so either variant degrades to stock SmartBalance on a
scenario-free workload.
"""

from __future__ import annotations

import dataclasses

from repro.core.balancer import SmartBalance

__all__ = ["TpeqBalance", "SloAwareBalance", "TPEQ_GAIN", "SLO_GAIN"]

#: Peak IPS-row multiplier is ``1 + gain``: a thread a full interval
#: behind the group leader looks 9x as valuable to place well.  Tuned
#: on the barrier family (5-seed makespan mean): 8.0 beats both 3.0
#: and stock SmartBalance.
TPEQ_GAIN = 8.0
#: Peak urgency multiplier is ``1 + 2 * gain`` (slack clamps at -1).
#: Tuned on the open-loop family (5-seed mean): 8.0 minimises both
#: the SLO-miss rate and p99 latency against stock SmartBalance.
SLO_GAIN = 8.0


class _RowScaledBalance(SmartBalance):
    """Shared machinery: scale IPS rows by a per-thread weight."""

    def _row_weight(self, task_view) -> "float | None":
        """Weight for one thread, or ``None`` to leave it unscaled."""
        raise NotImplementedError

    def _optimize(self, view, matrices, participants, allowed):
        weights = {}
        for task_view in view.tasks:
            weight = self._row_weight(task_view)
            if weight is not None:
                weights[task_view.tid] = weight
        if weights:
            ips = matrices.ips.copy()
            for row, tid in enumerate(matrices.tids):
                weight = weights.get(tid)
                if weight is not None:
                    ips[row] *= weight
            matrices = dataclasses.replace(matrices, ips=ips)
        return super()._optimize(view, matrices, participants, allowed)


class TpeqBalance(_RowScaledBalance):
    """Progress-deficit weighting for barrier-synchronised groups.

    Each epoch the maximum ``progress_frac`` over all scenario threads
    is the pacesetter; a thread's weight grows linearly with its
    deficit against it.  The deficit is recomputed every epoch, so a
    laggard that catches up sheds its boost — the closed loop that
    equalises progress rather than permanently pinning "slow" threads
    to big cores.
    """

    name = "tpeq"
    _pacesetter_frac: "float | None" = None

    def _sense(self, view):
        fracs = [
            tv.progress_frac
            for tv in view.tasks
            if tv.progress_frac is not None
        ]
        self._pacesetter_frac = max(fracs) if fracs else None
        return super()._sense(view)

    def _row_weight(self, task_view) -> "float | None":
        frac = task_view.progress_frac
        if frac is None or self._pacesetter_frac is None:
            return None
        deficit = max(self._pacesetter_frac - frac, 0.0)
        return 1.0 + TPEQ_GAIN * deficit


class SloAwareBalance(_RowScaledBalance):
    """Deadline-urgency weighting for open-loop request traffic.

    ``slo_slack_frac`` is 1 at arrival and 0 at the deadline; urgency
    ``1 - slack`` therefore ramps from 0 to 2 (slack clamps at -1 for
    overdue requests), boosting a request's row up to
    ``1 + 2 * SLO_GAIN`` as its deadline closes in.
    """

    name = "slo"

    def _row_weight(self, task_view) -> "float | None":
        slack = task_view.slo_slack_frac
        if slack is None:
            return None
        urgency = min(max(1.0 - slack, 0.0), 2.0)
        return 1.0 + SLO_GAIN * urgency
