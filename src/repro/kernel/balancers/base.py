"""Load-balancer interface.

A balancer is the pluggable policy the simulator consults at fixed
intervals — the role of ``rebalance_domains()`` in the vanilla kernel,
which SmartBalance's prototype reimplements (paper Section 5.1).

The contract:

* :meth:`LoadBalancer.rebalance` receives a :class:`~repro.kernel.view.SystemView`
  covering the sensing window just ended and returns either ``None``
  (no changes) or a partial ``tid -> core_id`` placement; the simulator
  migrates every task whose assignment changed.
* ``interval_periods`` sets how many CFS periods pass between calls —
  1 for the vanilla balancer (it runs with every scheduler tick).
  ``None`` means once per simulator epoch, every
  ``SimulationConfig.periods_per_epoch`` (L) periods: SmartBalance and
  its subclasses decide at that one epoch length.
* ``reads_sensors`` says whether the policy reads the view's PMU part
  (counters, rates, power).  It is a fact about the policy, not a
  setting: ``False`` here and on the kernel baselines, which decide
  from task weight and PELT utilisation as Linux CFS and ARM GTS do;
  ``True`` on :class:`~repro.core.balancer.SmartBalance` and its
  subclasses.  The simulator senses a view only for a balancer that
  reads it; otherwise those fields are ``None``.
* Balancers must decide from the view alone; they never see workload
  ground truth.
* After each run the simulator reads four hooks, whose defaults here
  suit a balancer without that output: ``timings`` (per-epoch
  :class:`~repro.core.balancer.PhaseTimings`, the Fig. 7 overhead),
  ``health`` (the :class:`~repro.core.balancer.BalancerHealth` defence
  telemetry), ``governor_stats`` (the DVFS governor's summary) and, after
  every placement, :meth:`LoadBalancer.take_opp_request` (cluster OPP
  switches to apply before the next window).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional, Sequence

from repro.kernel.view import SystemView
from repro.obs import NULL_OBS, ObsContext

if TYPE_CHECKING:
    from repro.core.balancer import BalancerHealth, PhaseTimings

#: Placement delta returned by a balancer: task id -> target core id.
Placement = dict[int, int]


class LoadBalancer(abc.ABC):
    """Abstract cross-core load-balancing policy."""

    #: Human-readable policy name (used in results and figures).
    name: str = "abstract"
    #: CFS periods between rebalance calls; ``None`` is once per epoch.
    interval_periods: Optional[int] = 1
    #: Whether views carry the PMU part (counters, rates, power).
    reads_sensors: bool = False
    #: Observability sink; the simulator assigns its own context here
    #: before the run starts.  Balancers that trace must guard every
    #: emission with ``self.obs.enabled``.
    obs: ObsContext = NULL_OBS
    #: Per-call sense/predict/balance wall-clock timings.
    timings: "Sequence[PhaseTimings]" = ()
    #: Resilience counters of the balancer's defence layer.
    health: "Optional[BalancerHealth]" = None
    #: Summary of the OPP decisions of a DVFS-governing balancer.
    governor_stats: Optional[dict] = None

    @abc.abstractmethod
    def rebalance(self, view: SystemView) -> Optional[Placement]:
        """Return placement changes for the next window, or ``None``."""

    def take_opp_request(self) -> list:
        """Drain the cluster OPP switches adopted since the last call.

        Entries carry ``core_ids``/``new_types`` plus the fields of the
        ``opp_change`` event (see ``System._apply_opp_changes``); a
        balancer that never scales OPPs has none.
        """
        return []

    def validate_placement(self, view: SystemView, placement: Placement) -> None:
        """Raise ``ValueError`` on malformed placements (helper for
        implementations and tests)."""
        known_tids = {t.tid for t in view.tasks}
        n_cores = len(view.platform)
        for tid, core_id in placement.items():
            if tid not in known_tids:
                raise ValueError(f"placement references unknown task {tid}")
            if not 0 <= core_id < n_cores:
                raise ValueError(
                    f"placement sends task {tid} to invalid core {core_id}"
                )


class NullBalancer(LoadBalancer):
    """Keeps the initial placement forever (no balancing).

    The degenerate baseline: whatever round-robin placement tasks start
    with is what they keep.  Useful for tests and as a floor in
    ablation studies.
    """

    name = "none"
    interval_periods = 1_000_000_000

    def rebalance(self, view: SystemView) -> Optional[Placement]:
        return None
