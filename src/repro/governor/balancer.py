"""SmartBalance with the joint placement + DVFS governor plugged in.

:class:`GovernorSmartBalance` subclasses the epoch loop at its two
extension points: ``_sense`` normalises scaled-OPP
measurements back into the nominal frame (so the Eq. 8/9 predictors,
the sanity checks and the adaptation layer keep operating on the data
they were characterised for), and ``_optimize`` replaces the
fixed-OPP balance phase with a joint (allocation, OPP-vector) search.

Adopted OPP switches are queued as
:class:`~repro.governor.ladder.OppChange` entries; the simulator
collects them through the ``take_opp_request()`` hook of
:class:`~repro.kernel.balancers.base.LoadBalancer` right after applying
the placement, so the next sensing window runs at the new operating
points.
"""

from __future__ import annotations

from typing import Optional

from repro.core import balancer as core_balancer
from repro.core.allocation import Allocation
from repro.core.balancer import SmartBalance
from repro.core.config import SmartBalanceConfig
from repro.core.prediction import PredictorModel
from repro.governor.config import N_POINTS, GovernorConfig
from repro.governor.ladder import OppChange, build_ladders, opp_change
from repro.governor.scaling import ConditionedObjectiveFactory, normalize_view
from repro.governor.strategies import STRATEGIES, SearchContext
from repro.kernel.view import SystemView, TaskView
from repro.obs import events as obs_events


class GovernorSmartBalance(SmartBalance):
    """The joint governor riding on the stock sense→predict loop.

    Its balancer name is ``governor:<strategy>``; ``governor_stats``
    and :meth:`take_opp_request` are the simulator-facing hooks it fills.
    """

    def __init__(
        self,
        predictor: "PredictorModel | None" = None,
        config: "SmartBalanceConfig | None" = None,
        obs=None,
        governor: "GovernorConfig | None" = None,
    ) -> None:
        super().__init__(predictor, config, obs)
        self.governor = governor or GovernorConfig(strategy="two_level")
        if self.governor.strategy == "fixed":
            raise ValueError(
                "strategy 'fixed' means no governor: use the stock "
                "SmartBalance instead"
            )
        self.name = f"governor:{self.governor.label}"
        #: Lazily built from the first view's (nominal) platform.
        self._ladders = None
        self._levels: tuple[int, ...] = ()
        self._nominal_by_core: dict[int, object] = {}
        self._core_cluster_index: dict[int, int] = {}
        self._nominal_idle: tuple[float, ...] = ()
        self._nominal_sleep: tuple[float, ...] = ()
        #: Adopted OPP switches awaiting pickup by the simulator.
        self._pending_opp: list[OppChange] = []
        self.governor_stats: dict = {
            "strategy": self.governor.label,
            "n_points": N_POINTS,
            "epochs": 0,
            "opp_changes": 0,
            "candidates_evaluated": 0,
            "transition_energy_j": 0.0,
            "transition_latency_s": 0.0,
            "levels": {},
        }

    # ------------------------------------------------------------------

    def _ensure_ladders(self, view: SystemView) -> None:
        if self._ladders is not None:
            return
        self._ladders = build_ladders(view.platform, N_POINTS)
        self._levels = tuple(
            ladder.top for ladder in self._ladders
        )
        for index, ladder in enumerate(self._ladders):
            for i, core_id in enumerate(ladder.core_ids):
                self._nominal_by_core[core_id] = ladder.nominal_types[i]
                self._core_cluster_index[core_id] = index
        self.governor_stats["levels"] = {
            ladder.cluster: level
            for ladder, level in zip(self._ladders, self._levels)
        }

    def take_opp_request(self) -> "list[OppChange]":
        """Drain the adopted-but-unapplied OPP switches."""
        pending, self._pending_opp = self._pending_opp, []
        return pending

    def _opp_bin_for(self, task: TaskView) -> "int | None":
        """The OPP level the observed core was running at — the
        adaptation layer bins its drift detectors by it so a residual
        shift caused by an OPP change is never mistaken for model
        drift on the nominal-frame pair."""
        index = self._core_cluster_index.get(task.core_id)
        if index is None:
            return None
        return self._levels[index]

    # ------------------------------------------------------------------
    # Epoch-loop hooks
    # ------------------------------------------------------------------

    def _sense(self, view: SystemView) -> SystemView:
        view = super()._sense(view)
        self._ensure_ladders(view)
        if not self._nominal_idle:
            # First epoch runs with every cluster at its top (nominal)
            # rung, so this view's firmware-table vectors *are* the
            # nominal ones — stash them for the normalised frame.
            self._nominal_idle = tuple(core.idle_power_w for core in view.cores)
            self._nominal_sleep = tuple(core.sleep_power_w for core in view.cores)
        return normalize_view(
            view,
            self._nominal_by_core,
            self._nominal_idle,
            self._nominal_sleep,
        )

    def _optimize(
        self,
        view: SystemView,
        matrices,
        participants,
        allowed,
    ):
        oc = self.obs
        t_s = view.time_s
        core_types = [core.core_type for core in view.platform]
        factory = ConditionedObjectiveFactory(
            ips=matrices.ips,
            power=matrices.power,
            utilization=matrices.utilization,
            nominal_types=core_types,
            nominal_idle_w=self._nominal_idle,
            nominal_sleep_w=self._nominal_sleep,
            ladders=self._ladders,
            weights=self._objective_weights(view),
            mode=self.config.objective_mode,
            allowed=allowed,
        )
        incumbent = Allocation.from_mapping(
            [task.core_id for task in participants], n_cores=len(core_types)
        )
        ctx = SearchContext(
            factory=factory,
            ladders=self._ladders,
            incumbent=incumbent,
            current_levels=self._levels,
            participants=len(participants),
            sa_config=core_balancer.SA_CONFIG,
            gov=self.governor,
            keep_trace=oc.enabled,
        )
        with oc.span("governor_search"):
            outcome = STRATEGIES[self.governor.strategy](ctx)
        self._note_anneal(view, outcome.sa_result, t_s)

        # Adopt the OPP side of the decision: queue one OppChange per
        # switched cluster for the simulator to apply after the
        # placement lands.
        changes: list[OppChange] = []
        transition_energy = 0.0
        if outcome.levels != self._levels:
            for index, ladder in enumerate(self._ladders):
                if outcome.levels[index] != self._levels[index]:
                    change = opp_change(
                        ladder,
                        self._levels[index],
                        outcome.levels[index],
                    )
                    changes.append(change)
                    transition_energy += change.transition_energy_j
                    self.governor_stats["transition_latency_s"] += (
                        change.transition_latency_s
                    )
            self._pending_opp.extend(changes)
            self._levels = outcome.levels

        stats = self.governor_stats
        stats["epochs"] += 1
        stats["opp_changes"] += len(changes)
        stats["candidates_evaluated"] += outcome.candidates_evaluated
        stats["transition_energy_j"] += transition_energy
        stats["levels"] = {
            ladder.cluster: level
            for ladder, level in zip(self._ladders, self._levels)
        }

        placement: "Optional[dict[int, int]]" = None
        if outcome.changes:
            placement = {
                matrices.tids[thread]: core
                for thread, core in outcome.changes.items()
            }

        if oc.enabled:
            oc.tracer.emit(
                obs_events.GOVERNOR_DECISION,
                t_s,
                epoch=view.epoch_index,
                strategy=self.governor.label,
                opp_levels=list(self._levels),
                candidates_evaluated=outcome.candidates_evaluated,
                opp_changes=len(changes),
                incumbent_value=outcome.incumbent_value,
                best_value=outcome.sa_result.best_value,
                transition_energy_j=transition_energy,
                adopted=bool(placement or changes),
            )
            oc.metrics.inc("governor.epochs")
            if changes:
                oc.metrics.inc("governor.opp_changes", len(changes))

        return placement, outcome.sa_result, outcome.incumbent_value
