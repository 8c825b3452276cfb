"""The SmartBalance epoch loop: sense → predict → balance.

Orchestrates the three phases of paper Section 4 at each epoch
boundary and returns the thread migrations to apply.  Each phase is
wall-clock timed — those timings are the per-phase overhead the paper
reports in Fig. 7.

:class:`SmartBalance` is the kernel load balancer itself, the role of
the reimplemented ``rebalance_domains()`` in the paper's Linux
prototype (Section 5.1): the simulator calls :meth:`SmartBalance.rebalance`
once per epoch (every ``L`` CFS periods).  It decides from the
observable :class:`~repro.kernel.view.SystemView` alone, so
:meth:`SmartBalance.decide` can also be driven directly with synthetic
views in tests and benchmarks.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.allocation import Allocation
from repro.core.annealing import SAConfig, SAResult, anneal
from repro.core.config import SmartBalanceConfig
from repro.core.estimation import feature_matrix
from repro.core.objective import EnergyEfficiencyObjective
from repro.core.prediction import CharacterisationMatrices, MatrixBuilder, PredictorModel
from repro.core.sensing import (
    FAULT_REASONS,
    IPC,
    IPS,
    PLAUSIBLE,
    POWER,
    TaskColumns,
    gather_tasks,
    observation_faults,
)
from repro.core.training import default_predictor
from repro.hardware.thermal import thermal_weights
from repro.kernel.balancers.base import LoadBalancer, Placement
from repro.kernel.view import SystemView, TaskView
from repro.obs import NULL_OBS, ObsContext
from repro.obs import events as obs_events

if TYPE_CHECKING:
    from repro.adaptation.controller import AdaptationController

# Fixed tuning values.  Each is read when it is used, so a test can
# monkeypatch it on this module.

#: Algorithm 1's inputs for every epoch's anneal.
SA_CONFIG = SAConfig()
#: Relative objective gain the annealer must find before the new
#: allocation is adopted; guards against migration churn when the
#: incumbent allocation is already near-optimal.  The paper's overhead
#: analysis assumes ~50 % of threads migrate per epoch; a small
#: threshold keeps migrations purposeful.
MIN_IMPROVEMENT = 0.02
#: Extra relative objective gain demanded per migrated thread (scaled
#: by the fraction of threads moving).  Models the cache warm-up cost a
#: migration actually incurs, so the balancer does not chase marginal
#: predicted gains with real migrations.
MIGRATION_PENALTY = 0.25
#: EWMA weight of the newest epoch when smoothing per-thread
#: characterisation rows across epochs.  Smoothing keeps the balancer
#: targeting a thread's *time-averaged* behaviour instead of chasing
#: phases faster than a migration can pay off.
SMOOTHING = 0.4
#: Median relative prediction error above which an epoch counts
#: against the predictor watchdog.
WATCHDOG_TOLERANCE = 0.6
#: Consecutive out-of-band epochs that trip the watchdog.
WATCHDOG_TRIP_EPOCHS = 3
#: Consecutive in-band epochs that clear a tripped watchdog.
WATCHDOG_RECOVERY_EPOCHS = 2
#: Consecutive epochs a thread's samples may be rejected before the
#: next one is accepted anyway.  A transient glitch (spike, wrap)
#: clears within an epoch or two; an anomaly that persists is a regime
#: change (e.g. invisible firmware throttling) and the "corrupt"
#: readings are the new truth — staying blind to them forever would be
#: worse than any fault.
REBASELINE_EPOCHS = 3

_TID = attrgetter("tid")


def adoption_threshold(
    n_changes: int, participants: int, opp_gain: float = 0.0
) -> float:
    """The adoption gate: the factor by which a new decision's predicted
    objective must beat the incumbent's.

    :data:`MIN_IMPROVEMENT` guards against churn and
    :data:`MIGRATION_PENALTY`, scaled by the fraction of the
    ``participants`` that move, prices their cache warm-up.
    ``opp_gain`` is the governor's hysteresis for switched clusters;
    stock SmartBalance adds nothing.
    """
    return (
        1.0
        + MIN_IMPROVEMENT
        + MIGRATION_PENALTY * n_changes / max(participants, 1)
        + opp_gain
    )


@dataclass(frozen=True)
class PhaseTimings:
    """Wall-clock seconds spent in each SmartBalance phase (Fig. 7)."""

    sense_s: float
    predict_s: float
    balance_s: float

    @property
    def total_s(self) -> float:
        return self.sense_s + self.predict_s + self.balance_s


@dataclass
class BalancerHealth:
    """Cumulative resilience counters of one SmartBalance instance.

    The defence layer's own telemetry: how many samples it refused,
    how often it leaned on stale rows and whether the predictor
    watchdog ever tripped.
    """

    samples_rejected: int = 0
    rejects_by_reason: dict[str, int] = field(default_factory=dict)
    #: Rejected threads kept in the optimisation via their last good row.
    fallback_rows_used: int = 0
    #: Rejected threads with no history, excluded for the epoch.
    threads_dropped: int = 0
    #: Samples accepted despite failing the checks because the same
    #: thread had been rejected for ``REBASELINE_EPOCHS`` straight —
    #: a persistent anomaly is treated as the new operating regime.
    samples_rebaselined: int = 0
    watchdog_trips: int = 0
    #: Epochs decided by capability fallback instead of the predictor.
    watchdog_fallback_epochs: int = 0
    #: Epochs in which at least one core was masked out as offline.
    hotplug_masked_epochs: int = 0
    #: Adaptation-layer telemetry (zero while adaptation is disabled).
    drift_detections: int = 0
    model_updates: int = 0
    model_rollbacks: int = 0
    #: Watchdog trips resolved by an online re-fit instead of falling
    #: back to capability placement (repair before fallback).
    watchdog_repairs: int = 0

    def note_reject(self, reason: str) -> None:
        self.samples_rejected += 1
        self.rejects_by_reason[reason] = self.rejects_by_reason.get(reason, 0) + 1


@dataclass(frozen=True)
class BalanceDecision:
    """Outcome of one epoch's sense-predict-balance pass."""

    #: ``tid -> core_id`` changes to apply; ``None`` when the incumbent
    #: allocation is kept.
    placement: Optional[dict[int, int]]
    timings: PhaseTimings
    #: The annealer's run, when the balance phase executed.
    sa_result: Optional[SAResult] = None
    #: The characterisation matrices, when built.
    matrices: Optional[CharacterisationMatrices] = None
    #: Objective value of the incumbent allocation under this epoch's
    #: matrices (for convergence diagnostics).
    incumbent_value: float = 0.0
    #: True when the watchdog had this epoch decided by capability-
    #: aware load equalisation instead of the predictor+SA pipeline.
    fallback: bool = False
    #: Observations the sanity checks rejected this epoch.
    rejected_samples: int = 0


class SmartBalance(LoadBalancer):
    """Closed-loop sensing-driven load balancer (the paper's system).

    Decides once per simulator epoch, every
    ``SimulationConfig.periods_per_epoch`` (L) CFS periods;
    ``predictor`` defaults to the trained
    :func:`~repro.core.training.default_predictor`.  ``config`` holds
    the settings a run can choose; the fixed tuning values are this
    module's constants (:data:`SA_CONFIG`, :data:`MIN_IMPROVEMENT`,
    :data:`MIGRATION_PENALTY`, :data:`SMOOTHING`, the watchdog values
    and :data:`REBASELINE_EPOCHS`).
    """

    name = "smartbalance"
    #: Once per simulator epoch: ``System.run`` supplies L.
    interval_periods = None
    #: The sense phase reads per-thread counters and power (Section 4.1).
    reads_sensors = True

    def __init__(
        self,
        predictor: Optional[PredictorModel] = None,
        config: SmartBalanceConfig | None = None,
        obs: Optional[ObsContext] = None,
    ) -> None:
        if predictor is None:
            predictor = default_predictor()
        self.predictor = predictor
        self.config = config or SmartBalanceConfig()
        #: Observability sink; the shared disabled context by default,
        #: so every emission below is one attribute check when off.
        self.obs = obs if obs is not None else NULL_OBS
        self._builder = MatrixBuilder(predictor)
        #: Smoothed characterisation rows (EWMA across epochs, in
        #: prediction space: aligned to platform cores, so smoothing
        #: survives migrations): ``_smoothed[0/1/2]`` are the IPS, power
        #: and demand matrices of the last predict phase, rejected
        #: threads' carried rows included, and ``_smoothed_row[tid]`` is
        #: a thread's row in them.  Doubles as the last-good-row store
        #: the fallback defence reads when a fresh sample is rejected,
        #: and as last epoch's predictions for the watchdog.
        self._smoothed = np.zeros((3, 0, 0))
        self._smoothed_row: dict[int, int] = {}
        self._watchdog_strikes = 0
        self._watchdog_recoveries = 0
        self._watchdog_tripped = False
        #: Per-tid consecutive epochs with a rejected sample.
        self._reject_streak: dict[int, int] = {}
        self.health = BalancerHealth()
        #: Per-epoch phase timings of :meth:`rebalance` (Fig. 7 raw data).
        self.timings: list[PhaseTimings] = []
        #: Observability-only prediction provenance, maintained only
        #: while ``obs.enabled`` (the simulation never reads it): the
        #: core-type name each thread ran on when the last prediction
        #: was made — with the smoothed rows it turns next epoch's
        #: measurement into a Table 4 sample.
        self._obs_src_type: dict[int, str] = {}
        #: Online model maintenance (None unless opted in): the
        #: controller owns the model registry; the balancer feeds it
        #: the epoch's observations and swaps its own predictor when a
        #: re-fit commits or rolls back.
        self._adaptation: Optional[AdaptationController] = None
        if self.config.adaptation:
            # Imported here: a run without adaptation never loads it.
            from repro.adaptation.controller import AdaptationController

            self._adaptation = AdaptationController(predictor)
        #: Per-tid ``(core-type name, feature vector)`` of the previous
        #: epoch's measurement, kept only while adaptation is on: a
        #: thread measured on type A one epoch and on type B the next is
        #: one supervised sample for the A→B regression.
        self._adapt_prev: dict[int, tuple[str, np.ndarray]] = {}

    @property
    def adaptation(self) -> Optional[AdaptationController]:
        """The online-maintenance controller (None when disabled)."""
        return self._adaptation

    def _swap_model(self, model: PredictorModel) -> None:
        """Activate a different predictor (commit or rollback)."""
        self.predictor = model
        self._builder = MatrixBuilder(model)

    def _opp_bin_for(self, task: TaskView) -> "int | None":
        """OPP level of the observed core, for (pair, bin)-keyed drift
        detection.  The stock balancer never scales OPPs, so there is
        nothing to bin by; the governor subclass overrides this."""
        return None

    def _adaptation_step(self, healthy: TaskColumns, view, t_s: float) -> None:
        """Feed this epoch's observations to the adaptation controller
        and adopt whatever model it decides is active afterwards.

        Runs in the predict phase *before* the characterisation
        matrices are built, so a committed re-fit (or rollback) takes
        effect in the same epoch that triggered it.
        """
        from repro.adaptation.controller import PairSample, PowerSample

        ctrl = self._adaptation
        ipc_samples: list[PairSample] = []
        power_samples: list[PowerSample] = []
        records = healthy.records
        readings = healthy.values[:, [IPC, POWER]].tolist()
        for task, (ipc, power_w) in zip(records, readings):
            dst = task.core_type.name
            prev = self._adapt_prev.get(task.tid)
            if prev is not None and prev[0] != dst and ipc > 0:
                ipc_samples.append(
                    PairSample(
                        src=prev[0],
                        dst=dst,
                        features=prev[1],
                        ipc=ipc,
                        opp_bin=self._opp_bin_for(task),
                    )
                )
            if ipc > 0 and power_w > 0:
                power_samples.append(
                    PowerSample(
                        type_name=dst,
                        ipc=ipc,
                        power_w=power_w,
                    )
                )
        report = ctrl.observe_epoch(
            ipc_samples,
            power_samples,
            epoch=view.epoch_index,
            t_s=t_s,
            obs=self.obs,
        )
        if report.model_changed:
            self._swap_model(ctrl.model)
        # Mirror the controller's totals into the health counters the
        # simulator folds into ResilienceStats.
        self.health.drift_detections = ctrl.drift_detections
        self.health.model_updates = ctrl.model_updates
        self.health.model_rollbacks = ctrl.model_rollbacks
        # Remember this epoch's measurement context for next epoch's
        # cross-type samples; forget threads that no longer exist.
        for task, features in zip(records, feature_matrix(healthy)):
            self._adapt_prev[task.tid] = (task.core_type.name, features)
        live = {task.tid for task in view.tasks}
        for tid in list(self._adapt_prev):
            if tid not in live:
                del self._adapt_prev[tid]

    def _attempt_watchdog_repair(self, view, t_s: float) -> bool:
        """Watchdog handoff: ask the adaptation layer for a confident
        re-fit before surrendering the epoch to capability fallback."""
        ctrl = self._adaptation
        if ctrl is None:
            return False
        if not ctrl.attempt_repair(view.epoch_index, t_s, obs=self.obs):
            return False
        self._swap_model(ctrl.model)
        self._watchdog_tripped = False
        self._watchdog_strikes = 0
        self._watchdog_recoveries = 0
        self.health.watchdog_repairs += 1
        self.health.model_updates = ctrl.model_updates
        if self.obs.enabled:
            self.obs.tracer.emit(
                obs_events.DEGRADATION,
                t_s,
                state="watchdog_repaired",
                cause="model_refit",
            )
            self.obs.metrics.inc("balancer.watchdog_repairs")
        return True

    def _blend(
        self,
        matrices: CharacterisationMatrices,
        keep: "Sequence[int]" = (),
    ) -> CharacterisationMatrices:
        """EWMA-smooth per-thread matrix rows across epochs.

        Workload phases can flip faster than a migration pays off;
        chasing each epoch's snapshot produces migration storms with no
        realised gain.  Blending each thread's predicted (IPS, power,
        demand) row over the recent epochs makes the balancer target
        the thread's *time-averaged* behaviour.  Rows live in
        prediction space — indexed by platform core, not by where the
        thread happened to run — so smoothing survives migrations.

        ``keep`` lists tids that are alive but absent from this epoch's
        matrices (their sample was rejected); their stored rows are
        carried over, after the blended ones, so the last-good-row
        fallback can read them.  One gather takes both the history of
        the blended threads and the carried rows.

        The blend is written into ``matrices.rows()``, which becomes
        the new store: the block :meth:`MatrixBuilder.build` wrote S, P
        and U into.  The old store is only read, so matrices an earlier
        decision returned (views of it) never change.
        """
        beta = SMOOTHING
        row_of = self._smoothed_row
        tids = matrices.tids
        fresh = matrices.rows()
        kept = [tid for tid in keep if tid in row_of]
        store = fresh
        if not kept and tuple(row_of) == tids:
            # The store holds these threads' rows in this order: blend
            # against it as it is, out of place.
            fresh *= beta
            fresh += np.multiply(self._smoothed, 1.0 - beta)
        else:
            known = [i for i, tid in enumerate(tids) if tid in row_of]
            if known or kept:
                prev = self._smoothed.take(
                    [row_of[tids[i]] for i in known] + [row_of[tid] for tid in kept],
                    axis=1,
                )
                if known:
                    # (1 − β)·prev + β·new, each product rounded once and
                    # summed in one addition, without full-size temporaries.
                    history = prev[:, : len(known)]
                    history *= 1.0 - beta
                    whole = len(known) == len(tids)
                    blended = fresh if whole else fresh[:, known]
                    blended *= beta
                    blended += history
                    if not whole:
                        fresh[:, known] = blended
                if kept:
                    store = np.concatenate((fresh, prev[:, len(known) :]), axis=1)
            self._smoothed_row = {tid: row for row, tid in enumerate((*tids, *kept))}
        self._smoothed = store
        ips, power, util = fresh
        return replace(matrices, ips=ips, power=power, utilization=util)

    def _append_fallback_rows(
        self,
        matrices: CharacterisationMatrices,
        fallback: list[TaskView],
    ) -> CharacterisationMatrices:
        """Extend the matrices with stored last-good rows for threads
        whose fresh sample was rejected (all of them must be in the
        smoothed store)."""
        n = matrices.ips.shape[1]
        ips, power, util = self._smoothed[
            :, [self._smoothed_row[task.tid] for task in fallback]
        ]
        return replace(
            matrices,
            tids=matrices.tids + tuple(task.tid for task in fallback),
            ips=np.vstack([matrices.ips, ips]),
            power=np.vstack([matrices.power, power]),
            utilization=np.vstack([matrices.utilization, util]),
            measured_mask=np.vstack(
                [matrices.measured_mask, np.zeros((len(fallback), n), dtype=bool)]
            ),
        )

    def _last_prediction(self, task: TaskView) -> "tuple[float, float] | None":
        """Last epoch's smoothed (IPS, power) prediction for ``task`` on
        the core it ran on, or None when there is none."""
        row = self._smoothed_row.get(task.tid)
        smoothed = self._smoothed
        core = task.core_id
        if row is None or not 0 <= core < smoothed.shape[2]:
            return None
        return smoothed[0, row, core], smoothed[1, row, core]

    def _watchdog_update(self, healthy: TaskColumns, t_s: float = 0.0) -> None:
        """Advance the predictor-divergence watchdog one epoch.

        The check the paper cannot fail but a deployment can: compare
        each thread's measured IPS against what the balancer *predicted*
        for the core the thread actually ran on.  Median relative error
        across threads is robust to one bad thread; a predictor that is
        systematically wrong (model drift, corrupt Θ, throttled clocks
        it cannot see) pushes the median out of band epoch after epoch.
        """
        smoothed = self._smoothed
        rows = np.fromiter(
            map(self._smoothed_row.get, map(_TID, healthy.records), repeat(-1)),
            dtype=np.intp,
            count=len(healthy),
        )
        cores = healthy.core_id
        known = (rows >= 0) & (cores >= 0) & (cores < smoothed.shape[2])
        predicted = smoothed[0, rows[known], cores[known]]
        positive = predicted > 0
        predicted = predicted[positive]
        measured = healthy.values[known, IPS][positive]
        if not predicted.size:
            return
        errors = np.abs(measured - predicted) / predicted
        out_of_band = statistics.median(errors.tolist()) > WATCHDOG_TOLERANCE
        if self._watchdog_tripped:
            if out_of_band:
                self._watchdog_recoveries = 0
            else:
                self._watchdog_recoveries += 1
                if self._watchdog_recoveries >= WATCHDOG_RECOVERY_EPOCHS:
                    self._watchdog_tripped = False
                    self._watchdog_recoveries = 0
                    if self.obs.enabled:
                        self.obs.tracer.emit(
                            obs_events.DEGRADATION,
                            t_s,
                            state="watchdog_recovered",
                            cause="prediction_error_back_in_band",
                        )
        else:
            if out_of_band:
                self._watchdog_strikes += 1
                if self._watchdog_strikes >= WATCHDOG_TRIP_EPOCHS:
                    self._watchdog_tripped = True
                    self._watchdog_strikes = 0
                    self.health.watchdog_trips += 1
                    if self.obs.enabled:
                        self.obs.tracer.emit(
                            obs_events.DEGRADATION,
                            t_s,
                            state="watchdog_tripped",
                            cause="median_prediction_error_out_of_band",
                        )
                        self.obs.metrics.inc("balancer.watchdog_trips")
            else:
                self._watchdog_strikes = 0

    def _capability_placement(
        self,
        participants: list[TaskView],
        view: SystemView,
        allowed: Optional[np.ndarray],
    ) -> dict[int, int]:
        """Predictor-free fallback: capability-aware load equalisation.

        Greedy worst-fit by utilisation onto the core with the lowest
        resulting load per unit capability (``freq × issue width``) —
        the heterogeneity-aware version of what CFS would do, needing
        nothing from sensors or models beyond kernel bookkeeping.
        """
        cores = list(view.platform)
        capability = [
            max(c.core_type.freq_mhz * c.core_type.issue_width, 1e-9) for c in cores
        ]
        load = [0.0] * len(cores)
        order = sorted(
            range(len(participants)),
            key=lambda i: participants[i].utilization,
            reverse=True,
        )
        placement: dict[int, int] = {}
        for i in order:
            task = participants[i]
            if allowed is not None:
                candidates = [j for j in range(len(cores)) if allowed[i, j]]
            else:
                candidates = list(range(len(cores)))
            if not candidates:
                candidates = [task.core_id]
            best = min(
                candidates,
                key=lambda j: (load[j] + task.utilization) / capability[j],
            )
            load[best] += task.utilization
            if best != task.core_id:
                placement[task.tid] = best
        return placement

    def _emit_prediction_checks(self, healthy: TaskColumns, t_s: float) -> None:
        """Score last epoch's per-thread predictions against this
        epoch's realised measurements (the Table 4 accuracy data).

        Reads the *previous* epoch's smoothed rows, so it must run
        before this epoch's :meth:`_blend` overwrites them.  Only called
        while ``obs.enabled``; touches no simulation state.
        """
        oc = self.obs
        readings = healthy.values[:, [IPS, POWER]].tolist()
        for task, (measured, measured_power) in zip(healthy.records, readings):
            last = self._last_prediction(task)
            if last is None:
                continue
            predicted = float(last[0])
            src_type = self._obs_src_type.get(task.tid)
            if predicted <= 0 or measured <= 0 or src_type is None:
                continue
            dst_type = task.core_type.name
            ipc_error = abs(measured - predicted) / measured * 100.0
            payload: dict = {
                "tid": task.tid,
                "src_type": src_type,
                "dst_type": dst_type,
                "core": task.core_id,
                "predicted_ips": predicted,
                "measured_ips": measured,
                "ipc_abs_pct_error": ipc_error,
            }
            predicted_power = float(last[1])
            if predicted_power > 0 and measured_power > 0:
                payload["predicted_power_w"] = predicted_power
                payload["measured_power_w"] = measured_power
                payload["power_abs_pct_error"] = (
                    abs(measured_power - predicted_power) / measured_power * 100.0
                )
            oc.tracer.emit(obs_events.PREDICTION_CHECK, t_s, **payload)
            pair = f"{src_type}->{dst_type}"
            oc.metrics.observe(f"prediction.ipc.abs_pct_error[{pair}]", ipc_error)
            if "power_abs_pct_error" in payload:
                oc.metrics.observe(
                    f"prediction.power.abs_pct_error[{pair}]",
                    payload["power_abs_pct_error"],
                )

    def _finish(self, view: SystemView, decision: BalanceDecision) -> BalanceDecision:
        """Emit the epoch's ``decision`` event and pass it through."""
        oc = self.obs
        if oc.enabled:
            oc.tracer.emit(
                obs_events.DECISION,
                view.time_s,
                epoch=view.epoch_index,
                migrations=len(decision.placement) if decision.placement else 0,
                fallback=decision.fallback,
                rejected=decision.rejected_samples,
                incumbent_value=decision.incumbent_value,
                best_value=(
                    decision.sa_result.best_value if decision.sa_result else None
                ),
            )
            oc.metrics.inc("balancer.epochs")
            if decision.placement:
                oc.metrics.inc(
                    "balancer.proposed_migrations", len(decision.placement)
                )
        return decision

    def _sense(self, view: SystemView) -> SystemView:
        """Sense-phase hook: the view the sanity checks and predictor
        consume.

        Subclasses may override to post-process the view — the
        governor tier normalises measurements taken at a scaled
        operating point back into the nominal-frequency frame here,
        *after* the kernel-side sensing but before any model sees the
        numbers.
        """
        return view

    def _objective_weights(self, view: SystemView) -> "Optional[Sequence[float]]":
        """Per-core objective weights: thermal headroom weights when
        thermal-aware balancing has temperatures, else ``None`` (all
        ones)."""
        if self.config.thermal_aware and view.cores:
            return thermal_weights(
                [core.temperature_c for core in view.cores],
                knee_c=self.config.thermal_knee_c,
                zero_c=self.config.thermal_zero_c,
            )
        return None

    def _note_anneal(self, view: SystemView, result: SAResult, t_s: float) -> None:
        """Emit the epoch's ``anneal`` event."""
        oc = self.obs
        if oc.enabled:
            oc.tracer.emit(
                obs_events.ANNEAL,
                t_s,
                epoch=view.epoch_index,
                iterations=result.iterations,
                accepted=result.accepted_moves,
                uphill=result.uphill_accepts,
                initial_value=result.initial_value,
                best_value=result.best_value,
                improvement_pct=result.improvement * 100.0,
                samples=result.trace.samples if result.trace else None,
            )
            oc.metrics.inc("annealer.runs")
            oc.metrics.inc("annealer.iterations", result.iterations)
            oc.metrics.inc("annealer.accepted_moves", result.accepted_moves)

    def _optimize(
        self,
        view: SystemView,
        matrices: CharacterisationMatrices,
        participants: list[TaskView],
        allowed: "Optional[np.ndarray]",
    ) -> "tuple[Optional[dict[int, int]], SAResult, float]":
        """Balance-phase hook: pick the next placement given this
        epoch's characterisation matrices.

        The base implementation is the paper's pipeline — Eq. 10/11
        objective + Algorithm 1 annealing + the adoption gate — over a
        fixed operating point.  The governor tier overrides this to
        search (allocation, OPP vector) jointly.  Returns
        ``(placement, sa_result, incumbent_value)``; ``placement`` is
        ``None`` when the incumbent is kept.
        """
        t_s = view.time_s
        objective = EnergyEfficiencyObjective(
            ips=matrices.ips,
            power=matrices.power,
            utilization=matrices.utilization,
            idle_power=[core.idle_power_w for core in view.cores],
            sleep_power=[core.sleep_power_w for core in view.cores],
            weights=self._objective_weights(view),
            mode=self.config.objective_mode,
            allowed=allowed,
        )
        incumbent = Allocation.from_mapping(
            [task.core_id for task in participants], n_cores=len(view.platform)
        )
        incumbent_value = objective.evaluate(incumbent)
        result = anneal(
            objective, incumbent, SA_CONFIG, keep_trace=self.obs.enabled
        )
        self._note_anneal(view, result, t_s)
        changes = incumbent.diff(result.best_allocation)
        required = adoption_threshold(len(changes), len(participants))
        placement: Optional[dict[int, int]] = None
        if changes and result.best_value > incumbent_value * required:
            placement = {
                matrices.tids[thread]: core for thread, core in changes.items()
            }
        return placement, result, incumbent_value

    def rebalance(self, view: SystemView) -> Optional[Placement]:
        """One epoch as the kernel balancer: :meth:`decide`, keeping the
        phase timings for the Fig. 7 overhead analysis."""
        decision = self.decide(view)
        self.timings.append(decision.timings)
        if decision.placement:
            self.validate_placement(view, decision.placement)
        return decision.placement

    def decide(self, view: SystemView) -> BalanceDecision:
        """Run one epoch's sense → predict → balance pass."""
        oc = self.obs
        t_s = view.time_s
        mitigations = self.config.mitigations
        with oc.span("sense") as sense_span:
            view = self._sense(view)
            # Only user threads are balanced (paper Section 5.1: kernel
            # threads are marked at ``sched_fork`` and left to CFS since
            # user threads dominate).
            users = gather_tasks(view)

            # Sanity-check the samples before they touch the predictor:
            # a corrupt observation poisons not just this epoch but
            # (through the EWMA) several following ones.
            keep = users.measured
            rejected: list[TaskView] = []
            reject_reasons: dict[int, str] = {}
            rebaselined: list[TaskView] = []
            if mitigations:
                faults = observation_faults(users)
                records = users.records
                streaks = self._reject_streak
                if streaks:
                    # A plausible sample ends its thread's streak.
                    for row in np.flatnonzero(keep & (faults == PLAUSIBLE)).tolist():
                        streaks.pop(records[row].tid, None)
                rejected_rows = []
                for row in np.flatnonzero(keep & (faults != PLAUSIBLE)).tolist():
                    task = records[row]
                    streak = streaks.get(task.tid, 0) + 1
                    if streak >= REBASELINE_EPOCHS:
                        # The anomaly has persisted long enough that it
                        # is the new normal (e.g. a silently throttled
                        # core): accept the sample and re-baseline
                        # rather than optimise against a world that no
                        # longer exists.
                        streaks.pop(task.tid, None)
                        self.health.samples_rebaselined += 1
                        rebaselined.append(task)
                    else:
                        reason = FAULT_REASONS[faults[row]]
                        streaks[task.tid] = streak
                        rejected.append(task)
                        reject_reasons[task.tid] = reason
                        self.health.note_reject(reason)
                        rejected_rows.append(row)
                if rejected_rows:
                    keep = keep.copy()
                    keep[rejected_rows] = False
            healthy = users if keep.all() else users.take(np.flatnonzero(keep))
            # Last-good-row fallback: a rejected thread with history
            # keeps participating through its stored EWMA row; one with
            # no history sits this epoch out.  (Only the enabled
            # defences reject samples in the first place.)
            fallback: list[TaskView] = []
            dropped: list[TaskView] = []
            for task in rejected:
                if task.tid in self._smoothed_row:
                    fallback.append(task)
                    self.health.fallback_rows_used += 1
                else:
                    dropped.append(task)
                    self.health.threads_dropped += 1

        if oc.enabled:
            oc.tracer.emit(
                obs_events.SENSE,
                t_s,
                epoch=view.epoch_index,
                window_s=view.window_s,
                threads=len(view.tasks),
                measured=int(users.measured.sum()),
                healthy=len(healthy),
                rejected=len(rejected),
                fallback_rows=len(fallback),
            )
            for task in rebaselined:
                oc.tracer.emit(
                    obs_events.MITIGATION,
                    t_s,
                    kind="rebaseline",
                    cause="persistent_anomaly",
                    tid=task.tid,
                )
                oc.metrics.inc("balancer.samples_rebaselined")
            for task in rejected:
                reason = reject_reasons.get(task.tid, "unknown")
                oc.tracer.emit(
                    obs_events.MITIGATION,
                    t_s,
                    kind="sample_rejected",
                    cause=reason,
                    tid=task.tid,
                )
                oc.metrics.inc(f"balancer.samples_rejected[{reason}]")
            for task in fallback:
                oc.tracer.emit(
                    obs_events.MITIGATION,
                    t_s,
                    kind="fallback_row",
                    cause="sample_rejected",
                    tid=task.tid,
                )
                oc.metrics.inc("balancer.fallback_rows_used")
            for task in dropped:
                oc.tracer.emit(
                    obs_events.MITIGATION,
                    t_s,
                    kind="thread_dropped",
                    cause="sample_rejected_no_history",
                    tid=task.tid,
                )
                oc.metrics.inc("balancer.threads_dropped")

        if not len(healthy):
            # Nothing trustworthy sensed this epoch (first epoch, or
            # every sensor glitched at once): freeze the placement.
            timings = PhaseTimings(
                sense_s=sense_span.elapsed_s, predict_s=0.0, balance_s=0.0
            )
            return self._finish(
                view,
                BalanceDecision(
                    placement=None, timings=timings, rejected_samples=len(rejected)
                ),
            )

        with oc.span("predict") as predict_span:
            if oc.enabled:
                # Before this epoch's rows overwrite the prediction
                # state, score last epoch's predictions (Table 4 data).
                self._emit_prediction_checks(healthy, t_s)
            if mitigations:
                self._watchdog_update(healthy, t_s=t_s)
            if self._adaptation is not None:
                # Online maintenance: fold this epoch's observations in;
                # a drift-triggered re-fit (or a probation rollback)
                # swaps the predictor before the matrices are built.  A
                # tripped watchdog asks for repair first — capability
                # fallback below is the last resort.
                self._adaptation_step(healthy, view, t_s)
                if mitigations and self._watchdog_tripped:
                    self._attempt_watchdog_repair(view, t_s)
            core_types = [core.core_type for core in view.platform]
            matrices = self._blend(
                self._builder.build(healthy, core_types),
                keep=[task.tid for task in fallback],
            )
            if fallback:
                matrices = self._append_fallback_rows(matrices, fallback)
            participants = [*healthy.records, *fallback]
            if oc.enabled:
                for task in participants:
                    self._obs_src_type[task.tid] = task.core_type.name

        with oc.span("balance") as balance_span:
            # Affinity constraints (paper Section 5.1): build the
            # allowed mask when any participating thread carries a
            # cpuset.
            allowed = None
            if any(task.allowed_cores is not None for task in participants):
                allowed = np.ones((len(participants), len(core_types)), dtype=bool)
                for i, task in enumerate(participants):
                    if task.allowed_cores is not None:
                        allowed[i, :] = False
                        for core_id in task.allowed_cores:
                            if 0 <= core_id < len(core_types):
                                allowed[i, core_id] = True

            # Hotplug awareness: an offline core must never be a
            # placement target, whatever the cpusets say.
            if mitigations:
                online = np.ones(len(core_types), dtype=bool)
                for core in view.cores:
                    if not core.online and 0 <= core.core_id < len(core_types):
                        online[core.core_id] = False
                if not online.all() and online.any():
                    self.health.hotplug_masked_epochs += 1
                    if oc.enabled:
                        oc.tracer.emit(
                            obs_events.MITIGATION,
                            t_s,
                            kind="hotplug_mask",
                            cause="core_offline",
                        )
                        oc.metrics.inc("balancer.hotplug_masked_epochs")
                    if allowed is None:
                        allowed = np.ones(
                            (len(participants), len(core_types)), dtype=bool
                        )
                    allowed &= online[None, :]
                    # A cpuset confined entirely to offline cores:
                    # staying schedulable beats honouring the cpuset.
                    stranded = ~allowed.any(axis=1)
                    if stranded.any():
                        allowed[stranded] = online

            placement: Optional[dict[int, int]] = None
            sa_result: Optional[SAResult] = None
            incumbent_value = 0.0
            fallback_mode = False
            if mitigations and self._watchdog_tripped:
                # The predictor is out of band: its matrices are
                # exactly what we must not optimise against.  Place by
                # capability-aware load equalisation until it recovers.
                self.health.watchdog_fallback_epochs += 1
                if oc.enabled:
                    oc.tracer.emit(
                        obs_events.MITIGATION,
                        t_s,
                        kind="watchdog_fallback",
                        cause="predictor_divergence",
                    )
                    oc.metrics.inc("balancer.watchdog_fallback_epochs")
                placement = self._capability_placement(participants, view, allowed)
                fallback_mode = True
            else:
                placement, sa_result, incumbent_value = self._optimize(
                    view, matrices, participants, allowed
                )

        timings = PhaseTimings(
            sense_s=sense_span.elapsed_s,
            predict_s=predict_span.elapsed_s,
            balance_s=balance_span.elapsed_s,
        )
        return self._finish(
            view,
            BalanceDecision(
                placement=placement or None,
                timings=timings,
                sa_result=sa_result,
                matrices=matrices,
                incumbent_value=incumbent_value,
                fallback=fallback_mode,
                rejected_samples=len(rejected),
            ),
        )
