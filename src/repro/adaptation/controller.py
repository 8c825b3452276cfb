"""The closed-loop model-maintenance controller.

Sits beside the balancer's sense→predict→balance epoch loop and keeps
the Eq. 8/9 predictors honest at runtime:

1. **Ingest** — every epoch the balancer hands over the cross-type
   transition samples it observed (a thread measured on core type A
   last epoch and on type B this epoch is one supervised sample for
   the A→B regression) and the per-type ``(IPC, power)`` pairs every
   measured thread yields for its own core's Eq. 9 line.  Samples feed
   exponentially-weighted RLS updaters (:mod:`repro.adaptation.rls`)
   primed with the offline coefficients, plus a bounded held-out
   ring buffer per pair used to judge candidates.
2. **Detect** — per-pair Page–Hinkley detectors
   (:mod:`repro.adaptation.drift`) watch the active model's prediction
   error; only *sustained* error growth proposes a re-fit, never
   single-epoch noise.
3. **Re-fit, gated** — a candidate model is assembled from every RLS
   updater that has reached its confidence threshold
   (:data:`MIN_PAIR_SAMPLES` / :data:`MIN_POWER_SAMPLES`); pairs without
   enough evidence keep their offline coefficients.  The candidate
   must beat the active model on the held-out buffers by
   :data:`MIN_REFIT_IMPROVEMENT` or it is discarded.
4. **Probation + rollback** — a committed candidate is monitored for
   :data:`PROBATION_EPOCHS`; if fresh held-out error shows it *worse* than
   its parent, the registry rolls back to the parent's byte-identical
   coefficients (:mod:`repro.adaptation.registry`).

The controller also answers the predictor watchdog of the degradation
layer: a watchdog trip first asks :meth:`AdaptationController.attempt_repair`
for a confident re-fit and only falls back to capability-based
placement when repair is impossible — repair before fallback.

Everything here is deterministic: pure float arithmetic over the
sample stream in a fixed order, no randomness, no wall-clock
dependence (the ``elapsed_s`` overhead meter is telemetry only and
feeds no decision).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.adaptation.drift import PageHinkley
from repro.adaptation.registry import ModelRegistry, ModelSnapshot
from repro.adaptation.rls import RLSUpdater
from repro.core.estimation import N_FEATURES
from repro.core.prediction import PowerLine, PredictorModel, design_vector
from repro.obs import NULL_OBS, ObsContext
from repro.obs import events as obs_events


# Tuning values of the maintenance loop.  Each is read when it is used,
# so a test can monkeypatch it on this module.

#: EW-RLS forgetting factor (1.0 = equal-weight, the batch-equivalent
#: setting; < 1 tracks drift with geometric memory).
FORGETTING = 0.995
#: Initial covariance scale of the RLS prior (see RLSUpdater.p0).
P0 = 1e4
#: Cross-type samples a (src, dst) pair must accumulate before its
#: online coefficients are trusted into a candidate model.  Cross-type
#: samples only flow on migrations (a few per epoch at best), so this
#: gate dominates repair latency; the RLS prior plus the held-out
#: commit gate keep small-sample candidates safe.
MIN_PAIR_SAMPLES = 6
#: (IPC, power) samples a core type needs before its Eq. 9 line is
#: re-fitted.
MIN_POWER_SAMPLES = 12
#: Page–Hinkley slack per sample (relative-error units).
DRIFT_DELTA = 0.02
#: Page–Hinkley alarm threshold.
DRIFT_THRESHOLD = 0.8
#: Samples before a drift detector may fire.
DRIFT_MIN_SAMPLES = 6
#: Held-out ring-buffer depth per pair / per type.
HOLDOUT_WINDOW = 48
#: Relative held-out error reduction a candidate must deliver to be
#: committed (0.05 = at least 5 % better than the active model).
MIN_REFIT_IMPROVEMENT = 0.05
#: Epochs a freshly committed model is monitored against its parent
#: before it is accepted for good.
PROBATION_EPOCHS = 4
#: Rollback when the committed model's fresh held-out error exceeds its
#: parent's by this factor during probation.
PROBATION_TOLERANCE = 1.05
#: Minimum epochs between re-fit attempts (commit or reject).
REFIT_COOLDOWN_EPOCHS = 2


@dataclass(frozen=True)
class PairSample:
    """One cross-type supervised sample for the Θ_{src→dst} regression.

    ``features`` is the raw counter feature vector measured on the
    source core type (the regressor input of Eq. 8); ``ipc`` is the
    IPC the thread then *actually delivered* on the destination type.
    """

    src: str
    dst: str
    features: np.ndarray
    ipc: float
    #: OPP level the destination core was running at when the sample
    #: was taken (``None`` outside governor runs).  Drift detectors are
    #: binned by it so the residual conditioning error of a scaled OPP
    #: is never mistaken for nominal-frame model drift — each bin has
    #: its own error regime.
    opp_bin: "int | None" = None

    @property
    def pair(self) -> "tuple[str, str]":
        return (self.src, self.dst)


@dataclass(frozen=True)
class PowerSample:
    """One same-core (IPC, power) measurement for an Eq. 9 line."""

    type_name: str
    ipc: float
    power_w: float


@dataclass(frozen=True)
class EpochReport:
    """What the controller did with one epoch's samples."""

    #: Pairs whose drift detector fired this epoch.
    drifted_pairs: "tuple[tuple[str, str], ...]" = ()
    #: True when the active model changed (commit or rollback): the
    #: balancer must re-read :attr:`AdaptationController.model`.
    model_changed: bool = False
    #: Active version after this epoch.
    version: int = 0
    #: True when the change was a registry rollback.
    rolled_back: bool = False


@dataclass
class _Probation:
    """A freshly committed version under observation."""

    version: int
    parent: int
    epochs_left: int
    #: Pairs that must be watched (the ones the commit changed).
    pairs: "tuple[tuple[str, str], ...]" = ()


class AdaptationController:
    """Online recalibration of one :class:`PredictorModel`."""

    def __init__(self, model: PredictorModel) -> None:
        self.registry = ModelRegistry(model)
        self._theta_rls: "dict[tuple[str, str], RLSUpdater]" = {}
        self._power_rls: "dict[str, RLSUpdater]" = {}
        self._holdout: "dict[tuple[str, str], deque]" = {}
        self._power_holdout: "dict[str, deque]" = {}
        #: Keyed by ((src, dst), opp_bin) — non-governor runs only ever
        #: populate the ``opp_bin=None`` slots.
        self._detectors: "dict[tuple[tuple[str, str], int | None], PageHinkley]" = {}
        #: Observed measured-IPC band per core type, for range widening.
        self._ipc_seen: "dict[str, tuple[float, float]]" = {}
        self._probation: Optional[_Probation] = None
        self._last_refit_epoch: Optional[int] = None
        #: Telemetry (decisions never read these).
        self.model_updates = 0
        self.model_rollbacks = 0
        self.drift_detections = 0
        self.refits_rejected = 0
        self.ipc_samples_seen = 0
        self.power_samples_seen = 0
        #: Cumulative wall-clock seconds spent inside the controller
        #: (the <5 %-of-epoch overhead budget the benchmark gates).
        self.elapsed_s = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def model(self) -> PredictorModel:
        """The currently active predictor."""
        return self.registry.model

    @property
    def version(self) -> int:
        return self.registry.active.version

    # ------------------------------------------------------------------
    # Per-pair machinery (lazily created so only observed pairs cost)
    # ------------------------------------------------------------------

    def _updater_for(self, pair: "tuple[str, str]") -> RLSUpdater:
        updater = self._theta_rls.get(pair)
        if updater is None:
            prior = self.registry.get(0).model.theta.get(pair)
            updater = RLSUpdater(
                N_FEATURES,
                forgetting=FORGETTING,
                p0=P0,
                prior=prior,
            )
            self._theta_rls[pair] = updater
        return updater

    def _power_updater_for(self, type_name: str) -> RLSUpdater:
        updater = self._power_rls.get(type_name)
        if updater is None:
            line = self.registry.get(0).model.power_lines.get(type_name)
            prior = None if line is None else (line.alpha1, line.alpha0)
            updater = RLSUpdater(
                2,
                forgetting=FORGETTING,
                p0=P0,
                prior=prior,
            )
            self._power_rls[type_name] = updater
        return updater

    def _detector_for(
        self, pair: "tuple[str, str]", opp_bin: "int | None" = None
    ) -> PageHinkley:
        key = (pair, opp_bin)
        detector = self._detectors.get(key)
        if detector is None:
            detector = PageHinkley(
                delta=DRIFT_DELTA,
                threshold=DRIFT_THRESHOLD,
                min_samples=DRIFT_MIN_SAMPLES,
            )
            self._detectors[key] = detector
        return detector

    # ------------------------------------------------------------------
    # Held-out evaluation
    # ------------------------------------------------------------------

    def _pair_errors(
        self, model: PredictorModel, pairs: Sequence["tuple[str, str]"]
    ) -> "dict[tuple[str, str], float]":
        """Mean absolute relative IPC error of ``model`` per pair over
        the held-out buffers (pairs with no buffered samples skipped)."""
        errors: "dict[tuple[str, str], float]" = {}
        for pair in sorted(pairs):
            buffer = self._holdout.get(pair)
            if not buffer:
                continue
            features = np.array([f for f, _ in buffer])
            ipcs = np.array([ipc for _, ipc in buffer])
            predicted = model.predict_ipc_batch(pair[0], (pair[1],), features)[:, 0]
            errors[pair] = float(
                np.mean(np.abs(predicted - ipcs) / np.maximum(ipcs, 1e-9))
            )
        return errors

    def _power_errors(
        self, model: PredictorModel, type_names: Sequence[str]
    ) -> "dict[str, float]":
        errors: "dict[str, float]" = {}
        for name in sorted(type_names):
            buffer = self._power_holdout.get(name)
            line = model.power_lines.get(name)
            if not buffer or line is None:
                continue
            ipcs = np.array([ipc for ipc, _ in buffer])
            powers = np.array([power for _, power in buffer])
            # Same floor as PowerLine.predict.
            predicted = np.maximum(line.alpha1 * ipcs + line.alpha0, 1e-6)
            errors[name] = float(
                np.mean(np.abs(predicted - powers) / np.maximum(powers, 1e-9))
            )
        return errors

    def _holdout_score(self, model: PredictorModel) -> "float | None":
        """One scalar held-out score: mean over the per-pair IPC means
        and the per-type power means (lower is better)."""
        parts = list(self._pair_errors(model, list(self._holdout)).values())
        parts += list(self._power_errors(model, list(self._power_holdout)).values())
        if not parts:
            return None
        return sum(parts) / len(parts)

    # ------------------------------------------------------------------
    # Candidate assembly
    # ------------------------------------------------------------------

    def _candidate(
        self,
    ) -> "tuple[PredictorModel, tuple[tuple[str, str], ...], tuple[str, ...]] | None":
        """Assemble a candidate model from every confident updater.

        Returns ``(model, updated_pairs, updated_power_types)`` or
        ``None`` when nothing has reached its confidence threshold.
        """
        active = self.model
        updated_pairs: "list[tuple[str, str]]" = []
        theta = dict(active.theta)
        for pair in sorted(self._theta_rls):
            updater = self._theta_rls[pair]
            if updater.count >= MIN_PAIR_SAMPLES and pair in theta:
                theta[pair] = updater.coefficients
                updated_pairs.append(pair)

        updated_types: "list[str]" = []
        power_lines = dict(active.power_lines)
        for name in sorted(self._power_rls):
            updater = self._power_rls[name]
            if updater.count >= MIN_POWER_SAMPLES and name in power_lines:
                alpha1, alpha0 = updater.coefficients
                power_lines[name] = PowerLine(
                    alpha1=float(alpha1), alpha0=float(alpha0)
                )
                updated_types.append(name)

        if not updated_pairs and not updated_types:
            return None

        # Widen each target type's IPC clip band to cover the IPC the
        # drifted workload actually delivered — keeping the offline
        # band would clip corrected predictions back to the stale one.
        ipc_range = dict(active.ipc_range)
        for name, (lo, hi) in self._ipc_seen.items():
            if name in ipc_range:
                old_lo, old_hi = ipc_range[name]
                ipc_range[name] = (
                    min(old_lo, 0.5 * lo), max(old_hi, 1.2 * hi)
                )

        model = PredictorModel(
            type_names=active.type_names,
            theta=theta,
            power_lines=power_lines,
            ipc_range=ipc_range,
            fit_error=dict(active.fit_error),
        )
        return model, tuple(updated_pairs), tuple(updated_types)

    # ------------------------------------------------------------------
    # The epoch hook
    # ------------------------------------------------------------------

    def observe_epoch(
        self,
        ipc_samples: Sequence[PairSample],
        power_samples: Sequence[PowerSample],
        epoch: int,
        t_s: float,
        obs: Optional[ObsContext] = None,
    ) -> EpochReport:
        """Fold one epoch's observations in; maybe swap the model.

        Returns an :class:`EpochReport`; when ``model_changed`` is set
        the caller must re-read :attr:`model` and rebuild anything
        derived from the old predictor.
        """
        started = time.perf_counter()
        oc = obs if obs is not None else NULL_OBS
        active = self.model
        drifted: "list[tuple[str, str]]" = []

        for sample in ipc_samples:
            self.ipc_samples_seen += 1
            pair = sample.pair
            if pair not in active.theta:
                continue  # untrained pair (unknown type): nothing to adapt
            # Online update, held-out buffer, drift check — in CPI
            # space for the regression, IPC space for the error.
            x = design_vector(sample.features)
            y = 1.0 / max(sample.ipc, 1e-6)
            self._updater_for(pair).update(x, y)
            self._holdout.setdefault(
                pair, deque(maxlen=HOLDOUT_WINDOW)
            ).append((np.asarray(sample.features, dtype=float).copy(),
                      float(sample.ipc)))
            lo, hi = self._ipc_seen.get(sample.dst, (sample.ipc, sample.ipc))
            self._ipc_seen[sample.dst] = (
                min(lo, sample.ipc), max(hi, sample.ipc)
            )
            predicted = active.predict_ipc(sample.src, sample.dst, sample.features)
            error = abs(predicted - sample.ipc) / max(sample.ipc, 1e-9)
            detector = self._detector_for(pair, sample.opp_bin)
            already = detector.drifted
            if detector.update(error) and not already:
                drifted.append(pair)
                self.drift_detections += 1
                if oc.enabled:
                    extra = (
                        {} if sample.opp_bin is None
                        else {"opp_bin": sample.opp_bin}
                    )
                    oc.tracer.emit(
                        obs_events.DRIFT_DETECTED,
                        t_s,
                        pair=f"{pair[0]}->{pair[1]}",
                        statistic=detector.statistic,
                        threshold=detector.threshold,
                        samples=detector.samples,
                        epoch=epoch,
                        **extra,
                    )
                    oc.metrics.inc(
                        f"adaptation.drift_detected[{pair[0]}->{pair[1]}]"
                    )

        for sample in power_samples:
            self.power_samples_seen += 1
            if sample.type_name not in active.power_lines:
                continue
            self._power_updater_for(sample.type_name).update(
                (float(sample.ipc), 1.0), float(sample.power_w)
            )
            self._power_holdout.setdefault(
                sample.type_name, deque(maxlen=HOLDOUT_WINDOW)
            ).append((float(sample.ipc), float(sample.power_w)))

        report = EpochReport(drifted_pairs=tuple(drifted), version=self.version)

        # Probation: a fresh commit must keep beating its parent on
        # fresh samples or it is rolled back.
        if self._probation is not None:
            rolled = self._probation_step(epoch, t_s, oc)
            if rolled:
                report = replace(
                    report,
                    model_changed=True,
                    rolled_back=True,
                    version=self.version,
                )
                self.elapsed_s += time.perf_counter() - started
                return report

        # Sustained drift proposes a re-fit (subject to cooldown).
        if drifted or any(d.drifted for d in self._detectors.values()):
            if self._refit_allowed(epoch):
                committed = self._attempt_refit(epoch, t_s, "drift", oc)
                if committed:
                    report = replace(
                        report, model_changed=True, version=self.version
                    )

        self.elapsed_s += time.perf_counter() - started
        return report

    def attempt_repair(
        self,
        epoch: int,
        t_s: float,
        obs: Optional[ObsContext] = None,
    ) -> bool:
        """Watchdog handoff: try a confident re-fit *now*.

        Called by the balancer when the predictor watchdog trips,
        before it resorts to capability fallback.  Returns True when a
        better model was committed (the caller re-reads :attr:`model`
        and may clear the trip).
        """
        started = time.perf_counter()
        oc = obs if obs is not None else NULL_OBS
        committed = False
        if self._refit_allowed(epoch):
            committed = self._attempt_refit(epoch, t_s, "watchdog", oc)
        self.elapsed_s += time.perf_counter() - started
        return committed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _refit_allowed(self, epoch: int) -> bool:
        if self._probation is not None:
            return False  # judge the current candidate first
        if self._last_refit_epoch is None:
            return True
        return epoch - self._last_refit_epoch >= REFIT_COOLDOWN_EPOCHS

    def _attempt_refit(
        self, epoch: int, t_s: float, cause: str, oc: ObsContext
    ) -> bool:
        self._last_refit_epoch = epoch
        built = self._candidate()
        if built is None:
            return False
        candidate, updated_pairs, updated_types = built
        active_score = self._holdout_score(self.model)
        candidate_score = self._holdout_score(candidate)
        if active_score is None or candidate_score is None:
            return False
        if candidate_score > active_score * (1.0 - MIN_REFIT_IMPROVEMENT):
            self.refits_rejected += 1
            if oc.enabled:
                oc.metrics.inc("adaptation.refits_rejected")
            return False

        pair_errors = self._pair_errors(candidate, updated_pairs)
        snapshot = self.registry.commit(
            candidate, epoch=epoch, cause=cause, pair_errors=pair_errors
        )
        self.model_updates += 1
        self._probation = _Probation(
            version=snapshot.version,
            parent=snapshot.parent,
            epochs_left=PROBATION_EPOCHS,
            pairs=updated_pairs,
        )
        # The error regime the detectors learned is gone with the old
        # model; start their statistics fresh.
        for detector in self._detectors.values():
            detector.reset()
        if oc.enabled:
            oc.tracer.emit(
                obs_events.MODEL_UPDATE,
                t_s,
                version=snapshot.version,
                cause=cause,
                pairs_updated=[f"{s}->{d}" for s, d in updated_pairs],
                power_types_updated=list(updated_types),
                epoch=epoch,
                fingerprint=snapshot.fingerprint,
                holdout_error_before_pct=100.0 * active_score,
                holdout_error_after_pct=100.0 * candidate_score,
            )
            oc.metrics.inc("adaptation.model_updates")
        return True

    def _probation_step(self, epoch: int, t_s: float, oc: ObsContext) -> bool:
        """Advance probation one epoch; True when it rolled back."""
        probation = self._probation
        parent_model = self.registry.get(probation.parent).model
        active_score = self._holdout_score(self.model)
        parent_score = self._holdout_score(parent_model)
        if (
            active_score is not None
            and parent_score is not None
            and active_score > parent_score * PROBATION_TOLERANCE
        ):
            from_version = self.version
            snapshot = self.registry.rollback()
            self.model_rollbacks += 1
            # Re-latch the detectors of the pairs the failed commit had
            # changed: the re-fit that reset them was undone, so the
            # sustained shift they flagged is back and unexplained —
            # and the restored model's error is constant-high, which
            # shows no *growth* and could never re-fire the statistic.
            # Latched detectors keep proposing re-fits (under cooldown)
            # as fresh evidence accumulates.
            for pair in probation.pairs:
                # Latch every bin of the pair (plus the canonical
                # unbinned slot, created on demand): whatever bin
                # flagged the shift, the rollback un-explains it.
                self._detector_for(pair).latch()
                for (other, opp_bin), det in self._detectors.items():
                    if other == pair and opp_bin is not None:
                        det.latch()
            self._probation = None
            if oc.enabled:
                oc.tracer.emit(
                    obs_events.MODEL_ROLLBACK,
                    t_s,
                    from_version=from_version,
                    to_version=snapshot.version,
                    cause="probation_failed",
                    epoch=epoch,
                    fingerprint=snapshot.fingerprint,
                )
                oc.metrics.inc("adaptation.model_rollbacks")
            return True
        probation.epochs_left -= 1
        if probation.epochs_left <= 0:
            self._probation = None  # survived probation: accepted
        return False


def snapshot_summary(snapshot: ModelSnapshot) -> dict:
    """JSON-ready provenance view of one registry entry (CLI/report)."""
    return {
        "version": snapshot.version,
        "epoch": snapshot.epoch,
        "cause": snapshot.cause,
        "fingerprint": snapshot.fingerprint,
        "parent": snapshot.parent,
        "pair_errors_pct": {
            f"{src}->{dst}": 100.0 * err
            for (src, dst), err in sorted(snapshot.pair_errors.items())
        },
    }
