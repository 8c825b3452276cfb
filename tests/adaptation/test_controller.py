"""Controller behaviour: drift → gated re-fit → probation/rollback.

Synthetic two-type world where the ground truth is an exact linear
model in design space, so "the workload drifted" is literally "the
generating coefficients changed" and recovery is measurable.
"""

import numpy as np
import pytest

from repro.adaptation import controller as controller_module
from repro.adaptation.controller import (
    AdaptationController,
    PairSample,
    PowerSample,
)
from repro.core.estimation import N_FEATURES
from repro.core.prediction import (
    IPC_FEATURE_INDEX,
    PowerLine,
    PredictorModel,
    design_vector,
)
from repro.obs import ObsContext
from repro.obs.events import validate_events

PAIRS = (("A", "B"), ("B", "A"))


def make_model(theta_by_pair, power_lines=None) -> PredictorModel:
    return PredictorModel(
        type_names=("A", "B"),
        theta={pair: np.asarray(c, dtype=float) for pair, c in theta_by_pair.items()},
        power_lines=power_lines
        or {"A": PowerLine(3.0, 0.5), "B": PowerLine(1.5, 0.2)},
        ipc_range={"A": (0.01, 100.0), "B": (0.01, 100.0)},
    )


def make_features(rng) -> np.ndarray:
    features = rng.uniform(0.05, 0.5, N_FEATURES)
    features[IPC_FEATURE_INDEX] = rng.uniform(0.5, 2.0)
    return features


def ipc_under(theta, features) -> float:
    """The IPC an exact ``theta`` world delivers for ``features``."""
    return 1.0 / float(np.dot(theta, design_vector(features)))


def epoch_samples(rng, theta_by_pair, n_per_pair=4):
    samples = []
    for pair in PAIRS:
        for _ in range(n_per_pair):
            features = make_features(rng)
            samples.append(
                PairSample(
                    src=pair[0],
                    dst=pair[1],
                    features=features,
                    ipc=ipc_under(theta_by_pair[pair], features),
                )
            )
    return samples


def power_samples_for(rng, line_by_type, n_per_type=4):
    samples = []
    for name, (a1, a0) in sorted(line_by_type.items()):
        for _ in range(n_per_type):
            ipc = rng.uniform(0.3, 1.5)
            samples.append(PowerSample(name, ipc, a1 * ipc + a0))
    return samples


#: A fast-reacting maintenance loop for the synthetic world: values for
#: the controller's tuning constants, which the ``fast_controller``
#: fixture monkeypatches.
FAST = dict(
    FORGETTING=0.9,
    P0=1e4,
    MIN_PAIR_SAMPLES=4,
    MIN_POWER_SAMPLES=4,
    DRIFT_DELTA=0.01,
    DRIFT_THRESHOLD=0.3,
    DRIFT_MIN_SAMPLES=4,
    HOLDOUT_WINDOW=12,
    MIN_REFIT_IMPROVEMENT=0.05,
    PROBATION_EPOCHS=3,
    PROBATION_TOLERANCE=1.05,
    REFIT_COOLDOWN_EPOCHS=1,
)


@pytest.fixture
def fast_controller(monkeypatch):
    """Build a controller under the :data:`FAST` constants, with
    per-test overrides (``MIN_PAIR_SAMPLES=50``, ...)."""

    def build(model, **overrides):
        for name, value in {**FAST, **overrides}.items():
            assert hasattr(controller_module, name), name
            monkeypatch.setattr(controller_module, name, value)
        return AdaptationController(model)

    return build


THETA_TRUE = {
    ("A", "B"): np.linspace(0.15, 0.45, N_FEATURES),
    ("B", "A"): np.linspace(0.45, 0.15, N_FEATURES),
}
#: "Stale": predicts double the CPI (half the IPC) of the true world.
THETA_STALE = {pair: 2.0 * c for pair, c in THETA_TRUE.items()}
POWER_TRUE = {"A": (3.0, 0.5), "B": (1.5, 0.2)}
POWER_STALE = {"A": PowerLine(6.0, 1.0), "B": PowerLine(3.0, 0.4)}


def run_epochs(controller, rng, theta, power, start, n, obs=None):
    """Feed ``n`` epochs of the given regime; returns the reports."""
    reports = []
    for epoch in range(start, start + n):
        reports.append(
            controller.observe_epoch(
                epoch_samples(rng, theta),
                power_samples_for(rng, power),
                epoch=epoch,
                t_s=float(epoch),
                obs=obs,
            )
        )
    return reports


class TestDriftRecovery:
    def test_drift_triggers_a_committed_refit_that_recovers_accuracy(
        self, fast_controller
    ):
        rng = np.random.default_rng(5)
        controller = fast_controller(make_model(THETA_STALE, POWER_STALE))
        obs = ObsContext()
        # Warm epochs agree with the stale model: no drift, no update.
        run_epochs(controller, rng, THETA_STALE,
                   {n: (line.alpha1, line.alpha0) for n, line in POWER_STALE.items()},
                   start=0, n=2, obs=obs)
        assert controller.drift_detections == 0
        assert controller.model_updates == 0

        # The world switches to the true regime: sustained 50 % error.
        reports = run_epochs(
            controller, rng, THETA_TRUE, POWER_TRUE, start=2, n=8, obs=obs
        )
        assert controller.drift_detections >= 1
        # Recovery may take several commits (an early candidate can be
        # rolled back by probation and retried with more evidence); the
        # invariant is that a drift-caused commit ends up active.
        assert controller.model_updates >= 1
        assert any(r.drifted_pairs for r in reports)
        assert any(r.model_changed and not r.rolled_back for r in reports)
        assert controller.version >= 1
        assert controller.registry.active.cause == "drift"

        # The committed model predicts the new regime accurately —
        # down from the stale model's constant 50 % error.
        probe_rng = np.random.default_rng(99)
        for pair in PAIRS:
            errors = []
            for _ in range(20):
                features = make_features(probe_rng)
                actual = ipc_under(THETA_TRUE[pair], features)
                predicted = controller.model.predict_ipc(
                    pair[0], pair[1], features
                )
                errors.append(abs(predicted - actual) / actual)
            assert np.mean(errors) < 0.2

        # The power lines were re-fitted toward the true relationship.
        for name, (a1, a0) in POWER_TRUE.items():
            line = controller.model.power_lines[name]
            assert line.alpha1 == pytest.approx(a1, abs=0.3)
            assert line.alpha0 == pytest.approx(a0, abs=0.3)

        # The emitted events are schema-valid and tell the same story.
        events = obs.tracer.events
        assert validate_events(events) == []
        types = [e["type"] for e in events]
        assert "drift_detected" in types
        assert "model_update" in types

    def test_quiet_on_an_accurate_model(self, fast_controller):
        """Matching data must never churn the registry."""
        rng = np.random.default_rng(8)
        controller = fast_controller(make_model(THETA_TRUE))
        run_epochs(controller, rng, THETA_TRUE, POWER_TRUE, start=0, n=10)
        assert controller.drift_detections == 0
        assert controller.model_updates == 0
        assert controller.model_rollbacks == 0
        assert controller.version == 0


class TestCommitGate:
    def test_candidate_without_improvement_is_rejected(self, fast_controller):
        """attempt_repair with nothing better to offer must refuse."""
        rng = np.random.default_rng(13)
        controller = fast_controller(make_model(THETA_TRUE))
        run_epochs(controller, rng, THETA_TRUE, POWER_TRUE, start=0, n=3)
        assert controller.attempt_repair(epoch=3, t_s=3.0) is False
        assert controller.refits_rejected == 1
        assert controller.model_updates == 0
        assert controller.version == 0

    def test_no_candidate_before_confidence_thresholds(self, fast_controller):
        rng = np.random.default_rng(17)
        controller = fast_controller(
            make_model(THETA_STALE), MIN_PAIR_SAMPLES=50, MIN_POWER_SAMPLES=50
        )
        run_epochs(controller, rng, THETA_TRUE, POWER_TRUE, start=0, n=3)
        assert controller.attempt_repair(epoch=3, t_s=3.0) is False
        assert controller.model_updates == 0

    def test_watchdog_repair_commits_a_confident_fix(self, fast_controller):
        """With drift detection muted, the watchdog handoff alone can
        still repair a stale model — repair before fallback."""
        rng = np.random.default_rng(23)
        controller = fast_controller(
            make_model(THETA_STALE, POWER_STALE), DRIFT_THRESHOLD=1e9
        )
        run_epochs(controller, rng, THETA_TRUE, POWER_TRUE, start=0, n=4)
        assert controller.model_updates == 0  # drift path muted
        assert controller.attempt_repair(epoch=4, t_s=4.0) is True
        assert controller.model_updates == 1
        assert controller.registry.active.cause == "watchdog"


class TestProbation:
    def test_regression_during_probation_rolls_back_byte_identically(
        self, fast_controller
    ):
        rng = np.random.default_rng(29)
        stale = make_model(THETA_STALE, POWER_STALE)
        stale_bytes = {
            pair: np.asarray(c).tobytes() for pair, c in stale.theta.items()
        }
        controller = fast_controller(
            stale, PROBATION_EPOCHS=10, HOLDOUT_WINDOW=8
        )
        stale_power = {
            n: (line.alpha1, line.alpha0) for n, line in POWER_STALE.items()
        }
        # Establish the stale baseline, then drift to the true regime
        # long enough for a commit.
        run_epochs(controller, rng, THETA_STALE, stale_power, start=0, n=2)
        epoch = 2
        while controller.model_updates == 0 and epoch < 12:
            run_epochs(controller, rng, THETA_TRUE, POWER_TRUE,
                       start=epoch, n=1)
            epoch += 1
        assert controller.model_updates == 1

        # The world snaps back to the stale regime while the fresh
        # commit is on probation: the parent wins, roll back.
        rolled = False
        for _ in range(6):
            reports = run_epochs(controller, rng, THETA_STALE, stale_power,
                                 start=epoch, n=1)
            epoch += 1
            if any(r.rolled_back for r in reports):
                rolled = True
                break
        assert rolled
        assert controller.model_rollbacks == 1
        assert controller.version == 0
        assert controller.model is stale
        for pair, coeffs in controller.model.theta.items():
            assert np.asarray(coeffs).tobytes() == stale_bytes[pair]

    def test_probation_blocks_further_refits(self, fast_controller):
        """While a fresh commit is on probation, neither the drift path
        nor the watchdog handoff may commit another model."""
        rng = np.random.default_rng(31)
        controller = fast_controller(
            make_model(THETA_STALE, POWER_STALE), PROBATION_EPOCHS=50
        )
        run_epochs(controller, rng, THETA_STALE,
                   {n: (line.alpha1, line.alpha0) for n, line in POWER_STALE.items()},
                   start=0, n=2)
        epoch = 2
        while controller.model_updates == 0 and epoch < 12:
            run_epochs(controller, rng, THETA_TRUE, POWER_TRUE,
                       start=epoch, n=1)
            epoch += 1
        assert controller.model_updates == 1
        assert controller.attempt_repair(epoch=epoch, t_s=float(epoch)) is False
        assert controller.model_updates == 1


class TestConfigValidation:
    def test_telemetry_counters_start_at_zero(self):
        controller = AdaptationController(make_model(THETA_TRUE))
        assert controller.model_updates == 0
        assert controller.model_rollbacks == 0
        assert controller.drift_detections == 0
        assert controller.refits_rejected == 0
        assert controller.elapsed_s == 0.0
