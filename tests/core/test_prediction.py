"""Tests for the cross-core predictor and matrix builder (Eqs. 8-9)."""

import numpy as np
import pytest

from repro.core.estimation import FEATURE_NAMES, N_FEATURES
from repro.core.prediction import (
    CPU_BOUND_UTILIZATION,
    IPC_FEATURE_INDEX,
    MatrixBuilder,
    PowerLine,
    PredictorModel,
    design_vector,
)
from repro.core.training import default_predictor, profile_phase, train_predictor
from repro.hardware import microarch
from repro.hardware import power as power_model
from repro.hardware.counters import CounterBlock
from repro.hardware.features import BIG, HUGE, MEDIUM, SMALL, TABLE2_TYPES
from repro.workload.characteristics import COMPUTE_PHASE, MEMORY_PHASE
from sensed_tasks import SensedTask, gather


def observation_for(phase, core_type, tid=0, utilization=0.5) -> SensedTask:
    """Ground-truth-driven view of a thread measured on one core type."""
    block = CounterBlock()
    perf = microarch.estimate(phase, core_type)
    block.charge_execution(perf, core_type, 0.03, phase.mem_share, phase.branch_share)
    return SensedTask(
        tid=tid,
        name=f"t{tid}",
        core_id=0,
        core_type=core_type,
        weight=1.0,
        is_user=True,
        utilization=utilization,
        rates=block.derive_rates(),
        power_w=power_model.busy_power(core_type, perf.ipc).total_w,
        busy_time_s=0.03,
    )


@pytest.fixture(scope="module")
def model() -> PredictorModel:
    return default_predictor()


class TestDesignVector:
    def test_inverts_ipc_feature(self):
        features = np.ones(N_FEATURES)
        features[IPC_FEATURE_INDEX] = 2.0
        design = design_vector(features)
        assert design[IPC_FEATURE_INDEX] == pytest.approx(0.5)

    def test_other_features_untouched(self):
        features = np.arange(1.0, N_FEATURES + 1.0)
        design = design_vector(features)
        for i in range(N_FEATURES):
            if i != IPC_FEATURE_INDEX:
                assert design[i] == features[i]

    def test_feature_names_shape(self):
        assert FEATURE_NAMES[-1] == "const"
        assert "ipc_src" in FEATURE_NAMES
        assert len(FEATURE_NAMES) == N_FEATURES


class TestPredictorModel:
    def test_covers_all_type_pairs(self, model):
        names = [t.name for t in TABLE2_TYPES]
        for src in names:
            for dst in names:
                if src != dst:
                    assert (src, dst) in model.theta

    def test_prediction_accuracy_on_parsec_band(self, model):
        """Average cross-type IPC error must be in the paper's band."""
        errors = []
        for phase in (COMPUTE_PHASE, MEMORY_PHASE):
            for src in TABLE2_TYPES:
                features = profile_phase(phase, src)
                for dst in TABLE2_TYPES:
                    if dst.name == src.name:
                        continue
                    truth = microarch.estimate(phase, dst).ipc
                    pred = model.predict_ipc(src.name, dst.name, features)
                    errors.append(abs(pred - truth) / truth)
        assert float(np.mean(errors)) < 0.15

    def test_same_type_returns_measurement(self, model):
        features = profile_phase(COMPUTE_PHASE, BIG)
        assert model.predict_ipc("Big", "Big", features) == pytest.approx(
            float(features[IPC_FEATURE_INDEX])
        )

    def test_prediction_clipped_to_training_band(self, model):
        crazy = np.zeros(N_FEATURES)
        crazy[IPC_FEATURE_INDEX] = 100.0
        crazy[-1] = 1.0
        lo, hi = model.ipc_range["Small"]
        assert lo <= model.predict_ipc("Huge", "Small", crazy) <= hi

    def test_unknown_pair_raises(self, model):
        with pytest.raises(KeyError, match="no coefficients"):
            model.predict_ipc("Huge", "Hexa", np.ones(N_FEATURES))

    def test_power_prediction_tracks_model(self, model):
        for core_type in TABLE2_TYPES:
            ipc = 0.6 * microarch.peak_ipc(core_type)
            truth = power_model.busy_power(core_type, ipc).total_w
            pred = model.predict_power(core_type.name, ipc)
            assert pred == pytest.approx(truth, rel=0.1)

    def test_power_line_floor(self):
        line = PowerLine(alpha1=1.0, alpha0=-5.0)
        assert line.predict(0.1) > 0.0

    def test_serialisation_roundtrip(self, model):
        clone = PredictorModel.from_dict(model.to_dict())
        assert clone.type_names == model.type_names
        features = profile_phase(MEMORY_PHASE, HUGE)
        assert clone.predict_ipc("Huge", "Small", features) == pytest.approx(
            model.predict_ipc("Huge", "Small", features)
        )
        assert clone.fit_error == model.fit_error


class TestTraining:
    def test_duplicate_type_names_rejected(self):
        with pytest.raises(ValueError, match="distinct names"):
            train_predictor([BIG, BIG])

    def test_single_type_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            train_predictor([BIG])

    def test_tiny_corpus_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            train_predictor([BIG, SMALL], phases=[COMPUTE_PHASE] * 5)

    def test_trains_on_custom_types(self):
        lp = MEDIUM.with_frequency(600.0, vdd=0.62)
        model = train_predictor([MEDIUM, lp, SMALL])
        assert set(model.type_names) == {"Medium", "Medium@600MHz", "Small"}
        assert ("Medium@600MHz", "Small") in model.theta

    def test_fit_errors_recorded_and_small(self):
        model = default_predictor()
        assert model.fit_error
        assert float(np.mean(list(model.fit_error.values()))) < 0.10


class TestMatrixBuilder:
    def test_shapes_and_measured_mask(self, model):
        observations = [
            observation_for(COMPUTE_PHASE, HUGE, tid=0),
            observation_for(MEMORY_PHASE, SMALL, tid=1),
        ]
        observations[1] = observations[1]._replace(core_id=3)
        cores = [t for t in TABLE2_TYPES]
        matrices = MatrixBuilder(model).build(gather(observations), cores)
        assert matrices.ips.shape == (2, 4)
        assert matrices.power.shape == (2, 4)
        assert matrices.utilization.shape == (2, 4)
        assert matrices.measured_mask[0, 0]  # thread 0 measured on Huge
        assert matrices.measured_mask[1, 3]  # thread 1 measured on Small
        assert not matrices.measured_mask[0, 1]

    def test_measured_entries_exact(self, model):
        obs = observation_for(COMPUTE_PHASE, HUGE, tid=0)
        matrices = MatrixBuilder(model).build(gather([obs]), list(TABLE2_TYPES))
        assert matrices.ips[0, 0] == pytest.approx(
            obs.rates.ipc * HUGE.freq_hz
        )
        assert matrices.power[0, 0] == pytest.approx(obs.power_w)

    def test_same_type_cores_get_same_prediction(self, model):
        obs = observation_for(COMPUTE_PHASE, HUGE)
        cores = [HUGE, SMALL, SMALL]
        matrices = MatrixBuilder(model).build(gather([obs]), cores)
        assert matrices.ips[0, 1] == matrices.ips[0, 2]

    def test_cpu_bound_thread_demands_everywhere(self, model):
        obs = observation_for(COMPUTE_PHASE, HUGE, utilization=0.99)
        matrices = MatrixBuilder(model).build(gather([obs]), list(TABLE2_TYPES))
        assert np.all(matrices.utilization[0] == 1.0)

    def test_rate_limited_demand_scales_inversely_with_speed(self, model):
        obs = observation_for(COMPUTE_PHASE, HUGE, utilization=0.2)
        matrices = MatrixBuilder(model).build(gather([obs]), list(TABLE2_TYPES))
        util = matrices.utilization[0]
        # Huge is fastest: demand there is lowest.
        assert util[0] == pytest.approx(0.2)
        assert util[0] < util[1] <= util[2] <= util[3] <= 1.0

    def test_unmeasured_thread_rejected(self, model):
        obs = observation_for(COMPUTE_PHASE, HUGE)
        empty = obs._replace(busy_time_s=0.0)
        with pytest.raises(ValueError, match="no measurement"):
            MatrixBuilder(model).build(gather([empty]), list(TABLE2_TYPES))

    def test_empty_observation_list_rejected(self, model):
        with pytest.raises(ValueError, match="at least one"):
            MatrixBuilder(model).build(gather([]), list(TABLE2_TYPES))

    def test_cpu_bound_threshold_constant_sane(self):
        assert 0.8 < CPU_BOUND_UTILIZATION < 1.0
