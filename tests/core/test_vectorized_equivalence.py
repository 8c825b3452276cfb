"""Property tests: the vectorized hot paths match their scalar references.

Three equivalences lock down the epoch-loop optimisations:

* batched Eq. 8/9 (``predict_ipc_batch``/``predict_power_batch``)
  agrees with the per-pair scalar path within 1e-9 relative error over
  randomized counter vectors;
* the vectorized :meth:`MatrixBuilder.build` agrees with the
  per-thread reference ``build_scalar`` (``scalar_matrices.py``);
* the annealer's memoized :class:`IncrementalEvaluator` agrees with a
  from-scratch ``J_E`` evaluation after arbitrary swap sequences.

Tolerances are relative 1e-9 — far above the ~1e-16 ULP noise of BLAS
summation-order differences, far below any behavioural change.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalar_matrices import build_scalar
from repro.core.allocation import Allocation
from repro.core.estimation import (
    FEATURE_NAMES,
    N_FEATURES,
    feature_matrix,
    features_from_rates,
)
from repro.core.objective import MODES, EnergyEfficiencyObjective, IncrementalEvaluator
from repro.core.prediction import (
    IPC_FEATURE_INDEX,
    MatrixBuilder,
    design_matrix,
    design_vector,
)
from repro.core.training import default_predictor
from repro.experiments.fig7 import synthetic_view
from repro.hardware.counters import DerivedRates
from repro.hardware.features import BUILTIN_TYPES
from sensed_tasks import SensedTask, gather, sensed_tasks

RTOL = 1e-9

rate = st.floats(0.0, 0.5, allow_nan=False, width=64)
share = st.floats(0.0, 1.0, allow_nan=False, width=64)
ipc_value = st.floats(0.05, 5.0, allow_nan=False, width=64)


@st.composite
def feature_vectors(draw):
    """A plausible Eq. 8 feature vector (Table 4 layout)."""
    values = {
        "freq_mhz": draw(st.floats(200.0, 4000.0, allow_nan=False)),
        "mr_l1i": draw(rate),
        "mr_l1d": draw(rate),
        "i_msh": draw(share),
        "i_bsh": draw(share),
        "mr_b": draw(rate),
        "mr_itlb": draw(rate),
        "mr_dtlb": draw(rate),
        "ipc_src": draw(ipc_value),
        "stall_frac": draw(st.floats(0.0, 0.95, allow_nan=False)),
        "const": 1.0,
    }
    return np.array([values[name] for name in FEATURE_NAMES])


@st.composite
def derived_rates(draw):
    return DerivedRates(
        ipc=draw(ipc_value),
        ips=draw(st.floats(1e6, 1e10, allow_nan=False)),
        mem_share=draw(share),
        branch_share=draw(share),
        branch_miss_rate=draw(rate),
        l1i_miss_rate=draw(rate),
        l1d_miss_rate=draw(rate),
        itlb_miss_rate=draw(rate),
        dtlb_miss_rate=draw(rate),
        stall_fraction=draw(st.floats(0.0, 0.95, allow_nan=False)),
    )


def measured_task(tid, core_id, core_type, utilization, rates, power_w, busy_time_s):
    """A user thread carrying ``rates`` as its measurement."""
    return SensedTask(
        tid=tid,
        name=f"t{tid}",
        core_id=core_id,
        core_type=core_type,
        weight=1.0,
        is_user=True,
        utilization=utilization,
        rates=rates,
        power_w=power_w,
        busy_time_s=busy_time_s,
    )


def assert_allclose(actual, expected, label):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    np.testing.assert_allclose(
        actual, expected, rtol=RTOL, atol=1e-12, err_msg=label
    )


class TestBatchedPrediction:
    """predict_ipc_batch / predict_power_batch vs the scalar path."""

    @settings(deadline=None, max_examples=60)
    @given(st.lists(feature_vectors(), min_size=1, max_size=8), st.data())
    def test_ipc_batch_matches_scalar(self, vectors, data):
        model = default_predictor()
        src = data.draw(st.sampled_from(model.type_names))
        dst_types = tuple(model.type_names)
        features = np.stack(vectors)
        batched = model.predict_ipc_batch(src, dst_types, features)
        for i, row in enumerate(features):
            for j, dst in enumerate(dst_types):
                scalar = model.predict_ipc(src, dst, row)
                assert math.isclose(
                    batched[i, j], scalar, rel_tol=RTOL, abs_tol=1e-12
                ), f"ipc mismatch {src}->{dst} row {i}"

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.lists(ipc_value, min_size=6, max_size=6),
                    min_size=1, max_size=8))
    def test_power_batch_matches_scalar(self, ipc_rows):
        model = default_predictor()
        dst_types = tuple(model.type_names)
        ipc = np.array(ipc_rows)
        batched = model.predict_power_batch(dst_types, ipc)
        for i, row in enumerate(ipc):
            for j, dst in enumerate(dst_types):
                scalar = model.predict_power(dst, float(row[j]))
                assert math.isclose(
                    batched[i, j], scalar, rel_tol=RTOL, abs_tol=1e-12
                ), f"power mismatch ->{dst} row {i}"

    def test_design_matrix_matches_design_vector(self):
        rng = np.random.default_rng(0)
        batch = rng.uniform(0.01, 10.0, size=(16, N_FEATURES))
        stacked = design_matrix(batch)
        for i, row in enumerate(batch):
            assert_allclose(stacked[i], design_vector(row), f"design row {i}")
        # The near-zero source-IPC guard must agree too.
        row = batch[0].copy()
        row[IPC_FEATURE_INDEX] = 0.0
        assert_allclose(
            design_matrix(row[None, :])[0], design_vector(row), "ipc guard"
        )


class TestMatrixBuilderEquivalence:
    """Vectorized build vs the retained per-thread reference."""

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_build_matches_build_scalar(self, data):
        model = default_predictor()
        type_pool = [BUILTIN_TYPES[n] for n in ("Big", "Small", "Medium")]
        n_cores = data.draw(st.integers(2, 6))
        cores = [
            data.draw(st.sampled_from(type_pool)) for _ in range(n_cores)
        ]
        n_threads = data.draw(st.integers(1, 6))
        observations = []
        for tid in range(n_threads):
            core_id = data.draw(st.integers(0, n_cores - 1))
            observations.append(
                measured_task(
                    tid,
                    core_id,
                    cores[core_id],
                    utilization=data.draw(share),
                    rates=data.draw(derived_rates()),
                    power_w=data.draw(st.floats(0.01, 10.0)),
                    busy_time_s=data.draw(st.floats(1e-4, 0.06)),
                )
            )
        builder = MatrixBuilder(model)
        fast = builder.build(gather(observations), cores)
        reference = build_scalar(model, observations, cores)
        assert fast.tids == reference.tids
        assert np.array_equal(fast.measured_mask, reference.measured_mask)
        assert_allclose(fast.ips, reference.ips, "ips")
        assert_allclose(fast.power, reference.power, "power")
        assert_allclose(fast.utilization, reference.utilization, "utilization")

    def test_feature_vector_round_trip(self):
        """Each row of the columnar feature matrix is
        ``features_from_rates`` over the record and its PMU row."""
        big = BUILTIN_TYPES["Big"]
        obs = measured_task(
            0, 0, big, utilization=0.5, power_w=1.0,
            rates=DerivedRates(
                ipc=1.2, ips=1e9, mem_share=0.3, branch_share=0.1,
                branch_miss_rate=0.05, l1i_miss_rate=0.01,
                l1d_miss_rate=0.04, itlb_miss_rate=0.001,
                dtlb_miss_rate=0.002, stall_fraction=0.2,
            ),
            busy_time_s=0.03,
        )
        tasks = [obs]
        for cores, threads, seed in ((4, 8, 1), (128, 64, 2)):
            tasks += sensed_tasks(synthetic_view(cores, threads, seed=seed))
        features = feature_matrix(gather(tasks))
        assert features.shape == (len(tasks), N_FEATURES)
        for row, task in zip(features, tasks):
            rates = task.rates
            vector = features_from_rates(
                freq_mhz=task.core_type.freq_mhz,
                mr_l1i=rates.l1i_miss_rate,
                mr_l1d=rates.l1d_miss_rate,
                i_msh=rates.mem_share,
                i_bsh=rates.branch_share,
                mr_b=rates.branch_miss_rate,
                mr_itlb=rates.itlb_miss_rate,
                mr_dtlb=rates.dtlb_miss_rate,
                ipc_src=rates.ipc,
                stall_frac=rates.stall_fraction,
            )
            assert vector.shape == (N_FEATURES,)
            assert (row == vector).all()


class TestIncrementalObjectiveEquivalence:
    """Memoized incremental J_E vs from-scratch evaluation."""

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_incremental_matches_fresh_after_swap_sequences(self, data):
        n_threads = data.draw(st.integers(1, 6))
        n_cores = data.draw(st.integers(2, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        objective = EnergyEfficiencyObjective(
            ips=rng.uniform(1e6, 1e9, size=(n_threads, n_cores)),
            power=rng.uniform(0.05, 8.0, size=(n_threads, n_cores)),
            utilization=rng.uniform(0.0, 1.0, size=(n_threads, n_cores)),
            idle_power=rng.uniform(0.05, 1.0, size=n_cores),
        )
        allocation = Allocation.round_robin(n_threads, n_cores)
        tracker = IncrementalEvaluator(objective, allocation)
        n_slots = len(allocation.slots)
        n_moves = data.draw(st.integers(1, 24))
        for _ in range(n_moves):
            pos_a = data.draw(st.integers(0, n_slots - 1))
            pos_b = data.draw(st.integers(0, n_slots - 1))
            incremental = tracker.apply_swap(pos_a, pos_b)
            fresh = objective.evaluate(allocation)
            assert math.isclose(
                incremental, fresh, rel_tol=RTOL, abs_tol=1e-9
            ), f"drift after swap ({pos_a}, {pos_b})"

    def test_cached_product_matrices_match_inputs(self):
        rng = np.random.default_rng(7)
        ips = rng.uniform(1e6, 1e9, size=(4, 3))
        power = rng.uniform(0.05, 8.0, size=(4, 3))
        util = rng.uniform(0.0, 1.0, size=(4, 3))
        objective = EnergyEfficiencyObjective(
            ips=ips, power=power, utilization=util, idle_power=np.ones(3)
        )
        assert_allclose(objective._uips, util * ips, "u*ips cache")
        assert_allclose(objective._up, util * power, "u*p cache")


@pytest.mark.parametrize("mode", MODES)
def test_vectorized_evaluate_matches_mapping_path(mode):
    """bincount-based evaluate vs evaluate_mapping on the same layout."""
    rng = np.random.default_rng(11)
    n_threads, n_cores = 5, 3
    objective = EnergyEfficiencyObjective(
        ips=rng.uniform(1e6, 1e9, size=(n_threads, n_cores)),
        power=rng.uniform(0.05, 8.0, size=(n_threads, n_cores)),
        utilization=rng.uniform(0.0, 1.0, size=(n_threads, n_cores)),
        idle_power=np.ones(n_cores),
        mode=mode,
        power_cap_w=5.0 if mode == "power_cap" else None,
    )
    mapping = [i % n_cores for i in range(n_threads)]
    allocation = Allocation.from_mapping(mapping, n_cores)
    assert math.isclose(
        objective.evaluate(allocation),
        objective.evaluate_mapping(mapping),
        rel_tol=RTOL,
    )
