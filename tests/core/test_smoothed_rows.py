"""Differential test: SmartBalance's matrix row store against the
per-row form.

:mod:`reference_rows` holds the dict-of-row-copies EWMA store.  Both
are driven through the predict phase's sequence (``_blend`` with the
rejected threads kept, then ``_append_fallback_rows``) over epochs in
which threads arrive, exit, and have samples rejected with or without
history, and must agree with ``==`` on every blended matrix, every
fallback row and every prediction the watchdog reads afterwards.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_rows import ReferenceRows
from repro.core import balancer as balancer_module
from repro.core.balancer import SmartBalance
from repro.core.prediction import CharacterisationMatrices
from repro.core.training import default_predictor

N_CORES = 5
TID_POOL = 12


def random_matrices(tids, rng) -> CharacterisationMatrices:
    m = len(tids)
    return CharacterisationMatrices(
        tids=tuple(tids),
        ips=rng.uniform(1e6, 5e9, (m, N_CORES)),
        power=rng.uniform(0.01, 8.0, (m, N_CORES)),
        utilization=rng.uniform(0.0, 1.0, (m, N_CORES)),
        measured_mask=rng.uniform(size=(m, N_CORES)) < 0.3,
    )


def assert_same_matrices(got, want):
    assert got.tids == want.tids
    for name in ("ips", "power", "utilization", "measured_mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        assert (a == b).all(), name


def assert_same_predictions(balancer, reference):
    for tid in range(TID_POOL):
        for core in range(-1, N_CORES + 1):
            got = balancer._last_prediction(SimpleNamespace(tid=tid, core_id=core))
            row = reference.last_prediction.get(tid)
            if row is None or not 0 <= core < N_CORES:
                assert got is None, (tid, core)
            else:
                assert got == (row[core], reference.last_power[tid][core])


@st.composite
def epochs(draw):
    """Per epoch: the live threads in view order and the rejected ones."""
    sequence = []
    for _ in range(draw(st.integers(1, 8))):
        live = draw(
            st.lists(st.integers(0, TID_POOL - 1), unique=True, max_size=TID_POOL)
        )
        rejected = {tid for tid in live if draw(st.booleans())}
        sequence.append((live, rejected))
    return sequence


def run_both(balancer, reference, sequence, seed):
    rng = np.random.default_rng(seed)
    for live, rejected in sequence:
        healthy = [tid for tid in live if tid not in rejected]
        # The sense phase keeps a rejected thread only if it has a row.
        fallback = [
            tid for tid in live if tid in rejected and reference.has_row(tid)
        ]
        assert fallback == [
            tid for tid in live if tid in rejected and tid in balancer._smoothed_row
        ]
        if not healthy:
            continue  # decide() returns before the predict phase
        matrices = random_matrices(healthy, rng)
        snapshot = [a.copy() for a in (matrices.ips, matrices.power, matrices.utilization)]

        got = balancer._blend(matrices, keep=fallback)
        want = reference.blend(matrices, keep=set(fallback))
        assert_same_matrices(got, want)
        if fallback:
            tasks = [SimpleNamespace(tid=tid) for tid in fallback]
            got = balancer._append_fallback_rows(got, tasks)
            want = reference.append_fallback_rows(want, fallback)
            assert_same_matrices(got, want)
        reference.note_prediction(want)
        assert_same_predictions(balancer, reference)
        for before, after in zip(
            snapshot, (matrices.ips, matrices.power, matrices.utilization)
        ):
            assert (before == after).all(), "the input matrices were mutated"


@pytest.fixture(scope="module")
def predictor():
    return default_predictor()


@pytest.mark.parametrize("smoothing", [0.4, 0.5, 1.0 / 3.0])
@settings(max_examples=60, deadline=None)
@given(sequence=epochs(), seed=st.integers(0, 2**32 - 1))
def test_row_store_matches_per_row_form(predictor, smoothing, sequence, seed):
    original = balancer_module.SMOOTHING
    balancer_module.SMOOTHING = smoothing
    try:
        run_both(SmartBalance(predictor), ReferenceRows(), sequence, seed)
    finally:
        balancer_module.SMOOTHING = original


def test_arrivals_exits_and_fallback_rows(predictor):
    """A fixed sequence that takes every path: first rows, blending,
    an exit, an arrival, a rejected thread kept through its row, a
    rejected newcomer dropped, and a kept thread blended again."""
    sequence = [
        ([0, 1, 2], set()),
        ([2, 1, 0, 3], set()),
        ([0, 3, 4], {3}),
        ([0, 3, 4, 5], {3, 5}),
        ([3, 4], {4}),
        ([4, 3], set()),
        ([4], {4}),
        ([6, 4], set()),
    ]
    balancer = SmartBalance(predictor)
    reference = ReferenceRows()
    run_both(balancer, reference, sequence, seed=11)
    assert sorted(balancer._smoothed_row) == [4, 6]
