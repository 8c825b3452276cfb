"""Differential test: the columnar predictor watchdog against its
per-thread reference copy.

:mod:`reference_watchdog` walks the healthy threads one at a time
(``sensed_tasks.SensedTask``, each record with its PMU readings).
Over random row stores and healthy sets (threads without a stored
row, cores outside the store, zero and negative predictions, odd and
even counts of scored threads), ``SmartBalance._watchdog_update`` on
the :func:`gather_tasks` columns of a view of them must make the same
strikes, trips and recoveries, epoch by epoch.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_watchdog import watchdog_update as reference_update
from repro.core import balancer as balancer_module
from repro.core.balancer import SmartBalance
from repro.core.training import default_predictor
from repro.experiments.fig7 import synthetic_view
from sensed_tasks import gather, sensed_tasks

TID_POOL = 10
BASE = next(
    task for task in sensed_tasks(synthetic_view(4, 4, seed=1)) if task.has_measurement
)


def watchdog_state(balancer):
    return (
        balancer._watchdog_strikes,
        balancer._watchdog_recoveries,
        balancer._watchdog_tripped,
        balancer.health.watchdog_trips,
    )


@st.composite
def epochs(draw):
    """Per epoch: a row store, its tid → row map, and healthy records."""
    sequence = []
    for _ in range(draw(st.integers(1, 10))):
        n_cores = draw(st.integers(0, 4))
        stored = draw(st.lists(st.integers(0, TID_POOL - 1), unique=True, max_size=TID_POOL))
        store = np.ones((3, len(stored), n_cores))
        prediction = st.one_of(st.floats(1e8, 4e9), st.sampled_from([0.0, -1e9]))
        for row in range(len(stored)):
            for core in range(n_cores):
                # Positive predictions, with zeros and negatives among them.
                store[0, row, core] = draw(prediction)
        row_of = dict(zip(stored, draw(st.permutations(range(len(stored))))))
        healthy = []
        for tid in draw(st.lists(st.integers(0, TID_POOL - 1), unique=True, max_size=TID_POOL)):
            # Cores outside the store on both sides, and inside it.
            core = draw(st.integers(-1, n_cores + 1))
            ips = draw(st.floats(1e7, 8e9))
            healthy.append(
                BASE._replace(tid=tid, core_id=core, rates=BASE.rates._replace(ips=ips))
            )
        sequence.append((store, row_of, healthy))
    return sequence


def run_both(sequence):
    columnar = SmartBalance(default_predictor())
    reference = SmartBalance(default_predictor())
    states = []
    for store, row_of, healthy in sequence:
        for balancer in (columnar, reference):
            balancer._smoothed = store
            balancer._smoothed_row = row_of
        columnar._watchdog_update(gather(healthy))
        reference_update(reference, healthy)
        assert watchdog_state(columnar) == watchdog_state(reference)
        states.append(watchdog_state(reference))
    return states


@pytest.fixture(autouse=True)
def short_watchdog(monkeypatch):
    """Trip and recover within a few epochs, so short sequences reach
    every state."""
    monkeypatch.setattr(balancer_module, "WATCHDOG_TRIP_EPOCHS", 2)
    monkeypatch.setattr(balancer_module, "WATCHDOG_RECOVERY_EPOCHS", 2)


@settings(max_examples=200, deadline=None)
@given(sequence=epochs())
def test_same_strikes_trips_and_recoveries(sequence):
    run_both(sequence)


def epoch(predicted, measured, cores=2):
    """A store predicting ``predicted[i]`` for tid i on core 0, and
    tid i measured at ``measured[i]`` there."""
    store = np.ones((3, len(predicted), cores))
    store[0, :, 0] = predicted
    healthy = [
        BASE._replace(tid=tid, core_id=0, rates=BASE.rates._replace(ips=ips))
        for tid, ips in enumerate(measured)
    ]
    return store, {tid: tid for tid in range(len(predicted))}, healthy


def test_fixed_trip_and_recovery():
    """Odd and even counts of scored threads, a thread predicted zero
    and one predicted negative (both unscored), out of band until it
    trips, then back in band until it recovers."""
    out_odd = epoch([1e9, 1e9, 1e9], [3e9, 3e9, 1e9])
    out_even = epoch([1e9, 2e9, 0.0, -1e9], [3e9, 1e8, 1e9, 1e9])
    in_even = epoch([1e9, 2e9], [1.1e9, 2e9])
    in_odd = epoch([1e9, 1e9, 1e9, 0.0], [1e9, 9e9, 1e9, 5e9])
    states = run_both([out_odd, out_even, in_even, out_odd, in_odd, in_even])
    assert [state[2] for state in states] == [False, True, True, True, True, False]
    assert states[-1][3] == 1


def test_no_scored_thread_leaves_state():
    """No stored row, a core outside the store and only non-positive
    predictions: nothing is scored and nothing moves."""
    store, row_of, healthy = epoch([0.0, -1.0], [1e9, 1e9])
    healthy.append(BASE._replace(tid=7, core_id=0))
    healthy.append(BASE._replace(tid=0, core_id=5))
    assert run_both([(store, row_of, healthy)]) == [(0, 0, False, 0)]
