"""The row store never changes a decision already returned.

``MatrixBuilder.build`` writes S, P and U into one (3 × rows × cores)
block, and ``SmartBalance._blend`` keeps that block as its row store,
so the matrices a decision returns are views of the store.  The next
decision must only read the old store: on the steady path (same
threads in the same order), after an arrival, and with a rejected
thread carried through its fallback row, the matrices returned at
epoch t still equal their copies after the epoch t+1 decision.
"""

import numpy as np
import pytest

from repro.core.balancer import SmartBalance
from repro.core.training import default_predictor
from repro.experiments.fig7 import synthetic_view
from sensed_tasks import sensed_tasks, sensed_view

FIELDS = ("ips", "power", "utilization", "measured_mask")


def corrupt_power(view, index):
    tasks = sensed_tasks(view)
    tasks[index] = tasks[index]._replace(power_w=1e9)
    return sensed_view(tasks, view)


def steady(seed):
    return synthetic_view(4, 6, seed=seed)


def arrival(seed):
    return synthetic_view(4, 7, seed=seed)


def fallback(seed):
    return corrupt_power(synthetic_view(4, 6, seed=seed), 2)


@pytest.mark.parametrize("next_view", [steady, arrival, fallback])
def test_returned_matrices_survive_the_next_decision(next_view):
    balancer = SmartBalance(default_predictor())
    balancer.decide(synthetic_view(4, 6, seed=1))
    first = balancer.decide(synthetic_view(4, 6, seed=2)).matrices
    # The returned rows are the store itself, not a copy of it.
    assert np.shares_memory(first.ips, balancer._smoothed)
    copies = {name: getattr(first, name).copy() for name in FIELDS}

    second = balancer.decide(next_view(3))
    if next_view is steady:
        assert second.matrices.tids == first.tids
    if next_view is arrival:
        assert len(second.matrices.tids) == len(first.tids) + 1
    if next_view is fallback:
        assert balancer.health.fallback_rows_used == 1
        assert second.matrices.tids[-1] == first.tids[2]
    for name in FIELDS:
        assert (getattr(first, name) == copies[name]).all(), name
