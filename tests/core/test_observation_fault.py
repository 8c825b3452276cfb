"""Differential test: the sense phase's plausibility check against its
reference copy.

:mod:`reference_observation` holds ``observation_fault`` as it read
each field by attribute.  Starting from measured threads of real views,
the test plants NaN, ±inf and out-of-range values into every rate, the
power and the utilisation, alone and several at a time, and requires
the same reason (or ``None``) from both.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from reference_observation import observation_fault as reference_fault
from repro.core.sensing import MAX_IPC, MAX_POWER_W, MIN_POWER_W, observation_fault
from repro.experiments.fig7 import synthetic_view
from repro.hardware.counters import DerivedRates

RATE_FIELDS = DerivedRates._fields
TASK_FIELDS = ("power_w", "utilization")

#: Values that trip, or sit right at, each check's bounds.
PLANTED = [
    math.nan,
    math.inf,
    -math.inf,
    -1.0,
    -1e-12,
    0.0,
    1e-12,
    0.5,
    1.0,
    1.0 + 1e-12,
    15.0,
    MAX_IPC,
    MAX_IPC * (1 + 1e-12),
    MIN_POWER_W,
    MIN_POWER_W * (1 - 1e-12),
    MAX_POWER_W,
    MAX_POWER_W * (1 + 1e-12),
    1e9,
    1e300,
]

values = st.one_of(
    st.sampled_from(PLANTED), st.floats(allow_nan=True, allow_infinity=True)
)


def measured(view):
    return [task for task in view.tasks if task.has_measurement]


BASES = measured(synthetic_view(4, 8, seed=1)) + measured(synthetic_view(128, 16, seed=2))


def plant(task, field, value):
    if field in RATE_FIELDS:
        return task._replace(rates=task.rates._replace(**{field: value}))
    return task._replace(**{field: value})


@pytest.mark.parametrize("field", RATE_FIELDS + TASK_FIELDS)
@pytest.mark.parametrize("value", PLANTED, ids=repr)
def test_each_field_and_planted_value(field, value):
    for task in BASES[:4]:
        bad = plant(task, field, value)
        assert observation_fault(bad) == reference_fault(bad)


@settings(max_examples=400, deadline=None)
@given(
    base=st.sampled_from(BASES),
    plants=st.lists(
        st.tuples(st.sampled_from(RATE_FIELDS + TASK_FIELDS), values), max_size=4
    ),
    clock_scale=st.sampled_from([1.0, 0.4, 1.6, 3.0]),
)
def test_same_reason_as_reference(base, plants, clock_scale):
    # A scaled IPC keeps its own bounds but moves the implied clock.
    task = plant(base, "ipc", base.rates.ipc * clock_scale)
    for field, value in plants:
        task = plant(task, field, value)
    assert observation_fault(task) == reference_fault(task)


def test_every_reason_is_reached():
    """The planted values exercise every branch, so agreement is not
    vacuous."""
    reasons = {
        reference_fault(plant(task, field, value))
        for task in BASES[:4]
        for field in RATE_FIELDS + TASK_FIELDS
        for value in PLANTED
    }
    reasons.add(reference_fault(plant(BASES[0], "ipc", BASES[0].rates.ipc * 3.0)))
    assert reasons == {
        None,
        "non-finite reading",
        "impossible IPC",
        "implausible power",
        "non-positive throughput",
        "rate outside [0, 1]",
        "cycle/clock identity violated",
    }
