"""Differential test: the sense phase's columnar plausibility check
against its reference copy.

:mod:`reference_observation` holds ``observation_fault`` as it read
each field of one record by attribute.  Starting from measured threads
of real views, the test plants NaN, ±inf and out-of-range values into
every rate, the power and the utilisation, alone and several at a
time, and requires :func:`observation_faults` over the records'
:func:`gather_tasks` columns to give each row the reference's reason
(or ``None``), one row at a time and as one batch.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_observation import observation_fault as reference_fault
from repro.core.sensing import (
    FAULT_REASONS,
    MAX_IPC,
    MAX_POWER_W,
    MIN_POWER_W,
    gather_tasks,
    observation_faults,
)
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


def columnar_faults(tasks):
    """Each record's reason from one columnar check over all of them."""
    return [FAULT_REASONS[code] for code in observation_faults(gather_tasks(tasks))]


def planted_task(base, plants, clock_scale):
    # A scaled IPC keeps its own bounds but moves the implied clock.
    task = plant(base, "ipc", base.rates.ipc * clock_scale)
    for field, value in plants:
        task = plant(task, field, value)
    return task


@pytest.mark.parametrize("field", RATE_FIELDS + TASK_FIELDS)
@pytest.mark.parametrize("value", PLANTED, ids=repr)
def test_each_field_and_planted_value(field, value):
    bad = [plant(task, field, value) for task in BASES[:4]]
    want = [reference_fault(task) for task in bad]
    assert [columnar_faults([task])[0] for task in bad] == want
    assert columnar_faults(bad) == want


plant_lists = st.lists(st.tuples(st.sampled_from(RATE_FIELDS + TASK_FIELDS), values), max_size=4)
clock_scales = st.sampled_from([1.0, 0.4, 1.6, 3.0])


@settings(max_examples=400, deadline=None)
@given(base=st.sampled_from(BASES), plants=plant_lists, clock_scale=clock_scales)
def test_same_reason_as_reference(base, plants, clock_scale):
    task = planted_task(base, plants, clock_scale)
    assert columnar_faults([task]) == [reference_fault(task)]


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(BASES), plant_lists, clock_scales), min_size=1, max_size=12
    )
)
def test_batch_gives_each_row_its_reference_reason(rows):
    """One check over a batch that mixes healthy rows, single faults
    and rows where several checks fail at once."""
    tasks = [planted_task(*row) for row in rows]
    assert columnar_faults(tasks) == [reference_fault(task) for task in tasks]


def test_fixed_mixed_batch():
    """Healthy rows, one fault each, and several failing checks in one
    row, where the first failing check in check order is the reason."""
    base = BASES[0]
    tasks = [
        base,
        plant(base, "power_w", math.nan),
        plant(base, "ipc", 100.0),
        BASES[1],
        plant(base, "mem_share", 15.0),
        # IPC, power and a ratio all fail: the IPC check comes first.
        plant(plant(plant(base, "ipc", 0.0), "power_w", 1e9), "mem_share", 2.0),
        # A ratio and the clock identity fail: the ratio check first.
        plant(plant(base, "ipc", base.rates.ipc * 3.0), "stall_fraction", -1.0),
        plant(base, "ipc", base.rates.ipc * 3.0),
        # Non-finite beats every other check.
        plant(plant(base, "ips", -1.0), "utilization", math.inf),
        plant(base, "ips", 0.0),
        BASES[2],
    ]
    want = [reference_fault(task) for task in tasks]
    assert want == [
        None,
        "non-finite reading",
        "impossible IPC",
        None,
        "rate outside [0, 1]",
        "impossible IPC",
        "rate outside [0, 1]",
        "cycle/clock identity violated",
        "non-finite reading",
        "non-positive throughput",
        None,
    ]
    assert columnar_faults(tasks) == want


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
    assert reasons == set(FAULT_REASONS)


class TestGather:
    def test_columns_are_the_record_fields(self):
        columns = gather_tasks(BASES)
        assert columns.records == tuple(BASES)
        for row, task in enumerate(BASES):
            assert columns.values[row].tolist() == [
                *task.rates,
                task.power_w,
                task.utilization,
                task.core_type.freq_mhz,
                task.busy_time_s,
                task.core_id,
            ]
            assert columns.core_id[row] == task.core_id
        assert columns.measured.tolist() == [task.has_measurement for task in BASES]

    def test_measured_mask_is_has_measurement(self):
        view = synthetic_view(4, 8, seed=3)
        tasks = list(view.tasks)
        tasks[1] = tasks[1]._replace(busy_time_s=0.0)
        tasks[2] = tasks[2]._replace(rates=tasks[2].rates._replace(ips=0.0))
        tasks[3] = tasks[3]._replace(rates=tasks[3].rates._replace(ips=math.nan))
        # A record without the PMU part stays unmeasured.
        tasks[4] = tasks[4]._replace(rates=None, power_w=None)
        tasks[5] = tasks[5]._replace(rates=None)
        columns = gather_tasks(tasks)
        assert columns.measured.tolist() == [task.has_measurement for task in tasks]
        assert columns.measured.tolist() == [True, False, False, False, False, False, True, True]
        assert np.isnan(columns.values[4, : len(RATE_FIELDS) + 1]).all()
        assert np.isnan(columns.values[5, : len(RATE_FIELDS)]).all()
        assert columns.values[5, len(RATE_FIELDS)] == tasks[5].power_w

    def test_take_keeps_rows_together(self):
        columns = gather_tasks(BASES)
        rows = np.array([3, 0, 5])
        taken = columns.take(rows)
        assert taken.records == tuple(BASES[i] for i in (3, 0, 5))
        assert (taken.values == columns.values[rows]).all()
        assert (taken.core_id == columns.core_id[rows]).all()
        assert len(taken) == 3

    def test_empty(self):
        columns = gather_tasks([])
        assert len(columns) == 0
        assert columns.values.shape == (0, len(RATE_FIELDS) + 5)
        assert observation_faults(columns).shape == (0,)
