"""Differential test: the sense phase's columnar plausibility check
against its reference copy.

:mod:`reference_observation` holds ``observation_fault`` as it read
each field of one record by attribute.  Starting from measured threads
of real views (``sensed_tasks.SensedTask``, each record with its PMU
readings), the test plants NaN, ±inf and out-of-range values into
every rate, the power and the utilisation, alone and several at a
time, and requires :func:`observation_faults` over the
:func:`gather_tasks` columns of a view of them to give each row the
reference's reason (or ``None``), one row at a time and as one batch.
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
from sensed_tasks import gather, sensed_tasks, sensed_view

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
    return [task for task in sensed_tasks(view) if task.has_measurement]


BASES = measured(synthetic_view(4, 8, seed=1)) + measured(synthetic_view(128, 16, seed=2))


def plant(task, field, value):
    if field in RATE_FIELDS:
        return task._replace(rates=task.rates._replace(**{field: value}))
    return task._replace(**{field: value})


def columnar_faults(tasks):
    """Each task's reason from one columnar check over all of them."""
    return [FAULT_REASONS[code] for code in observation_faults(gather(tasks))]


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
        columns = gather(BASES)
        assert columns.records == tuple(task.record for task in BASES)
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
        tasks = sensed_tasks(view)
        tasks[1] = tasks[1]._replace(busy_time_s=0.0)
        tasks[2] = tasks[2]._replace(rates=tasks[2].rates._replace(ips=0.0))
        tasks[3] = tasks[3]._replace(rates=tasks[3].rates._replace(ips=math.nan))
        tasks[4] = tasks[4]._replace(rates=tasks[4].rates._replace(ips=-1.0))
        columns = gather(tasks)
        assert columns.measured.tolist() == [task.has_measurement for task in tasks]
        assert columns.measured.tolist() == [True, False, False, False, False, True, True, True]

    def test_view_without_pmu_reads_nan_and_is_unmeasured(self):
        """A view without the PMU part gives every row NaN readings, so
        no row is measured, and the OS columns as in a sensed view."""
        sensed = synthetic_view(4, 8, seed=3)
        unsensed = sensed_view(
            [task._replace(rates=None, power_w=None) for task in sensed_tasks(sensed)],
            sensed,
            sensed=False,
        )
        assert unsensed.pmu is None
        columns = gather_tasks(unsensed)
        assert not columns.measured.any()
        assert np.isnan(columns.values[:, : len(RATE_FIELDS) + 1]).all()
        pmu_width = sensed.pmu.shape[1]
        assert (columns.values[:, pmu_width:] == gather_tasks(sensed).values[:, pmu_width:]).all()

    def test_user_rows_only(self):
        """Only user threads are gathered, each with its own PMU row, in
        view order."""
        tasks = sensed_tasks(synthetic_view(4, 8, seed=4))
        for i in (0, 3, 4, 7):
            tasks[i] = tasks[i]._replace(is_user=False)
        view = sensed_view(tasks)
        columns = gather_tasks(view)
        users = [task for task in tasks if task.is_user]
        assert columns.records == tuple(task.record for task in users)
        assert columns.values.tolist() == gather(users).values.tolist()
        assert (columns.values[:, : view.pmu.shape[1]] == view.pmu[[1, 2, 5, 6]]).all()
        none = sensed_view([task._replace(is_user=False) for task in tasks])
        assert gather_tasks(none).values.shape == (0, len(RATE_FIELDS) + 5)

    def test_take_keeps_rows_together(self):
        columns = gather(BASES)
        rows = np.array([3, 0, 5])
        taken = columns.take(rows)
        assert taken.records == tuple(BASES[i].record for i in (3, 0, 5))
        assert (taken.values == columns.values[rows]).all()
        assert (taken.core_id == columns.core_id[rows]).all()
        assert len(taken) == 3

    def test_empty(self):
        columns = gather([])
        assert len(columns) == 0
        assert columns.values.shape == (0, len(RATE_FIELDS) + 5)
        assert observation_faults(columns).shape == (0,)
