"""Differential test: the governor's view normalisation against the
record-at-a-time oracle in ``reference_scaling.py``.

``repro.governor.scaling.normalize_view`` rewrites each off-nominal
task in two places, its record (``core_type``, ``utilization``) and its
row of a copy of the PMU block (``ips``, ``power_w``).  The oracle
rewrites one record with its readings at a time.  Their records must
be equal by ``==`` and ``repr``, and their PMU blocks byte for byte, so
a NaN or a -0.0 counts.  The input view's block is never written.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

import reference_scaling
from repro.governor.scaling import normalize_view
from repro.hardware import power as power_model
from repro.hardware.counters import DerivedRates
from repro.hardware.dvfs import opp_table, type_at_opp
from repro.hardware.platform import big_little_octa, quad_hmp
from repro.kernel.view import CoreView, SystemView
from repro.runner.factories import make_platform
from sensed_tasks import SensedTask, comparable, sensed_view

PLATFORMS = (quad_hmp(), big_little_octa(), make_platform("dvfsquad"))
#: OPP rungs drawn per core; the last is the nominal type itself.
N_LEVELS = 4

#: Readings a faulty sensor or a wrapped counter can give.
ODD = (0.0, -0.0, math.nan, math.inf, -math.inf)
readings = st.one_of(
    st.floats(min_value=-1.0, max_value=1e10, allow_nan=False),
    st.sampled_from(ODD),
)
powers = st.one_of(
    st.floats(min_value=-5.0, max_value=0.0),
    st.floats(min_value=0.0, max_value=70.0),
    st.sampled_from(ODD),
)


def nominal_frame(platform):
    nominal = {core.core_id: core.core_type for core in platform}
    idle = tuple(power_model.idle_power(t).total_w for t in nominal.values())
    sleep = tuple(power_model.sleep_power(t) for t in nominal.values())
    return nominal, idle, sleep


@st.composite
def views(draw, sensed=True):
    """A view on one of :data:`PLATFORMS`, each core at a drawn rung
    (often the nominal one), with tasks on drawn cores."""
    platform = draw(st.sampled_from(PLATFORMS))
    applied = []
    for core in platform:
        level = draw(st.integers(0, N_LEVELS - 1))
        nominal = core.core_type
        opp = opp_table(nominal, N_LEVELS)[level]
        applied.append(nominal if level == N_LEVELS - 1 else type_at_opp(nominal, opp))
    cores = tuple(
        CoreView(
            core_id=core.core_id,
            core_type=core_type,
            idle_power_w=power_model.idle_power(core_type).total_w,
            sleep_power_w=power_model.sleep_power(core_type),
        )
        for core, core_type in zip(platform, applied)
    )
    tasks = []
    for tid in range(draw(st.integers(0, 10))):
        core_id = draw(st.integers(0, len(platform) - 1))
        rates = power_w = None
        if sensed:
            rates = DerivedRates(*draw(st.lists(readings, min_size=10, max_size=10)))
            power_w = draw(powers)
        tasks.append(
            SensedTask(
                tid=tid,
                name=f"t{tid}",
                core_id=core_id,
                core_type=applied[core_id],
                weight=1.0,
                is_user=draw(st.booleans()),
                utilization=draw(st.floats(0.0, 1.0)),
                rates=rates,
                power_w=power_w,
                busy_time_s=draw(st.sampled_from((0.0, 0.004, 0.06))),
                allowed_cores=draw(st.sampled_from((None, frozenset({0, 2})))),
            )
        )
    base = SystemView(
        epoch_index=3, time_s=0.18, window_s=0.06, platform=platform,
        tasks=(), cores=cores,
    )
    return sensed_view(tasks, base, sensed)


@settings(max_examples=300, deadline=None)
@given(views())
def test_matches_the_record_oracle(view):
    frame = nominal_frame(view.platform)
    before = view.pmu.tobytes()
    normalized = normalize_view(view, *frame)
    expected = reference_scaling.normalize_view(view, *frame)
    assert view.pmu.tobytes() == before
    if expected is view:
        assert normalized is view
        return
    assert comparable(normalized) == comparable(expected)
    assert normalized.pmu is not view.pmu
    assert not normalized.pmu.flags.writeable


@settings(max_examples=100, deadline=None)
@given(views(sensed=False))
def test_unsensed_view(view):
    """Without a PMU block only the records and cores change, as the
    oracle changes them on a sensed twin of the view."""
    frame = nominal_frame(view.platform)
    normalized = normalize_view(view, *frame)
    if all(core.core_type == frame[0][core.core_id] for core in view.cores):
        assert normalized is view
        return
    assert normalized.pmu is None
    rates = DerivedRates(*[1.0] * len(DerivedRates._fields))
    twin = sensed_view(
        [SensedTask(*task[:7], rates, 1.0, *task[7:]) for task in view.tasks], view
    )
    expected = reference_scaling.normalize_view(twin, *frame)
    assert comparable(normalized) == comparable(replace(expected, pmu=None))


def test_all_nominal_view_is_the_same_object():
    platform = quad_hmp()
    frame = nominal_frame(platform)
    rates = DerivedRates(*[0.5] * len(DerivedRates._fields))
    tasks = [
        SensedTask(
            tid, f"t{tid}", tid % 4, platform[tid % 4].core_type, 1.0, True, 0.5,
            rates, 1.0, 0.06,
        )
        for tid in range(6)
    ]
    cores = tuple(
        CoreView(core.core_id, core.core_type, idle, sleep)
        for core, idle, sleep in zip(platform, frame[1], frame[2])
    )
    base = SystemView(1, 0.06, 0.06, platform, (), cores)
    unsensed = [task._replace(rates=None, power_w=None) for task in tasks]
    for view in (sensed_view(tasks, base), sensed_view(unsensed, base, False)):
        assert normalize_view(view, *frame) is view


def test_off_nominal_rows_rewritten_in_a_copy():
    """A fixed view with one scaled core: only that core's task rows
    change, in a new read-only block; the input block keeps its bytes."""
    platform = quad_hmp()
    frame = nominal_frame(platform)
    applied = [core.core_type for core in platform]
    applied[1] = type_at_opp(applied[1], opp_table(applied[1], N_LEVELS)[0])
    cores = tuple(
        CoreView(core_id, core_type, 0.1, 0.01)
        for core_id, core_type in enumerate(applied)
    )
    rates = DerivedRates(1.5, 0.2, 0.1, 0.02, 0.01, 0.03, 0.001, 0.002, 0.2, 1.5e9)
    tasks = [
        SensedTask(
            tid, f"t{tid}", tid % 4, applied[tid % 4], 1.0, True, 0.5, rates,
            power, 0.06,
        )
        for tid, power in enumerate((1.0, 0.8, 1.2, 0.4, 2.0, -0.0, math.nan, 0.1))
    ]
    view = sensed_view(tasks, SystemView(1, 0.06, 0.06, platform, (), cores))
    before = view.pmu.copy()
    normalized = normalize_view(view, *frame)
    expected = reference_scaling.normalize_view(view, *frame)
    assert comparable(normalized) == comparable(expected)
    assert np.array_equal(view.pmu, before, equal_nan=True)
    changed = np.flatnonzero(
        (normalized.pmu.view(np.int64) != before.view(np.int64)).any(axis=1)
    ).tolist()
    assert changed == [1, 5]
    for i, task in enumerate(view.tasks):
        assert (normalized.tasks[i] is task) == (task.core_id != 1)
