"""Frequency-conditioning laws: normalisation inverts OPP scaling."""

import pytest
from hypothesis import given, settings, strategies as st

from reference_scaling import normalize_thread
from repro.governor.scaling import dynamic_ratio, freq_ratio, normalize_view
from repro.hardware import power as power_model
from repro.hardware.counters import DerivedRates
from repro.hardware.dvfs import opp_table, type_at_opp
from repro.hardware.features import BIG, HUGE, MEDIUM, SMALL
from repro.hardware.platform import quad_hmp
from repro.kernel.view import CoreView, SystemView
from sensed_tasks import SensedTask, sensed_tasks, sensed_view

CORE_TYPES = (HUGE, BIG, MEDIUM, SMALL)

RATES = DerivedRates(
    ipc=1.5,
    mem_share=0.2,
    branch_share=0.1,
    branch_miss_rate=0.02,
    l1i_miss_rate=0.01,
    l1d_miss_rate=0.03,
    itlb_miss_rate=0.001,
    dtlb_miss_rate=0.002,
    stall_fraction=0.2,
    ips=1.5e9,
)


def observation_at(core_type, ips, utilization, power_w, tid=1, core_id=0):
    return SensedTask(
        tid=tid,
        name=f"t{tid}",
        core_id=core_id,
        core_type=core_type,
        weight=1.0,
        is_user=True,
        utilization=utilization,
        rates=RATES._replace(ips=ips),
        power_w=power_w,
        busy_time_s=0.004,
    )


class TestRatios:
    def test_nominal_ratios_are_one(self):
        assert freq_ratio(BIG, BIG) == 1.0
        assert dynamic_ratio(BIG, BIG) == 1.0

    def test_scaled_ratios_below_one(self):
        low = type_at_opp(BIG, opp_table(BIG, 4)[0])
        assert 0.0 < freq_ratio(BIG, low) < 1.0
        # Dynamic power falls faster than frequency (V drops too).
        assert dynamic_ratio(BIG, low) < freq_ratio(BIG, low)


def normalize_one(task, nominal):
    """``task`` normalised by ``normalize_view``, as the one task of a
    one-core view whose core runs ``task.core_type``."""
    core = CoreView(task.core_id, task.core_type, 0.0, 0.0)
    view = sensed_view([task], SystemView(1, 0.06, 0.06, None, (), (core,)))
    normalized = normalize_view(view, {task.core_id: nominal}, (0.0,), (0.0,))
    (recovered,) = sensed_tasks(normalized)
    return recovered


class TestNormalizeThread:
    """The per-task laws, one task at a time."""

    def test_nominal_observation_is_identity(self):
        obs = observation_at(BIG, ips=2e9, utilization=0.5, power_w=1.0)
        assert normalize_one(obs, BIG) == obs

    @settings(max_examples=60, deadline=None)
    @given(
        type_index=st.integers(min_value=0, max_value=len(CORE_TYPES) - 1),
        level=st.integers(min_value=0, max_value=2),
        ips_nom=st.floats(min_value=1e6, max_value=5e9),
        util_nom=st.floats(min_value=0.01, max_value=0.9),
        dyn_w=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_inverts_forward_scaling(
        self, type_index, level, ips_nom, util_nom, dyn_w
    ):
        """Scale a nominal-frame measurement onto a lower OPP with the
        forward laws, normalise it back, recover the original: ips by
        1/r (IPC frequency-invariance), utilization by r (demand
        stretch) and power by the dynamic/leakage separation."""
        nominal = CORE_TYPES[type_index]
        applied = type_at_opp(nominal, opp_table(nominal, 4)[level])
        r = freq_ratio(nominal, applied)
        s = dynamic_ratio(nominal, applied)
        leak_nom = power_model.leakage_power(nominal)
        leak_app = power_model.leakage_power(applied)

        util_scaled = util_nom / r
        if util_scaled >= 1.0:
            return  # saturation clips the information away; not invertible
        scaled = observation_at(
            applied,
            ips=ips_nom * r,
            utilization=util_scaled,
            power_w=dyn_w * s + leak_app,
        )
        recovered = normalize_one(scaled, nominal)
        assert recovered.core_type == nominal
        assert recovered.rates.ips == pytest.approx(ips_nom, rel=1e-12)
        assert recovered.utilization == pytest.approx(util_nom, rel=1e-12)
        assert recovered.power_w == pytest.approx(
            dyn_w + leak_nom, rel=1e-9, abs=1e-12
        )

    def test_clock_identity_preserved(self):
        """After normalisation ips/ipc ≈ f_nom again, so the throttle
        sanity check keeps working on normalised observations."""
        nominal = BIG
        applied = type_at_opp(nominal, opp_table(nominal, 4)[1])
        ips_scaled = RATES.ipc * applied.freq_mhz * 1e6
        obs = observation_at(applied, ips=ips_scaled, utilization=0.4, power_w=0.8)
        recovered = normalize_one(obs, nominal)
        clock_hz = recovered.rates.ips / recovered.rates.ipc
        assert clock_hz == pytest.approx(nominal.freq_mhz * 1e6, rel=1e-9)

    def test_negative_dynamic_power_clamped(self):
        """Sensor noise can report less than the applied leakage; the
        nominal-frame power must clamp at zero, not go negative."""
        nominal = BIG
        applied = type_at_opp(nominal, opp_table(nominal, 4)[0])
        leak_app = power_model.leakage_power(applied)
        obs = observation_at(
            applied, ips=1e8, utilization=0.3, power_w=0.5 * leak_app
        )
        recovered = normalize_one(obs, nominal)
        assert recovered.power_w >= 0.0

    def test_zero_power_passes_through(self):
        nominal = BIG
        applied = type_at_opp(nominal, opp_table(nominal, 4)[0])
        obs = observation_at(applied, ips=1e8, utilization=0.3, power_w=0.0)
        assert normalize_one(obs, nominal).power_w == 0.0

    def test_other_fields_untouched(self):
        nominal = BIG
        applied = type_at_opp(nominal, opp_table(nominal, 4)[1])
        obs = observation_at(applied, ips=1e9, utilization=0.5, power_w=1.0)
        obs = obs._replace(allowed_cores=frozenset({0, 2}))
        recovered = normalize_one(obs, nominal)
        assert recovered.tid == obs.tid
        assert recovered.rates._replace(ips=obs.rates.ips) == obs.rates
        assert recovered.busy_time_s == obs.busy_time_s
        assert recovered.allowed_cores == frozenset({0, 2})


def view_at(applied_by_core):
    """A quad-HMP view, one task per core, each core at ``applied_by_core``."""
    platform = quad_hmp()
    tasks = [
        observation_at(
            applied, ips=1e9, utilization=0.5, power_w=1.0, tid=core_id,
            core_id=core_id,
        )
        for core_id, applied in enumerate(applied_by_core)
    ]
    cores = tuple(
        CoreView(
            core_id=core.core_id,
            core_type=applied,
            idle_power_w=power_model.idle_power(applied).total_w,
            sleep_power_w=power_model.sleep_power(applied),
        )
        for core, applied in zip(platform, applied_by_core)
    )
    return sensed_view(
        tasks,
        SystemView(
            epoch_index=1, time_s=0.06, window_s=0.06, platform=platform,
            tasks=(), cores=cores,
        ),
    )


class TestNormalizeView:
    NOMINAL = {core.core_id: core.core_type for core in quad_hmp()}
    IDLE = tuple(power_model.idle_power(t).total_w for t in NOMINAL.values())
    SLEEP = tuple(power_model.sleep_power(t) for t in NOMINAL.values())

    def normalize(self, view):
        return normalize_view(view, self.NOMINAL, self.IDLE, self.SLEEP)

    def test_top_rung_is_the_same_object(self):
        view = view_at(list(self.NOMINAL.values()))
        assert self.normalize(view) is view

    def test_lower_rung_replaced_in_the_nominal_frame(self):
        applied = list(self.NOMINAL.values())
        applied[1] = type_at_opp(applied[1], opp_table(applied[1], 4)[0])
        view = view_at(applied)
        normalized = self.normalize(view)
        scaled, nominal = sensed_tasks(view)[1], sensed_tasks(normalized)[1]
        r = freq_ratio(self.NOMINAL[1], applied[1])
        assert nominal.core_type == self.NOMINAL[1]
        assert nominal.rates.ips == pytest.approx(scaled.rates.ips / r)
        assert nominal.utilization == pytest.approx(scaled.utilization * r)
        assert nominal.power_w != scaled.power_w
        assert nominal == normalize_thread(scaled, self.NOMINAL[1])
        # Tasks already at nominal come back untouched.
        for i in (0, 2, 3):
            assert normalized.tasks[i] is view.tasks[i]
        for core in normalized.cores:
            assert core.core_type == self.NOMINAL[core.core_id]
            assert core.idle_power_w == self.IDLE[core.core_id]
            assert core.sleep_power_w == self.SLEEP[core.core_id]
        assert view.cores[1].idle_power_w != self.IDLE[1]
        assert view.cores[1].sleep_power_w != self.SLEEP[1]
        for task in normalized.tasks:
            assert task.core_type == normalized.cores[task.core_id].core_type
