"""Tests for the RC thermal model and thermal-aware weighting."""

import pytest
from reference_kernel import ThermalState

from repro.hardware import power
from repro.hardware.features import BIG, HUGE, SMALL
from repro.hardware.thermal import (
    AMBIENT_C,
    T_JUNCTION_MAX_C,
    leakage_multiplier,
    steady_state_temperature,
    thermal_capacitance,
    thermal_resistance,
    thermal_time_constant,
    thermal_weights,
)


class TestStaticModel:
    def test_smaller_core_higher_resistance(self):
        assert thermal_resistance(SMALL) > thermal_resistance(HUGE)

    def test_capacitance_scales_with_area(self):
        assert thermal_capacitance(HUGE) > thermal_capacitance(SMALL)

    def test_time_constant_uniform(self):
        assert thermal_time_constant(HUGE) == pytest.approx(
            thermal_time_constant(SMALL)
        )

    def test_steady_state_at_zero_power_is_ambient(self):
        assert steady_state_temperature(BIG, 0.0) == AMBIENT_C

    def test_steady_state_linear_in_power(self):
        t1 = steady_state_temperature(BIG, 1.0)
        t2 = steady_state_temperature(BIG, 2.0)
        assert t2 - AMBIENT_C == pytest.approx(2 * (t1 - AMBIENT_C))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            steady_state_temperature(BIG, -1.0)

    def test_huge_at_peak_power_runs_hot(self):
        temp = steady_state_temperature(HUGE, power.peak_power(HUGE))
        assert temp > 75.0


class TestLeakageMultiplier:
    def test_unity_at_ambient(self):
        assert leakage_multiplier(AMBIENT_C) == pytest.approx(1.0)

    def test_doubles_per_step(self):
        assert leakage_multiplier(AMBIENT_C + 25.0) == pytest.approx(2.0)

    def test_below_ambient_reduces(self):
        assert leakage_multiplier(AMBIENT_C - 25.0) == pytest.approx(0.5)


class TestThermalState:
    def test_starts_at_ambient(self):
        state = ThermalState(core=BIG)
        assert state.temp_c == AMBIENT_C
        assert not state.over_limit

    def test_converges_to_steady_state(self):
        state = ThermalState(core=BIG)
        target = steady_state_temperature(BIG, 1.0)
        for _ in range(1000):
            state.step(1.0, 0.01)
        assert state.temp_c == pytest.approx(target, rel=1e-3)

    def test_long_step_stable(self):
        """The exponential integrator never overshoots, however long
        the step."""
        state = ThermalState(core=BIG)
        state.step(2.0, 1e9)
        assert state.temp_c == pytest.approx(
            steady_state_temperature(BIG, 2.0)
        )

    def test_cooling(self):
        state = ThermalState(core=BIG, temp_c=90.0)
        state.step(0.0, 1e9)
        assert state.temp_c == pytest.approx(AMBIENT_C)

    def test_peak_tracked(self):
        state = ThermalState(core=BIG)
        state.step(5.0, 1e9)
        hot = state.temp_c
        state.step(0.0, 1e9)
        assert state.peak_c == pytest.approx(hot)
        assert state.temp_c < hot

    def test_over_limit_flag(self):
        state = ThermalState(core=BIG, temp_c=T_JUNCTION_MAX_C + 1)
        assert state.over_limit

    def test_extra_leakage_zero_at_ambient(self):
        state = ThermalState(core=BIG)
        assert state.extra_leakage_w(0.2) == pytest.approx(0.0)

    def test_extra_leakage_positive_when_hot(self):
        state = ThermalState(core=BIG, temp_c=AMBIENT_C + 25)
        assert state.extra_leakage_w(0.2) == pytest.approx(0.2)

    def test_invalid_arguments_rejected(self):
        state = ThermalState(core=BIG)
        with pytest.raises(ValueError):
            state.step(-1.0, 0.1)
        with pytest.raises(ValueError):
            state.step(1.0, -0.1)
        with pytest.raises(ValueError):
            state.extra_leakage_w(-0.1)


class TestVectorisedHelpers:
    """The batch helpers must be *bit-identical* to the scalar path —
    the SoA kernel's digest contract depends on it."""

    def test_step_batch_bit_identical(self):
        import numpy as np

        from repro.hardware.thermal import decay_factor, step_batch

        cores = [HUGE, BIG, SMALL, BIG]
        dt = 0.006
        states = [
            ThermalState(core=c, temp_c=AMBIENT_C + 7.0 * i)
            for i, c in enumerate(cores)
        ]
        temps = np.array([s.temp_c for s in states])
        peaks = np.array([s.peak_c for s in states])
        r = np.array([thermal_resistance(c) for c in cores])
        decay = np.array([decay_factor(c, dt) for c in cores])
        powers = np.array([0.0, 0.5, 1.3, 2.0])
        for _ in range(200):
            temps, peaks = step_batch(temps, peaks, powers, r, decay)
            for i, state in enumerate(states):
                state.step(float(powers[i]), dt)
                assert temps[i] == state.temp_c
                assert peaks[i] == state.peak_c

    def test_extra_leakage_batch_bit_identical(self):
        import numpy as np

        from repro.hardware.thermal import extra_leakage_batch

        temps = np.array([AMBIENT_C, 52.3, 61.7, 88.9, 94.99])
        base = np.array([0.05, 0.1, 0.2, 0.4, 0.8])
        batch = extra_leakage_batch(temps, base)
        for i in range(temps.size):
            state = ThermalState(core=BIG, temp_c=float(temps[i]))
            assert batch[i] == state.extra_leakage_w(float(base[i]))

    def test_decay_factor_matches_scalar_step(self):
        from repro.hardware.thermal import decay_factor

        for core in (HUGE, BIG, SMALL):
            state = ThermalState(core=core, temp_c=70.0)
            decay = decay_factor(core, 0.006)
            expected = AMBIENT_C + (state.temp_c - AMBIENT_C) * decay
            state.step(0.0, 0.006)
            assert state.temp_c == expected

    def test_decay_factor_rejects_negative_dt(self):
        from repro.hardware.thermal import decay_factor

        with pytest.raises(ValueError):
            decay_factor(BIG, -0.001)


class TestThermalWeights:
    def test_cool_cores_full_weight(self):
        assert thermal_weights([50.0, 60.0]) == [1.0, 1.0]

    def test_hot_core_derated(self):
        weights = thermal_weights([50.0, 85.0])
        assert weights[0] == 1.0
        assert 0.0 < weights[1] < 1.0

    def test_critical_core_zeroed(self):
        assert thermal_weights([120.0]) == [0.0]

    def test_invalid_knee_rejected(self):
        with pytest.raises(ValueError):
            thermal_weights([50.0], knee_c=100.0, zero_c=90.0)


class TestKernelIntegration:
    def test_thermal_run_tracks_temperature(self):
        from repro.hardware.platform import quad_hmp
        from repro.kernel.balancers.base import NullBalancer
        from repro.kernel.simulator import SimulationConfig, System
        from repro.workload.synthetic import imb_threads

        config = SimulationConfig(thermal_enabled=True)
        system = System(quad_hmp(), imb_threads("HTLI", 8), NullBalancer(), config)
        result = system.run(n_epochs=10)
        temps = [c.peak_temp_c for c in result.core_stats]
        assert all(t is not None and t > AMBIENT_C for t in temps)
        # The Huge core works hardest and runs hottest.
        by_type = {c.core_type_name: c.peak_temp_c for c in result.core_stats}
        assert by_type["Huge"] == max(temps)

    def test_thermal_feedback_costs_energy(self):
        from repro.hardware.platform import quad_hmp
        from repro.kernel.balancers.base import NullBalancer
        from repro.kernel.simulator import SimulationConfig, System
        from repro.workload.synthetic import imb_threads

        cold = System(
            quad_hmp(), imb_threads("HTLI", 8), NullBalancer(),
            SimulationConfig(thermal_enabled=False),
        ).run(n_epochs=10)
        hot = System(
            quad_hmp(), imb_threads("HTLI", 8), NullBalancer(),
            SimulationConfig(thermal_enabled=True),
        ).run(n_epochs=10)
        assert hot.energy_j > cold.energy_j

    def test_disabled_run_reports_no_temperature(self):
        from repro.hardware.platform import quad_hmp
        from repro.kernel.balancers.base import NullBalancer
        from repro.kernel.simulator import System
        from repro.workload.synthetic import imb_threads

        system = System(quad_hmp(), imb_threads("MTMI", 2), NullBalancer())
        result = system.run(n_epochs=2)
        assert all(c.peak_temp_c is None for c in result.core_stats)

    def test_thermal_aware_balancer_runs(self):
        from repro.core.config import SmartBalanceConfig
        from repro.hardware.platform import quad_hmp
        from repro.core.balancer import SmartBalance
        from repro.kernel.simulator import SimulationConfig, System
        from repro.workload.synthetic import imb_threads

        balancer = SmartBalance(
            config=SmartBalanceConfig(thermal_aware=True)
        )
        config = SimulationConfig(thermal_enabled=True)
        system = System(quad_hmp(), imb_threads("HTMI", 8), balancer, config)
        result = system.run(n_epochs=10)
        assert result.instructions > 0

    def test_vectorised_thermal_digest_matches_reference(self):
        """End-to-end lock: the SoA kernel's vectorised thermal path is
        digest-identical to the reference kernel's scalar ThermalState
        stepping."""
        import contextlib

        from reference_kernel import reference_kernel
        from repro.hardware.platform import quad_hmp
        from repro.kernel.simulator import SimulationConfig, System
        from repro.runner.factories import make_balancer
        from repro.runner.serialize import metrics_digest
        from repro.workload.synthetic import imb_threads

        digests = {}
        engines = {"reference": reference_kernel(), "soa": contextlib.nullcontext()}
        for kernel, engine in engines.items():
            with engine:
                system = System(
                    quad_hmp(),
                    imb_threads("HTLI", 8),
                    make_balancer("smartbalance"),
                    SimulationConfig(thermal_enabled=True),
                )
            digests[kernel] = metrics_digest(system.run(n_epochs=6))
        assert digests["soa"] == digests["reference"]
