"""Tests for SmartBalanceConfig validation and defaults."""

import pytest

from repro.core.annealing import SAConfig
from repro.core.config import SmartBalanceConfig


class TestDefaults:
    def test_default_objective_is_global(self):
        config = SmartBalanceConfig()
        assert config.objective_mode == "global"
        assert config.throughput_exponent == pytest.approx(1.7)

    def test_default_gates_nontrivial(self):
        config = SmartBalanceConfig()
        assert config.min_improvement > 0
        assert config.migration_penalty > 0
        assert 0 < config.smoothing < 1

    def test_kernel_threads_excluded_by_default(self):
        assert SmartBalanceConfig().include_kernel_threads is False

    def test_sa_config_embedded(self):
        config = SmartBalanceConfig(sa=SAConfig(max_iterations=42))
        assert config.sa.max_iterations == 42


class TestValidation:
    def test_thermal_band_checked(self):
        with pytest.raises(ValueError, match="thermal_knee_c"):
            SmartBalanceConfig(thermal_knee_c=90.0, thermal_zero_c=80.0)

    def test_negative_gates_rejected(self):
        with pytest.raises(ValueError):
            SmartBalanceConfig(min_improvement=-0.01)
        with pytest.raises(ValueError):
            SmartBalanceConfig(migration_penalty=-0.01)

    def test_smoothing_bounds(self):
        SmartBalanceConfig(smoothing=1.0)  # no smoothing is valid
        with pytest.raises(ValueError):
            SmartBalanceConfig(smoothing=0.0)

    def test_frozen(self):
        config = SmartBalanceConfig()
        with pytest.raises(AttributeError):
            config.min_improvement = 0.5  # type: ignore[misc]


class TestResilienceConfig:
    def test_defaults_all_defences_on(self):
        from repro.core.config import ResilienceConfig

        res = ResilienceConfig()
        assert res.enabled
        assert res.rebaseline_epochs >= 1

    def test_disabled_turns_every_defence_off(self):
        from repro.core.config import ResilienceConfig

        res = ResilienceConfig.disabled()
        assert not res.enabled
        assert res == ResilienceConfig(enabled=False)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"watchdog_tolerance": 0.0},
            {"watchdog_trip_epochs": 0},
            {"watchdog_recovery_epochs": 0},
            {"rebaseline_epochs": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        from repro.core.config import ResilienceConfig

        with pytest.raises(ValueError):
            ResilienceConfig(**kwargs)

    def test_embedded_in_smartbalance_config(self):
        from repro.core.config import ResilienceConfig

        config = SmartBalanceConfig(resilience=ResilienceConfig.disabled())
        assert not config.resilience.enabled
        assert SmartBalanceConfig().resilience.enabled


class TestEpochTimeBudget:
    def test_none_by_default(self):
        assert SmartBalanceConfig().epoch_time_budget_s is None

    def test_positive_accepted(self):
        assert SmartBalanceConfig(epoch_time_budget_s=0.01).epoch_time_budget_s == 0.01

    @pytest.mark.parametrize("budget", [0.0, -1.0])
    def test_nonpositive_rejected(self, budget):
        with pytest.raises(ValueError):
            SmartBalanceConfig(epoch_time_budget_s=budget)
