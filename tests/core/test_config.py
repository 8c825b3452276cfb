"""Tests for SmartBalanceConfig validation and defaults."""

import dataclasses

import pytest

from repro.core import balancer as balancer_module
from repro.core import objective as objective_module
from repro.core.config import SmartBalanceConfig


class TestDefaults:
    def test_default_objective_is_global(self):
        config = SmartBalanceConfig()
        assert config.objective_mode == "global"
        assert objective_module.THROUGHPUT_EXPONENT == pytest.approx(1.7)

    def test_default_gates_nontrivial(self):
        assert balancer_module.MIN_IMPROVEMENT > 0
        assert balancer_module.MIGRATION_PENALTY > 0
        assert 0 < balancer_module.SMOOTHING < 1

    def test_settable_values(self):
        """The epoch length and the tuning values are not settable here:
        L is the simulator's and the tuning values are constants.  Nor
        are the threads balanced (always the user threads) or Eq. 11's
        core weights (all ones unless thermal-aware)."""
        assert [f.name for f in dataclasses.fields(SmartBalanceConfig)] == [
            "thermal_aware",
            "thermal_knee_c",
            "thermal_zero_c",
            "objective_mode",
            "mitigations",
            "adaptation",
        ]


class TestValidation:
    def test_thermal_band_checked(self):
        with pytest.raises(ValueError, match="thermal_knee_c"):
            SmartBalanceConfig(thermal_knee_c=90.0, thermal_zero_c=80.0)

    @pytest.mark.parametrize("mode", ["global", "per_core_sum", "performance"])
    def test_accepted_modes_decide(self, mode):
        """Every mode the config accepts runs a decision (the rejected
        ones are in test_balancer.py's invalid-config table)."""
        from repro.core.balancer import SmartBalance
        from repro.experiments.fig7 import synthetic_view

        balancer = SmartBalance(config=SmartBalanceConfig(objective_mode=mode))
        assert balancer.decide(synthetic_view(4, 6, seed=1)).sa_result is not None

    def test_frozen(self):
        config = SmartBalanceConfig()
        with pytest.raises(AttributeError):
            config.objective_mode = "performance"  # type: ignore[misc]


class TestResilienceConfig:
    """The defences: ``SmartBalanceConfig.mitigations`` switches all of
    them; their tuning values are :mod:`repro.core.balancer` constants."""

    def test_defaults_all_defences_on(self):
        assert SmartBalanceConfig().mitigations
        assert balancer_module.REBASELINE_EPOCHS >= 1
        assert balancer_module.WATCHDOG_TRIP_EPOCHS >= 1
        assert balancer_module.WATCHDOG_RECOVERY_EPOCHS >= 1
        assert balancer_module.WATCHDOG_TOLERANCE > 0

    def test_disabled_turns_every_defence_off(self):
        """A corrupt sample is used as measured and offline cores are
        not masked."""
        from dataclasses import replace

        from repro.core.balancer import SmartBalance
        from repro.experiments.fig7 import synthetic_view
        from sensed_tasks import sensed_tasks, sensed_view

        view = synthetic_view(4, 4, seed=10)
        tasks = sensed_tasks(view)
        tasks[0] = tasks[0]._replace(power_w=1e9)
        cores = tuple(c._replace(online=c.core_id != 3) for c in view.cores)
        view = sensed_view(tasks, replace(view, cores=cores))
        balancer = SmartBalance(config=SmartBalanceConfig(mitigations=False))
        decision = balancer.decide(view)
        assert decision.rejected_samples == 0
        assert balancer.health.samples_rejected == 0
        assert balancer.health.hotplug_masked_epochs == 0
        assert len(decision.matrices.tids) == 4

    def test_embedded_in_smartbalance_config(self):
        """The RunSpec booleans reach the balancer's config unchanged."""
        from repro.runner.factories import make_balancer

        for name in ("smartbalance", "tpeq", "slo"):
            config = make_balancer(name, mitigations=False, adaptation=True).config
            assert (config.mitigations, config.adaptation) == (False, True)
        config = make_balancer(
            "smartbalance", mitigations=True, adaptation=False, governor="two_level"
        ).config
        assert (config.mitigations, config.adaptation) == (True, False)
