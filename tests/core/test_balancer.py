"""Tests for the SmartBalance sense-predict-balance engine."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import balancer as balancer_module
from repro.core.balancer import SmartBalance
from repro.core.config import SmartBalanceConfig
from repro.core.sensing import FAULT_REASONS, observation_faults
from repro.core.training import default_predictor
from repro.experiments.fig7 import synthetic_view
from repro.hardware.platform import quad_hmp
from repro.kernel.simulator import SimulationConfig, System
from repro.workload.synthetic import imb_threads
from sensed_tasks import gather, sensed_tasks, sensed_view


def engine(**config_kwargs) -> SmartBalance:
    return SmartBalance(
        default_predictor(), SmartBalanceConfig(**config_kwargs)
    )


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            # Modes SmartBalance cannot run fail at construction, not
            # at the first decision: power_cap needs a cap it never has.
            {"objective_mode": "power_cap"},
            {"objective_mode": "ips_per_watt"},
            {"thermal_knee_c": 95.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SmartBalanceConfig(**kwargs)

    def test_defaults_valid(self):
        SmartBalanceConfig()


class TestDecide:
    def test_empty_window_keeps_placement(self):
        """First epoch has no measurements: no migration storm."""
        system = System(quad_hmp(), imb_threads("MTMI", 4), _null())
        view = system.build_view(window_s=0.0)
        decision = engine().decide(view)
        assert decision.placement is None
        assert decision.sa_result is None

    def test_decides_with_measurements(self):
        view = synthetic_view(4, 8, seed=1)
        decision = engine().decide(view)
        assert decision.sa_result is not None
        assert decision.matrices is not None
        assert decision.incumbent_value > 0.0

    def test_placement_targets_valid_cores(self):
        view = synthetic_view(4, 8, seed=2)
        decision = engine().decide(view)
        if decision.placement:
            for tid, core in decision.placement.items():
                assert 0 <= core < 4
                assert tid in {t.tid for t in view.tasks}

    def test_timings_populated(self):
        view = synthetic_view(4, 8, seed=3)
        decision = engine().decide(view)
        assert decision.timings.sense_s >= 0.0
        assert decision.timings.predict_s > 0.0
        assert decision.timings.balance_s > 0.0
        assert decision.timings.total_s == pytest.approx(
            decision.timings.sense_s
            + decision.timings.predict_s
            + decision.timings.balance_s
        )

    def test_adoption_gate_blocks_marginal_gains(self, monkeypatch):
        """With an enormous required improvement nothing is adopted."""
        view = synthetic_view(4, 8, seed=4)
        monkeypatch.setattr(balancer_module, "MIN_IMPROVEMENT", 1e9)
        decision = engine().decide(view)
        assert decision.placement is None

    def test_migration_penalty_reduces_churn(self, monkeypatch):
        view = synthetic_view(4, 12, seed=5)
        monkeypatch.setattr(balancer_module, "MIN_IMPROVEMENT", 0.0)
        monkeypatch.setattr(balancer_module, "MIGRATION_PENALTY", 0.0)
        free = engine().decide(view)
        monkeypatch.setattr(balancer_module, "MIGRATION_PENALTY", 50.0)
        taxed = engine().decide(view)
        n_free = len(free.placement or {})
        n_taxed = len(taxed.placement or {})
        assert n_taxed <= n_free

    def test_anneals_with_module_sa_config(self, monkeypatch):
        """Algorithm 1's inputs are ``SA_CONFIG``, read each epoch."""
        from repro.core.annealing import SAConfig

        monkeypatch.setattr(
            balancer_module, "SA_CONFIG", SAConfig(max_iterations=7)
        )
        decision = engine().decide(synthetic_view(4, 8, seed=1))
        assert decision.sa_result.iterations == 7

    def test_smoothing_state_tracks_threads(self):
        eng = engine()
        eng.decide(synthetic_view(4, 6, seed=6))
        assert len(eng._smoothed_row) == 6
        assert eng._smoothed.shape == (3, 6, 4)
        # A later view with fewer threads drops stale rows.
        eng.decide(synthetic_view(4, 3, seed=7))
        assert len(eng._smoothed_row) == 3
        assert eng._smoothed.shape == (3, 3, 4)
        assert sorted(eng._smoothed_row.values()) == [0, 1, 2]

    def test_blend_moves_toward_new_observation(self, monkeypatch):
        monkeypatch.setattr(balancer_module, "SMOOTHING", 0.5)
        eng = engine()
        first = eng.decide(synthetic_view(4, 4, seed=8))
        second = eng.decide(synthetic_view(4, 4, seed=9))
        assert first.matrices is not None and second.matrices is not None
        # The store holds the blended rows the second decision used.
        assert len(eng._smoothed_row) == 4
        for i, tid in enumerate(second.matrices.tids):
            row = eng._smoothed_row[tid]
            assert (eng._smoothed[0, row] == second.matrices.ips[i]).all()


class TestKernelAdapter:
    """SmartBalance in the simulator's balancer slot, the role of the
    reimplemented ``rebalance_domains()`` (paper Section 5.1)."""

    def test_interval_is_epoch(self):
        """One decision per simulator epoch, at the config's L."""
        balancer = SmartBalance()
        config = SimulationConfig(periods_per_epoch=5)
        system = System(quad_hmp(), imb_threads("MTMI", 4), balancer, config)
        system.run(n_epochs=4)
        assert len(balancer.timings) == 4

    def test_records_timings_per_epoch(self):
        balancer = SmartBalance()
        system = System(quad_hmp(), imb_threads("MTMI", 4), balancer)
        result = system.run(n_epochs=5)
        assert len(balancer.timings) == 5
        assert dict(result.phase_times)["balance"] == pytest.approx(
            sum(t.balance_s for t in balancer.timings)
        )

    def test_improves_over_initial_placement(self):
        """Closed loop: once sensing data exists the balancer lifts the
        system well above the round-robin initial placement and stays
        there (phase drift may wobble the level, not collapse it)."""
        system = System(
            quad_hmp(), imb_threads("HTHI", 8),
            SmartBalance(), SimulationConfig(seed=1),
        )
        result = system.run(n_epochs=20)
        first = result.epochs[0].ips_per_watt  # pre-balancing epoch
        late = sum(e.ips_per_watt for e in result.epochs[-4:]) / 4
        assert late > 1.2 * first


def _null():
    from repro.kernel.balancers.base import NullBalancer

    return NullBalancer()


# ----------------------------------------------------------------------
# Resilience layer
# ----------------------------------------------------------------------


def corrupt_task(view, index=0, **overrides):
    """Return a copy of ``view`` with one task's fields (record or PMU
    readings) overridden."""
    tasks = sensed_tasks(view)
    tasks[index] = tasks[index]._replace(**overrides)
    return sensed_view(tasks, view)


def measured_tasks(view):
    """The user threads ``decide`` would sanity-check this epoch, each
    with its PMU readings."""
    return [t for t in sensed_tasks(view) if t.is_user and t.has_measurement]


def observation_from(view, index=0):
    return measured_tasks(view)[index]


def observation_fault(task):
    """The plausibility check's reason for one task, through the
    gather ``decide`` runs."""
    (fault,) = observation_faults(gather([task]))
    return FAULT_REASONS[fault]


class TestObservationFault:
    def test_healthy_sample_passes(self):
        obs = observation_from(synthetic_view(4, 4, seed=1))
        assert observation_fault(obs) is None

    def test_nonfinite_rejected(self):
        view = corrupt_task(synthetic_view(4, 4, seed=1), power_w=float("nan"))
        assert observation_fault(observation_from(view)) == "non-finite reading"

    def test_implausible_power_rejected(self):
        view = corrupt_task(synthetic_view(4, 4, seed=1), power_w=1e9)
        assert observation_fault(observation_from(view)) == "implausible power"

    def test_impossible_ipc_rejected(self):
        obs = observation_from(synthetic_view(4, 4, seed=1))
        bad = obs._replace(rates=obs.rates._replace(ipc=100.0))
        assert observation_fault(bad) == "impossible IPC"

    def test_ratio_outside_unit_interval_rejected(self):
        obs = observation_from(synthetic_view(4, 4, seed=1))
        bad = obs._replace(rates=obs.rates._replace(mem_share=15.0))
        assert observation_fault(bad) == "rate outside [0, 1]"

    def test_clock_identity_violation_rejected(self):
        """A wrapped cycle counter breaks ips/ipc ~= f even though each
        value alone still looks plausible."""
        obs = observation_from(synthetic_view(4, 4, seed=1))
        # x3 keeps the IPC itself plausible while the implied clock
        # (ips/ipc = f/3) deviates 67 % from the nominal frequency.
        bad = obs._replace(rates=obs.rates._replace(ipc=obs.rates.ipc * 3.0))
        assert observation_fault(bad) == "cycle/clock identity violated"


class TestAdversarialViews:
    def test_empty_thread_set(self):
        view = sensed_view([], synthetic_view(4, 4, seed=2))
        decision = engine().decide(view)
        assert decision.placement is None
        assert decision.sa_result is None

    def test_single_core_platform(self):
        decision = engine().decide(synthetic_view(1, 3, seed=3))
        if decision.placement:
            assert set(decision.placement.values()) == {0}

    def test_all_cores_offline_but_one(self, monkeypatch):
        view = synthetic_view(4, 6, seed=4)
        cores = tuple(c._replace(online=(c.core_id == 1)) for c in view.cores)
        view = replace(view, cores=cores)
        monkeypatch.setattr(balancer_module, "MIN_IMPROVEMENT", 0.0)
        eng = engine()
        decision = eng.decide(view)
        assert eng.health.hotplug_masked_epochs == 1
        for core_id in (decision.placement or {}).values():
            assert core_id == 1

    def test_hotplug_unaware_engine_ignores_offline(self):
        view = synthetic_view(4, 6, seed=4)
        cores = tuple(c._replace(online=(c.core_id == 1)) for c in view.cores)
        view = replace(view, cores=cores)
        eng = engine(mitigations=False)
        eng.decide(view)
        assert eng.health.hotplug_masked_epochs == 0


class TestSanityDefences:
    def test_rejected_thread_without_history_is_dropped(self):
        view = corrupt_task(synthetic_view(4, 4, seed=5), power_w=1e9)
        eng = engine()
        decision = eng.decide(view)
        assert decision.rejected_samples == 1
        assert eng.health.threads_dropped == 1
        assert eng.health.rejects_by_reason == {"implausible power": 1}
        assert decision.matrices is not None
        assert len(decision.matrices.tids) == 3

    def test_rejected_thread_with_history_uses_fallback_row(self):
        eng = engine()
        eng.decide(synthetic_view(4, 4, seed=6))  # builds history
        corrupt = corrupt_task(synthetic_view(4, 4, seed=7), power_w=1e9)
        decision = eng.decide(corrupt)
        assert eng.health.fallback_rows_used == 1
        assert decision.matrices is not None
        # The corrupt thread still participates, via its stored row.
        assert len(decision.matrices.tids) == 4

    def test_persistent_anomaly_rebaselines(self, monkeypatch):
        monkeypatch.setattr(balancer_module, "REBASELINE_EPOCHS", 2)
        eng = engine()
        for seed in (8, 9):
            view = corrupt_task(synthetic_view(4, 4, seed=seed), power_w=1e9)
            eng.decide(view)
        assert eng.health.samples_rejected == 1
        assert eng.health.samples_rebaselined == 1

    def test_sanity_checks_can_be_disabled(self):
        view = corrupt_task(synthetic_view(4, 4, seed=10), power_w=1e9)
        eng = engine(mitigations=False)
        decision = eng.decide(view)
        assert decision.rejected_samples == 0
        assert eng.health.samples_rejected == 0


class TestWatchdog:
    def test_trips_on_systematic_divergence(self, monkeypatch):
        monkeypatch.setattr(balancer_module, "WATCHDOG_TOLERANCE", 1e-6)
        monkeypatch.setattr(balancer_module, "WATCHDOG_TRIP_EPOCHS", 1)
        eng = engine()
        eng.decide(synthetic_view(4, 4, seed=11))
        decision = eng.decide(synthetic_view(4, 4, seed=12))
        assert eng.health.watchdog_trips == 1
        assert decision.fallback is True
        assert eng.health.watchdog_fallback_epochs == 1

    def test_recovers_after_in_band_epochs(self, monkeypatch):
        monkeypatch.setattr(balancer_module, "WATCHDOG_RECOVERY_EPOCHS", 2)
        eng = engine()
        view = synthetic_view(4, 4, seed=13)
        healthy = measured_tasks(view)
        # Last epoch predicted every thread's measured IPS exactly.
        eng._smoothed = np.ones((3, len(healthy), 4))
        eng._smoothed[0] = [[obs.rates.ips] * 4 for obs in healthy]
        eng._smoothed_row = {obs.tid: i for i, obs in enumerate(healthy)}
        eng._watchdog_tripped = True
        eng._watchdog_update(gather(healthy))
        assert eng._watchdog_tripped  # one in-band epoch is not enough
        eng._watchdog_update(gather(healthy))
        assert not eng._watchdog_tripped

    def test_fallback_placement_respects_masks(self):
        view = synthetic_view(4, 6, seed=14)
        eng = engine()
        healthy = measured_tasks(view)
        allowed = np.zeros((len(healthy), 4), dtype=bool)
        allowed[:, 2] = True
        records = [task.record for task in healthy]
        placement = eng._capability_placement(records, view, allowed)
        for core_id in placement.values():
            assert core_id == 2
