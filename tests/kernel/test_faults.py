"""Tests for the fault-injection framework.

Covers the fault models, the deterministic runtime injector, the named
scenario presets, and the simulator-level execution of platform events
(hotplug evacuation, migration loss/delay, invisible throttling).
"""

import pytest

from repro.faults import (
    DELAY,
    DELIVER,
    LOSE,
    SCENARIOS,
    CounterFaultModel,
    FaultInjector,
    FaultPlan,
    HotplugEvent,
    MigrationFaultModel,
    SensorFaultModel,
    ThrottleEvent,
    scenario,
)
from repro.hardware.counters import BUSY_COLUMN, COUNT_FIELDS, CounterBlock, counter_row
from repro.hardware.platform import quad_hmp
from repro.kernel.balancers.base import NullBalancer
from repro.kernel.simulator import SimulationConfig, System
from repro.workload.synthetic import imb_threads


def make_system(plan=None, n_threads=4):
    config = SimulationConfig(seed=0, faults=plan)
    return System(quad_hmp(), imb_threads("MTMI", n_threads), NullBalancer(), config)


class TestFaultModels:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dropout_rate": -0.1},
            {"stuck_rate": 1.5},
            {"stuck_reads": 0},
            {"spike_magnitude": 1.0},
        ],
    )
    def test_sensor_model_validation(self, kwargs):
        with pytest.raises(ValueError):
            SensorFaultModel(**kwargs)

    def test_counter_model_validation(self):
        with pytest.raises(ValueError):
            CounterFaultModel(overflow_bits=4)
        with pytest.raises(ValueError):
            CounterFaultModel(saturate_at=0.0)

    def test_migration_model_validation(self):
        with pytest.raises(ValueError):
            MigrationFaultModel(loss_rate=0.6, delay_rate=0.6)
        with pytest.raises(ValueError):
            MigrationFaultModel(delay_periods=0)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            HotplugEvent(time_s=-1.0, core_id=1, online=False)
        with pytest.raises(ValueError):
            ThrottleEvent(time_s=0.0, core_id=1, duration_s=0.1, freq_scale=1.0)

    def test_plan_active(self):
        assert not FaultPlan().active
        assert FaultPlan(sensor=SensorFaultModel(dropout_rate=0.1)).active
        assert FaultPlan(counter=CounterFaultModel(overflow_bits=16)).active
        assert FaultPlan(
            hotplug=(HotplugEvent(time_s=0.0, core_id=1, online=False),)
        ).active


class TestInjector:
    def test_deterministic_streams(self):
        plan = FaultPlan(
            seed=5,
            sensor=SensorFaultModel(dropout_rate=0.1, spike_rate=0.1),
            migration=MigrationFaultModel(loss_rate=0.3, delay_rate=0.3),
        )
        a, b = FaultInjector(plan), FaultInjector(plan)
        reads_a = [a.corrupt_value("ch", 100.0) for _ in range(200)]
        reads_b = [b.corrupt_value("ch", 100.0) for _ in range(200)]
        assert reads_a == reads_b
        fates_a = [a.migration_fate() for _ in range(100)]
        fates_b = [b.migration_fate() for _ in range(100)]
        assert fates_a == fates_b

    def test_dropout_returns_zero(self):
        plan = FaultPlan(sensor=SensorFaultModel(dropout_rate=1.0))
        injector = FaultInjector(plan)
        assert injector.corrupt_value("ch", 42.0) == 0.0
        assert injector.counts.sensor_dropouts == 1

    def test_spike_multiplies(self):
        plan = FaultPlan(
            sensor=SensorFaultModel(spike_rate=1.0, spike_magnitude=50.0)
        )
        injector = FaultInjector(plan)
        assert injector.corrupt_value("ch", 2.0) == 100.0
        assert injector.counts.sensor_spikes == 1

    def test_stuck_latches_then_releases(self):
        plan = FaultPlan(sensor=SensorFaultModel(stuck_rate=1.0, stuck_reads=3))
        injector = FaultInjector(plan)
        # Latch on the first read; the next stuck_reads reads return
        # the latched value regardless of the true one.
        assert injector.corrupt_value("ch", 10.0) == 10.0
        for true_value in (20.0, 30.0, 40.0):
            assert injector.corrupt_value("ch", true_value) == 10.0
        # Released — with stuck_rate=1 the channel immediately
        # re-latches on the *new* value.
        assert injector.corrupt_value("ch", 50.0) == 50.0

    def test_stuck_state_is_per_channel(self):
        plan = FaultPlan(sensor=SensorFaultModel(stuck_rate=1.0, stuck_reads=5))
        injector = FaultInjector(plan)
        assert injector.corrupt_value("a", 1.0) == 1.0
        assert injector.corrupt_value("b", 2.0) == 2.0
        assert injector.corrupt_value("a", 99.0) == 1.0
        assert injector.corrupt_value("b", 99.0) == 2.0

    @staticmethod
    def row(**fields):
        """A counter row as the sensing read hands it to the fault pass."""
        return list(counter_row(CounterBlock(**fields)))

    def test_corrupt_counts_overflow_wrap(self):
        """Registers wrap in place; busy time is kernel bookkeeping, not
        a register, and never wraps."""
        plan = FaultPlan(counter=CounterFaultModel(overflow_bits=16))
        injector = FaultInjector(plan)
        row = self.row(instructions=2**20 + 7.0, cy_busy=2.0**18, busy_time_s=2.0**20)
        injector.corrupt_counts("core0", row)
        modulus = 2.0**16
        assert all(value < modulus for value in row[:BUSY_COLUMN])
        assert row[COUNT_FIELDS.index("instructions")] == 7.0
        assert row[BUSY_COLUMN] == 2.0**20
        assert injector.counts.counter_wraps == 2

    def test_corrupt_counts_saturation(self):
        plan = FaultPlan(counter=CounterFaultModel(saturate_at=1000.0))
        injector = FaultInjector(plan)
        row = self.row(instructions=5000.0, busy_time_s=5000.0)
        injector.corrupt_counts("core0", row)
        assert row == self.row(instructions=1000.0, busy_time_s=5000.0)
        assert injector.counts.counter_saturations == 1

    def test_corrupt_counts_sensor_channels(self):
        """Each register of an owner's row is the sensor channel
        ``(owner, field name)``; busy time takes no sensor fault."""
        owner = ("task", 3)
        stuck = FaultInjector(FaultPlan(sensor=SensorFaultModel(stuck_rate=1.0)))
        stuck.corrupt_counts(owner, self.row(instructions=1.0))
        assert set(stuck._stuck) == {(owner, name) for name in COUNT_FIELDS}
        dropped = FaultInjector(
            FaultPlan(sensor=SensorFaultModel(dropout_rate=1.0))
        )
        row = [1.0] * (BUSY_COLUMN + 1)
        dropped.corrupt_counts(owner, row)
        assert row == [0.0] * BUSY_COLUMN + [1.0]
        assert dropped.counts.sensor_dropouts == BUSY_COLUMN

    def test_migration_fates(self):
        lose = FaultInjector(
            FaultPlan(migration=MigrationFaultModel(loss_rate=1.0))
        )
        assert lose.migration_fate() == (LOSE, 0)
        delay = FaultInjector(
            FaultPlan(
                migration=MigrationFaultModel(delay_rate=1.0, delay_periods=4)
            )
        )
        assert delay.migration_fate() == (DELAY, 4)
        clean = FaultInjector(FaultPlan())
        assert clean.migration_fate() == (DELIVER, 0)


class TestScenarios:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            scenario("meteor-strike")

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_all_presets_build_and_are_active(self, name):
        plan = scenario(name, seed=3, n_cores=4, duration_s=1.0)
        assert plan.active

    def test_scenarios_reproducible(self):
        a = scenario("combined", seed=11, n_cores=4, duration_s=1.0)
        b = scenario("combined", seed=11, n_cores=4, duration_s=1.0)
        assert a == b

    def test_combined_includes_every_family(self):
        plan = scenario("combined", seed=0, n_cores=4, duration_s=1.0)
        assert plan.sensor.active
        assert plan.counter.active
        assert plan.migration.active
        assert plan.hotplug and plan.throttle

    def test_hotplug_never_targets_boot_core(self):
        for seed in range(10):
            plan = scenario("hotplug", seed=seed, n_cores=4, duration_s=1.0)
            assert all(event.core_id != 0 for event in plan.hotplug)

    def test_events_inside_duration(self):
        plan = scenario("combined", seed=0, n_cores=4, duration_s=2.0)
        for event in plan.hotplug:
            assert 0.0 <= event.time_s <= 2.0
        for event in plan.throttle:
            assert 0.0 <= event.time_s + event.duration_s <= 2.0

    def test_hotplug_and_throttle_windows_disjoint(self):
        """Stacked capacity loss is unrecoverable; the preset staggers
        the outage and the throttle stretch on purpose."""
        plan = scenario("combined", seed=0, n_cores=4, duration_s=1.0)
        outage_end = max(e.time_s for e in plan.hotplug)
        throttle_start = min(e.time_s for e in plan.throttle)
        assert throttle_start >= outage_end

    def test_single_core_platform_gets_no_hotplug(self):
        plan = scenario("hotplug", seed=0, n_cores=1, duration_s=1.0)
        assert plan.hotplug == ()


class TestSimulatorEvents:
    def test_offline_core_is_evacuated(self):
        system = make_system()
        victim_tasks = list(system.runqueues[3].tasks)
        assert victim_tasks  # round-robin placed someone there
        system._set_core_online(3, False)
        assert not list(system.runqueues[3].tasks)
        for task in victim_tasks:
            assert task.core_id != 3

    def test_last_online_core_cannot_be_unplugged(self):
        system = make_system()
        for core_id in (1, 2, 3):
            system._set_core_online(core_id, False)
        system._set_core_online(0, False)
        assert system._online[0]

    def test_offline_placement_blocked(self):
        system = make_system()
        system._set_core_online(3, False)
        task = next(t for t in system.tasks if t.core_id != 3)
        moved = system.apply_placement({task.tid: 3})
        assert moved == 0
        assert task.core_id != 3
        assert system._offline_placements_blocked == 1

    def test_throttle_invisible_in_view(self):
        system = make_system(plan=FaultPlan(sensor=SensorFaultModel()))
        nominal = system.runqueues[2].core.core_type
        system._set_throttle(2, 0.5)
        throttled = system.runqueues[2].core.core_type
        assert throttled.freq_mhz == pytest.approx(0.5 * nominal.freq_mhz)
        assert throttled.name == nominal.name
        view = system.build_view(window_s=0.06)
        # The OS-visible view still reports the nominal type.
        assert view.cores[2].core_type.freq_mhz == nominal.freq_mhz
        system._set_throttle(2, None)
        assert system.runqueues[2].core.core_type.freq_mhz == nominal.freq_mhz

    def test_migration_loss_suppresses_all_migrations(self):
        plan = FaultPlan(migration=MigrationFaultModel(loss_rate=1.0))
        system = make_system(plan)
        task = next(t for t in system.tasks if t.core_id == 0)
        moved = system.apply_placement({task.tid: 1})
        assert moved == 0
        assert task.core_id == 0
        assert system.faults.counts.migrations_lost == 1

    def test_migration_delay_applies_later(self):
        plan = FaultPlan(
            migration=MigrationFaultModel(delay_rate=1.0, delay_periods=2)
        )
        system = make_system(plan)
        task = next(t for t in system.tasks if t.core_id == 0)
        moved = system.apply_placement({task.tid: 1})
        assert moved == 0
        assert task.core_id == 0
        system._period_counter += 2
        system._process_fault_events()
        assert task.core_id == 1
        assert system.faults.counts.migrations_delayed == 1

    def test_hotplug_timeline_counts_events(self):
        plan = FaultPlan(
            hotplug=(
                HotplugEvent(time_s=0.05, core_id=3, online=False),
                HotplugEvent(time_s=0.20, core_id=3, online=True),
            )
        )
        system = make_system(plan)
        result = system.run(n_epochs=6)
        assert result.resilience is not None
        assert result.resilience.hotplug_events == 2

    def test_run_reproducible_under_faults(self):
        plan = scenario("combined", seed=0, n_cores=4, duration_s=0.48)
        first = make_system(plan).run(n_epochs=8)
        second = make_system(plan).run(n_epochs=8)
        assert first.instructions == second.instructions
        assert first.energy_j == second.energy_j
        fr, sr = first.resilience, second.resilience
        assert fr is not None and sr is not None
        assert fr.faults_injected == sr.faults_injected
