"""Tests for migration mechanics: warm-up, cost and behaviour."""

import pytest

from repro.hardware.platform import quad_hmp
from repro.kernel.balancers.base import LoadBalancer, NullBalancer
from repro.kernel.cfs import CACHE_WARMUP_S
from repro.kernel.simulator import MIGRATION_KERNEL_COST_S, SimulationConfig, System
from repro.workload.characteristics import MEMORY_PHASE
from repro.workload.synthetic import imb_threads
from repro.workload.thread import steady_thread


class OneShotMigrator(LoadBalancer):
    """Moves task 0 to a target core exactly once (test rig)."""

    name = "oneshot"
    interval_periods = 1

    def __init__(self, target_core: int):
        self.target_core = target_core
        self.fired = False

    def rebalance(self, view):
        if self.fired:
            return None
        for task in view.tasks:
            if task.tid == 0 and task.core_id != self.target_core:
                self.fired = True
                return {0: self.target_core}
        return None


class PingPongMigrator(LoadBalancer):
    """Bounces task 0 between two cores every call (worst case churn)."""

    name = "pingpong"
    interval_periods = 1

    def rebalance(self, view):
        for task in view.tasks:
            if task.tid == 0:
                return {0: 1 if task.core_id == 0 else 0}
        return None


class TestMigrationMechanics:
    def test_oneshot_moves_task(self):
        balancer = OneShotMigrator(target_core=2)
        system = System(quad_hmp(), [steady_thread("t", MEMORY_PHASE)], balancer)
        system.run(n_epochs=2)
        assert system.tasks[0].core_id == 2
        assert system.total_migrations == 1

    def test_warmup_charged_on_migration(self):
        balancer = OneShotMigrator(target_core=2)
        system = System(quad_hmp(), [steady_thread("t", MEMORY_PHASE)], balancer)
        system.migrate(system.tasks[0], 1)
        assert system.engine.warmup[0] == pytest.approx(
            CACHE_WARMUP_S + MIGRATION_KERNEL_COST_S
        )

    def test_ping_pong_costs_throughput(self):
        """Constant migration must lose work vs staying put — the cache
        warm-up model at work, and the reason the adoption gate exists."""

        def run(balancer):
            system = System(
                quad_hmp(),
                [steady_thread("t", MEMORY_PHASE)],
                balancer,
                SimulationConfig(seed=1),
            )
            return system.run(n_epochs=15)

        stable = run(NullBalancer())
        churned = run(PingPongMigrator())
        assert churned.instructions < stable.instructions
        assert churned.migrations > 100

    def test_migration_counts_in_epochs(self):
        balancer = OneShotMigrator(target_core=3)
        system = System(quad_hmp(), [steady_thread("t", MEMORY_PHASE)], balancer)
        result = system.run(n_epochs=3)
        assert sum(e.migrations for e in result.epochs) == result.migrations == 1

    def test_task_stats_record_migrations(self):
        system = System(
            quad_hmp(), imb_threads("MTMI", 2), PingPongMigrator()
        )
        result = system.run(n_epochs=5)
        stats = {t.tid: t.migrations for t in result.task_stats}
        assert stats[0] > 0
        assert stats[1] == 0
