"""End-to-end resilience: SmartBalance survives injected faults.

These close the loop the unit tests cover piecewise: a full simulated
run under each fault scenario with the defences on must complete, keep
a sane efficiency, and report both sides of the fault/defence ledger;
the same run with the defences ablated must also complete (the
simulator never crashes — only quality degrades) so the comparison the
resilience experiment reports is well defined.
"""

import dataclasses

import pytest

from repro.core.balancer import SmartBalance
from repro.core.config import SmartBalanceConfig
from repro.experiments.resilience import resilience_spec
from repro.faults import SCENARIOS, scenario
from repro.hardware.platform import quad_hmp
from repro.kernel.simulator import SimulationConfig, System
from repro.runner import execute_spec, metrics_digest, run_specs
from repro.runner.serialize import result_from_dict, result_to_dict
from repro.workload.generator import random_thread_set

N_EPOCHS = 8


def smart_run(plan, mitigations=True, seed=0, n_epochs=N_EPOCHS):
    balancer = SmartBalance(config=SmartBalanceConfig(mitigations=mitigations))
    system = System(
        quad_hmp(),
        random_thread_set(6, seed=42),
        balancer,
        SimulationConfig(seed=seed, faults=plan),
    )
    return system.run(n_epochs=n_epochs)


def plan_for(name, n_epochs=N_EPOCHS, seed=0):
    duration_s = n_epochs * SimulationConfig().epoch_s
    return scenario(name, seed=seed, n_cores=4, duration_s=duration_s)


class TestMitigatedRuns:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_every_scenario_completes_with_sane_output(self, name):
        result = smart_run(plan_for(name))
        assert result.instructions > 0
        assert result.energy_j > 0
        assert result.ips_per_watt > 0
        stats = result.resilience
        assert stats is not None
        assert stats.faults_injected > 0

    def test_combined_reports_both_ledger_sides(self):
        result = smart_run(plan_for("combined"), n_epochs=16)
        stats = result.resilience
        assert stats.faults_injected > 0
        # At least one defence fired somewhere in the stack.
        assert (
            stats.samples_rejected
            + stats.hotplug_masked_epochs
            + stats.offline_placements_blocked
            + stats.watchdog_trips
        ) > 0
        assert sum(stats.rejects_by_reason.values()) == stats.samples_rejected

    def test_budget_counters_stay_zero_and_serialised(self):
        """The annealer has no time budget, so no run cuts an anneal
        short or skips an epoch; both counters still reach every
        serialised result, which result digests and cached runs carry."""
        result = smart_run(plan_for("combined"), n_epochs=16)
        stats = result.resilience
        assert stats.truncated_epochs == stats.budget_skipped_epochs == 0
        data = result_to_dict(result)
        assert data["resilience"]["truncated_epochs"] == 0
        assert data["resilience"]["budget_skipped_epochs"] == 0
        assert result_from_dict(data).resilience == stats

    def test_fault_free_run_reports_clean_ledger(self):
        result = smart_run(None)
        stats = result.resilience
        # Health telemetry exists (the balancer exposes it) but shows
        # no injections and no rejections.
        if stats is not None:
            assert stats.faults_injected == 0
            assert stats.samples_rejected == 0


class TestUnmitigatedRuns:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_ablated_runs_complete(self, name):
        result = smart_run(plan_for(name), mitigations=False)
        assert result.instructions > 0
        stats = result.resilience
        assert stats is not None
        assert stats.samples_rejected == 0
        assert stats.fallback_rows_used == 0
        assert stats.watchdog_trips == 0

    def test_kernel_still_blocks_offline_placements(self):
        """Hotplug safety is the kernel's, not the balancer's: even the
        ablated balancer cannot actually place onto an offline core."""
        result = smart_run(
            plan_for("hotplug", n_epochs=16),
            mitigations=False,
            n_epochs=16,
        )
        stats = result.resilience
        assert stats.hotplug_events >= 1
        # Whatever the blind balancer asked for, no task ever ran on
        # the offline core while it was down (blocked placements only
        # happen if it tried; either way the run completed).
        assert result.instructions > 0


class TestReproducibility:
    def test_identical_plans_identical_runs(self):
        plan = plan_for("combined")
        first = smart_run(plan)
        second = smart_run(plan)
        assert first.instructions == second.instructions
        assert first.energy_j == second.energy_j
        assert first.migrations == second.migrations
        assert dataclasses.asdict(first.resilience) == dataclasses.asdict(
            second.resilience
        )

    def test_different_fault_seeds_differ(self):
        first = smart_run(plan_for("sensor", seed=0))
        second = smart_run(plan_for("sensor", seed=1))
        assert first.resilience.faults_injected != second.resilience.faults_injected or (
            first.instructions != second.instructions
        )


class TestRetentionHelper:
    """Retention as the resilience experiment computes it, from its
    own specs."""

    def test_retention_is_positive_and_bounded(self):
        baseline, faulty = run_specs(
            [
                dataclasses.replace(resilience_spec(name, seed=0), n_epochs=N_EPOCHS)
                for name in (None, "sensor")
            ]
        )
        retention = faulty.ips_per_watt / baseline.ips_per_watt
        assert 0.0 < retention <= 1.2
        assert faulty.resilience is not None

    def test_resilience_spec_matches_direct_run(self):
        """A resilience spec runs exactly the hand-built System: same
        fault plan, workload, seed and mitigations."""
        for name, mitigated in ((None, True), ("counter", True), ("counter", False)):
            spec = resilience_spec(name, seed=0, mitigated=mitigated)
            plan = None if name is None else plan_for(name, n_epochs=spec.n_epochs)
            direct = smart_run(
                plan, mitigations=mitigated, seed=0, n_epochs=spec.n_epochs
            )
            assert metrics_digest(execute_spec(spec)) == metrics_digest(direct)
