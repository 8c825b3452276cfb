"""Tests for the extension experiments."""

import pytest

from repro.core.balancer import SmartBalance
from repro.experiments import extensions
from repro.experiments.common import QUICK
from repro.hardware.platform import quad_hmp
from repro.kernel.balancers.vanilla import VanillaBalancer
from repro.kernel.simulator import SimulationConfig, System
from repro.runner import execute_spec, metrics_digest
from repro.workload.synthetic import imb_threads


class TestVirtualSensingExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return extensions.run_virtual_sensing()

    def test_rows_cover_sweep(self, result):
        assert len(result.rows) == len(extensions.COUNTER_SWEEP)

    def test_error_decreases_with_more_counters(self, result):
        errors = [row[1] for row in result.rows]
        assert errors[0] >= errors[-1]

    def test_minimal_error_usable(self, result):
        minimal = result.finding("IPC error with minimal counters")
        assert minimal.measured < 15.0

    def test_full_matches_fig6_band(self, result):
        full = result.finding("IPC error with full counters")
        assert full.measured < 10.0


class TestOptimizerComparisonExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return extensions.run_optimizer_comparison(n_problems=3, budget=500)

    def test_all_methods_reported(self, result):
        methods = {row[0] for row in result.rows}
        assert methods == {"annealing", "greedy", "random", "exhaustive"}

    def test_exhaustive_is_zero_gap(self, result):
        row = [r for r in result.rows if r[0] == "exhaustive"][0]
        assert row[1] == 0.0

    def test_annealing_near_optimal(self, result):
        finding = result.finding("annealing distance to optimal")
        assert finding.measured < 10.0

    def test_gaps_non_negative(self, result):
        for row in result.rows:
            assert row[1] >= 0.0


class TestReplicatedHeadline:
    def test_specs_match_direct_runs(self):
        """A replicated-headline spec runs exactly the hand-built System:
        quad HMP, ``imb_threads("MTMI", 8, seed)``, the balancer and
        ``SimulationConfig(seed=seed)``."""
        seed = 1
        specs = [
            spec for spec in extensions.replicated_specs(QUICK)
            if spec.workload == "MTMI" and spec.seed == seed
        ]
        balancers = {"vanilla": VanillaBalancer, "smartbalance": SmartBalance}
        assert sorted(spec.balancer for spec in specs) == sorted(balancers)
        for spec in specs:
            direct = System(
                quad_hmp(),
                imb_threads("MTMI", 8, seed=seed),
                balancers[spec.balancer](),
                SimulationConfig(seed=seed),
            ).run(n_epochs=spec.n_epochs)
            assert metrics_digest(execute_spec(spec)) == metrics_digest(direct)
