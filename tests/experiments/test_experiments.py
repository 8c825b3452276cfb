"""Tests for the experiment modules (fast, reduced-scale runs).

These verify each experiment *regenerates its paper artifact with the
right shape*: SmartBalance beats vanilla, SmartBalance beats GTS,
prediction errors are in the paper's band, the SA quality curve
improves with iterations, and the static tables carry the paper's
content.  Full-scale numbers live in EXPERIMENTS.md and the benchmark
harness.
"""

from pathlib import Path

import pytest

from repro.experiments import (
    EXPERIMENTS,
    extensions,
    fig6,
    fig7,
    fig8,
    table1,
    table2,
    table3,
    table4,
)
from repro.experiments.common import QUICK, Scale
from repro.runner import JOBS_ENV, SweepExperiment, run_sweep

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: A minimal scale so the whole module stays CI-fast.
TINY = Scale(
    name="tiny",
    n_epochs=8,
    thread_counts=(2, 8),
    imb_configs=("HTHI", "LTLI"),
    parsec_benchmarks=("x264_L_bow",),
    mixes=("Mix6",),
)


def run_experiment(experiment_id: str, scale: Scale):
    """One experiment's report, through the one runner."""
    (report,) = run_sweep([EXPERIMENTS[experiment_id]], scale)
    return report


class TestStaticTables:
    def test_table1_rows(self):
        result = table1.run()
        assert result.experiment_id == "table1"
        smart_row = [r for r in result.rows if r[0] == "SmartBalance"][0]
        assert all(v == "Yes" for v in smart_row[1:])

    def test_table2_calibration_findings(self):
        result = table2.run()
        for core in ("Huge", "Big", "Medium", "Small"):
            finding = result.finding(f"peak IPC {core}")
            assert finding.measured == pytest.approx(finding.paper, rel=0.15)
            power = result.finding(f"peak power {core}")
            assert power.measured == pytest.approx(power.paper, rel=0.01)

    def test_table3_mixes(self):
        result = table3.run()
        assert len(result.rows) == 6
        mix6 = [r for r in result.rows if r[0] == "Mix6"][0]
        assert mix6[2] == 6  # three benchmarks x two threads

    def test_table4_theta_complete(self):
        result = table4.run()
        assert len(result.rows) == 12  # 4 types -> 12 ordered pairs
        assert result.finding("mean training fit error").measured < 10.0

    @pytest.mark.parametrize(
        "run, has_artifact",
        [
            (table1.run, True),
            (table2.run, True),
            (table3.run, True),
            (fig8.run_fig8b, True),
            (extensions.run_optimizer_comparison, False),
        ],
        ids=["table1", "table2", "table3", "fig8b", "ext_optimizers"],
    )
    def test_committed_artifact_matches_render(self, run, has_artifact):
        """``full_experiments.txt`` and, where one is committed,
        ``benchmarks/out/<id>.txt`` hold exactly what the code renders
        today."""
        result = run()
        rendered = result.render() + "\n"
        if has_artifact:
            artifact = REPO_ROOT / "benchmarks" / "out" / f"{result.experiment_id}.txt"
            assert artifact.read_text() == rendered
        assert rendered in (REPO_ROOT / "full_experiments.txt").read_text()


class TestFig4:
    def test_fig4a_smart_beats_vanilla(self):
        result = run_experiment("fig4a", TINY)
        improvements = [row[2] for row in result.rows]
        assert all(imp > 0 for imp in improvements)
        finding = result.finding("average IMB improvement")
        assert finding.measured > 30.0

    def test_fig4b_smart_beats_vanilla(self):
        result = run_experiment("fig4b", TINY)
        finding = result.finding("average PARSEC improvement")
        assert finding.measured > 20.0


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig5", TINY)

    def test_smart_beats_gts_on_average(self, result):
        finding = result.finding("average gain over GTS")
        assert finding.measured > 5.0

    def test_normalisation_column(self, result):
        for row in result.rows:
            assert row[3] == 1.0  # GTS column is the reference


class TestFig6:
    def test_errors_in_paper_band(self):
        result = fig6.run()
        ipc = result.finding("average IPC prediction error")
        power = result.finding("average power prediction error")
        assert ipc.measured < 10.0  # paper: 4.2 %
        assert power.measured < 10.0  # paper: 5 %

    def test_per_benchmark_rows(self):
        result = fig6.run()
        names = {row[0] for row in result.rows}
        assert "x264_H_crew" in names and "canneal" in names


class TestFig7:
    def test_fig7a_phases_reported(self):
        result = fig7.run_fig7a(QUICK)
        phases = {row[0] for row in result.rows}
        assert {"sense_s", "predict_s", "balance_s", "migrate_s", "total"} <= phases

    def test_fig7b_scales(self):
        result = fig7.run_fig7b(scenarios=((2, 4), (8, 16)), n_epochs=2)
        assert len(result.rows) == 2
        assert result.rows[0][0] == "2c/4t"

    def test_balance_phase_dominates(self):
        """Paper: most overhead originates from the optimizer."""
        timings = fig7.phase_timings(4, 8, n_epochs=3)
        assert timings["balance_s"] > timings["sense_s"]
        assert timings["balance_s"] > timings["predict_s"]


class TestFig8:
    def test_quality_improves_with_iterations(self):
        result = fig8.run_fig8a(sweep=(10, 1000), n_problems=3)
        gaps = [row[1] for row in result.rows[:2]]
        assert gaps[1] < gaps[0]

    def test_near_optimal_at_high_budget(self):
        gap = fig8.distance_to_optimal(2000, n_threads=5, n_cores=3, n_problems=3)
        assert gap < 0.05

    def test_brute_force_guard(self):
        objective = fig8.synthetic_problem(30, 4, seed=0)
        with pytest.raises(ValueError, match="too many"):
            fig8.brute_force_optimum(objective)

    def test_fig8b_parameters(self):
        result = fig8.run_fig8b()
        names = {row[0] for row in result.rows}
        assert any("perturb" in n for n in names)
        assert any("accept" in n for n in names)


class TestExperimentTable:
    """``repro experiments`` and ``run_all`` make one ``run_sweep`` call
    over the same table."""

    def test_cli_and_run_all_iterate_one_table(self, monkeypatch, capsys):
        from repro import experiments, runner
        from repro.analysis.reporting import ExperimentResult
        from repro.cli import main

        ids = list(experiments.EXPERIMENTS)
        assert {"ext_replicated", "table4_adapted"} <= set(ids)
        for exp_id, experiment in experiments.EXPERIMENTS.items():
            assert isinstance(experiment, SweepExperiment)
            assert experiment.experiment_id == exp_id

        calls = []

        def fake_run_sweep(chosen, scale, jobs=None, **kwargs):
            calls.append(([e.experiment_id for e in chosen], scale.name, jobs))
            return [
                ExperimentResult(
                    experiment_id=e.experiment_id,
                    title=f"title {e.experiment_id}",
                    headers=["id"],
                    rows=[[e.experiment_id]],
                )
                for e in chosen
            ]

        monkeypatch.setattr(runner, "run_sweep", fake_run_sweep)
        monkeypatch.setattr(experiments, "run_sweep", fake_run_sweep)
        monkeypatch.delenv(JOBS_ENV, raising=False)
        results = experiments.run_all(QUICK)
        assert [r.experiment_id for r in results] == ids
        assert calls == [(ids, "quick", None)]

        calls.clear()
        assert main(["experiments", "--jobs", "2"]) == 0
        assert calls == [(ids, "quick", 2)]
        out = capsys.readouterr().out
        for exp_id in ids:
            assert f"title {exp_id}" in out

        calls.clear()
        assert main(["experiments", "fig5", "table1"]) == 0
        assert calls == [(["fig5", "table1"], "quick", 1)]
