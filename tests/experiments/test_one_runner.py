"""``repro experiments`` is the one experiment runner.

Small stand-in :class:`SweepExperiment` tables (1-2 epoch jobs) drive
the command end to end: the result cache, worker counts, re-seeding,
per-job traces and crash disposition, all through one ``run_sweep``.
"""

import re

import pytest

from repro import experiments
from repro.analysis.reporting import ExperimentResult
from repro.cli import main
from repro.runner import (
    JOBS_ENV,
    RunSpec,
    SweepExperiment,
    execute_spec,
    metrics_digest,
)

TINY_A = RunSpec(workload="MTMI", threads=2, balancer="vanilla", n_epochs=1)
TINY_B = RunSpec(workload="HTHI", threads=2, balancer="vanilla", n_epochs=2)
#: Resolves no workload, so its job crashes in the worker.
CRASH = RunSpec(workload="nope", n_epochs=1)


def digest_experiment(experiment_id, specs, tolerate_crashes=False):
    """An experiment whose report is one digest row per listed spec."""

    def build(scale, results):
        rows = [
            [spec.label(), "crashed" if results[spec] is None
             else metrics_digest(results[spec])]
            for spec in specs
        ]
        return ExperimentResult(
            experiment_id=experiment_id,
            title=f"{experiment_id} at {scale.name} scale",
            headers=["spec", "digest"],
            rows=rows,
        )

    return SweepExperiment(
        experiment_id, lambda scale: specs, build, tolerate_crashes
    )


def use_table(monkeypatch, *table):
    monkeypatch.setattr(
        experiments, "EXPERIMENTS", {e.experiment_id: e for e in table}
    )


@pytest.fixture
def tiny_table(monkeypatch):
    """Two experiments sharing TINY_B: two distinct jobs in all."""
    monkeypatch.delenv(JOBS_ENV, raising=False)
    use_table(
        monkeypatch,
        digest_experiment("alpha", [TINY_A, TINY_B]),
        digest_experiment("beta", [TINY_B]),
    )


def run_cli(capsys, *args):
    assert main(["experiments", *args]) == 0
    return capsys.readouterr()


def test_there_is_no_sweep_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "fig4a"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'sweep'" in capsys.readouterr().err


class TestCache:
    def test_second_run_is_all_hits_and_byte_identical(
        self, tiny_table, tmp_path, capsys
    ):
        args = ("--cache-dir", str(tmp_path / "cache"))
        first = run_cli(capsys, *args)
        second = run_cli(capsys, *args)
        assert second.out == first.out
        assert "0 hit(s), 2 miss(es)" in first.err
        assert "2 hit(s), 0 miss(es)" in second.err

    def test_summary_goes_to_stderr_only(self, tiny_table, capsys):
        captured = run_cli(capsys)
        assert "2 distinct job(s), 1 worker(s)" in captured.err
        assert "distinct job" not in captured.out
        assert "alpha at quick scale" in captured.out
        assert "beta at quick scale" in captured.out


class TestWorkers:
    def test_two_workers_print_what_one_prints(self, tiny_table, capsys):
        serial = run_cli(capsys, "--jobs", "1")
        parallel = run_cli(capsys, "--jobs", "2")
        assert parallel.out == serial.out
        assert "2 worker(s)" in parallel.err


class TestBaseSeed:
    def test_reseeds_reproducibly_and_builds_by_listed_spec(
        self, tiny_table, capsys
    ):
        plain = run_cli(capsys).out
        seeded = run_cli(capsys, "--base-seed", "11").out
        assert run_cli(capsys, "--base-seed", "11").out == seeded
        assert seeded != plain
        # The rows carry the listed spec's label next to the digest of
        # the re-seeded run: build looked each result up by its spec.
        reseeded = execute_spec(TINY_A.with_derived_seed(11))
        assert f"{TINY_A.label()} | {metrics_digest(reseeded)}" in seeded
        assert metrics_digest(execute_spec(TINY_A)) in plain


class TestTraceDir:
    def test_one_trace_pair_per_distinct_spec_and_no_caching(
        self, tiny_table, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        traces = tmp_path / "traces"
        untraced = run_cli(capsys)
        traced = run_cli(
            capsys, "--cache-dir", str(cache_dir), "--trace-dir", str(traces)
        )
        assert traced.out == untraced.out
        keys = [TINY_A.spec_key(), TINY_B.spec_key()]
        assert sorted(p.name for p in traces.iterdir()) == sorted(
            [f"{key}.jsonl" for key in keys]
            + [f"{key}.metrics.json" for key in keys]
        )
        assert f"traces in {traces}" in traced.err
        assert "hit(s)" not in traced.err
        # The traced run wrote nothing to the cache it was pointed at.
        after = run_cli(capsys, "--cache-dir", str(cache_dir))
        assert "0 hit(s), 2 miss(es)" in after.err


class TestCrashes:
    def test_ordinary_experiment_raises_naming_the_job(self, monkeypatch):
        use_table(monkeypatch, digest_experiment("ordinary", [TINY_A, CRASH]))
        with pytest.raises(RuntimeError, match=re.escape(CRASH.label())):
            main(["experiments"])

    def test_tolerant_experiment_gets_none(self, monkeypatch, capsys):
        use_table(
            monkeypatch,
            digest_experiment("tolerant", [TINY_A, CRASH], tolerate_crashes=True),
        )
        out = run_cli(capsys).out
        assert f"{CRASH.label()} | crashed" in out
        assert metrics_digest(execute_spec(TINY_A)) in out

    def test_shared_crash_still_fails_the_ordinary_experiment(self, monkeypatch):
        use_table(
            monkeypatch,
            digest_experiment("tolerant", [CRASH], tolerate_crashes=True),
            digest_experiment("ordinary", [CRASH]),
        )
        with pytest.raises(RuntimeError, match="'ordinary'"):
            main(["experiments"])
