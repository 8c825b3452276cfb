"""Tests for the command-line interface."""

import json

import pytest

from reference_kernel import reference_kernel
from repro.cli import main, make_balancer, make_platform, make_workload
from repro.obs import validate_events
from repro.obs.export import read_jsonl
from repro.runner import RunSpec, execute_spec


class TestResolvers:
    def test_platform_presets(self):
        assert len(make_platform("quad")) == 4
        assert len(make_platform("biglittle")) == 8
        assert len(make_platform("hmp:6")) == 6

    def test_unknown_platform_exits(self):
        with pytest.raises(ValueError, match="unknown platform 'toaster'"):
            make_platform("toaster")

    def test_workload_kinds(self):
        assert len(make_workload("MTMI", 4)) == 4
        assert len(make_workload("bodytrack", 3)) == 3
        assert len(make_workload("Mix1", 2)) == 4  # 2 per member

    def test_unknown_workload_exits(self):
        with pytest.raises(ValueError, match="unknown workload 'doom'"):
            make_workload("doom", 4)

    def test_balancers(self):
        assert make_balancer("vanilla").name == "vanilla"
        assert make_balancer("gts").name == "gts"
        assert make_balancer("smartbalance").name == "smartbalance"
        assert make_balancer("tpeq").name == "tpeq"
        assert make_balancer("slo").name == "slo"
        governed = make_balancer("smartbalance", governor="two_level")
        assert governed.name == "governor:two_level"

    def test_unknown_balancer_exits(self):
        with pytest.raises(ValueError, match="unknown balancer 'magic'"):
            make_balancer("magic")

    def test_execute_spec_raises_value_error_for_unknown_name(self):
        """Library code never exits the interpreter: an unresolvable
        name is an ordinary exception a caller can catch."""
        with pytest.raises(ValueError, match="unknown workload 'nope'"):
            execute_spec(RunSpec(workload="nope", n_epochs=1))

    def test_run_with_unknown_workload_exits_with_one_line(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--workload", "nope", "--epochs", "1"])
        assert excinfo.value.code == (
            "unknown workload 'nope'; see `python -m repro list`"
        )


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bodytrack" in out
        assert "smartbalance" in out

    def test_list_json_is_machine_readable(self, capsys):
        """Satellite: `repro list --json` mirrors the factories'
        catalogue — the same source of truth the service API validates
        against."""
        from repro.runner.factories import catalogue

        assert main(["list", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document == catalogue()
        assert "vanilla" in document["balancers"]
        assert "bodytrack" in document["workloads"]["benchmarks"]
        assert document["platform_patterns"] == ["hmp:<n>"]

    def test_run_prints_result(self, capsys):
        code = main(
            ["run", "--workload", "MTMI", "--threads", "4",
             "--balancer", "vanilla", "--epochs", "3"]
        )
        assert code == 0
        assert "instructions/J" in capsys.readouterr().out

    def test_run_json_is_deterministic_metrics(self, capsys):
        args = ["run", "--workload", "MTMI", "--threads", "4",
                "--balancer", "vanilla", "--epochs", "3", "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["balancer_name"] == "vanilla"
        assert "phase_times" not in first  # wall clock excluded
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out) == first

    def test_run_json_matches_reference_kernel(self, capsys):
        """The CLI's JSON document is byte-identical when the run goes
        through the reference kernel instead of the SoA engine."""
        args = ["run", "--workload", "MTMI", "--threads", "4",
                "--balancer", "vanilla", "--epochs", "3", "--json"]
        assert main(args) == 0
        soa = capsys.readouterr().out
        with reference_kernel():
            assert main(args) == 0
        assert capsys.readouterr().out == soa

    def test_run_rejects_kernel_flag(self, capsys):
        """There is one kernel engine, so ``--kernel`` is no option."""
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--workload", "MTMI", "--kernel", "soa"])
        assert excinfo.value.code != 0
        assert "--kernel" in capsys.readouterr().err

    def test_run_preset_platform_hmp256(self, capsys):
        code = main(
            ["run", "--workload", "MTMI", "--threads", "8",
             "--platform", "hmp256", "--balancer", "none", "--epochs", "1"]
        )
        assert code == 0
        assert "instructions/J" in capsys.readouterr().out

    def test_run_writes_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        main(
            ["run", "--workload", "MTMI", "--threads", "4",
             "--balancer", "none", "--epochs", "3", "--trace", str(trace)]
        )
        doc = json.loads(trace.read_text())
        assert len(doc["epochs"]) == 3

    def test_compare_reports_gain(self, capsys):
        code = main(
            ["compare", "--workload", "HTHI", "--threads", "4",
             "--epochs", "5", "vanilla", "none"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "none vs vanilla" in out

    def test_experiments_selected(self, capsys):
        assert main(["experiments", "table3"]) == 0
        assert "Mix6" in capsys.readouterr().out

    def test_experiments_unknown_id_exits(self):
        with pytest.raises(SystemExit):
            main(["experiments", "fig99"])

    def test_train_writes_model(self, tmp_path, capsys):
        out = tmp_path / "predictor.json"
        assert main(["train", "--output", str(out)]) == 0
        model = json.loads(out.read_text())
        assert "theta" in model and "power_lines" in model


class TestObservability:
    RUN_ARGS = [
        "run", "--workload", "MTMI", "--threads", "4",
        "--platform", "biglittle", "--balancer", "smartbalance",
        "--epochs", "3",
    ]

    def test_log_level_flag_accepted(self, capsys):
        assert main(["--log-level", "debug", "list"]) == 0

    def test_trace_out_jsonl_is_schema_clean(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(self.RUN_ARGS + ["--trace-out", str(trace)]) == 0
        events = read_jsonl(str(trace))
        assert events[0]["type"] == "run_start"
        assert validate_events(events) == []
        assert "event trace" in capsys.readouterr().out

    def test_trace_out_json_is_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        assert main(self.RUN_ARGS + ["--trace-out", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        assert any(r["ph"] == "X" for r in doc["traceEvents"])
        assert "Chrome trace" in capsys.readouterr().out

    def test_report_renders_prediction_table(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        main(self.RUN_ARGS + ["--trace-out", str(trace)])
        capsys.readouterr()
        assert main(["report", str(trace), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "SmartBalance trace report" in out
        assert "Prediction accuracy (abs % error, Table 4)" in out
        assert "Annealer convergence (Algorithm 1)" in out

    def test_report_writes_json(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        main(self.RUN_ARGS + ["--trace-out", str(trace)])
        report_path = tmp_path / "report.json"
        assert main(["report", str(trace), "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["epochs"] == 3
        assert "prediction_accuracy" in report

    def test_report_validate_rejects_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "warp_drive", "t_s": 0.0}\n')
        with pytest.raises(SystemExit, match="schema validation"):
            main(["report", str(bad), "--validate"])

    def test_report_missing_file_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read trace"):
            main(["report", str(tmp_path / "absent.jsonl")])


class TestFleet:
    FLEET_ARGS = [
        "fleet", "--nodes", "3", "--requests", "8", "--arrival-rate", "6",
        "--profile", "analytic",
    ]

    def test_fleet_prints_summary_with_per_node_lines(self, capsys):
        assert main(self.FLEET_ARGS) == 0
        out = capsys.readouterr().out
        assert "8/8 completed" in out
        assert out.count("node ") == 3

    def test_fleet_json_is_pure_json(self, capsys):
        assert main(self.FLEET_ARGS + ["--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["accepted"] == document["completed"] == 8
        assert document["failed"] == 0
        assert "ledger" in document and "stats" in document

    def test_fleet_kill30_reports_ridden_out_faults(self, capsys):
        assert main(self.FLEET_ARGS + ["--fleet-faults", "kill30",
                                       "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "8/8 completed" in out
        assert "faults ridden out" in out
        assert "crashed" in out

    def test_fleet_trace_feeds_report(self, tmp_path, capsys):
        trace = tmp_path / "fleet.jsonl"
        assert main(self.FLEET_ARGS + ["--fleet-faults", "kill30",
                                       "--seed", "7",
                                       "--trace-out", str(trace)]) == 0
        events = read_jsonl(str(trace))
        assert validate_events(events) == []
        capsys.readouterr()
        assert main(["report", str(trace), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "Fleet (multi-node dispatch)" in out

    def test_fleet_unknown_scenario_exits(self):
        with pytest.raises(SystemExit, match="unknown fleet fault scenario"):
            main(self.FLEET_ARGS + ["--fleet-faults", "meteor"])

    def test_fleet_explicit_platform_list(self, capsys):
        assert main(["fleet", "--node-platforms", "quad,quad",
                     "--requests", "4", "--profile", "analytic"]) == 0
        out = capsys.readouterr().out
        assert "node 0 (quad" in out and "node 1 (quad" in out
