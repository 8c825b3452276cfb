"""Trace-report aggregation, pinned against golden fixtures.

``tests/fixtures/golden/obs_trace.jsonl`` is the deterministic event
stream of the reference traced run (``conftest.TRACED_SPEC``), and
``obs_report.txt`` the report rendered from it — the prediction-accuracy
table (Table 4), annealer convergence (Algorithm 1/Fig. 8) and
fault/defence tallies.  The live run is compared with both, line for
line, so any change to event emission or aggregation shows up as a
diff here; regenerate deliberately with:

    PYTHONPATH=src python -m pytest tests/obs/test_report.py --update-golden
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import build_report, deterministic_events, render_report, validate_events
from repro.obs.export import dumps_jsonl, read_jsonl, write_jsonl
from repro.obs.report import build_annealer_summary, build_prediction_accuracy

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "golden"
GOLDEN_JSONL = GOLDEN_DIR / "obs_trace.jsonl"
GOLDEN_REPORT = GOLDEN_DIR / "obs_report.txt"


@pytest.fixture(autouse=True)
def maybe_update(request, traced_events):
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        events = deterministic_events(traced_events)
        write_jsonl(events, str(GOLDEN_JSONL))
        GOLDEN_REPORT.write_text(render_report(build_report(events)))


class TestGoldenReport:
    def test_fixture_exists(self):
        assert GOLDEN_JSONL.exists() and GOLDEN_REPORT.exists(), (
            "missing obs golden fixtures; generate them with "
            "`python -m pytest tests/obs/test_report.py --update-golden`"
        )

    def test_report_of_golden_trace_matches_golden_text(self):
        events = read_jsonl(str(GOLDEN_JSONL))
        assert render_report(build_report(events)) == GOLDEN_REPORT.read_text()

    def test_live_run_reproduces_golden_events(self, traced_events):
        live = dumps_jsonl(deterministic_events(traced_events)).splitlines()
        assert live == GOLDEN_JSONL.read_text().splitlines()

    def test_live_run_reproduces_golden_report(self, traced_events):
        events = deterministic_events(traced_events)
        assert render_report(build_report(events)) == GOLDEN_REPORT.read_text()

    def test_golden_report_carries_table4_pairs(self):
        text = GOLDEN_REPORT.read_text()
        assert "Prediction accuracy (abs % error, Table 4)" in text
        # All four (source type -> target type) pairs of big.LITTLE.
        for pair in (
            "A15big->A15big",
            "A15big->A7little",
            "A7little->A15big",
            "A7little->A7little",
        ):
            assert pair in text

    def test_golden_report_carries_annealer_and_defences(self):
        text = GOLDEN_REPORT.read_text()
        assert "Annealer convergence (Algorithm 1)" in text
        assert "Faults injected by kind" in text
        assert "Mitigations by kind" in text


class TestPredictionAccuracy:
    EVENTS = [
        {"type": "prediction_check", "t_s": 0.1, "tid": 1,
         "src_type": "big", "dst_type": "little", "core": 4,
         "predicted_ips": 90.0, "measured_ips": 100.0,
         "ipc_abs_pct_error": 10.0,
         "predicted_power_w": 1.0, "measured_power_w": 1.25,
         "power_abs_pct_error": 20.0},
        {"type": "prediction_check", "t_s": 0.2, "tid": 1,
         "src_type": "big", "dst_type": "little", "core": 4,
         "predicted_ips": 70.0, "measured_ips": 100.0,
         "ipc_abs_pct_error": 30.0},
        {"type": "epoch_end", "t_s": 0.2, "epoch": 0, "duration_s": 0.1,
         "instructions": 1, "energy_j": 1.0, "migrations": 0},
    ]

    def test_pairs_aggregate_mean_and_max(self):
        accuracy = build_prediction_accuracy(self.EVENTS)
        assert list(accuracy) == ["big->little"]
        row = accuracy["big->little"]
        assert row["samples"] == 2
        assert row["ipc_mean_abs_pct_error"] == pytest.approx(20.0)
        assert row["ipc_max_abs_pct_error"] == pytest.approx(30.0)
        # Only the first sample carried a power prediction.
        assert row["power_samples"] == 1
        assert row["power_mean_abs_pct_error"] == pytest.approx(20.0)

    def test_no_checks_yields_empty_table(self):
        assert build_prediction_accuracy([]) == {}


class TestAnnealerSummary:
    def test_aggregates_across_runs(self):
        events = [
            {"type": "anneal", "t_s": 0.1, "epoch": 0, "iterations": 100,
             "accepted": 80, "uphill": 5,
             "initial_value": 1.0, "best_value": 1.2,
             "improvement_pct": 20.0},
            {"type": "anneal", "t_s": 0.2, "epoch": 1, "iterations": 300,
             "accepted": 120, "uphill": 15,
             "initial_value": 1.0, "best_value": 1.1,
             "improvement_pct": 10.0},
        ]
        summary = build_annealer_summary(events)
        assert summary["runs"] == 2
        assert summary["iterations_total"] == 400
        assert summary["accepted_total"] == 200
        assert summary["acceptance_rate"] == pytest.approx(0.5)
        assert summary["uphill_total"] == 20
        assert summary["improvement_pct_mean"] == pytest.approx(15.0)

    def test_empty_stream(self):
        assert build_annealer_summary([]) == {"runs": 0}


class TestRetiredFields:
    """A trace written before the annealer's wall-clock budget was
    deleted carries ``anneal.truncated`` and the ``budget_skip`` /
    ``sa_truncated`` mitigations; it must still validate, and the
    report must read it as if they were not there."""

    @staticmethod
    def old_style(events):
        old = []
        for event in events:
            if event["type"] == "anneal":
                event = {**event, "truncated": False}
            old.append(event)
            if event["type"] == "decision":
                old.append({"type": "mitigation", "t_s": event["t_s"],
                            "kind": "sa_truncated", "cause": "sa_time_budget"})
        old.append({"type": "mitigation", "t_s": old[-1]["t_s"],
                    "kind": "budget_skip", "cause": "epoch_budget_exhausted"})
        return old

    def test_old_trace_validates_and_reports_like_the_new(self):
        events = read_jsonl(str(GOLDEN_JSONL))
        old = self.old_style(events)
        assert validate_events(old) == []
        old_report = build_report(old)
        assert old_report.pop("events") > len(events)
        new_report = build_report(events)
        new_report.pop("events")
        assert old_report == new_report

    def test_report_validate_accepts_an_old_trace(self, tmp_path, capsys):
        events = read_jsonl(str(GOLDEN_JSONL))
        path = tmp_path / "old.jsonl"
        write_jsonl(self.old_style(events), str(path))
        assert main(["report", str(path), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "budget_skip" not in out and "sa_truncated" not in out
        # Only the event count in the header differs from the golden.
        golden = GOLDEN_REPORT.read_text().splitlines()
        assert out.splitlines()[3:] == golden[3:]

    def test_retired_names_stay_rejected_elsewhere(self):
        decision = {"type": "decision", "t_s": 0.0, "epoch": 0,
                    "migrations": 0, "fallback": False, "rejected": 0}
        assert validate_events([decision]) == []
        (error,) = validate_events([{**decision, "truncated": True}])
        assert "unknown field(s) ['truncated']" in error
        (error,) = validate_events([{"type": "mitigation", "t_s": 0.0,
                                     "kind": "budget_overrun", "cause": "x"}])
        assert "unknown kind 'budget_overrun'" in error
