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

from repro.obs import build_report, deterministic_events, render_report
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
