"""Scenario string parsing: the loud-failure contract.

A scenario string is part of a run's cached identity, so the parser
must reject anything it does not fully understand — unknown families,
unknown parameters, malformed items, out-of-range values — rather
than silently running defaults.
"""

import re

import pytest

import repro.cli
from repro.cli import main
from repro.runner.spec import RunSpec, SpecError
from repro.scenarios import (
    SCENARIO_FAMILIES,
    parse_scenario,
    scenario_catalogue,
)
from repro.service.api import ApiError, spec_from_payload


class TestParseScenario:
    def test_bare_family_gets_all_defaults(self):
        spec = parse_scenario("openloop")
        assert spec.family == "openloop"
        assert spec.text == "openloop"
        assert spec.params["pattern"] == "poisson"
        assert spec.params["rate"] == 80.0
        assert spec.params["slo_ms"] == 20.0

    def test_overrides_merge_with_defaults(self):
        spec = parse_scenario("barrier:groups=3,imbalance=0.9")
        assert spec.params["groups"] == 3
        assert spec.params["imbalance"] == 0.9
        # Untouched keys keep their declared defaults.
        assert spec.params["members"] == 4
        assert spec.params["intervals"] == 6

    def test_every_family_parses_bare(self):
        for family in SCENARIO_FAMILIES:
            assert parse_scenario(family).family == family

    def test_params_are_typed(self):
        spec = parse_scenario("barrier:groups=2,interval_minstr=12")
        assert isinstance(spec.params["groups"], int)
        assert isinstance(spec.params["interval_minstr"], float)

    @pytest.mark.parametrize("bad", ["", "none"])
    def test_none_and_empty_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_scenario(bad)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown scenario family"):
            parse_scenario("closedloop")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            parse_scenario("openloop:rte=80")

    @pytest.mark.parametrize(
        "bad",
        ["openloop:rate", "openloop:=80", "openloop:rate=", "openloop:,"],
    )
    def test_malformed_items(self, bad):
        with pytest.raises(ValueError, match="malformed|unknown"):
            parse_scenario(bad)

    def test_uncastable_value(self):
        with pytest.raises(ValueError, match="not a valid float"):
            parse_scenario("openloop:rate=fast")

    @pytest.mark.parametrize(
        "bad",
        [
            "openloop:rate=0",
            "openloop:rate=-5",
            "openloop:slo_ms=0",
            "openloop:spread=1.0",
            "openloop:pattern=bursty",
            "barrier:groups=0",
            "barrier:intervals=-1",
            "barrier:imbalance=1.5",
            "smt:cores=little",
            "smt:corunners=-1",
        ],
    )
    def test_out_of_range_values(self, bad):
        with pytest.raises(ValueError):
            parse_scenario(bad)


#: Non-finite numbers parse as floats, but no scenario can run on them:
#: NaN slips past every range check and inf past every positivity one.
NON_FINITE = [
    "openloop:rate=nan",
    "openloop:rate=inf",
    "openloop:slo_ms=inf",
    "openloop:work_minstr=nan",
    "barrier:interval_minstr=inf",
]


class TestNonFiniteParameters:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_parser_refuses(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            parse_scenario(bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_run_spec_refuses_with_scenario_field(self, bad):
        with pytest.raises(SpecError, match="must be finite") as excinfo:
            RunSpec(workload="MTMI", platform="biglittle", threads=4, scenario=bad)
        assert excinfo.value.field == "scenario"

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_payload_refused_with_scenario_field(self, bad):
        with pytest.raises(ApiError) as excinfo:
            spec_from_payload({"workload": "MTMI", "scenario": bad})
        assert excinfo.value.field == "scenario"
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_cli_exits_before_simulating(self, bad, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("simulated an invalid spec")

        monkeypatch.setattr(repro.cli, "execute_spec", never)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--workload", "MTMI", "--scenario", bad])
        assert "must be finite" in str(excinfo.value.code)


#: Non-canonical spellings and the one canonical spelling of each.
SPELLINGS = [
    ("openloop:rate=120.0", "openloop:rate=120"),
    ("openloop:rate=1.2e2", "openloop:rate=120"),
    ("barrier:members=3,groups=1", "barrier:groups=1,members=3"),
    ("openloop:rate=80", "openloop"),
    ("smt:cores=big,corunners=4", "smt:cores=big"),
    ("barrier:groups=03", "barrier:groups=3"),
    ("openloop:rate=0.00001", "openloop:rate=1e-5"),
]


class TestCanonicalLabel:
    """One scenario, one string: ``RunSpec`` takes only the canonical
    spelling, so one scenario has one spec key and one cache entry."""

    @pytest.mark.parametrize("text, canonical", SPELLINGS)
    def test_every_spelling_has_one_label(self, text, canonical):
        spec = parse_scenario(text)
        assert spec.text == text
        assert spec.label == canonical
        again = parse_scenario(canonical)
        assert again.params == spec.params
        assert again.label == canonical

    @pytest.mark.parametrize(
        "text",
        [
            "openloop",
            "openloop:rate=120",
            "openloop:pattern=spike,rate=40,slo_ms=12.5",
            "barrier:groups=1,members=3,intervals=3,interval_minstr=8",
            "barrier:intervals=4,interval_minstr=25,imbalance=0.8",
            "smt:cores=half,corunners=2",
        ],
    )
    def test_canonical_spellings_are_their_own_label(self, text):
        assert parse_scenario(text).label == text
        assert RunSpec(workload="MTMI", scenario=text).scenario == text

    @pytest.mark.parametrize("text, canonical", SPELLINGS)
    def test_run_spec_refuses_other_spellings(self, text, canonical):
        with pytest.raises(SpecError, match=re.escape(f"as '{canonical}'")) as excinfo:
            RunSpec(workload="MTMI", scenario=text)
        assert excinfo.value.field == "scenario"


class TestCatalogue:
    def test_shape(self):
        cat = scenario_catalogue()
        assert cat["families"] == list(SCENARIO_FAMILIES)
        assert set(cat["params"]) == set(SCENARIO_FAMILIES)

    def test_defaults_round_trip_through_parser(self):
        cat = scenario_catalogue()
        for family, defaults in cat["params"].items():
            spec = parse_scenario(family)
            assert dict(spec.params) == defaults
