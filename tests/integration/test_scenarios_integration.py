"""Scenarios composed with the rest of the stack, end to end.

Three contracts:

* **Digest neutrality** — ``scenario="none"`` runs are byte-identical
  to pre-scenario builds.  The pinned digests below were recorded from
  the commit *before* the scenarios subsystem landed; any drift in the
  default path fails here first.
* **Faults x scenarios** — every scenario family survives the combined
  fault scenario with the defences on: threads arriving, blocking at
  barriers and exiting mid-epoch must not confuse the degradation or
  mitigation machinery.
* **Adaptation x scenarios** — online model maintenance keeps working
  when the task population churns (requests) or stalls (barriers).
"""

import pytest

from repro.runner.engine import execute_spec
from repro.runner.serialize import metrics_digest
from repro.runner.spec import RunSpec
from repro.scenarios import SCENARIO_FAMILIES

#: Small, fast scenario strings, one per family.
FAMILY_STRINGS = {
    "openloop": "openloop:slo_ms=15,work_minstr=2",
    "barrier": "barrier:groups=1,members=3,intervals=3,interval_minstr=8",
    "smt": "smt:cores=half,corunners=2",
}

#: metrics_digest of these exact specs at the commit before
#: repro.scenarios existed.  The scenario field must stay inert at its
#: default — CACHE_FORMAT bumped, bytes did not.
PINNED_DEFAULT_DIGESTS = {
    "vanilla": (
        "b41f1137687428a25462741830f9ff8bdb5e82a93c528dcf2be48fc903147b7f"
    ),
    "smartbalance": (
        "ec54dba4ac4bd0a0a761d938f86efeb1b0207542d79c84decedac688e0e82e19"
    ),
}


def spec_for(family=None, **overrides):
    kwargs = dict(
        workload="MTMI",
        platform="quad",
        threads=4,
        balancer="smartbalance",
        n_epochs=4,
        seed=1,
    )
    if family is not None:
        kwargs["scenario"] = FAMILY_STRINGS[family]
    kwargs.update(overrides)
    return RunSpec(**kwargs)


class TestDefaultDigestUnchanged:
    def test_family_strings_cover_every_family(self):
        assert set(FAMILY_STRINGS) == set(SCENARIO_FAMILIES)

    @pytest.mark.parametrize("balancer", sorted(PINNED_DEFAULT_DIGESTS))
    def test_scenario_none_matches_pre_scenario_build(self, balancer):
        result = execute_spec(spec_for(balancer=balancer))
        assert metrics_digest(result) == PINNED_DEFAULT_DIGESTS[balancer]

    def test_scenario_none_result_has_no_scenario_key(self):
        from repro.runner.serialize import result_to_dict

        data = result_to_dict(execute_spec(spec_for(balancer="vanilla")))
        assert "scenario" not in data


class TestFaultsAcrossScenarios:
    @pytest.mark.parametrize("family", sorted(FAMILY_STRINGS))
    def test_combined_faults_complete_with_defences(self, family):
        result = execute_spec(spec_for(family, faults="combined"))
        assert result.instructions > 0
        assert result.energy_j > 0
        stats = result.resilience
        assert stats is not None
        assert stats.faults_injected > 0
        assert result.scenario is not None
        assert result.scenario["family"] == family

    @pytest.mark.parametrize("family", sorted(FAMILY_STRINGS))
    def test_ablated_defences_still_complete(self, family):
        # Quality may degrade; the simulator must not crash while
        # scenario threads churn under faults.
        result = execute_spec(
            spec_for(family, faults="combined", mitigations=False)
        )
        assert result.instructions > 0
        assert result.scenario["family"] == family


class TestAdaptationAcrossScenarios:
    @pytest.mark.parametrize("family", sorted(FAMILY_STRINGS))
    def test_adaptation_runs_under_each_family(self, family):
        result = execute_spec(spec_for(family, adaptation=True))
        assert result.instructions > 0
        assert result.scenario["family"] == family
        # The adaptation ledger is reported through resilience stats.
        assert result.resilience is not None

    def test_adaptation_with_faults_and_openloop(self):
        # The hardest composition: model maintenance + fault injection
        # + threads arriving and retiring mid-epoch.
        result = execute_spec(
            spec_for("openloop", faults="combined", adaptation=True)
        )
        assert result.instructions > 0
        assert result.resilience.faults_injected > 0


class TestVariantsEndToEnd:
    def test_tpeq_through_runner(self):
        result = execute_spec(
            spec_for("barrier", balancer="tpeq", platform="biglittle")
        )
        assert result.scenario["family"] == "barrier"
        assert result.instructions > 0

    def test_slo_through_runner(self):
        result = execute_spec(
            spec_for("openloop", balancer="slo", platform="biglittle")
        )
        assert result.scenario["family"] == "openloop"
        assert result.scenario["completed"] > 0

    def test_variants_reject_non_scenario_free_combo(self):
        # Variants run fine without a scenario too (degrade to stock).
        result = execute_spec(spec_for(balancer="tpeq"))
        assert result.instructions > 0
