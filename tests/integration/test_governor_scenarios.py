"""Cross-layer: the DVFS governor under each workload scenario.

The governor and the scenario families are each pinned on their own;
this runs them together — smartbalance + ``two_level`` on the 4-rail
``dvfsquad`` platform — and holds the combination to the same
contracts: the spec validates, the governor actually switches OPPs,
and the SoA kernel stays digest-identical to the reference kernel.
"""

import pytest

from reference_kernel import reference_kernel
from repro.runner.engine import execute_spec
from repro.runner.serialize import metrics_digest
from repro.runner.spec import RunSpec


def governed(scenario: str) -> RunSpec:
    return RunSpec(
        workload="MTMI",
        platform="dvfsquad",
        threads=4,
        balancer="smartbalance",
        n_epochs=3,
        governor="two_level",
        scenario=scenario,
    )


@pytest.mark.parametrize("family", ["openloop", "barrier", "smt"])
def test_two_level_governor_under_scenario(family):
    soa = execute_spec(governed(family))
    with reference_kernel():
        reference = execute_spec(governed(family))
    assert soa.scenario["family"] == family
    assert soa.governor["strategy"] == "two_level"
    assert soa.governor["opp_changes"] >= 1
    assert metrics_digest(soa) == metrics_digest(reference)
