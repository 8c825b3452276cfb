"""Cross-layer: the DVFS governor under each workload scenario.

The governor and the scenario families are each pinned on their own;
this runs them together — smartbalance + ``two_level`` on the 4-rail
``dvfsquad`` platform — and holds the combination to the same
contracts: the spec validates, the governor actually switches OPPs,
and the SoA and reference kernels stay digest-identical.
"""

import pytest

from repro.kernel.simulator import SimulationConfig
from repro.runner.engine import execute_spec
from repro.runner.serialize import metrics_digest
from repro.runner.spec import RunSpec


def governed(scenario: str, kernel: str) -> RunSpec:
    return RunSpec(
        workload="MTMI",
        platform="dvfsquad",
        threads=4,
        balancer="smartbalance",
        n_epochs=3,
        governor="two_level",
        scenario=scenario,
        config=SimulationConfig(kernel=kernel),
    )


@pytest.mark.parametrize("family", ["openloop", "barrier", "smt"])
def test_two_level_governor_under_scenario(family):
    results = {
        kernel: execute_spec(governed(family, kernel))
        for kernel in ("soa", "reference")
    }
    soa = results["soa"]
    assert soa.scenario["family"] == family
    assert soa.governor["strategy"] == "two_level"
    assert soa.governor["opp_changes"] >= 1
    assert metrics_digest(soa) == metrics_digest(results["reference"])
