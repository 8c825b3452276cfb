"""One epoch length: SmartBalance decides once per simulator epoch.

L is ``SimulationConfig.periods_per_epoch``.  Every SmartBalance-pipeline
balancer a ``RunSpec`` reaches (stock, tpeq, slo and the DVFS governor
under each strategy) makes exactly one decision per recorded epoch,
whatever L the spec's config sets.
"""

import pytest

from repro.kernel.simulator import SimulationConfig
from repro.obs import ObsContext
from repro.obs import events as obs_events
from repro.runner.engine import execute_spec
from repro.runner.spec import RunSpec

N_EPOCHS = 4

SPECS = {
    "smartbalance": {},
    "tpeq": {"balancer": "tpeq", "platform": "biglittle", "scenario": "barrier"},
    "slo": {"balancer": "slo", "platform": "biglittle", "scenario": "openloop"},
    "two_level": {"platform": "dvfsquad", "governor": "two_level"},
    "pinned": {"platform": "dvfsquad", "governor": "pinned:1"},
}


@pytest.mark.parametrize("periods_per_epoch", [5, 10])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_one_decision_per_epoch(name, periods_per_epoch):
    spec = RunSpec(
        workload="MTMI",
        threads=4,
        n_epochs=N_EPOCHS,
        config=SimulationConfig(periods_per_epoch=periods_per_epoch),
        **SPECS[name],
    )
    obs = ObsContext()
    result = execute_spec(spec, obs=obs)
    decisions = [
        event["epoch"]
        for event in obs.tracer.events
        if event["type"] == obs_events.DECISION
    ]
    assert len(result.epochs) == N_EPOCHS
    assert decisions == list(range(N_EPOCHS))
