"""RunSpec identity pins: cache keys and labels must never move silently.

``spec_key()`` addresses the on-disk result cache and ``label()`` names
jobs in logs and service responses, so both are recorded here
byte-for-byte for a corpus that sets every knob at least once.  A change
to either is a deliberate ``CACHE_FORMAT`` decision, never a side
effect of refactoring how the knobs are declared.
"""

import dataclasses

import pytest

from repro.hardware.sensors import NoiseModel
from repro.kernel.simulator import SimulationConfig
from repro.runner.spec import RunSpec
from repro.service.api import payload_from_spec, spec_from_payload

CORPUS = {
    "default": RunSpec(workload="MTMI"),
    "seeds_faults_no_mitigations": RunSpec(
        workload="Mix3", platform="hmp:6", threads=2, balancer="gts",
        n_epochs=7, seed=42, workload_seed=7, faults="sensor", fault_seed=3,
        mitigations=False,
    ),
    "adaptation_combined": RunSpec(
        workload="random", threads=6, faults="combined", adaptation=True,
    ),
    "two_level": RunSpec(
        workload="MTMI", platform="dvfsquad", n_epochs=8, governor="two_level",
    ),
    "coupled_anneal": RunSpec(
        workload="HTHI", platform="dvfsquad", threads=4,
        governor="coupled_anneal", seed=5,
    ),
    "pinned": RunSpec(workload="LTLI", platform="dvfsquad", governor="pinned:1"),
    "openloop": RunSpec(
        workload="MTMI", platform="biglittle", threads=4, balancer="slo",
        scenario="openloop:rate=80,slo_ms=15,work_minstr=2",
    ),
    "barrier": RunSpec(
        workload="MTMI", platform="biglittle", threads=4, balancer="tpeq",
        scenario="barrier:groups=1,members=3,intervals=3",
    ),
    "smt": RunSpec(
        workload="bodytrack", platform="biglittle", scenario="smt:cores=big",
    ),
    "governor_scenario": RunSpec(
        workload="MTMI", platform="dvfsquad", threads=4, n_epochs=3,
        governor="two_level", scenario="openloop",
    ),
    "config": RunSpec(
        workload="MTMI", threads=2,
        config=dataclasses.replace(
            SimulationConfig(), periods_per_epoch=5, thermal_enabled=True,
            counter_noise=NoiseModel(sigma=0.1, clip=0.2),
        ),
    ),
    "kernel": RunSpec(workload="MTMI", config=SimulationConfig(kernel="reference")),
}

#: (spec_key, label) per corpus entry.  Moving any of them is a cache
#: format change, never a side effect of how the knobs are declared.
PINNED = {
    "default": (
        "694af633cca6c560ff2cb5f94d2d6f47309b309f",
        "quad/MTMI/x8/smartbalance/seed=0",
    ),
    "seeds_faults_no_mitigations": (
        "f60533dbc82f973bdc26b7e2f5767a58f0fd7816",
        "hmp:6/Mix3/x2/gts/faults=sensor/seed=42",
    ),
    "adaptation_combined": (
        "9c7648bf4d0a68f955a45dbf36311b20152f0a8a",
        "quad/random/x6/smartbalance/faults=combined/seed=0",
    ),
    "two_level": (
        "0a86acd9b69a2d7d35ff79e277f52d107e6d46f5",
        "dvfsquad/MTMI/x8/smartbalance/gov=two_level/seed=0",
    ),
    "coupled_anneal": (
        "87e83c37a7e73cd47e5878d9630c741eef98e953",
        "dvfsquad/HTHI/x4/smartbalance/gov=coupled_anneal/seed=5",
    ),
    "pinned": (
        "7a66c1d565ec6afcf085b6175de06e04f4cb1121",
        "dvfsquad/LTLI/x8/smartbalance/gov=pinned:1/seed=0",
    ),
    "openloop": (
        "a100790eeec0f65d29f1b4fc8fef3d58431229bf",
        "biglittle/MTMI/x4/slo/scenario=openloop:rate=80,slo_ms=15,"
        "work_minstr=2/seed=0",
    ),
    "barrier": (
        "1a16cfc42fe842315bd80a7b7a4adfe9709ea445",
        "biglittle/MTMI/x4/tpeq/scenario=barrier:groups=1,members=3,"
        "intervals=3/seed=0",
    ),
    "smt": (
        "9ea34726169c8292c6d3aef26d0443ab831ba863",
        "biglittle/bodytrack/x8/smartbalance/scenario=smt:cores=big/seed=0",
    ),
    "governor_scenario": (
        "da679a2f4433f408c5dd50c9fd8b0916d46109c8",
        "dvfsquad/MTMI/x4/smartbalance/gov=two_level/scenario=openloop/seed=0",
    ),
    "config": (
        "f97706f2e960d4f3fbd9e8c9275d6548ba924079",
        "quad/MTMI/x2/smartbalance/seed=0",
    ),
    "kernel": (
        "56a2314f951390cae21bb1d283b8123672bff3b3",
        "quad/MTMI/x8/smartbalance/seed=0",
    ),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_spec_key_and_label_are_pinned(name):
    spec = CORPUS[name]
    assert (spec.spec_key(), spec.label()) == PINNED[name]


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunSpec)])
def test_every_field_is_hashed_settable_and_round_trips(name):
    """Walks the dataclass, so a knob added without a table entry that
    feeds the hash, the API and the payload fails here."""
    default = RunSpec(workload="MTMI")
    spec = next(
        (s for s in CORPUS.values() if getattr(s, name) != getattr(default, name)),
        None,
    )
    assert spec is not None, f"no corpus spec sets {name}; extend CORPUS"
    assert name in spec.canonical()
    reset = dataclasses.replace(spec, **{name: getattr(default, name)})
    assert reset.spec_key() != spec.spec_key(), f"{name} is not hashed"
    payload = payload_from_spec(spec)
    assert name in payload
    assert spec_from_payload(payload) == spec
    alone = spec_from_payload({"workload": "MTMI", name: payload[name]})
    assert getattr(alone, name) == getattr(spec, name)
