"""RunSpec identity pins: cache keys and labels must never move silently.

``spec_key()`` addresses the on-disk result cache and ``label()`` names
jobs in logs and service responses, so both are recorded here
byte-for-byte for a corpus that sets every knob at least once.  A change
to either is a deliberate ``CACHE_FORMAT`` decision, never a side
effect of refactoring how the knobs are declared.
"""

import dataclasses
import json

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
}

#: (spec_key, label) per corpus entry.  Moving any of them is a cache
#: format change, never a side effect of how the knobs are declared.
#: The keys last moved at CACHE_FORMAT 10, when the ``two_level``
#: governor began screening its OPP vectors (governed decisions can
#: differ); no label moved.
PINNED = {
    "default": (
        "d3c798964b82ed1f1a81e87eb35ce96b184a5449",
        "quad/MTMI/x8/smartbalance/seed=0",
    ),
    "seeds_faults_no_mitigations": (
        "32d7a41fd162c9d4d44f33d8d86ac28b2747acd4",
        "hmp:6/Mix3/x2/gts/faults=sensor/seed=42",
    ),
    "adaptation_combined": (
        "582d44aafeb89a77cdb5aac45c13583f83c80264",
        "quad/random/x6/smartbalance/faults=combined/seed=0",
    ),
    "two_level": (
        "76bed86612d4cecd33edfada15b7b5d85f74fc1a",
        "dvfsquad/MTMI/x8/smartbalance/gov=two_level/seed=0",
    ),
    "pinned": (
        "da53b4bcfcea46493c8805cc2a9e82940eb8aa73",
        "dvfsquad/LTLI/x8/smartbalance/gov=pinned:1/seed=0",
    ),
    "openloop": (
        "012705b358351f612daa547f77e354bd23930af5",
        "biglittle/MTMI/x4/slo/scenario=openloop:rate=80,slo_ms=15,"
        "work_minstr=2/seed=0",
    ),
    "barrier": (
        "dcfaf872fefe557398de17880499733dff9aa659",
        "biglittle/MTMI/x4/tpeq/scenario=barrier:groups=1,members=3,"
        "intervals=3/seed=0",
    ),
    "smt": (
        "d8e215e4be1d5649bae88b7a4329da51a51db377",
        "biglittle/bodytrack/x8/smartbalance/scenario=smt:cores=big/seed=0",
    ),
    "governor_scenario": (
        "d4b45ca462cc4d338cf25cde8abee06c2d7512ea",
        "dvfsquad/MTMI/x4/smartbalance/gov=two_level/scenario=openloop/seed=0",
    ),
    "config": (
        "c4aac3dc570b7dafa0f98a6762b376acd4ee563f",
        "quad/MTMI/x2/smartbalance/seed=0",
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


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_payload_round_trips_over_json(name):
    """``payload_from_spec`` and ``spec_from_payload`` are exact
    inverses for every corpus spec, custom ``config`` included."""
    spec = CORPUS[name]
    payload = json.loads(json.dumps(payload_from_spec(spec)))
    assert spec_from_payload(payload) == spec
