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
        scenario="openloop:slo_ms=15,work_minstr=2",
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
#: The keys last moved at CACHE_FORMAT 11, when views began listing
#: only the threads alive in their window; the ``openloop`` entry's
#: scenario was re-spelled canonically then (``rate=80`` is the
#: default), which moved its label.
PINNED = {
    "default": (
        "40a8a9585680f592ee834321dbde5027e408ee69",
        "quad/MTMI/x8/smartbalance/seed=0",
    ),
    "seeds_faults_no_mitigations": (
        "736dcabb4a7b2dc70ecc34bbdd6f82e3187a896e",
        "hmp:6/Mix3/x2/gts/faults=sensor/seed=42",
    ),
    "adaptation_combined": (
        "cfdc2cfce52faf87e494c9acc61c20622de168e7",
        "quad/random/x6/smartbalance/faults=combined/seed=0",
    ),
    "two_level": (
        "47efa2e7b0a5839656c41509ceef4af0cd43d63e",
        "dvfsquad/MTMI/x8/smartbalance/gov=two_level/seed=0",
    ),
    "pinned": (
        "a39e0e7fe50ea61cd60878084a34a641fbce64f0",
        "dvfsquad/LTLI/x8/smartbalance/gov=pinned:1/seed=0",
    ),
    "openloop": (
        "d411882b79c90d110889cd11e961f64fe0348fe4",
        "biglittle/MTMI/x4/slo/scenario=openloop:slo_ms=15,"
        "work_minstr=2/seed=0",
    ),
    "barrier": (
        "838c02e39564ee80d6f8cea5fb239202559f993f",
        "biglittle/MTMI/x4/tpeq/scenario=barrier:groups=1,members=3,"
        "intervals=3/seed=0",
    ),
    "smt": (
        "6fd4a05d6da48b9ad937a29ee992435075e7a80e",
        "biglittle/bodytrack/x8/smartbalance/scenario=smt:cores=big/seed=0",
    ),
    "governor_scenario": (
        "b7d1cdbcfc11f7ae7c93903396b935064584988c",
        "dvfsquad/MTMI/x4/smartbalance/gov=two_level/scenario=openloop/seed=0",
    ),
    "config": (
        "98a5d0a109110086e683d82c8e149fb002c0e46c",
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
