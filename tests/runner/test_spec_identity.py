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
#: The keys last moved at CACHE_FORMAT 12, when the baselines stopped
#: reading sensors.  At 11, when views began listing only the threads
#: alive in their window, the ``openloop`` entry's scenario was
#: re-spelled canonically (``rate=80`` is the default), which moved its
#: label.
PINNED = {
    "default": (
        "14287e8b3f4e3cd3ff730c66734ad2883bbf9f36",
        "quad/MTMI/x8/smartbalance/seed=0",
    ),
    "seeds_faults_no_mitigations": (
        "7d9a7d16d8632defcf3732eda65b37cdc1e6e8a3",
        "hmp:6/Mix3/x2/gts/faults=sensor/seed=42",
    ),
    "adaptation_combined": (
        "ba5ae5abe5a3929c382cb319186747ce1acd09ae",
        "quad/random/x6/smartbalance/faults=combined/seed=0",
    ),
    "two_level": (
        "95e183921007f600c5eb60de25e1e9197ac194d0",
        "dvfsquad/MTMI/x8/smartbalance/gov=two_level/seed=0",
    ),
    "pinned": (
        "161ad965b9774d376417867907bce68c478486f3",
        "dvfsquad/LTLI/x8/smartbalance/gov=pinned:1/seed=0",
    ),
    "openloop": (
        "51577de3a8f5461f2f500794c0a348ba44a13d81",
        "biglittle/MTMI/x4/slo/scenario=openloop:slo_ms=15,"
        "work_minstr=2/seed=0",
    ),
    "barrier": (
        "584595f81e601132bc0851b631aaff59a86253c3",
        "biglittle/MTMI/x4/tpeq/scenario=barrier:groups=1,members=3,"
        "intervals=3/seed=0",
    ),
    "smt": (
        "d5ed489d63ca9ba9a6ac4cdff10157619e42eead",
        "biglittle/bodytrack/x8/smartbalance/scenario=smt:cores=big/seed=0",
    ),
    "governor_scenario": (
        "29803adb2f5943cd728925906c256ae8d28b0bf2",
        "dvfsquad/MTMI/x4/smartbalance/gov=two_level/scenario=openloop/seed=0",
    ),
    "config": (
        "9d08a0fe7b39a0f3f512e8854b9065747d1a31dd",
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
