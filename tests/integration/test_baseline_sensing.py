"""Baselines read no sensors: what their runs keep and what they lose.

Vanilla, GTS and IKS decide from task weight and PELT utilisation, as
Linux CFS and ARM GTS do, so the simulator builds their views without
the PMU part: no noise draw, no sensor fault, no counter, rate or power
record.  The digests below were recorded while every view still carried
that part.

* A clean baseline run keeps its digest: the sensing RNG feeds nothing
  but the PMU part, and no baseline reads it.  The specs cover what
  rides on the view's OS part: scenario extras (openloop, barrier),
  kernel threads and the thermal sensor.
* A faulted baseline run keeps every simulated value (instructions,
  energy, migrations, epoch records, J_E and the non-sensor fault
  tallies) and loses only its sensor-side injections, which no longer
  reach a register anybody reads.
"""

import pytest

from repro.kernel.simulator import SimulationConfig
from repro.runner.engine import execute_spec
from repro.runner.serialize import metrics_dict, metrics_digest
from repro.runner.spec import RunSpec, stable_hash

HMP64 = dict(workload="MTMI", platform="hmp:64", threads=128, balancer="vanilla")
BIGLITTLE = dict(workload="MTMI", platform="biglittle", threads=4, n_epochs=8, seed=1)
QUAD = dict(workload="MTMI", platform="quad", threads=6, n_epochs=6, seed=3)

#: name -> (spec, metrics digest recorded while baseline views were sensed).
CLEAN = {
    **{
        f"vanilla-hmp64-s{seed}": (
            RunSpec(**HMP64, n_epochs=8, seed=seed),
            digest,
        )
        for seed, digest in (
            (100, "195b68cf96ddac39fd281b367edfd2770e8b6efdc2a60b8fc8c43a9168e58755"),
            (101, "596c6455465573aee47bb2251239aad96a11e990147e75ff541eccec8ddbc5fa"),
            (102, "072d99cf8525a4c41b70f9b2d86c2c931c3af1e84855fb15f84e88899165d7d8"),
        )
    },
    "iks-biglittle": (
        RunSpec(
            workload="MTMI", platform="biglittle", threads=8, balancer="iks",
            n_epochs=40, seed=100,
        ),
        "e5eac34db5637aa6a712b874dbb46465b9fd28fc4637a5743192134862d3312c",
    ),
    "gts-openloop": (
        RunSpec(balancer="gts", scenario="openloop", **BIGLITTLE),
        "95ee4896a2e66a9351a59bcd8de72cb36232cf7e32066cbe1d8cbd43869b268a",
    ),
    "vanilla-openloop": (
        RunSpec(balancer="vanilla", scenario="openloop", **BIGLITTLE),
        "6de4eb600663d0e14a39261ed0f05fee350ef925acb07a838d37305f0e94ac90",
    ),
    "gts-barrier": (
        RunSpec(balancer="gts", scenario="barrier", **BIGLITTLE),
        "f453f8fb1ee3777875b555d2c2b97553a23e4a2582df6d4d6c7458fba4abf412",
    ),
    "vanilla-barrier": (
        RunSpec(balancer="vanilla", scenario="barrier", **BIGLITTLE),
        "a94ebe01fd826effc5170c1dbc1ab40e44d0ac0fbd31f555035954d36818f581",
    ),
    "vanilla-os-noise": (
        RunSpec(
            balancer="vanilla", config=SimulationConfig(os_noise_tasks=4), **QUAD
        ),
        "21ba42e6131369901f9fbfa2ddbe94989e56273f9bc14475aa4861b4d3ab0394",
    ),
    "vanilla-thermal": (
        RunSpec(
            workload="MTMI", platform="biglittle", threads=8, balancer="vanilla",
            n_epochs=6, seed=3, config=SimulationConfig(thermal_enabled=True),
        ),
        "48eab554037bc542bd6e28a8713d7582322a5afaf48382b7ead7cf4a80d57f41",
    ),
}


@pytest.mark.parametrize("name", sorted(CLEAN))
def test_clean_baseline_digest_pinned(name):
    spec, pinned = CLEAN[name]
    assert metrics_digest(execute_spec(spec)) == pinned


#: The injections that act on a sensor reading or a counter register.
SENSOR_SIDE = (
    "sensor_dropouts",
    "sensor_stuck",
    "sensor_spikes",
    "counter_wraps",
    "counter_saturations",
)


def simulated_digest(result) -> str:
    """Digest of a run's metrics without its sensor-side injection
    counts: every simulated value and every other resilience tally."""
    data = metrics_dict(result)
    for name in SENSOR_SIDE:
        data["resilience"].pop(name)
    return stable_hash(data, length=64)


#: (balancer, fault preset) -> simulated_digest recorded while baseline
#: views were sensed and fault-corrupted.  Each run then took 428
#: dropouts, 1007 stuck readings and 435 spikes under ``sensor`` and
#: ``combined``, and 56-67 counter wraps under ``combined`` (a spiked
#: register wraps at 26 bits).  ``counter`` alone delivered nothing: a
#: baseline's one-period window never fills a 26-bit counter, so its
#: runs equal the ``sensor`` ones.
FAULTED = {
    ("vanilla", "sensor"): (
        "82f91d84e33d5581527bb87925089bd48a301a3ad4094d97a9b0e0f851c3d824"
    ),
    ("vanilla", "counter"): (
        "82f91d84e33d5581527bb87925089bd48a301a3ad4094d97a9b0e0f851c3d824"
    ),
    ("vanilla", "combined"): (
        "d569c14c7930f324e1165789a6e7b9f3a2c65c861d4c66e7d6bad3602f74874a"
    ),
    ("gts", "sensor"): (
        "e4351980040c5c941f63aed53660486f471c4df071197c469dfcd3ebcda4da8b"
    ),
    ("gts", "counter"): (
        "e4351980040c5c941f63aed53660486f471c4df071197c469dfcd3ebcda4da8b"
    ),
    ("gts", "combined"): (
        "b343799e194ef5d22f094ab9123ba4aaf819857309f063f2bb0cac375ab24f2b"
    ),
    ("iks", "sensor"): (
        "c9566c7ccc931768fced861c15de9f05f1e3f605fd6f4d7d4a6f9ac8051bd197"
    ),
    ("iks", "counter"): (
        "c9566c7ccc931768fced861c15de9f05f1e3f605fd6f4d7d4a6f9ac8051bd197"
    ),
    ("iks", "combined"): (
        "f07e318a9e8dacfcf9e59d195fc10652d07b746e12221c781c38d57822a9b4ed"
    ),
}


@pytest.mark.parametrize(
    "balancer,preset", sorted(FAULTED), ids=[f"{b}-{p}" for b, p in sorted(FAULTED)]
)
def test_faulted_baseline_keeps_simulation_and_loses_sensor_faults(
    balancer, preset
):
    result = execute_spec(
        RunSpec(
            workload="MTMI", platform="biglittle", threads=8, balancer=balancer,
            faults=preset, n_epochs=12, seed=5,
        )
    )
    assert simulated_digest(result) == FAULTED[balancer, preset]
    injected = {name: getattr(result.resilience, name) for name in SENSOR_SIDE}
    assert injected == dict.fromkeys(SENSOR_SIDE, 0)
