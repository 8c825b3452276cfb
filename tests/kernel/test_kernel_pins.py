"""Differential digest pins over the CI smoke specs and the kernel bench row.

Each spec runs on the SoA engine and on the reference kernel
(``reference_kernel.py``); the two :func:`metrics_digest` fingerprints
must be equal, and equal to the digest recorded when both engines
still lived in ``src/`` — so neither engine can drift, even in step.
The specs are the command lines the kernel, governor and scenario CI
smoke jobs run, the e2ebench openloop shape (pinned before the full
path began folding only what an event changed) and the 128-core
``balancer=none`` row of ``benchmarks/BENCH_kernel.json``.
"""

import pytest

from reference_kernel import reference_kernel
from repro.kernel.simulator import SimulationConfig, System
from repro.runner.engine import execute_spec
from repro.runner.factories import make_balancer, make_platform, make_workload
from repro.runner.serialize import metrics_digest
from repro.runner.spec import RunSpec

KERNEL_SMOKE = dict(workload="Mix1", threads=12, n_epochs=4, seed=3, faults="combined")
SCENARIO_SMOKE = dict(platform="biglittle", workload="MTMI", threads=4, n_epochs=4, seed=1)

#: name -> (spec, digest recorded from the two-engine simulator).
SPECS = {
    "kernel-hmp16": (
        RunSpec(platform="hmp:16", **KERNEL_SMOKE),
        "4fb377145dd4314d16c833b0a654f458fefe3a7a45c81f5d27130f1ac38d7e0d",
    ),
    "kernel-hmp256": (
        RunSpec(platform="hmp256", **KERNEL_SMOKE),
        "717d6b22fe8393756654b2b7bb060c9f4c32a1e3166b975b725de8bf58c54dcc",
    ),
    "scenario-openloop": (
        RunSpec(scenario="openloop:slo_ms=15,work_minstr=2", **SCENARIO_SMOKE),
        "021fa7137c2f92f1dd360ba784cca4408560392adbc5c7a7731fc2bb35e08f37",
    ),
    "scenario-barrier": (
        RunSpec(
            scenario="barrier:groups=1,members=3,intervals=3,interval_minstr=8",
            **SCENARIO_SMOKE,
        ),
        "bcf2f1e65452f4309053c73789c2726e02a44ca528f18e71c1f5a3bf4c2b3b32",
    ),
    "scenario-smt": (
        RunSpec(scenario="smt:cores=half,corunners=2", **SCENARIO_SMOKE),
        "a02065996e4487eaf8a20c4fed36d02f7aae3dc8a774431469a16a2661361d4e",
    ),
}

GOVERNOR_SMOKE = RunSpec(
    platform="dvfsquad", workload="MTMI", threads=8, n_epochs=6, seed=1,
    governor="two_level", faults="combined", adaptation=True,
)
#: Re-pinned when two_level began screening its OPP vectors.
GOVERNOR_DIGEST = "0acc6d50a77f40c524e81b08c30c3dd8f4d0ae07d7e7d161a6fa67be15936edd"

#: The e2ebench ``openloop-faults-biglittle`` shape, cut to six epochs:
#: request threads arrive and exit, hotplug and throttling move cores,
#: and the adaptation controller runs, so most periods take the full
#: path.
OPENLOOP_E2E = RunSpec(
    platform="biglittle", workload="MTMI", threads=4, balancer="smartbalance",
    scenario="openloop", faults="combined", adaptation=True, n_epochs=6,
    seed=100,
)
OPENLOOP_E2E_DIGEST = "dc73786cae63f4a1d7b6b30c3b49deabb8180c54ea71081237215ac6ea0afc64"

#: ``BENCH_kernel.json``'s 128-core ``none`` row: hmp:128, MTMI x 256,
#: seed 0, 5 epochs.
BENCH_128_DIGEST = "a8b113be3e215a611618b692e0a1ad99d7956a3b33d4cbb6c33453d1d3d00125"


def both_kernels(spec):
    """(SoA result, reference-kernel result) of one spec."""
    soa = execute_spec(spec)
    with reference_kernel():
        reference = execute_spec(spec)
    return soa, reference


@pytest.mark.parametrize("name", sorted(SPECS))
def test_ci_spec_digest_pinned(name):
    spec, pinned = SPECS[name]
    soa, reference = both_kernels(spec)
    assert metrics_digest(soa) == metrics_digest(reference) == pinned


def test_governor_faults_adaptation_digest_pinned():
    soa, reference = both_kernels(GOVERNOR_SMOKE)
    assert soa.governor["opp_changes"] >= 1, "governor never changed an OPP"
    assert metrics_digest(soa) == metrics_digest(reference) == GOVERNOR_DIGEST


def test_openloop_faults_adaptation_digest_pinned():
    soa, reference = both_kernels(OPENLOOP_E2E)
    assert soa.scenario["completed"] > 0, "no request completed"
    assert metrics_digest(soa) == metrics_digest(reference) == OPENLOOP_E2E_DIGEST


def test_bench_kernel_128_core_row_pinned():
    def run():
        system = System(
            make_platform("hmp:128"),
            make_workload("MTMI", 256, seed=0),
            make_balancer("none"),
            SimulationConfig(seed=0),
        )
        return system.run(n_epochs=5)

    soa = run()
    with reference_kernel():
        reference = run()
    assert metrics_digest(soa) == metrics_digest(reference) == BENCH_128_DIGEST
