"""Annealer bit-identity pins, end to end.

The goldens cover one platform and one workload, and the governor
tests only compare a run with itself, so a host-speed change to the
annealer (Algorithm 1's loop, its acceptance rule or the O(1)
evaluator) could move a decision unnoticed.  Each spec below runs
anneals that its digest depends on: the paper-scale smartbalance run,
both governor strategies, the scenario-aware balancers, faults
with adaptation (stock and under ``two_level``), and a hotplug run
whose offline-core mask makes ``objective.allowed`` non-None.  The
thermal pins below cover the balance phase's thermal weights.

The digests were recorded before the annealer's fast path landed and
must never move as a side effect of making it faster.
"""

import pytest

from repro.core.balancer import SmartBalance
from repro.core.config import SmartBalanceConfig
from repro.governor import GovernorSmartBalance, parse_governor
from repro.kernel.simulator import SimulationConfig, System
from repro.runner.engine import execute_spec
from repro.runner.factories import dvfs_quad, make_workload
from repro.runner.serialize import metrics_digest
from repro.runner.spec import RunSpec

SPECS = {
    "paper_hmp128": RunSpec(
        workload="MTMI", platform="hmp:128", threads=256, n_epochs=3, seed=1,
    ),
    "two_level": RunSpec(
        workload="MTMI", platform="dvfsquad", threads=8, governor="two_level",
        n_epochs=3, seed=1,
    ),
    "pinned": RunSpec(
        workload="MTMI", platform="dvfsquad", threads=8, governor="pinned:1",
        n_epochs=4, seed=1,
    ),
    "tpeq_barrier": RunSpec(
        workload="MTMI", platform="biglittle", threads=4, balancer="tpeq",
        scenario="barrier", n_epochs=8, seed=1,
    ),
    "slo_openloop": RunSpec(
        workload="MTMI", platform="biglittle", threads=4, balancer="slo",
        scenario="openloop", n_epochs=8, seed=1,
    ),
    "openloop_faults_adaptation": RunSpec(
        workload="MTMI", platform="biglittle", threads=4, scenario="openloop",
        faults="combined", adaptation=True, n_epochs=12, seed=1,
    ),
    "hotplug": RunSpec(
        workload="MTMI", platform="biglittle", threads=6, faults="hotplug",
        n_epochs=12, seed=1,
    ),
    "two_level_faults_adaptation": RunSpec(
        workload="MTMI", platform="dvfsquad", threads=8, governor="two_level",
        faults="combined", adaptation=True, n_epochs=6, seed=1,
    ),
}

PINNED_DIGESTS = {
    "paper_hmp128": (
        "1fa0120e45bc7a576c1770c1b59e5a549f31f17810aa09077b703639252ceae9"
    ),
    "two_level": (
        "5670268fd8e5886f014067ce8791ff326ff8d21fcfdffd05fa49a0f8203e33cd"
    ),
    "pinned": (
        "c1b56a6364b2c87236891bef8add51cfa6809349f580b682f13c19fd68280076"
    ),
    "tpeq_barrier": (
        "5e84b908c4364f66cba4d2a144c117ef0c969e9d60765efa19aa99af3af1231a"
    ),
    "slo_openloop": (
        "ac478ffb960e225a78da5fcab158736f381d54ce0e4900b3fdc865ad94e8db36"
    ),
    # Re-pinned when views began listing only the threads alive in
    # their window and hotplug stopped migrating pending and exited
    # threads: the fault stream no longer draws for dead threads'
    # registers (J_E 8.5714e8 -> 8.3947e8, 25 -> 13 migrations).
    "openloop_faults_adaptation": (
        "839cb73185f869c70f5795f590fb73d5f9564d1e0838735b47cfc2f25fad20cd"
    ),
    "hotplug": (
        "a395f01db1d413f174d17d0adbcd01b6e008df52d20ee3e33488f717e6347242"
    ),
    # Re-pinned when two_level began screening its OPP vectors: the
    # epoch-3 decision changes (J_E 1.3586e9 -> 1.3465e9).
    "two_level_faults_adaptation": (
        "0acc6d50a77f40c524e81b08c30c3dd8f4d0ae07d7e7d161a6fa67be15936edd"
    ),
}

#: Thermal-aware balancing on a thermally simulated dvfsquad.  The
#: default 75 °C knee never binds here (cores peak near 48-53 °C), so
#: the knee is lowered until the thermal weights move decisions.
THERMAL_KNEE = {"thermal_knee_c": 45.5, "thermal_zero_c": 55.0}

THERMAL_DIGESTS = {
    "fixed": (
        "5e3a1be67c14b6e5ba4b478fd6090b49d84a642e19303383041742abe0267f29"
    ),
    "two_level": (
        "c0b478910a6ec8406ce7ea953810261c45fe4efd44354924760744a4a30b9719"
    ),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_digest_is_pinned(name):
    assert metrics_digest(execute_spec(SPECS[name])) == PINNED_DIGESTS[name]


def thermal_run(governor: str, thermal_aware: bool = True):
    config = SmartBalanceConfig(thermal_aware=thermal_aware, **THERMAL_KNEE)
    if governor == "fixed":
        balancer = SmartBalance(config=config)
    else:
        balancer = GovernorSmartBalance(
            config=config, governor=parse_governor(governor)
        )
    system = System(
        dvfs_quad(), make_workload("MTMI", 8, seed=1), balancer,
        SimulationConfig(seed=1, thermal_enabled=True),
    )
    return system.run(n_epochs=4)


@pytest.mark.parametrize("governor", sorted(THERMAL_DIGESTS))
def test_thermal_digest_is_pinned(governor):
    assert metrics_digest(thermal_run(governor)) == THERMAL_DIGESTS[governor]


def test_thermal_knee_binds():
    """The thermal pins only cover the weights if they change a decision."""
    assert metrics_digest(thermal_run("fixed")) != metrics_digest(
        thermal_run("fixed", thermal_aware=False)
    )


def test_hotplug_spec_anneals_under_an_affinity_mask(monkeypatch):
    """The hotplug pin only covers the masked evaluator path if some
    anneal in it really sees ``objective.allowed``."""
    from repro.core import balancer

    masked = []
    original = balancer.anneal

    def spy(objective, initial, *args, **kwargs):
        masked.append(objective.allowed is not None)
        return original(objective, initial, *args, **kwargs)

    monkeypatch.setattr(balancer, "anneal", spy)
    execute_spec(SPECS["hotplug"])
    assert any(masked)
