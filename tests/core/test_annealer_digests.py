"""Annealer bit-identity pins, end to end.

The goldens cover one platform and one workload, and the governor
tests only compare a run with itself, so a host-speed change to the
annealer (Algorithm 1's loop, its acceptance rule or the O(1)
evaluator) could move a decision unnoticed.  Each spec below runs
anneals that its digest depends on: the paper-scale smartbalance run,
all three governor strategies, the scenario-aware balancers, faults
with adaptation, and a hotplug run whose offline-core mask makes
``objective.allowed`` non-None.

The digests were recorded before the annealer's fast path landed and
must never move as a side effect of making it faster.
"""

import pytest

from repro.runner.engine import execute_spec
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
    "coupled_anneal": RunSpec(
        workload="MTMI", platform="dvfsquad", threads=8,
        governor="coupled_anneal", n_epochs=4, seed=1,
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
}

PINNED_DIGESTS = {
    "paper_hmp128": (
        "1fa0120e45bc7a576c1770c1b59e5a549f31f17810aa09077b703639252ceae9"
    ),
    "two_level": (
        "5670268fd8e5886f014067ce8791ff326ff8d21fcfdffd05fa49a0f8203e33cd"
    ),
    "coupled_anneal": (
        "4435412e5e87675f9fd3e6d66934fef6363008272d6592cabf46ea7d4570f1e9"
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
    "openloop_faults_adaptation": (
        "2d65f3e1d82b079eb3e85378db07adcc3d46c2955ddab4afb37877c3e08db984"
    ),
    "hotplug": (
        "a395f01db1d413f174d17d0adbcd01b6e008df52d20ee3e33488f717e6347242"
    ),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_digest_is_pinned(name):
    assert metrics_digest(execute_spec(SPECS[name])) == PINNED_DIGESTS[name]


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
