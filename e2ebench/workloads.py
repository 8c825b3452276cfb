"""The benchmark's named workloads.

Each workload is one :class:`repro.runner.spec.RunSpec` shape.  A
benchmark invocation expands it into ``n_specs`` specs whose seeds are
derived from ``--seed``; averaging over several seeded instances keeps
the simulated energy efficiency (which is chaotic in the sensing-noise
seed on small platforms) steady from one ``--seed`` to the next.

This module imports nothing from ``repro`` or numpy: the driver reads
it before any BLAS thread pin could take effect.  Why each workload
exists is recorded in ``NOTES.md`` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``RunSpec`` keyword arguments shared by every instance.
    spec: dict = field(default_factory=dict)
    n_epochs: int = 8
    #: Seeded instances per invocation; each is run repeatedly.
    n_specs: int = 1

    def seeds(self, seed: int) -> "list[int]":
        """Per-instance simulation seeds for ``--seed`` (disjoint
        across ``--seed`` values, so no two invocations share one)."""
        return [seed * 100 + i for i in range(self.n_specs)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-hmp128",
            dict(workload="MTMI", platform="hmp:128", threads=256,
                 balancer="smartbalance"),
            n_epochs=8,
            n_specs=3,
        ),
        Workload(
            "vanilla-hmp64",
            dict(workload="MTMI", platform="hmp:64", threads=128,
                 balancer="vanilla"),
            n_epochs=8,
            n_specs=3,
        ),
        Workload(
            "governor-dvfsquad",
            dict(workload="MTMI", platform="dvfsquad", threads=8,
                 balancer="smartbalance", governor="two_level"),
            n_epochs=3,
            n_specs=6,
        ),
        Workload(
            "openloop-faults-biglittle",
            dict(workload="MTMI", platform="biglittle", threads=4,
                 balancer="smartbalance", scenario="openloop",
                 faults="combined", adaptation=True),
            n_epochs=50,
            n_specs=12,
        ),
    )
}
