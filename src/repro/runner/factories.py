"""Name → object resolution shared by the CLI and the sweep engine.

A :class:`~repro.runner.spec.RunSpec` describes a run entirely with
strings and scalars so it can be hashed, pickled to worker processes
and used as a cache key.  This module turns those strings back into
live objects: platforms, workloads and balancers.  The CLI re-exports
these resolvers, so ``python -m repro run --workload MTMI`` and a
``RunSpec(workload="MTMI")`` job resolve identically.
"""

from __future__ import annotations

from repro.hardware.features import BIG, HUGE, MEDIUM, SMALL
from repro.hardware.platform import (
    Platform,
    big_little_octa,
    build_platform,
    quad_hmp,
    scaled_hmp,
)
from repro.kernel.balancers.base import LoadBalancer, NullBalancer
from repro.kernel.balancers.gts import GtsBalancer
from repro.kernel.balancers.iks import IksBalancer
from repro.kernel.balancers.vanilla import VanillaBalancer
from repro.workload.parsec import BENCHMARKS, MIXES, benchmark, mix_threads
from repro.workload.synthetic import IMB_CONFIGS, imb_threads

def _hmp_preset(n_cores: int):
    def build() -> Platform:
        return scaled_hmp(n_cores)

    return build


def dvfs_quad() -> Platform:
    """The paper's quad HMP with one cluster (= one V/f knob) per type.

    The stock ``quad`` preset puts all four cores in one cluster, which
    gives a DVFS governor a single chip-wide knob; this variant is the
    same silicon with per-type clustering so the governor gets four
    independent ladders — the interesting co-optimisation topology.
    """
    return build_platform(
        [(HUGE, 1), (BIG, 1), (MEDIUM, 1), (SMALL, 1)],
        name="dvfs-quad",
        cluster_per_type=True,
    )


#: Platform presets reachable from the CLI and from RunSpecs.  The
#: ``hmp256``/``hmp512``/``hmp1024`` presets pin the Table-2-style
#: round-robin heterogeneous mixes used by the structure-of-arrays
#: kernel benchmarks (``benchmarks/bench_kernel.py``); they resolve
#: identically to ``hmp:<n>`` but are first-class names so sweeps and
#: the job service can validate them.
PLATFORMS = {
    "quad": quad_hmp,
    "biglittle": big_little_octa,
    "hmp256": _hmp_preset(256),
    "hmp512": _hmp_preset(512),
    "hmp1024": _hmp_preset(1024),
    "dvfsquad": dvfs_quad,
}

#: Balancer factories reachable from the CLI and from RunSpecs.
BALANCERS = {
    "none": NullBalancer,
    "vanilla": VanillaBalancer,
    "gts": GtsBalancer,
    "iks": IksBalancer,
}

#: Workload spec prefix for the seeded random thread sets used by the
#: resilience experiment and integration tests.
RANDOM_WORKLOAD = "random"

#: SmartBalance-pipeline balancers: the stock engine plus the
#: scenario-aware variants (repro.core.variants).  All three share the
#: predictor, so sweeps warm it whenever any of them is queued.
SMART_BALANCERS = ("smartbalance", "tpeq", "slo")


def _smart_balancer(
    name: str,
    mitigations: bool = True,
    adaptation: bool = False,
    governor: str = "fixed",
) -> LoadBalancer:
    # Imported lazily: training the default predictor takes a moment
    # and commands like `list` should stay instant.
    from repro.core.balancer import SmartBalance
    from repro.core.config import SmartBalanceConfig
    from repro.core.variants import SloAwareBalance, TpeqBalance

    config = SmartBalanceConfig(mitigations=mitigations, adaptation=adaptation)
    if governor != "fixed":
        from repro.governor import GovernorSmartBalance, parse_governor

        return GovernorSmartBalance(
            config=config, governor=parse_governor(governor)
        )
    classes = {
        "smartbalance": SmartBalance,
        "tpeq": TpeqBalance,
        "slo": SloAwareBalance,
    }
    return classes[name](config=config)


def make_platform(spec: str) -> Platform:
    """Resolve a platform spec: a preset name or ``hmp:<n>``."""
    check_platform(spec)
    if spec in PLATFORMS:
        return PLATFORMS[spec]()
    return scaled_hmp(int(spec.split(":", 1)[1]))


def check_platform(name: str) -> None:
    """Raise ``ValueError`` unless :func:`make_platform` resolves ``name``."""
    prefix, _, size = name.partition(":")
    if name not in PLATFORMS and not (
        prefix == "hmp" and size.isdigit() and int(size) >= 1
    ):
        raise ValueError(
            f"unknown platform {name!r}; use one of {sorted(PLATFORMS)} "
            "or hmp:<n>"
        )


def make_workload(spec: str, n_threads: int, seed: int = 0):
    """Resolve a workload spec: an IMB config, benchmark, mix name or
    ``random`` (a seeded random thread set)."""
    if spec in IMB_CONFIGS:
        return imb_threads(spec, n_threads, seed)
    if spec in BENCHMARKS:
        return benchmark(spec).threads(n_threads, seed)
    if spec in MIXES:
        return mix_threads(spec, max(n_threads, 1), seed)
    if spec == RANDOM_WORKLOAD:
        from repro.workload.generator import random_thread_set

        return random_thread_set(n_threads, seed=seed)
    raise ValueError(
        f"unknown workload {spec!r}; see `python -m repro list`"
    )


def catalogue() -> dict:
    """Machine-readable inventory of every resolvable name.

    The single source of truth shared by ``repro list --json``, the
    job-service API validation and the service client: anything listed
    here resolves through :func:`make_platform` /
    :func:`make_workload` / :func:`make_balancer`, and nothing else
    does (plus the ``hmp:<n>`` platform pattern, described under
    ``platform_patterns``).
    """
    from repro.faults import SCENARIOS
    from repro.fleet.faults import FLEET_SCENARIOS
    from repro.fleet.spec import POLICIES
    from repro.governor.config import GOVERNOR_STRATEGIES
    from repro.scenarios import scenario_catalogue

    return {
        "platforms": sorted(PLATFORMS),
        "platform_patterns": ["hmp:<n>"],
        "balancers": sorted(BALANCERS) + sorted(SMART_BALANCERS),
        "governors": sorted(set(GOVERNOR_STRATEGIES) - {"pinned"}),
        "governor_patterns": ["pinned:<level>"],
        "workloads": {
            "imb": list(IMB_CONFIGS),
            "benchmarks": sorted(BENCHMARKS),
            "mixes": sorted(MIXES),
            "special": [RANDOM_WORKLOAD],
        },
        "faults": list(SCENARIOS),
        "scenarios": scenario_catalogue(),
        "fleet": {
            "policies": list(POLICIES),
            "faults": list(FLEET_SCENARIOS),
        },
    }


def workload_names() -> "set[str]":
    """Every valid workload spec string (flat view of the catalogue)."""
    names = catalogue()["workloads"]
    return set().union(*names.values())


def check_workload(name: str) -> None:
    """Raise ``ValueError`` unless :func:`make_workload` resolves ``name``."""
    if name not in workload_names():
        raise ValueError(
            f"unknown workload {name!r}; see GET /v1/catalogue or "
            "`repro list --json`"
        )


def check_balancer(name: str) -> None:
    """Raise ``ValueError`` unless :func:`make_balancer` resolves ``name``."""
    if name not in BALANCERS and name not in SMART_BALANCERS:
        raise ValueError(
            f"unknown balancer {name!r}; use one of "
            f"{sorted(BALANCERS) + list(SMART_BALANCERS)}"
        )


def make_balancer(
    name: str,
    mitigations: bool = True,
    adaptation: bool = False,
    governor: str = "fixed",
) -> LoadBalancer:
    """Resolve a balancer name, including ``smartbalance``.

    ``adaptation`` switches on online model maintenance and ``governor``
    the joint placement + DVFS co-optimiser (both smartbalance only;
    the other balancers have neither a model nor an OPP search).
    """
    if governor != "fixed" and name != "smartbalance":
        raise ValueError(
            f"governor {governor!r} requires the smartbalance balancer, "
            f"got {name!r}"
        )
    if name in SMART_BALANCERS:
        return _smart_balancer(name, mitigations, adaptation, governor)
    check_balancer(name)
    return BALANCERS[name]()
