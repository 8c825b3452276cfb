"""Hashable run descriptions for the parallel sweep engine.

A :class:`RunSpec` pins down one simulation completely — platform,
workload, balancer, scale, seeds, fault scenario and simulator knobs —
using only strings and scalars, so it can be

* **hashed** into a stable cache key (:meth:`RunSpec.spec_key`) that
  also folds in the package version and the full
  :class:`~repro.kernel.simulator.SimulationConfig` contents, making
  stale cache hits after a config or code change impossible;
* **pickled** across a ``multiprocessing`` pool boundary;
* **compared** for deduplication when several experiments request the
  same run inside one sweep.

Each field also carries a :class:`Knob` descriptor, which makes the
dataclass the single table of run knobs: the CLI flags, the job-service
validation and payloads, the canonical form and the label are all
generated from it.

Per-job seeds for replicated sweeps derive from a base seed and the
spec identity (:func:`derive_seed`): jobs are decorrelated from each
other yet fully reproducible, independent of worker scheduling order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import MISSING, dataclass, field
from typing import Any, Callable, Optional, Tuple, get_type_hints

from repro.faults import SCENARIOS as FAULT_SCENARIOS
from repro.kernel.simulator import SimulationConfig
from repro.runner.factories import check_balancer, check_platform, check_workload

#: Bumped whenever the cached result layout changes shape; part of the
#: cache key, so old cache files simply miss instead of misparsing.
#: 4: ResilienceStats grew the adaptation counters and RunSpec the
#: ``adaptation`` field.
#: 5: SimulationConfig grew the ``kernel`` knob (structure-of-arrays
#: vs reference engine) and the reference kernel's per-core
#: instruction accumulation was restructured (same totals, different
#: float association), so pre-SoA cache entries are stale.
#: 6: RunSpec grew the ``governor`` field and RunResult the optional
#: ``governor`` stats dict.
#: 7: RunSpec grew the ``scenario`` field and RunResult the optional
#: ``scenario`` stats dict (repro.scenarios).
#: 8: SimulationConfig lost the ``kernel`` knob (the structure-of-arrays
#: engine is the only kernel), so the config fingerprint changed shape;
#: simulated results are unchanged.
#: 9: SmartBalance and its variants decide once per
#: ``SimulationConfig.periods_per_epoch`` (L) instead of every 10
#: periods, so their cached runs at L != 10 are stale; runs at L = 10
#: are unchanged.
#: 10: the ``two_level`` governor screens its OPP vectors and anneals
#: only the best ``SCREEN_TOP``, so governed decisions can differ.
#: 11: a view lists only the threads alive in its window and hotplug
#: moves only arrived, live threads, so runs whose threads exit or
#: arrive (the openloop and barrier scenarios) can differ.
#: 12: a baseline (vanilla, GTS, IKS) reads no sensors, so its faulted
#: runs no longer deliver sensor or counter faults and their resilience
#: counts differ; clean runs are unchanged.
CACHE_FORMAT = 12


def _code_version() -> str:
    """The package version folded into every cache key."""
    import repro

    return repro.__version__


def config_fingerprint(config: SimulationConfig) -> dict:
    """Canonical JSON-ready view of a :class:`SimulationConfig`.

    ``seed`` and ``faults`` are excluded: both are owned by the
    :class:`RunSpec` (the seed is a spec field, faults are named
    scenarios regenerated at execution time).  Everything else — epoch
    timing, noise models, OS noise, thermal flag — participates, so
    *any* changed field changes the fingerprint and therefore the
    cache key.
    """
    data = dataclasses.asdict(config)
    data.pop("seed", None)
    data.pop("faults", None)
    return data


def stable_hash(payload: dict, length: int = 40) -> str:
    """Deterministic hex digest of a JSON-serialisable payload.

    ``json.dumps(sort_keys=True)`` gives a canonical byte string
    (Python float repr is shortest-round-trip, hence stable), and
    SHA-256 — unlike the builtin ``hash`` — does not vary with
    ``PYTHONHASHSEED`` or the process.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:length]


class SpecError(ValueError):
    """A :class:`RunSpec` field holds a value no run can use."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(message)
        self.field = field_name


@dataclass(frozen=True)
class Knob:
    """How one :class:`RunSpec` field shows up outside Python.

    The CLI flags, the job-service validation and payloads, the hashed
    identity and the label are all generated from these descriptors,
    so a new run knob is one annotated field and nothing else.
    """

    #: CLI spelling; ``None`` keeps the field off the command line.  A
    #: boolean flag spelled ``--no-<x>`` stores ``False``; any other
    #: boolean flag gets the ``--x``/``--no-x`` pair.
    flag: Optional[str] = None
    #: Subcommands that carry the flag.
    commands: Tuple[str, ...] = ("run", "submit", "compare")
    #: CLI default where it differs from the spec default (``None``:
    #: the same).
    cli_default: Any = None
    help: Optional[str] = None
    metavar: Optional[str] = None
    #: ``check(name, value)`` raises ``ValueError`` for an unusable
    #: value; run at construction for every non-default value.  Checks
    #: import their parsers lazily to keep ``import repro.runner`` light.
    check: Optional[Callable[[str, Any], None]] = None
    #: Catalogue membership ``known(value)``, raising ``ValueError``:
    #: the job service checks it before queueing and the factories
    #: refuse the same names at resolve time.  Not run at construction,
    #: so a spec naming an unknown workload stays constructible.
    known: Optional[Callable[[Any], None]] = None
    #: Closed set of names: argparse choices and service validation.
    choices: Tuple[str, ...] = ()
    #: A non-default value needs ``balancer="smartbalance"``.
    smart_only: bool = False
    #: ``(position, format)`` of the field's part of :meth:`RunSpec.label`.
    label: Optional[Tuple[int, str]] = None
    #: Leave the label part out while the field holds its default.
    label_when_set: bool = False


def knob(default: Any = MISSING, *, default_factory: Any = MISSING, **kwargs):
    """A dataclass field carrying its :class:`Knob` descriptor."""
    return field(default=default, default_factory=default_factory,
                 metadata={"knob": Knob(**kwargs)})


def _at_least_one(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _governor(name: str, value: str) -> None:
    from repro.governor.config import parse_governor

    label = parse_governor(value).label
    if value != label:
        raise ValueError(f"write governor {value!r} as {label!r}")


def _scenario(name: str, value: str) -> None:
    from repro.scenarios import parse_scenario

    label = parse_scenario(value).label
    if value != label:
        raise ValueError(f"write scenario {value!r} as {label!r}")


def _no_fault_plan(name: str, config: SimulationConfig) -> None:
    if config.faults is not None:
        raise ValueError(
            "RunSpec.config must not embed a FaultPlan; name the "
            "scenario via RunSpec.faults so the spec stays hashable"
        )


@dataclass(frozen=True)
class RunSpec:
    """One (platform, workload, balancer, scale, seed, faults) job.

    This class is the knob table: each field's :class:`Knob` generates
    its ``python -m repro run``/``submit``/``compare`` flag, its
    job-service validation and its part of the identity, and the CLI
    executes through :func:`repro.runner.engine.execute_spec`, so a spec
    and the equivalent command line produce identical runs.
    """

    #: Workload name: IMB config, PARSEC benchmark, mix or ``random``.
    workload: str = knob(flag="--workload", known=check_workload,
                         label=(1, "{}"))
    platform: str = knob("quad", flag="--platform", known=check_platform,
                         label=(0, "{}"))
    threads: int = knob(8, flag="--threads", check=_at_least_one,
                        label=(2, "x{}"))
    balancer: str = knob("smartbalance", flag="--balancer",
                         commands=("run", "submit"), known=check_balancer,
                         label=(3, "{}"))
    n_epochs: int = knob(12, flag="--epochs", cli_default=40,
                         metavar="EPOCHS", check=_at_least_one)
    #: Simulation (sensing-noise) seed.
    seed: int = knob(0, flag="--seed", label=(7, "seed={}"))
    #: Workload instantiation seed; ``None`` follows ``seed``.
    workload_seed: Optional[int] = knob(None)
    #: Named fault scenario from :mod:`repro.faults`; ``None`` = clean.
    faults: Optional[str] = knob(
        None, flag="--faults", choices=tuple(FAULT_SCENARIOS),
        help="inject a named fault scenario into the run",
        label=(6, "faults={}"), label_when_set=True,
    )
    #: Fault-schedule seed; ``None`` follows ``seed``.
    fault_seed: Optional[int] = knob(
        None, flag="--fault-seed",
        help="seed of the fault schedule (default: --seed)",
    )
    #: SmartBalance resilience defences on/off (smartbalance only).
    mitigations: bool = knob(
        True, flag="--no-mitigations", commands=("run", "submit"),
        help="ablate every resilience defence (smartbalance only)",
    )
    #: Online model maintenance on/off (smartbalance only; see
    #: :mod:`repro.adaptation`).  Off keeps runs byte-identical to
    #: builds without the adaptation subsystem.
    adaptation: bool = knob(
        False, flag="--adapt", commands=("run", "submit"),
        help="online model maintenance: drift-triggered RLS re-fits "
        "with registry rollback (smartbalance only; default off)",
    )
    #: DVFS governor strategy (smartbalance only): ``"fixed"`` (no
    #: governor — byte-identical to pre-governor builds), ``"two_level"``
    #: or ``"pinned:<level>"``.  Parsed by
    #: :func:`repro.governor.parse_governor`; only the canonical
    #: spelling (:attr:`repro.governor.GovernorConfig.label`) is a
    #: valid value, so one governor has one spec key.
    governor: str = knob(
        "fixed", flag="--governor", commands=("run", "submit"),
        metavar="STRATEGY", check=_governor, smart_only=True,
        help="joint placement + per-cluster DVFS co-optimisation "
        "(smartbalance only): fixed (off, default), two_level or "
        "pinned:<level>",
        label=(4, "gov={}"), label_when_set=True,
    )
    #: Workload scenario from :mod:`repro.scenarios`: ``"none"`` (no
    #: scenario — byte-identical to pre-scenario builds) or a scenario
    #: string like ``"openloop:rate=120"``, ``"barrier:groups=2"``,
    #: ``"smt:cores=big"``.  Parsed by
    #: :func:`repro.scenarios.parse_scenario`.
    scenario: str = knob(
        "none", flag="--scenario", commands=("run", "submit"),
        metavar="SPEC", check=_scenario,
        help="workload scenario (docs/scenarios.md): none (default), "
        "openloop[:rate=..,slo_ms=..], barrier[:groups=..,members=..] "
        "or smt[:cores=..,corunners=..]",
        label=(5, "scenario={}"), label_when_set=True,
    )
    #: Simulator knobs.  ``config.seed`` and ``config.faults`` are
    #: ignored in favour of the spec's own fields.
    config: SimulationConfig = knob(default_factory=SimulationConfig,
                                    check=_no_fault_plan)

    def __post_init__(self) -> None:
        # Validate eagerly so a bad value fails at spec construction,
        # not minutes later inside a worker.
        for f, spec_knob in KNOBS:
            value = getattr(self, f.name)
            check_type(f.name, value)
            if value == f.default:
                continue
            if spec_knob.check is not None:
                try:
                    spec_knob.check(f.name, value)
                except ValueError as exc:
                    raise SpecError(f.name, str(exc)) from None
            if spec_knob.smart_only and self.balancer != "smartbalance":
                raise SpecError(
                    f.name,
                    f"{f.name} {value!r} requires the smartbalance "
                    f"balancer, got {self.balancer!r}",
                )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def canonical(self) -> dict:
        """JSON-ready canonical form (the hashed identity)."""
        data = {f.name: getattr(self, f.name) for f, _ in KNOBS}
        data["config"] = config_fingerprint(self.config)
        return data

    def spec_key(self) -> str:
        """Stable cache key: spec identity + config + code version."""
        return stable_hash(
            {
                "format": CACHE_FORMAT,
                "code": _code_version(),
                "spec": self.canonical(),
            }
        )

    def label(self) -> str:
        """Compact human-readable id for logs and progress lines."""
        parts = []
        for f, spec_knob in KNOBS:
            value = getattr(self, f.name)
            if spec_knob.label is None or (
                spec_knob.label_when_set and value == f.default
            ):
                continue
            position, fmt = spec_knob.label
            parts.append((position, fmt.format(value)))
        return "/".join(part for _, part in sorted(parts))

    # ------------------------------------------------------------------
    # Derived seeds
    # ------------------------------------------------------------------

    def with_derived_seed(self, base_seed: int) -> "RunSpec":
        """The same job re-seeded as ``hash(base_seed, spec)``.

        Used by replicated sweeps: every job draws an independent,
        reproducible seed that depends only on the base seed and the
        job's identity — never on pool scheduling order.
        """
        return dataclasses.replace(self, seed=derive_seed(base_seed, self))


#: ``(field, Knob)`` per :class:`RunSpec` field, in declaration order.
#: A field declared without a :class:`Knob` fails right here.
KNOBS = tuple((f, f.metadata["knob"]) for f in dataclasses.fields(RunSpec))

_FIELD_TYPES = get_type_hints(RunSpec)


def knob_type(name: str) -> "tuple[type, bool]":
    """``(base type, nullable)`` of a :class:`RunSpec` field, e.g.
    ``(int, True)`` for ``fault_seed: Optional[int]``."""
    hint = _FIELD_TYPES[name]
    args = getattr(hint, "__args__", (hint,))
    return args[0], type(None) in args


#: How each field type reads in an error message: the JSON names the
#: job service's clients know.
TYPE_NAMES = {
    int: "an integer",
    str: "a string",
    bool: "a boolean",
    SimulationConfig: "a SimulationConfig",
}


def check_type(name: str, value: object) -> None:
    """Raise :class:`SpecError` unless ``value`` has field ``name``'s
    type.  A ``bool`` is not an integer, and only a nullable field
    takes ``None``."""
    base, nullable = knob_type(name)
    if nullable and value is None:
        return
    if not isinstance(value, base) or (base is not bool and isinstance(value, bool)):
        raise SpecError(
            name,
            f"{name} must be {TYPE_NAMES[base]}"
            f"{' or null' if nullable else ''}, got {value!r}",
        )


def derive_seed(base_seed: int, spec: RunSpec) -> int:
    """Per-job seed ``hash(base_seed, spec)`` (31-bit, deterministic).

    The spec's own ``seed`` field is excluded from the hash so the
    derivation is idempotent: re-deriving from an already-derived spec
    yields the same seed.
    """
    identity = spec.canonical()
    identity.pop("seed")
    digest = hashlib.sha256(
        json.dumps(
            {"base_seed": base_seed, "spec": identity},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF
