"""Scenario string parsing and the family catalogue.

A scenario is named by a compact string — ``"openloop"``,
``"barrier:groups=3,members=2"``, ``"smt:cores=big,corunners=2"`` —
the same shape the fault layer uses for its named plans.  The string
is the *identity*: it lives verbatim in :class:`repro.runner.spec.RunSpec`
(so it hashes into the cache key) and resolves to a
:class:`ScenarioSpec` here.  :func:`parse_scenario` accepts any
spelling, but one scenario has one canonical string,
:attr:`ScenarioSpec.label`, and that is the only one a ``RunSpec``
takes.  ``"none"`` is the absence of a scenario and never reaches this
parser.

Three families (see ``docs/scenarios.md``):

* ``openloop`` — seeded open-loop request traffic: short-lived
  latency-SLO threads arrive mid-run on a Poisson / diurnal / spike
  process and their completion latencies become first-class metrics.
* ``barrier`` — barrier-synchronised thread groups (BSP-style): every
  member must reach interval ``k`` before any may start ``k+1``; the
  group's makespan is set by its slowest thread.
* ``smt`` — SMT-style core sharing: opted-in cores co-run their
  runnable threads with characteristics-driven interference and a
  doubled issue budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "SCENARIO_FAMILIES",
    "ScenarioSpec",
    "parse_scenario",
    "scenario_catalogue",
]

#: ``family -> {param: (parser, default)}``.  Every parameter a
#: scenario string may carry is declared here; unknown keys are a
#: :class:`ValueError` so a typo cannot silently run the default.
_FAMILY_PARAMS: "dict[str, dict[str, tuple]]" = {
    "openloop": {
        # Arrival pattern: poisson | diurnal | spike.
        "pattern": (str, "poisson"),
        # Mean arrival rate (requests per second of simulated time).
        "rate": (float, 80.0),
        # Latency SLO per request (milliseconds).
        "slo_ms": (float, 20.0),
        # Mean service demand per request (millions of instructions).
        "work_minstr": (float, 6.0),
        # Relative spread of per-request demand in [0, 1).
        "spread": (float, 0.5),
    },
    "barrier": {
        # Independent barrier groups.
        "groups": (int, 2),
        # Threads per group.
        "members": (int, 4),
        # Barrier intervals each member executes (the last barrier
        # coincides with exit).
        "intervals": (int, 6),
        # Instructions per member per interval (millions).
        "interval_minstr": (float, 40.0),
        # Member heterogeneity in [0, 1]: 0 = identical threads (no
        # stalls beyond placement skew), 1 = maximally spread phases.
        "imbalance": (float, 0.6),
    },
    "smt": {
        # Which cores co-run: all | big | half.
        "cores": (str, "all"),
        # Memory-bound background threads added to force co-residency.
        "corunners": (int, 4),
    },
}

#: Public family names, in documentation order.
SCENARIO_FAMILIES = tuple(_FAMILY_PARAMS)

_OPENLOOP_PATTERNS = ("poisson", "diurnal", "spike")
_SMT_CORE_SETS = ("all", "big", "half")


@dataclass(frozen=True)
class ScenarioSpec:
    """One parsed scenario: a family plus its resolved parameters."""

    family: str
    #: Fully-defaulted parameter mapping (every declared key present).
    params: "Mapping[str, object]"
    #: The string as given.
    text: str

    @property
    def label(self) -> str:
        """The canonical spelling: the family, then every non-default
        parameter in declaration order, each number in the shortest
        form that parses back to it (``rate=120``, not ``rate=120.0``
        or ``rate=1.2e2``)."""
        items = [
            f"{key}={_spell(self.params[key])}"
            for key, (_, default) in _FAMILY_PARAMS[self.family].items()
            if self.params[key] != default
        ]
        return f"{self.family}:{','.join(items)}" if items else self.family


def _spell(value: object) -> str:
    """``repr`` without its redundant parts: a float's ``.0`` tail and
    the ``+`` sign and leading zeros of its exponent."""
    if not isinstance(value, float):
        return str(value)
    mantissa, e, exponent = repr(value).partition("e")
    if mantissa.endswith(".0"):
        mantissa = mantissa[:-2]
    return f"{mantissa}e{int(exponent)}" if e else mantissa


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse ``"family"`` or ``"family:k=v,k2=v2"`` into a spec.

    Raises ``ValueError`` for unknown families, unknown or malformed
    parameters, and out-of-range values — loudly, because a scenario
    string is part of a run's cached identity.
    """
    if not text or text == "none":
        raise ValueError("parse_scenario() needs a real scenario, not 'none'")
    family, _, tail = text.partition(":")
    if family not in _FAMILY_PARAMS:
        raise ValueError(
            f"unknown scenario family {family!r}; "
            f"known: {', '.join(SCENARIO_FAMILIES)}"
        )
    declared = _FAMILY_PARAMS[family]
    params: "dict[str, object]" = {k: d for k, (_, d) in declared.items()}
    if tail:
        for item in tail.split(","):
            key, sep, raw = item.partition("=")
            if not sep or not key or not raw:
                raise ValueError(
                    f"malformed scenario parameter {item!r} in {text!r} "
                    "(expected key=value)"
                )
            if key not in declared:
                raise ValueError(
                    f"unknown parameter {key!r} for scenario family "
                    f"{family!r}; known: {', '.join(declared)}"
                )
            cast = declared[key][0]
            try:
                params[key] = cast(raw)
            except ValueError:
                raise ValueError(
                    f"parameter {key}={raw!r} in {text!r} is not a valid "
                    f"{cast.__name__}"
                ) from None
    _validate(family, params, text)
    return ScenarioSpec(family=family, params=params, text=text)


def _validate(family: str, params: "dict[str, object]", text: str) -> None:
    # NaN compares false against every bound below, and inf passes
    # ``> 0``; neither is a rate, a work size or a latency.
    for key, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} must be finite in {text!r}")

    def positive(key: str) -> None:
        if params[key] <= 0:  # type: ignore[operator]
            raise ValueError(f"{key} must be positive in {text!r}")

    if family == "openloop":
        if params["pattern"] not in _OPENLOOP_PATTERNS:
            raise ValueError(
                f"openloop pattern must be one of {_OPENLOOP_PATTERNS}, "
                f"got {params['pattern']!r}"
            )
        for key in ("rate", "slo_ms", "work_minstr"):
            positive(key)
        if not 0.0 <= float(params["spread"]) < 1.0:
            raise ValueError(f"spread must be in [0, 1) in {text!r}")
    elif family == "barrier":
        for key in ("groups", "members", "intervals", "interval_minstr"):
            positive(key)
        if not 0.0 <= float(params["imbalance"]) <= 1.0:
            raise ValueError(f"imbalance must be in [0, 1] in {text!r}")
    elif family == "smt":
        if params["cores"] not in _SMT_CORE_SETS:
            raise ValueError(
                f"smt cores must be one of {_SMT_CORE_SETS}, "
                f"got {params['cores']!r}"
            )
        if int(params["corunners"]) < 0:  # type: ignore[arg-type]
            raise ValueError(f"corunners must be >= 0 in {text!r}")


def scenario_catalogue() -> dict:
    """Machine-readable inventory for ``repro list --json``."""
    return {
        "families": list(SCENARIO_FAMILIES),
        "patterns": ["<family>:<key>=<value>,..."],
        "params": {
            family: {key: default for key, (_, default) in declared.items()}
            for family, declared in _FAMILY_PARAMS.items()
        },
    }
