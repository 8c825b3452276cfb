"""Configuration of the joint placement + DVFS governor.

The governor extends the paper's sense→predict→balance loop with a
per-cluster operating-point (OPP) decision: at every epoch it chooses
*(thread allocation, OPP vector)* jointly instead of balancing threads
over a fixed V/f point.  The strategy knob selects how that joint
search is performed; ``"fixed"`` disables the subsystem entirely and
reproduces the stock SmartBalance pipeline byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Strategy names the governor understands.  ``pinned`` is written as
#: ``pinned:<level>`` on the CLI (e.g. ``pinned:0`` clamps every
#: cluster to its lowest OPP; ``pinned:3`` with the 4-point ladder is
#: race-to-idle at nominal V/f).
GOVERNOR_STRATEGIES = ("fixed", "two_level", "pinned")

#: OPP ladder depth per cluster (levels 0..N_POINTS-1, ascending
#: frequency; the top level is the exact nominal core type).
N_POINTS = 4
#: Extra relative gain required *per changed cluster* before an OPP
#: switch is adopted — the hysteresis that stands in for the
#: transition cost (the ~50 us dead time is far below the 6 ms
#: period, so it is charged as decision friction, not as simulated
#: stall time; see docs/governor.md).
OPP_MIN_IMPROVEMENT = 0.02
#: Fraction of the full annealing budget each candidate OPP vector
#: gets in the two-level search's inner scoring pass.
INNER_ITERATION_FRACTION = 0.25
#: Ceiling on full-cartesian OPP enumeration in the two-level
#: search; above it only single-cluster deviations are scored.
MAX_ENUMERATION = 256
#: Inner anneals per two-level decision when more vectors than this
#: are enumerated: the incumbent vector plus the ``SCREEN_TOP - 1``
#: others under which the incumbent allocation scores best.  16 is the
#: measured knee: over 40 dvfsquad decisions (8 threads, 6 epochs:
#: HTHI/MTMI/LTLI at seeds 0-1, and MTMI with combined faults and
#: adaptation at seeds 1-2) the screened and the full search agreed on
#: 34, 37, 37 and 38 at 8, 16, 24 and 32.
SCREEN_TOP = 16


@dataclass(frozen=True)
class GovernorConfig:
    """Knobs of the joint (allocation, OPP) optimisation."""

    #: ``fixed`` | ``two_level`` | ``pinned``.
    strategy: str = "fixed"
    #: Target level for the ``pinned`` strategy (clamped to the ladder).
    pinned_level: Optional[int] = None

    def __post_init__(self) -> None:
        if self.strategy not in GOVERNOR_STRATEGIES:
            raise ValueError(
                f"strategy must be one of {GOVERNOR_STRATEGIES}, "
                f"got {self.strategy!r}"
            )
        if self.strategy == "pinned" and self.pinned_level is None:
            raise ValueError("pinned strategy requires pinned_level")
        if self.strategy != "pinned" and self.pinned_level is not None:
            raise ValueError(
                f"pinned_level needs the pinned strategy, got {self.strategy!r}"
            )
        if self.pinned_level is not None and self.pinned_level < 0:
            raise ValueError("pinned_level must be non-negative")

    @property
    def label(self) -> str:
        """Canonical spelling: the strategy name, or ``pinned:<level>``."""
        if self.strategy == "pinned":
            return f"pinned:{self.pinned_level}"
        return self.strategy


def parse_governor(spec: str) -> GovernorConfig:
    """Parse a CLI governor spec into a :class:`GovernorConfig`.

    Accepts a bare strategy name or ``pinned:<level>``.
    """
    spec = spec.strip()
    name, _, level = spec.partition(":")
    if name == "pinned":
        if not level:
            raise ValueError("pinned governor needs a level, e.g. pinned:0")
        try:
            return GovernorConfig(strategy="pinned", pinned_level=int(level))
        except ValueError as exc:
            raise ValueError(f"bad pinned level {level!r}: {exc}") from None
    if spec not in GOVERNOR_STRATEGIES:
        raise ValueError(
            f"unknown governor {spec!r}; use one of "
            f"{GOVERNOR_STRATEGIES} (pinned as pinned:<level>)"
        )
    return GovernorConfig(strategy=spec)
