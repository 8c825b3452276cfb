"""Joint thread-placement + per-cluster DVFS co-optimisation.

The governor tier extends SmartBalance's sense→predict→balance epoch
loop to choose *(thread allocation, OPP vector)* jointly: the Eq. 8/9
predictors are frequency-conditioned onto every rung of each cluster's
OPP ladder via exact V/f scaling laws, and the Eq. 10/11 objective is
maximised over the joint space by ``two_level``: an outer search over
OPP vectors around the stock annealer (``pinned`` is its static
baseline).

``governor="fixed"`` (the default everywhere) disables the subsystem:
runs are byte-identical to the pre-governor pipeline.
"""

from repro.governor.balancer import GovernorSmartBalance
from repro.governor.config import (
    GOVERNOR_STRATEGIES,
    GovernorConfig,
    parse_governor,
)
from repro.governor.ladder import ClusterLadder, OppChange, build_ladders

__all__ = [
    "GOVERNOR_STRATEGIES",
    "ClusterLadder",
    "GovernorConfig",
    "GovernorSmartBalance",
    "OppChange",
    "build_ladders",
    "parse_governor",
]
