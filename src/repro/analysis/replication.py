"""Multi-seed replication: mean, deviation and confidence intervals.

The paper reports single-run numbers; a reproduction should show how
stable its own numbers are across sensing-noise seeds and workload
jitter.  :func:`replicate` runs any seed-parameterised measurement
several times and reports summary statistics with a bootstrap
confidence interval; the ``ext_replicated`` experiment applies it to
the balancer-improvement measurements the figures are built from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.stats import mean, stdev


@dataclass(frozen=True)
class Replication:
    """Summary of one replicated measurement."""

    values: tuple[float, ...]
    mean: float
    stdev: float
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def n(self) -> int:
        return len(self.values)

    def render(self, unit: str = "") -> str:
        return (
            f"{self.mean:.4g}{unit} ± {self.stdev:.2g} "
            f"[{self.ci_low:.4g}, {self.ci_high:.4g}] "
            f"({int(100 * self.confidence)} % CI, n={self.n})"
        )


def bootstrap_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for the mean."""
    values = list(values)
    if not values:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")
    rng = random.Random(seed)
    n = len(values)
    means = sorted(
        mean([values[rng.randrange(n)] for _ in range(n)])
        for _ in range(n_resamples)
    )
    alpha = (1.0 - confidence) / 2.0
    lo_index = min(int(alpha * n_resamples), n_resamples - 1)
    hi_index = min(int((1.0 - alpha) * n_resamples), n_resamples - 1)
    return means[lo_index], means[hi_index]


def replicate(
    measure: Callable[[int], float],
    n_seeds: int = 5,
    confidence: float = 0.95,
    base_seed: int = 0,
) -> Replication:
    """Run ``measure(seed)`` across seeds and summarise.

    ``measure`` receives ``base_seed, base_seed+1, …`` and returns one
    scalar per call.
    """
    if n_seeds < 1:
        raise ValueError(f"need at least one seed, got {n_seeds}")
    values = tuple(measure(base_seed + i) for i in range(n_seeds))
    low, high = bootstrap_ci(values, confidence=confidence)
    return Replication(
        values=values,
        mean=mean(values),
        stdev=stdev(values),
        ci_low=low,
        ci_high=high,
        confidence=confidence,
    )
