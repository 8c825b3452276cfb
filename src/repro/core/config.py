"""SmartBalance configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.adaptation.controller import AdaptationConfig
from repro.core.annealing import SAConfig


@dataclass(frozen=True)
class ResilienceConfig:
    """Graceful-degradation defences of the sense-predict-balance loop.

    All defences default to *on*: they are free under clean conditions
    (nothing gets rejected, the watchdog never trips) and they are what
    keeps the balancer optimising instead of crashing when sensors
    glitch, counters wrap or cores disappear.  ``disabled()`` builds
    the ablation configuration the resilience benchmark compares
    against.

    Attributes
    ----------
    enabled:
        Switches every defence at once:

        * sanity checks reject physically impossible observations
          (non-finite values, IPC beyond any core's issue capability,
          implausible power, cycle counts inconsistent with the core
          clock; see :func:`repro.core.sensing.observation_fault`)
          before they can poison the characterisation matrices;
        * last-good fallback keeps threads whose current sample was
          rejected in the balance phase through their last good
          (EWMA-smoothed) characterisation row instead of dropping
          them;
        * the watchdog tracks per-epoch prediction error (predicted vs
          measured IPS on the core each thread actually ran on); after
          ``watchdog_trip_epochs`` consecutive epochs above
          ``watchdog_tolerance`` it stops trusting the predictor and
          falls back to capability-aware load equalisation until the
          error has been back in band for ``watchdog_recovery_epochs``
          epochs;
        * hotplug awareness masks offline cores out of the allocation
          search so a placement can never target an unplugged core.
    """

    enabled: bool = True
    watchdog_tolerance: float = 0.6
    watchdog_trip_epochs: int = 3
    watchdog_recovery_epochs: int = 2
    #: Consecutive epochs a thread's samples may be rejected before the
    #: next one is accepted anyway.  A transient glitch (spike, wrap)
    #: clears within an epoch or two; an anomaly that persists is a
    #: regime change (e.g. invisible firmware throttling) and the
    #: "corrupt" readings are the new truth — staying blind to them
    #: forever would be worse than any fault.
    rebaseline_epochs: int = 3

    def __post_init__(self) -> None:
        if self.watchdog_tolerance <= 0:
            raise ValueError(
                f"watchdog_tolerance must be positive, got {self.watchdog_tolerance}"
            )
        if self.watchdog_trip_epochs < 1:
            raise ValueError(
                f"watchdog_trip_epochs must be >= 1, got {self.watchdog_trip_epochs}"
            )
        if self.watchdog_recovery_epochs < 1:
            raise ValueError(
                "watchdog_recovery_epochs must be >= 1, got "
                f"{self.watchdog_recovery_epochs}"
            )
        if self.rebaseline_epochs < 1:
            raise ValueError(
                f"rebaseline_epochs must be >= 1, got {self.rebaseline_epochs}"
            )

    @classmethod
    def disabled(cls) -> "ResilienceConfig":
        """Every defence off — the ablation configuration."""
        return cls(enabled=False)


@dataclass(frozen=True)
class SmartBalanceConfig:
    """Tunables of the full sense-predict-balance loop.

    Attributes
    ----------
    sa:
        Simulated-annealing parameters (Algorithm 1 inputs).
    min_improvement:
        Relative objective gain the annealer must find before the new
        allocation is adopted; guards against migration churn when the
        incumbent allocation is already near-optimal.  The paper's
        overhead analysis assumes ~50 % of threads migrate per epoch;
        a small threshold keeps migrations purposeful.
    include_kernel_threads:
        Balance kernel threads too (paper Section 5.1 optimises user
        threads by default, marking them at ``sched_fork``).
    migration_penalty:
        Extra relative objective gain demanded per migrated thread
        (scaled by the fraction of threads moving).  Models the cache
        warm-up cost a migration actually incurs, so the balancer does
        not chase marginal predicted gains with real migrations.
    core_weights:
        The ω_j of Eq. 11; ``None`` means all ones.
    objective_mode:
        ``"global"`` (chip-level IPS/Watt, the default) or
        ``"per_core_sum"`` (the literal Eq. 11 weighted sum of per-core
        ratios) — see :mod:`repro.core.objective`.
    """

    sa: SAConfig = field(default_factory=SAConfig)
    min_improvement: float = 0.02
    migration_penalty: float = 0.25
    #: EWMA weight of the newest epoch when smoothing per-thread
    #: observations across epochs (1.0 = no smoothing).  Smoothing
    #: keeps the balancer targeting a thread's *time-averaged*
    #: behaviour instead of chasing phases faster than a migration can
    #: pay off.
    smoothing: float = 0.4
    include_kernel_threads: bool = False
    core_weights: Optional[Sequence[float]] = None
    #: Derive Eq. 11's ω_j from core temperatures each epoch
    #: (repro.hardware.thermal.thermal_weights); mutually exclusive
    #: with explicit core_weights.
    thermal_aware: bool = False
    #: Temperature band of the thermal de-rating: full weight below the
    #: knee, zero weight at/above the zero point.
    thermal_knee_c: float = 75.0
    thermal_zero_c: float = 95.0
    objective_mode: str = "global"
    #: α of the global objective ``IPS^α / P``.  1 is plain IPS/W
    #: (sheds work aggressively on heterogeneous chips), 2 is inverse
    #: EDP (fully throughput-preserving); 1.7 balances the two the way
    #: the paper's results do and is the calibrated default.
    throughput_exponent: float = 1.7
    #: Graceful-degradation defences (see :class:`ResilienceConfig`).
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    #: Online model maintenance (see
    #: :class:`repro.adaptation.controller.AdaptationConfig`).  Off by
    #: default: with ``enabled=False`` the balancer never instantiates a
    #: controller and behaves byte-identically to earlier builds.
    adaptation: AdaptationConfig = field(default_factory=AdaptationConfig)
    #: Wall-clock budget (seconds) for one full decide() pass; time
    #: already spent sensing and predicting is deducted from the SA
    #: balance phase, which truncates cleanly when it runs out.  None
    #: disables the budget.  Set this to a fraction of the epoch length
    #: so a slow epoch can never push balancing into the next one.
    epoch_time_budget_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.epoch_time_budget_s is not None and self.epoch_time_budget_s <= 0:
            raise ValueError(
                "epoch_time_budget_s must be positive, got "
                f"{self.epoch_time_budget_s}"
            )
        if self.min_improvement < 0:
            raise ValueError(
                f"min_improvement must be non-negative, got {self.min_improvement}"
            )
        if self.migration_penalty < 0:
            raise ValueError(
                f"migration_penalty must be non-negative, got {self.migration_penalty}"
            )
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError(
                f"smoothing must be in (0, 1], got {self.smoothing}"
            )
        if self.thermal_aware and self.core_weights is not None:
            raise ValueError(
                "thermal_aware derives core weights; do not also pass "
                "explicit core_weights"
            )
        if not self.thermal_knee_c < self.thermal_zero_c:
            raise ValueError(
                f"thermal_knee_c ({self.thermal_knee_c}) must be below "
                f"thermal_zero_c ({self.thermal_zero_c})"
            )
