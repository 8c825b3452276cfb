"""SmartBalance configuration.

The epoch length L is not a SmartBalance setting: it is
``SimulationConfig.periods_per_epoch``, and SmartBalance decides once
per simulator epoch.  The fixed tuning values (adoption gate,
smoothing, watchdog) are module constants of :mod:`repro.core.balancer`
and the throughput exponent α is :data:`repro.core.objective.THROUGHPUT_EXPONENT`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.objective import MODES

#: Objective modes SmartBalance can run: ``power_cap`` needs a cap the
#: balancer has no setting for.
SMARTBALANCE_MODES = tuple(mode for mode in MODES if mode != "power_cap")


@dataclass(frozen=True)
class SmartBalanceConfig:
    """Settings of the full sense-predict-balance loop.

    SmartBalance balances user threads only: the paper (Section 5.1)
    marks them at ``sched_fork`` and leaves kernel threads to CFS.
    Eq. 11's ω_j are all ones unless ``thermal_aware`` derives them.

    Attributes
    ----------
    objective_mode:
        ``"global"`` (chip-level IPS/Watt, the default),
        ``"per_core_sum"`` (the literal Eq. 11 weighted sum of per-core
        ratios) or ``"performance"`` — see :mod:`repro.core.objective`.
    mitigations:
        The graceful-degradation defences, all on by default (the
        ``RunSpec.mitigations`` knob).  They are free under clean
        conditions and keep the loop optimising when sensors glitch,
        counters wrap or cores disappear:

        * sanity checks reject physically impossible observations
          (see :func:`repro.core.sensing.observation_faults`) before
          they can poison the characterisation matrices; a thread
          rejected ``REBASELINE_EPOCHS`` epochs in a row is accepted
          anyway, as a regime change rather than a glitch;
        * last-good fallback keeps a thread whose sample was rejected
          in the balance phase through its last good (EWMA-smoothed)
          characterisation row;
        * the predictor watchdog stops trusting the predictor after
          ``WATCHDOG_TRIP_EPOCHS`` epochs of median prediction error
          above ``WATCHDOG_TOLERANCE`` and places by capability until
          the error has been back in band for
          ``WATCHDOG_RECOVERY_EPOCHS`` epochs;
        * hotplug awareness masks offline cores out of the allocation
          search.

        ``False`` is the ablation the resilience benchmark compares
        against.
    adaptation:
        Online model maintenance (the ``RunSpec.adaptation`` knob, see
        :mod:`repro.adaptation`).  Off by default: the balancer then
        never instantiates a controller.
    """

    #: Derive Eq. 11's ω_j from core temperatures each epoch
    #: (repro.hardware.thermal.thermal_weights).
    thermal_aware: bool = False
    #: Temperature band of the thermal de-rating: full weight below the
    #: knee, zero weight at/above the zero point.
    thermal_knee_c: float = 75.0
    thermal_zero_c: float = 95.0
    objective_mode: str = "global"
    mitigations: bool = True
    adaptation: bool = False

    def __post_init__(self) -> None:
        if self.objective_mode not in SMARTBALANCE_MODES:
            raise ValueError(
                f"objective_mode must be one of {SMARTBALANCE_MODES}, "
                f"got {self.objective_mode!r}"
            )
        if not self.thermal_knee_c < self.thermal_zero_c:
            raise ValueError(
                f"thermal_knee_c ({self.thermal_knee_c}) must be below "
                f"thermal_zero_c ({self.thermal_zero_c})"
            )
