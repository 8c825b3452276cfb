"""Per-core RC thermal model with temperature-dependent leakage.

An extension beyond the paper's evaluation, but squarely inside its
programme: the authors' companion work (reference [24] and the
"Variability Expedition" project the paper acknowledges) centres on
run-time thermal estimation for MPSoCs, and Eq. 11's per-core weights
ω_j are explicitly "tunable to give preference to certain cores" —
temperature being the canonical reason to deprefer one.

The model is the standard first-order RC compact model used by
HotSpot-class tools at core granularity:

    dT/dt = (P · R_th − (T − T_amb)) / (R_th · C_th)

with per-core thermal resistance derived from die area (smaller cores
are harder to cool per watt but also dissipate less), plus the classic
exponential leakage-temperature feedback folded in as a multiplier on
the leakage term.
"""

from __future__ import annotations

import math

import numpy as np

from repro.hardware.features import CoreType

#: Ambient/package reference temperature (deg C).
AMBIENT_C = 45.0
#: Thermal resistance of a 1 mm^2 silicon patch to ambient through the
#: package (K·mm^2/W); per-core R_th = THERMAL_R_MM2 / area.
THERMAL_R_MM2 = 60.0
#: Areal thermal capacitance (J/K per mm^2) of silicon + spreader.
THERMAL_C_MM2 = 1.5e-3
#: Leakage doubles roughly every LEAK_DOUBLE_C degrees.
LEAK_DOUBLE_C = 25.0
#: Junction temperature treated as thermal emergency (deg C).
T_JUNCTION_MAX_C = 95.0


def thermal_resistance(core: CoreType) -> float:
    """Core-to-ambient thermal resistance (K/W)."""
    return THERMAL_R_MM2 / core.area_mm2


def thermal_capacitance(core: CoreType) -> float:
    """Core thermal capacitance (J/K)."""
    return THERMAL_C_MM2 * core.area_mm2


def thermal_time_constant(core: CoreType) -> float:
    """RC time constant (seconds); area cancels, so it is uniform."""
    return thermal_resistance(core) * thermal_capacitance(core)


def steady_state_temperature(core: CoreType, power_w: float) -> float:
    """Temperature the core settles at under constant power (deg C)."""
    if power_w < 0:
        raise ValueError(f"power must be non-negative, got {power_w}")
    return AMBIENT_C + power_w * thermal_resistance(core)


def leakage_multiplier(temp_c: float) -> float:
    """Leakage scaling relative to the ambient-temperature value.

    Exponential in temperature with a doubling every
    :data:`LEAK_DOUBLE_C` degrees — the standard compact approximation
    of sub-threshold leakage's temperature dependence.
    """
    return 2.0 ** ((temp_c - AMBIENT_C) / LEAK_DOUBLE_C)


def decay_factor(core: CoreType, dt_s: float) -> float:
    """The per-step RC decay ``e^(-dt/tau)`` of one core.

    Computed through the exact same call chain as the scalar oracle's
    step (``thermal_resistance * thermal_capacitance`` then
    ``math.exp``) so a cached value is bit-identical to what that step
    would compute.
    The kernel engine caches this per (core type, period) — ``tau`` is
    mathematically uniform across areas, but the float product
    ``(R/area)·(C·area)`` may differ in the last ulp per area, so the
    cache must be per type, never global.
    """
    if dt_s < 0:
        raise ValueError(f"dt must be non-negative, got {dt_s}")
    tau = thermal_time_constant(core)
    return math.exp(-dt_s / tau) if tau > 0 else 0.0


def step_batch(
    temps_c: np.ndarray,
    peaks_c: np.ndarray,
    power_w: np.ndarray,
    resistance: np.ndarray,
    decay: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """One explicit RC step of many cores at once.

    Each lane advances by the exact exponential solution of the
    first-order ODE for a constant-power interval, so arbitrarily long
    steps stay stable.  ``resistance`` and ``decay`` are per-core
    vectors of :func:`thermal_resistance` and :func:`decay_factor`
    values (cached by the caller — recomputing ``math.exp`` per core
    per period is what a scalar step spends most of its time on).
    Every operation is elementwise, so each lane reproduces the scalar
    step's float sequence bit for bit (the scalar oracle is
    ``ThermalState`` in ``tests/kernel/reference_kernel.py``); the
    returned ``(temps, peaks)`` are fresh arrays.
    """
    target = AMBIENT_C + power_w * resistance
    new_temps = target + (temps_c - target) * decay
    new_peaks = np.maximum(peaks_c, new_temps)
    return new_temps, new_peaks


def extra_leakage_batch(
    temps_c: np.ndarray, base_leakage_w: np.ndarray
) -> np.ndarray:
    """Additional leakage power due to self-heating (W), per core:
    ``base · (leakage_multiplier(T) − 1)``.

    The leakage multiplier is ``2.0 ** u`` — and neither ``np.exp2``
    nor ``np.power(2.0, u)`` is bit-identical to CPython's scalar
    ``2.0 ** u`` (different libm paths), so the transcendental stays a
    per-element scalar ``**``; everything around it is vectorised.
    The bit-identity contract of the SoA kernel depends on this: do
    not "optimise" the loop into ``np.exp2``.
    """
    u = (temps_c - AMBIENT_C) / LEAK_DOUBLE_C
    out = np.zeros_like(temps_c)
    for i in range(u.size):
        out[i] = base_leakage_w[i] * (2.0 ** float(u[i]) - 1.0)
    return out


def thermal_weights(
    temperatures_c: list[float],
    knee_c: float = 75.0,
    zero_c: float = T_JUNCTION_MAX_C,
) -> list[float]:
    """Eq. 11 core weights ω_j derived from core temperatures.

    1.0 below the knee, linearly de-rated to 0.0 at ``zero_c`` — a
    simple thermal-aware preference that steers the balancer away from
    hot cores without hard constraints.
    """
    if not knee_c < zero_c:
        raise ValueError(
            f"knee ({knee_c}) must be below the zero point ({zero_c})"
        )
    weights = []
    for temp in temperatures_c:
        if temp <= knee_c:
            weights.append(1.0)
        elif temp >= zero_c:
            weights.append(0.0)
        else:
            weights.append((zero_c - temp) / (zero_c - knee_c))
    return weights
