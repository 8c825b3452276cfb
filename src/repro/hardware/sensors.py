"""On-chip sensing interface: noisy counter and power readouts.

The paper's extended Gem5 exports McPAT power data and hardware
counters to the kernel at runtime (Fig. 3).  Real sensors are noisy and
quantised; SmartBalance's prediction errors (Fig. 6: ~4–5 %) are partly
measurement-driven.  This module wraps ground-truth values with a
seeded, reproducible noise model so that:

* the *simulated hardware* stays deterministic, and
* the *observed* values the OS sees carry configurable error.

Noise is multiplicative Gaussian, clipped to keep readings physical.
A sensing window is read in one batch over the kernel engine's counter
matrices and power vectors (:meth:`SensingInterface.read`), and its
noise is drawn in one batch too (:func:`gauss_batch`): the same values
and the same RNG state as one ``random.Random.gauss`` call per slot.
Hard sensor faults — dropout, stuck-at, spikes, counter wrap — are
applied on top of the noisy readings by the simulator, per owner,
through :class:`~repro.faults.FaultInjector`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from repro.hardware.counters import COUNT_FIELDS

#: Hardware counter registers per bank: every
#: :class:`~repro.hardware.counters.CounterBlock` column except the
#: last, ``busy_time_s`` (kernel bookkeeping, read exactly).
N_REGISTERS = len(COUNT_FIELDS)

#: ``random.TWOPI``: the angle scale of ``Random.gauss``.
_TWOPI = 2.0 * math.pi
#: ``Random.random()``'s scale, ``2**-53``.
_RECIP_BPF = 1.0 / 9007199254740992.0


def gauss_batch(rng: random.Random, sigma: np.ndarray) -> np.ndarray:
    """``[rng.gauss(1.0, s) for s in sigma]`` as one array, in one batch.

    Returns the same floats and leaves ``rng`` in the same state
    (``getstate()``, ``gauss_next`` included) as those calls.
    ``Random.gauss`` takes a pending ``gauss_next`` first; otherwise it
    draws a Box–Muller pair from two ``random()`` values, returns the
    cosine and keeps the sine for the next call.  So a batch uses the
    pending value, if any, then the pairs' values in the order cosine,
    sine; an odd count leaves its last sine pending, and an empty batch
    touches nothing.

    The pairs come from one ``getrandbits(128 * pairs)``: its
    little-endian 32-bit words are the Mersenne Twister outputs in
    order, and ``random()`` is ``((w0 >> 5) * 2**26 + (w1 >> 6)) *
    2**-53``, exact in float64.  Products, sums, ``1.0 - u`` and
    ``sqrt`` are correctly rounded in numpy as in Python; ``log``,
    ``cos`` and ``sin`` are mapped through :mod:`math`, the libm calls
    ``gauss`` makes, since numpy's own may differ in the last bit.
    """
    n = len(sigma)
    z = np.empty(n)
    start = 0
    if n and rng.gauss_next is not None:
        z[0] = rng.gauss_next
        rng.gauss_next = None
        start = 1
    count = n - start
    if count:
        pairs = (count + 1) // 2
        block = rng.getrandbits(128 * pairs).to_bytes(16 * pairs, "little")
        words = np.frombuffer(block, dtype="<u4").reshape(pairs, 2, 2)
        # u[:, 0] is each pair's first random(), u[:, 1] its second.
        u = ((words[:, :, 0] >> 5) * 67108864.0 + (words[:, :, 1] >> 6)) * _RECIP_BPF
        x2pi = (u[:, 0] * _TWOPI).tolist()
        log_u = np.fromiter(map(math.log, (1.0 - u[:, 1]).tolist()), float, pairs)
        g2rad = np.sqrt(-2.0 * log_u)
        normal = np.empty((pairs, 2))
        normal[:, 0] = np.fromiter(map(math.cos, x2pi), float, pairs) * g2rad
        normal[:, 1] = np.fromiter(map(math.sin, x2pi), float, pairs) * g2rad
        normal = normal.ravel()
        z[start:] = normal[:count]
        if count % 2:
            rng.gauss_next = float(normal[count])
    return 1.0 + z * sigma


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative Gaussian read-out noise.

    ``sigma`` is the relative standard deviation (0.02 = 2 %).  A sigma
    of zero yields a pass-through (ideal) sensor.  ``clip`` bounds the
    multiplier to ``[1 - clip, 1 + clip]`` so extreme draws cannot
    produce negative counts.
    """

    sigma: float = 0.02
    clip: float = 0.30

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(
                f"sigma must be finite and non-negative, got {self.sigma}"
            )
        if not 0.0 < self.clip < 1.0:
            raise ValueError(f"clip must be in (0, 1), got {self.clip}")

    def apply(self, value: float, rng: random.Random) -> float:
        """Return a noisy reading of ``value``."""
        if self.sigma == 0.0 or value == 0.0:
            return value
        factor = rng.gauss(1.0, self.sigma)
        factor = min(max(factor, 1.0 - self.clip), 1.0 + self.clip)
        return value * factor


#: Ideal (noise-free) sensors, for unit tests and ablations.
IDEAL_NOISE = NoiseModel(sigma=0.0)
#: Default sensing fidelity used across the experiments.
DEFAULT_COUNTER_NOISE = NoiseModel(sigma=0.015)
DEFAULT_POWER_NOISE = NoiseModel(sigma=0.025)


class SensingInterface:
    """The kernel-visible sensing port of the simulated chip.

    One instance per platform; owns a private RNG so noisy readings are
    reproducible for a given seed regardless of other randomness in the
    simulation.
    """

    def __init__(
        self,
        counter_noise: NoiseModel = DEFAULT_COUNTER_NOISE,
        power_noise: NoiseModel = DEFAULT_POWER_NOISE,
        seed: int = 0,
    ) -> None:
        self.counter_noise = counter_noise
        self.power_noise = power_noise
        self._rng = random.Random(seed)

    def read(
        self,
        task_counts: np.ndarray,
        task_power: np.ndarray,
        core_counts: np.ndarray,
        core_power: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """Noisy readings of one sensing window, as new arrays.

        ``task_counts`` (n, 12) and ``core_counts`` (m, 12) are counter
        rows in :class:`~repro.hardware.counters.CounterBlock` field
        order; ``task_power`` (n,) and ``core_power`` (m,) are the true
        average powers.  Returns the noisy counterparts in the same
        shapes: ``(task_counts, task_power, core_counts, core_power)``.

        The RNG draw order is part of the contract: each task's eleven
        hardware counters in field order, then its power; then each
        core's power, then its eleven counters.  A slot whose value or
        whose model's sigma is zero takes no draw; every other slot
        takes one ``gauss(1.0, sigma)``, clipped to ``[1 - clip,
        1 + clip]``, as its multiplier.  The window's draws are made as
        one :func:`gauss_batch`, which gives those calls' values and
        RNG state.  The three cycle counters of a
        bank are then rescaled so ``cy_busy + cy_idle + cy_sleep``
        matches the true total exactly: the cycle budget is anchored to
        the core clock and the window, so a sensor may mis-split it but
        cannot mint cycles, and derived utilisation fractions stay in
        [0, 1].  ``busy_time_s`` is kernel bookkeeping and is read
        exactly; a power reading is floored at zero.
        """
        n = len(task_counts)
        counts = np.concatenate((task_counts, core_counts))
        # One row per bank in draw order: a task row holds its counters
        # then its power, a core row its power then its counters.
        slots = np.empty((len(counts), N_REGISTERS + 1))
        slots[:n, :N_REGISTERS] = task_counts[:, :N_REGISTERS]
        slots[:n, N_REGISTERS] = task_power
        slots[n:, 0] = core_power
        slots[n:, 1:] = core_counts[:, :N_REGISTERS]
        is_power = np.zeros(slots.shape, dtype=bool)
        is_power[:n, N_REGISTERS] = True
        is_power[n:, 0] = True

        # Flat views in draw order; scaling ``values`` scales ``slots``.
        values = slots.ravel()
        is_power = is_power.ravel()
        cn, pn = self.counter_noise, self.power_noise
        sigma = np.where(is_power, pn.sigma, cn.sigma)
        drawn = np.flatnonzero((values != 0.0) & (sigma != 0.0))
        if len(drawn):
            draws = gauss_batch(self._rng, sigma[drawn])
            power_slot = is_power[drawn]
            lo = np.where(power_slot, 1.0 - pn.clip, 1.0 - cn.clip)
            hi = np.where(power_slot, 1.0 + pn.clip, 1.0 + cn.clip)
            values[drawn] *= np.minimum(np.maximum(draws, lo), hi)

        noisy = counts.copy()
        noisy[:n, :N_REGISTERS] = slots[:n, :N_REGISTERS]
        noisy[n:, :N_REGISTERS] = slots[n:, 1:]
        true_cycles = counts[:, 0] + counts[:, 1] + counts[:, 2]
        noisy_cycles = noisy[:, 0] + noisy[:, 1] + noisy[:, 2]
        repair = (true_cycles > 0) & (noisy_cycles > 0)
        noisy[repair, :3] *= (true_cycles[repair] / noisy_cycles[repair])[:, None]
        power = np.concatenate((slots[:n, N_REGISTERS], slots[n:, 0]))
        # Python's max(reading, 0.0) exactly: the reading is kept
        # unless zero exceeds it (a NaN or -0.0 reading stays as is).
        power = np.where(power < 0.0, 0.0, power)
        return noisy[:n], power[:n], noisy[n:], power[n:]
