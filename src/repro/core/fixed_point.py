"""Fixed-point arithmetic primitives for the run-time optimizer.

Paper Section 4.3: "a straightforward floating-point implementation of
Algorithm 1 may lead to long execution times due to the high cost of
computing the probabilistic functions; we use custom fixed-point
implementations of ``rand`` and ``e^x`` that trade off performance with
uniformity (rand) and precision (e^x) without significantly
compromising the quality of the final solution."

This module provides exactly those primitives, in kernel-
implementable form (integer-only operations):

* :class:`Xorshift32` — the classic 32-bit xorshift PRNG: three shifts
  and xors per draw, no multiplies, matching ``randi()`` returning a
  uniform integer in ``[0, 2^32)`` and ``randi(x, y)`` in ``[x, y)``.
  :meth:`Xorshift32.randi_block` returns the next ``n`` ``randi()``
  outputs at once (``randi_array``: as a ``uint32`` array), for the
  annealer's hot loop.
* :func:`exp_neg_q16` — ``e^-x`` for ``x >= 0`` in Q16.16 fixed point,
  via the identity ``e^-x = 2^-(x·log2 e)``: an integer shift for the
  integral part and an 8-entry lookup table with linear interpolation
  for the fractional part.  Absolute error is bounded below 0.004
  (property-tested against ``math.exp``).

The annealer runs on these primitives; the ``ablation`` benchmark
compares their quality and speed with float math on the reference loop
``tests/core/sa_oracle.py``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Number of fractional bits of the Q16.16 format.
Q = 16
#: Fixed-point one.
ONE_Q16 = 1 << Q
#: log2(e) in Q16.16.
_LOG2E_Q16 = 94548  # round(1.4426950408889634 * 65536)
#: Lookup table of 2^-(i/8) for i = 0..8, in Q16.16.
_POW2_TABLE = (
    65536,  # 2^-0
    60101,  # 2^-1/8
    55109,  # 2^-2/8
    50535,  # 2^-3/8
    46341,  # 2^-4/8
    42495,  # 2^-5/8
    38968,  # 2^-6/8
    35734,  # 2^-7/8
    32768,  # 2^-1
)

_MASK32 = 0xFFFFFFFF
#: Outputs per row of the block-draw table.
DRAW_BLOCK = 512
#: ``_BITS[b]`` selects bit ``b`` of a state.
_BITS = np.int64(1) << np.arange(32, dtype=np.int64)


@lru_cache(maxsize=None)
def _draw_table() -> np.ndarray:
    """Row ``b``: the first :data:`DRAW_BLOCK` outputs of xorshift32
    started from the state ``1 << b`` (built once, on first use)."""
    state = np.uint32(1) << np.arange(32, dtype=np.uint32)
    table = np.empty((32, DRAW_BLOCK), dtype=np.uint32)
    for k in range(DRAW_BLOCK):
        state ^= state << np.uint32(13)
        state ^= state >> np.uint32(17)
        state ^= state << np.uint32(5)
        table[:, k] = state
    table.flags.writeable = False
    return table


class Xorshift32:
    """Marsaglia's 32-bit xorshift PRNG (integer-only, period 2^32-1).

    Deterministic for a given seed; seed 0 is remapped (xorshift's only
    fixed point is 0).
    """

    def __init__(self, seed: int = 0x9E3779B9) -> None:
        seed &= _MASK32
        self.state = seed if seed != 0 else 0x9E3779B9

    def randi(self) -> int:
        """Uniform integer in ``[0, 2^32)`` (paper's ``randi()``)."""
        x = self.state
        x ^= (x << 13) & _MASK32
        x ^= x >> 17
        x ^= (x << 5) & _MASK32
        self.state = x
        return x

    def randi_block(self, n: int) -> "list[int]":
        """The next ``n`` :meth:`randi` outputs, leaving the state where
        ``n`` calls would.

        Each xorshift step is linear over GF(2), so the ``k``-th output
        from a state is the XOR of the ``k``-th outputs from the state's
        set bits taken alone: a block of :data:`DRAW_BLOCK` draws is one
        XOR-reduction over rows of a precomputed table.
        """
        return self.randi_array(n).tolist()

    def randi_array(self, n: int) -> np.ndarray:
        """:meth:`randi_block` as a ``uint32`` array."""
        table = _draw_table()
        out = np.empty(n, dtype=np.uint32)
        state = self.state
        for start in range(0, n, DRAW_BLOCK):
            block = out[start : start + DRAW_BLOCK]
            rows = table[(state & _BITS) != 0, : len(block)]
            np.bitwise_xor.reduce(rows, axis=0, out=block)
            state = int(block[-1])
        self.state = state
        return out

    def randi_range(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)`` (paper's ``randi(x, y)``).

        Uses the modulo reduction a kernel implementation would; the
        slight non-uniformity is part of the stated trade-off.
        """
        if high <= low:
            raise ValueError(f"empty range [{low}, {high})")
        return low + self.randi() % (high - low)


def to_q16(value: float) -> int:
    """Convert a float to Q16.16 (round to nearest)."""
    return int(round(value * ONE_Q16))


def from_q16(value: int) -> float:
    """Convert Q16.16 back to float."""
    return value / ONE_Q16


def exp_neg_q16(x_q16: int) -> int:
    """``e^-x`` in Q16.16 for ``x_q16 >= 0`` (Q16.16 input).

    Integer-only: one multiply, shifts, a 9-entry table and one linear
    interpolation.  Returns 0 for arguments where the true value
    underflows Q16.16 (x > ~11).
    """
    if x_q16 < 0:
        raise ValueError(f"exp_neg_q16 requires x >= 0, got {from_q16(x_q16)}")
    # y = x * log2(e), Q16.16
    y = (x_q16 * _LOG2E_Q16) >> Q
    int_part = y >> Q
    if int_part >= 16:
        return 0
    frac = y & (ONE_Q16 - 1)
    # Index the 2^-f table in eighths with linear interpolation.
    idx = frac >> (Q - 3)  # 0..7
    rem = frac & ((1 << (Q - 3)) - 1)
    lo = _POW2_TABLE[idx]
    hi = _POW2_TABLE[idx + 1]
    frac_val = lo + (((hi - lo) * rem) >> (Q - 3))
    return frac_val >> int_part


def exp_neg(x: float) -> float:
    """Float-in/float-out convenience wrapper around :func:`exp_neg_q16`."""
    if x < 0:
        raise ValueError(f"exp_neg requires x >= 0, got {x}")
    if x > 11.0:
        return 0.0
    return from_q16(exp_neg_q16(to_q16(x)))
