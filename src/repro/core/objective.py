"""The allocation objective ``J_E`` (Eqs. 10–11) and its incremental
evaluator.

Inputs are Algorithm 1's: the throughput matrix ``S`` (per-thread IPS
on every core, Eq. 2), the power matrix ``P`` (per-thread power on
every core, Eq. 3), the thread utilisation data ``U``, per-core
idle/sleep power, and per-core weights ω.

Per-core semantics under multitasking — the matrices hold each
thread's *full-speed* IPS/power on a core; with several threads
time-sharing, CFS grants thread ``i`` a share proportional to its
demand ``u_ij`` (which is per-(thread, core): a rate-limited thread
needs more of a slower core):

* total demand ``D_j = Σ u_ij``;
* ``D_j <= 1``: every thread runs its full duty cycle — core
  throughput ``Σ u_ij · ips_ij``, core power
  ``Σ u_ij · p_ij + (1 - D_j) · p_idle_j``;
* ``D_j > 1``: demands are compressed by ``1/D_j`` and the core is
  always busy — throughput ``Σ u_ij · ips_ij / D_j``, power
  ``Σ u_ij · p_ij / D_j``;
* an empty core is power-gated: zero throughput, ``p_sleep_j``.

Two objective modes:

``global`` (default)
    ``J_E = (Σ_j ω_j IPS_j)^α / Σ_j P_j`` — the chip's overall
    throughput per Watt, the quantity the paper's Eq. 10 says it
    maximises ("overall energy efficiency, IPS/Watt") and the quantity
    the evaluation figures measure.  Power-gated cores still
    contribute their sleep power, so avoiding an inefficient core
    genuinely pays.

    The throughput exponent ``α`` folds in demand service:
    plain IPS/W (α = 1) is degenerate on strongly heterogeneous chips —
    it happily parks every thread on the most efficient core, dropping
    most of the demanded work.  Multiplying efficiency by the demand
    service ratio ``(Σ IPS / Σ demand)^γ`` restores the pressure to
    actually serve the workload, and since total demand is a constant
    of the epoch this is equivalent (argmax-wise) to maximising
    ``IPS^(1+γ)/P``.  α = 2 is the classic inverse energy-delay
    product, the standard performance-respecting efficiency metric;
    the calibrated default α = 1.7 sits between pure efficiency and
    pure EDP, matching the throughput/efficiency balance the paper's
    results exhibit.

``per_core_sum``
    The literal Eq. 11 form ``J_E = Σ_j ω_j · IPS_j / P_j``.  Kept for
    fidelity and ablation; note that a sum of per-core ratios rewards
    keeping *every* core — including a grossly inefficient one —
    loaded, which on strongly heterogeneous platforms diverges from
    the measured chip-level IPS/Watt (see the objective-mode ablation
    benchmark).

``performance``
    ``J = Σ_j ω_j IPS_j`` — pure throughput maximisation, ignoring
    power.  The paper notes the allocation objective "can be defined in
    several ways according to the desired optimization goals"; this is
    the obvious performance goal.

``power_cap``
    ``J = Σ_j ω_j IPS_j`` while ``Σ_j P_j <= power_cap_w``, enforced as
    a steep multiplicative penalty on cap violations so the annealer
    can cross infeasible regions but never settles in one.

Per-thread **affinity constraints** (paper Section 5.1: "special
constraints can easily be included by modifying the objective
function") are supported through an ``allowed`` boolean mask: an
allocation placing a thread on a disallowed core is penalised by a
large constant per violation, so the annealer can traverse infeasible
states but never settles in one, and any feasible allocation dominates
every infeasible one.

Because each core's term depends only on three per-core sums, a thread
move updates ``J_E`` in O(1) — the "keeping track of previous
computations" optimisation the paper describes for its SA inner loop
(:meth:`IncrementalEvaluator.apply_swap`).

The incremental path is bit-identical to the straightforward per-move
form, not an approximation of it: same operation order, numpy starting
sums, scalar ``pow`` for ``J_E`` (details on
:class:`IncrementalEvaluator`).  How fast it runs never moves a digest.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.allocation import EMPTY, Allocation

#: Supported objective modes.
MODES = ("global", "per_core_sum", "performance", "power_cap")
#: Penalty subtracted per affinity violation; large enough to dominate
#: any J value the models can produce.
AFFINITY_VIOLATION_PENALTY = 1e30
#: Exponent of the power-cap violation penalty.
POWER_CAP_PENALTY_EXPONENT = 4.0
#: Floor (W) that zero/negative/non-finite predicted thread power is
#: clamped to.  A predictor fed a corrupt observation can emit a
#: non-physical power row; a zero denominator would make that thread's
#: ratio infinite and the annealer would happily "optimise" the chip
#: onto garbage.  Clamping to a tiny positive wattage keeps J_E finite
#: and makes corrupt rows merely unattractive rather than explosive.
POWER_FLOOR_W = 1e-3


class EnergyEfficiencyObjective:
    """``J_E`` over a thread-to-core allocation (see module docstring)."""

    def __init__(
        self,
        ips: np.ndarray,
        power: np.ndarray,
        utilization: np.ndarray,
        idle_power: Sequence[float],
        sleep_power: Optional[Sequence[float]] = None,
        weights: Optional[Sequence[float]] = None,
        mode: str = "global",
        throughput_exponent: float = 1.7,
        power_cap_w: Optional[float] = None,
        allowed: Optional[np.ndarray] = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if throughput_exponent < 1.0:
            raise ValueError(
                f"throughput_exponent must be >= 1, got {throughput_exponent}"
            )
        if mode == "power_cap" and (power_cap_w is None or power_cap_w <= 0):
            raise ValueError(
                "power_cap mode requires a positive power_cap_w, got "
                f"{power_cap_w}"
            )
        self.mode = mode
        self.throughput_exponent = throughput_exponent
        self.power_cap_w = power_cap_w
        self.ips = np.asarray(ips, dtype=float)
        self.power = np.asarray(power, dtype=float)
        if self.ips.ndim != 2 or self.ips.shape != self.power.shape:
            raise ValueError(
                f"S and P must be equal-shape (m x n) matrices, got "
                f"{self.ips.shape} and {self.power.shape}"
            )
        self.n_threads, self.n_cores = self.ips.shape
        util = np.asarray(utilization, dtype=float)
        if util.ndim == 1:
            # Plain utilisation vector: the thread demands the same
            # time fraction on every core (legacy/CPU-bound semantics).
            if util.shape != (self.n_threads,):
                raise ValueError(
                    f"utilisation vector must have length {self.n_threads}, "
                    f"got shape {util.shape}"
                )
            util = np.repeat(util[:, None], self.n_cores, axis=1)
        if util.shape != (self.n_threads, self.n_cores):
            raise ValueError(
                f"utilisation must be (m,) or (m x n); got shape {util.shape}"
            )
        if np.any(util < 0) or np.any(util > 1):
            raise ValueError("utilisations must lie in [0, 1]")
        self.utilization = util
        self.idle_power = np.asarray(idle_power, dtype=float)
        if self.idle_power.shape != (self.n_cores,):
            raise ValueError(
                f"idle power vector must have length {self.n_cores}, "
                f"got shape {self.idle_power.shape}"
            )
        if sleep_power is None:
            self.sleep_power = 0.1 * self.idle_power
        else:
            self.sleep_power = np.asarray(sleep_power, dtype=float)
            if self.sleep_power.shape != (self.n_cores,):
                raise ValueError(
                    f"sleep power vector must have length {self.n_cores}, "
                    f"got shape {self.sleep_power.shape}"
                )
        bad_power = ~np.isfinite(self.power) | (self.power < POWER_FLOOR_W)
        if bad_power.any():
            self.power = np.where(bad_power, POWER_FLOOR_W, self.power)
        if np.any(self.idle_power <= 0) or not np.isfinite(self.idle_power).all():
            raise ValueError("idle power entries must be positive and finite")
        if np.any(self.sleep_power < 0):
            raise ValueError("sleep power entries must be non-negative")
        bad_ips = ~np.isfinite(self.ips) | (self.ips < 0)
        if bad_ips.any():
            self.ips = np.where(bad_ips, 0.0, self.ips)
        if allowed is None:
            self.allowed = None
        else:
            allowed = np.asarray(allowed, dtype=bool)
            if allowed.shape != (self.n_threads, self.n_cores):
                raise ValueError(
                    f"allowed mask must be (m x n); got shape {allowed.shape}"
                )
            if not allowed.any(axis=1).all():
                bad = [int(i) for i in np.where(~allowed.any(axis=1))[0]]
                raise ValueError(
                    f"threads {bad} have no allowed core at all"
                )
            # An all-True mask is no constraint: skip the bookkeeping.
            self.allowed = None if allowed.all() else allowed
        if weights is None:
            self.weights = np.ones(self.n_cores)
        else:
            self.weights = np.asarray(weights, dtype=float)
            if self.weights.shape != (self.n_cores,):
                raise ValueError(
                    f"weights must have length {self.n_cores}, "
                    f"got shape {self.weights.shape}"
                )
        # Cached per-thread demand-weighted IPS/power vectors.  Every
        # objective term only ever consumes ``u·ips`` and ``u·p``;
        # materialising the products once per epoch means the annealer's
        # O(1) move updates and the full evaluation both reduce to
        # lookups instead of re-multiplying per move.
        self._uips = self.utilization * self.ips
        self._up = self.utilization * self.power

    # ------------------------------------------------------------------

    def core_terms(
        self, core: int, sum_u: float, sum_uips: float, sum_up: float
    ) -> tuple[float, float]:
        """One core's (throughput, power) from its three running sums.

        The emptiness test uses a tolerance so incremental add/remove
        round-off (sums like 1e-16 after a thread leaves) cannot flip a
        power-gated core into a paying-idle one.
        """
        if sum_u <= 1e-9:
            return 0.0, float(self.sleep_power[core])
        if sum_u <= 1.0:
            ips = sum_uips
            pwr = sum_up + (1.0 - sum_u) * self.idle_power[core]
        else:
            ips = sum_uips / sum_u
            pwr = sum_up / sum_u
        return ips, pwr

    def aggregates(
        self, core_ips: np.ndarray, core_power: np.ndarray
    ) -> tuple[float, float, float]:
        """``(Σ ω·IPS, Σ P, Σ ω·IPS/P)`` over per-core terms.

        numpy reductions (pairwise summation), shared by the full
        evaluation and the incremental evaluator's starting state.
        """
        weighted_ips = float((self.weights * core_ips).sum())
        total_power = float(core_power.sum())
        ratios = np.where(core_power > 0, core_ips / np.maximum(core_power, 1e-30), 0.0)
        ratio_sum = float((self.weights * ratios).sum())
        return weighted_ips, total_power, ratio_sum

    def combine(self, core_ips: np.ndarray, core_power: np.ndarray) -> float:
        """Fold per-core (IPS, P) terms into the scalar ``J_E``."""
        return self.scalar_value(*self.aggregates(core_ips, core_power))

    def scalar_value(
        self, weighted_ips: float, total_power: float, ratio_sum: float
    ) -> float:
        """Scalar ``J`` from the three aggregate quantities (shared by
        the full and incremental evaluation paths)."""
        if self.mode == "per_core_sum":
            return ratio_sum
        if self.mode == "performance":
            return weighted_ips
        if self.mode == "power_cap":
            assert self.power_cap_w is not None
            overshoot = max(total_power / self.power_cap_w, 1.0)
            return weighted_ips / overshoot ** POWER_CAP_PENALTY_EXPONENT
        # "global"
        if total_power <= 0:
            return 0.0
        return weighted_ips ** self.throughput_exponent / total_power

    def _mapping_array(self, allocation: Allocation) -> np.ndarray:
        """``thread index -> core id`` as an index array."""
        return np.fromiter(
            (allocation.core_of(t) for t in range(self.n_threads)),
            dtype=np.intp,
            count=self.n_threads,
        )

    def violations(self, allocation: Allocation) -> int:
        """Number of threads placed on cores their affinity forbids."""
        if self.allowed is None:
            return 0
        mapping = self._mapping_array(allocation)
        return int(
            (~self.allowed[np.arange(self.n_threads), mapping]).sum()
        )

    def evaluate(self, allocation: Allocation) -> float:
        """Full O(m + n) evaluation of ``J_E`` (vectorized).

        Gathers each thread's demand/IPS/power on its assigned core and
        reduces per core with ``bincount`` — no Python-level per-core
        loop.  The per-core (throughput, power) terms then come from
        the same branch structure as :meth:`core_terms`.
        """
        self._check_allocation(allocation)
        mapping = self._mapping_array(allocation)
        rows = np.arange(self.n_threads)
        sum_u = np.bincount(
            mapping, weights=self.utilization[rows, mapping], minlength=self.n_cores
        )
        sum_uips = np.bincount(
            mapping, weights=self._uips[rows, mapping], minlength=self.n_cores
        )
        sum_up = np.bincount(
            mapping, weights=self._up[rows, mapping], minlength=self.n_cores
        )
        occupied = sum_u > 1e-9
        compressed = sum_u > 1.0
        safe_u = np.maximum(sum_u, 1e-30)
        core_ips = np.where(compressed, sum_uips / safe_u, sum_uips)
        core_power = np.where(
            compressed,
            sum_up / safe_u,
            sum_up + (1.0 - sum_u) * self.idle_power,
        )
        core_ips = np.where(occupied, core_ips, 0.0)
        core_power = np.where(occupied, core_power, self.sleep_power)
        value = self.combine(core_ips, core_power)
        violations = 0
        if self.allowed is not None:
            violations = int((~self.allowed[rows, mapping]).sum())
        return value - AFFINITY_VIOLATION_PENALTY * violations

    def evaluate_mapping(self, thread_cores: Sequence[int]) -> float:
        """Evaluate a plain ``thread -> core`` list (for brute force)."""
        allocation = Allocation.from_mapping(list(thread_cores), self.n_cores)
        return self.evaluate(allocation)

    def _check_allocation(self, allocation: Allocation) -> None:
        if allocation.n_threads != self.n_threads or allocation.n_cores != self.n_cores:
            raise ValueError(
                f"allocation shape ({allocation.n_threads} threads, "
                f"{allocation.n_cores} cores) does not match objective "
                f"({self.n_threads} threads, {self.n_cores} cores)"
            )
        if not allocation.is_complete():
            raise ValueError("allocation does not place every thread")


class IncrementalEvaluator:
    """O(1)-per-move tracker of ``J_E`` over a mutating allocation.

    Owns the allocation while attached: perform moves through
    :meth:`apply_swap` only, so the running sums stay consistent.
    Swaps are involutive, so rejecting a move is just applying the same
    swap again.

    Per-core state is kept in lists of Python floats, and each
    (thread, core) cell is read through a flat zero-copy ``memoryview``
    of the objective's cached matrices, so a move is one Python call
    with no numpy-scalar arithmetic.  The value is bit-identical to
    the straightforward form (``Allocation.swap``, ± accounting and
    :meth:`~EnergyEfficiencyObjective.core_terms` per move, over numpy
    per-core arrays) because:

    * every running sum sees the same operands in the same order: the
      starting sums add a core's threads in slot order; a move books
      thread ``a`` before thread ``b`` and refreshes core ``a`` before
      core ``b``;
    * the starting aggregates are the numpy reductions that
      :meth:`~EnergyEfficiencyObjective.evaluate` uses (numpy's
      pairwise sum is not a left-to-right Python sum);
    * ``J_E``'s power is a scalar ``**``, which for Python and numpy
      floats alike is the C library's ``pow``; array ``np.power`` may
      take a SIMD path that differs in the last bit.  Where Python's
      ``**`` would return a complex number (a round-off-negative
      throughput sum under a fractional exponent), numpy's NaN is kept.
    """

    def __init__(self, objective: EnergyEfficiencyObjective, allocation: Allocation) -> None:
        objective._check_allocation(allocation)
        self.objective = objective
        self.allocation = allocation
        n = objective.n_cores
        self._n_cores = n
        self._slots = allocation.slots
        self._thread_slot = allocation._thread_slot
        self._slots_per_core = allocation.slots_per_core
        # Flat views: cell (thread, core) is item ``thread * n + core``.
        self._u = memoryview(objective.utilization.ravel())
        self._uips = memoryview(objective._uips.ravel())
        self._up = memoryview(objective._up.ravel())
        allowed = objective.allowed
        self._allowed = None if allowed is None else memoryview(allowed.ravel())
        self._weights = objective.weights.tolist()
        self._idle = objective.idle_power.tolist()
        self._sleep = objective.sleep_power.tolist()
        self._global = objective.mode == "global"
        self._exponent = objective.throughput_exponent

        # Each core's sums accumulate its threads in slot order.
        sum_u, sum_uips, sum_up = [0.0] * n, [0.0] * n, [0.0] * n
        thread_slot = self._thread_slot
        for thread in sorted(range(objective.n_threads), key=thread_slot.__getitem__):
            core = thread_slot[thread] // self._slots_per_core
            k = thread * n + core
            sum_u[core] += self._u[k]
            sum_uips[core] += self._uips[k]
            sum_up[core] += self._up[k]
        self._sum_u, self._sum_uips, self._sum_up = sum_u, sum_uips, sum_up
        self._core_ips = [0.0] * n
        self._core_power = [0.0] * n
        for core in range(n):
            ips, power = objective.core_terms(
                core, sum_u[core], sum_uips[core], sum_up[core]
            )
            self._core_ips[core] = float(ips)
            self._core_power[core] = float(power)
        self._core_ratio = [
            ips / power if power > 0 else 0.0
            for ips, power in zip(self._core_ips, self._core_power)
        ]
        self._violations = objective.violations(allocation)
        self._weighted_ips, self._total_power, self._ratio_sum = objective.aggregates(
            np.array(self._core_ips), np.array(self._core_power)
        )
        self._value = objective.scalar_value(
            self._weighted_ips, self._total_power, self._ratio_sum
        ) - AFFINITY_VIOLATION_PENALTY * self._violations

    @property
    def value(self) -> float:
        """Current ``J_E``."""
        return self._value

    def apply_swap(self, pos_a: int, pos_b: int) -> float:
        """Swap two slots, update ``J_E`` incrementally, return new value."""
        slots = self._slots
        n_slots = len(slots)
        if not (0 <= pos_a < n_slots and 0 <= pos_b < n_slots):
            raise IndexError(f"slot pair ({pos_a}, {pos_b}) out of range")
        thread_a = slots[pos_a]
        thread_b = slots[pos_b]
        if thread_a == thread_b:
            # A self or empty–empty swap changes nothing.
            return self._value
        slots[pos_a] = thread_b
        slots[pos_b] = thread_a
        if thread_a != EMPTY:
            self._thread_slot[thread_a] = pos_b
        if thread_b != EMPTY:
            self._thread_slot[thread_b] = pos_a
        core_a = pos_a // self._slots_per_core
        core_b = pos_b // self._slots_per_core
        if core_a == core_b:
            return self._value

        n = self._n_cores
        u, uips, up = self._u, self._uips, self._up
        sum_u, sum_uips, sum_up = self._sum_u, self._sum_uips, self._sum_up
        allowed = self._allowed
        violations = self._violations
        if thread_a != EMPTY:
            ka = thread_a * n
            sum_u[core_a] -= u[ka + core_a]
            sum_uips[core_a] -= uips[ka + core_a]
            sum_up[core_a] -= up[ka + core_a]
            sum_u[core_b] += u[ka + core_b]
            sum_uips[core_b] += uips[ka + core_b]
            sum_up[core_b] += up[ka + core_b]
            if allowed is not None:
                violations += allowed[ka + core_a] - allowed[ka + core_b]
        if thread_b != EMPTY:
            kb = thread_b * n
            sum_u[core_b] -= u[kb + core_b]
            sum_uips[core_b] -= uips[kb + core_b]
            sum_up[core_b] -= up[kb + core_b]
            sum_u[core_a] += u[kb + core_a]
            sum_uips[core_a] += uips[kb + core_a]
            sum_up[core_a] += up[kb + core_a]
            if allowed is not None:
                violations += allowed[kb + core_b] - allowed[kb + core_a]
        self._violations = violations

        # Refresh both cores' terms (core_terms' branches) and fold the
        # differences into the three aggregates.
        core_ips, core_power, core_ratio = (
            self._core_ips, self._core_power, self._core_ratio
        )
        weights = self._weights
        weighted_ips = self._weighted_ips
        total_power = self._total_power
        ratio_sum = self._ratio_sum
        for core in (core_a, core_b):
            load = sum_u[core]
            if load <= 1e-9:
                ips = 0.0
                power = self._sleep[core]
            elif load <= 1.0:
                ips = sum_uips[core]
                power = sum_up[core] + (1.0 - load) * self._idle[core]
            else:
                ips = sum_uips[core] / load
                power = sum_up[core] / load
            ratio = ips / power if power > 0 else 0.0
            weight = weights[core]
            weighted_ips += weight * (ips - core_ips[core])
            total_power += power - core_power[core]
            ratio_sum += weight * (ratio - core_ratio[core])
            core_ips[core] = ips
            core_power[core] = power
            core_ratio[core] = ratio
        self._weighted_ips = weighted_ips
        self._total_power = total_power
        self._ratio_sum = ratio_sum

        if not self._global:
            value = self.objective.scalar_value(weighted_ips, total_power, ratio_sum)
        elif total_power <= 0:
            value = 0.0
        elif weighted_ips < 0.0:
            value = float(np.float64(weighted_ips) ** self._exponent) / total_power
        else:
            value = weighted_ips ** self._exponent / total_power
        if violations:
            value -= AFFINITY_VIOLATION_PENALTY * violations
        self._value = value
        return value
