"""Alternative allocation optimizers.

The paper chooses simulated annealing (Algorithm 1) for the balance
phase and motivates it with tunability and near-optimal quality.  This
module provides the comparison points that motivation implies:

* :func:`greedy_allocate` — one pass of best-single-move hill climbing
  from the incumbent (cheap, gets stuck in local optima);
* :func:`random_search` — same move set as the annealer but pure
  random restarts of moves, no acceptance schedule (the "is SA's
  schedule doing anything?" control).

The true optimum of a small problem is
:func:`repro.experiments.fig8.brute_force_optimum`'s enumeration.
Both optimizers share the annealer's contract: the initial allocation
is never mutated, and the result is a complete allocation no worse
than the start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.allocation import EMPTY, Allocation
from repro.core.fixed_point import Xorshift32
from repro.core.objective import EnergyEfficiencyObjective, IncrementalEvaluator


@dataclass(frozen=True)
class OptimizeResult:
    """Result of :func:`greedy_allocate` or :func:`random_search`."""

    best_allocation: Allocation
    best_value: float
    initial_value: float
    #: Number of candidate evaluations performed.
    evaluations: int

    @property
    def improvement(self) -> float:
        if self.initial_value == 0:
            return 0.0
        return (self.best_value - self.initial_value) / abs(self.initial_value)


def greedy_allocate(
    objective: EnergyEfficiencyObjective,
    initial: Allocation,
    max_rounds: int = 50,
) -> OptimizeResult:
    """Steepest-ascent hill climbing over single-thread moves.

    Each round evaluates moving every thread to every other core and
    applies the single best move; stops at a local optimum or after
    ``max_rounds``.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    working = initial.copy()
    evaluator = IncrementalEvaluator(objective, working)
    initial_value = evaluator.value
    evaluations = 0
    for _ in range(max_rounds):
        best_move: Optional[tuple[int, int]] = None
        best_gain = 1e-12
        current = evaluator.value
        for thread in range(objective.n_threads):
            src_slot = working._thread_slot[thread]
            src_core = working.slot_core(src_slot)
            for core in range(objective.n_cores):
                if core == src_core:
                    continue
                dst_slot = _free_slot(working, core)
                if dst_slot is None:
                    continue
                value = evaluator.apply_swap(src_slot, dst_slot)
                evaluations += 1
                gain = value - current
                # Revert; slots may have changed for the thread.
                evaluator.apply_swap(src_slot, dst_slot)
                if gain > best_gain:
                    best_gain = gain
                    best_move = (src_slot, dst_slot)
        if best_move is None:
            break
        evaluator.apply_swap(*best_move)
    return OptimizeResult(
        best_allocation=working,
        best_value=evaluator.value,
        initial_value=initial_value,
        evaluations=evaluations,
    )


def random_search(
    objective: EnergyEfficiencyObjective,
    initial: Allocation,
    iterations: int = 1000,
    seed: int = 0x5EED,
) -> OptimizeResult:
    """Random swap proposals, accepting every swap that does not lower
    ``J_E`` (neutral swaps included)."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    working = initial.copy()
    evaluator = IncrementalEvaluator(objective, working)
    initial_value = evaluator.value
    current = initial_value
    rng = Xorshift32(seed)
    total = len(working)
    for _ in range(iterations):
        a = rng.randi_range(0, total)
        b = rng.randi_range(0, total)
        value = evaluator.apply_swap(a, b)
        if value >= current:
            current = value
        else:
            evaluator.apply_swap(a, b)
    return OptimizeResult(
        best_allocation=working,
        best_value=current,
        initial_value=initial_value,
        evaluations=iterations,
    )


def _free_slot(allocation: Allocation, core: int) -> Optional[int]:
    """First empty slot on ``core``, or None if the core is full."""
    start = core * allocation.slots_per_core
    for slot in range(start, start + allocation.slots_per_core):
        if allocation.slots[slot] == EMPTY:
            return slot
    return None
