"""Joint (allocation, OPP-vector) search strategies.

Two real optimisers behind one interface, plus the ``pinned`` baseline
the experiments compare against:

``two_level``
    Outer search over cluster OPP level vectors, inner Algorithm-1
    annealing per candidate at a reduced iteration budget; the winning
    vector gets a full-budget anneal and the combined adoption gate.

``coupled_anneal``
    One annealing walk over the product space: the move set mixes
    thread swaps (incremental O(1) evaluation) with single-cluster
    OPP steps (full re-evaluation + evaluator rebuild on acceptance).
    Both move kinds go through Algorithm 1's acceptance rule,
    :func:`repro.core.annealing.accept_move`, the one
    :func:`repro.core.annealing.anneal` uses (xorshift32, fixed-point
    ``e^x``, the integer acceptance trick).

``pinned``
    Clamp every cluster to one level and run the stock placement
    pipeline there — race-to-idle (top level) and the oracle static
    OPP sweep are both instances of this.

Every strategy returns a :class:`GovernorOutcome`; adoption gates are
applied here so the balancer wrapper only has to translate thread
indices to tids and levels to :class:`~repro.governor.ladder.OppChange`
entries.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Optional

from repro.core.allocation import Allocation
from repro.core.annealing import (
    SAConfig,
    SAResult,
    accept_move,
    anneal,
    default_iteration_cap,
)
from repro.core.fixed_point import Xorshift32
from repro.core.objective import IncrementalEvaluator
from repro.governor.config import GovernorConfig
from repro.governor.scaling import ConditionedObjectiveFactory


@dataclass
class SearchContext:
    """Everything one epoch's joint search needs."""

    factory: ConditionedObjectiveFactory
    ladders: tuple
    incumbent: Allocation
    current_levels: tuple[int, ...]
    #: Number of participating threads (adoption-gate denominator).
    participants: int
    sa_config: SAConfig
    min_improvement: float
    migration_penalty: float
    gov: GovernorConfig
    keep_trace: bool = False


@dataclass
class GovernorOutcome:
    """One epoch's joint decision, pre-gated."""

    #: Adopted thread moves, ``thread index -> core`` (empty = keep).
    changes: dict[int, int]
    sa_result: Optional[SAResult]
    #: Incumbent allocation's value under the *current* OPP vector.
    incumbent_value: float
    #: Adopted level vector (equals the current one when no OPP moved).
    levels: tuple[int, ...]
    #: OPP candidate vectors scored this epoch.
    candidates_evaluated: int
    best_value: float
    adopted_opp: bool


def _required_gain(
    ctx: SearchContext, n_changes: int, n_opp_changed: int
) -> float:
    """The multiplicative adoption threshold.

    The stock churn gate (minimum improvement + per-migration warm-up
    penalty) extended with OPP hysteresis: each switched cluster must
    buy :attr:`GovernorConfig.opp_min_improvement` extra relative gain,
    the decision-side stand-in for the transition dead time.
    """
    return (
        1.0
        + ctx.min_improvement
        + ctx.migration_penalty * n_changes / max(ctx.participants, 1)
        + ctx.gov.opp_min_improvement * n_opp_changed
    )


def _levels_changed(a: "tuple[int, ...]", b: "tuple[int, ...]") -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def _candidate_levels(ctx: SearchContext) -> "list[tuple[int, ...]]":
    """Deterministic candidate order, incumbent vector first.

    Full cartesian enumeration while the product space is small;
    otherwise the incumbent plus every single-cluster deviation (the
    coordinate-descent neighbourhood).  Listing the incumbent first
    means strict-improvement comparison keeps it on ties.
    """
    current = ctx.current_levels
    n_clusters = len(ctx.ladders)
    if n_clusters == 0:
        return [current]
    n_levels = ctx.ladders[0].n_levels
    candidates = [current]
    if n_levels**n_clusters <= ctx.gov.max_enumeration:
        for combo in itertools.product(range(n_levels), repeat=n_clusters):
            if combo != current:
                candidates.append(combo)
    else:
        for c in range(n_clusters):
            for level in range(n_levels):
                if level != current[c]:
                    variant = list(current)
                    variant[c] = level
                    candidates.append(tuple(variant))
    return candidates


def two_level(ctx: SearchContext) -> GovernorOutcome:
    """Outer OPP enumeration, inner annealing, full anneal on the winner."""
    factory = ctx.factory
    current = ctx.current_levels
    incumbent_value = factory.objective(current).evaluate(ctx.incumbent)

    m, n = factory.ips.shape
    inner_iterations = max(
        1,
        int(default_iteration_cap(n, m) * ctx.gov.inner_iteration_fraction),
    )
    inner_cfg = replace(
        ctx.sa_config, max_iterations=inner_iterations
    )

    best_levels = current
    best_inner = -math.inf
    evaluated = 0
    for levels in _candidate_levels(ctx):
        result = anneal(factory.objective(levels), ctx.incumbent, inner_cfg)
        evaluated += 1
        if result.best_value > best_inner:
            best_inner = result.best_value
            best_levels = levels

    result = anneal(
        factory.objective(best_levels),
        ctx.incumbent,
        ctx.sa_config,
        keep_trace=ctx.keep_trace,
    )
    changes = ctx.incumbent.diff(result.best_allocation)
    n_opp = _levels_changed(best_levels, current)
    required = _required_gain(ctx, len(changes), n_opp)
    if (changes or n_opp) and result.best_value > incumbent_value * required:
        return GovernorOutcome(
            changes=changes,
            sa_result=result,
            incumbent_value=incumbent_value,
            levels=best_levels,
            candidates_evaluated=evaluated,
            best_value=result.best_value,
            adopted_opp=n_opp > 0,
        )
    if best_levels != current:
        # The joint winner failed the gate: fall back to the stock
        # placement-only optimisation at the incumbent OPP vector so a
        # cheap thread shuffle is never held hostage by OPP hysteresis.
        result = anneal(
            factory.objective(current),
            ctx.incumbent,
            ctx.sa_config,
            keep_trace=ctx.keep_trace,
        )
        changes = ctx.incumbent.diff(result.best_allocation)
        evaluated += 1
        required = _required_gain(ctx, len(changes), 0)
        if not (changes and result.best_value > incumbent_value * required):
            changes = {}
    else:
        changes = {}
    return GovernorOutcome(
        changes=changes,
        sa_result=result,
        incumbent_value=incumbent_value,
        levels=current,
        candidates_evaluated=evaluated,
        best_value=result.best_value,
        adopted_opp=False,
    )


def coupled_anneal(ctx: SearchContext) -> GovernorOutcome:
    """One annealing walk over the joint (allocation, OPP) space."""
    factory = ctx.factory
    config = ctx.sa_config
    current_levels = ctx.current_levels
    incumbent_value = factory.objective(current_levels).evaluate(ctx.incumbent)

    working = ctx.incumbent.copy()
    levels = list(current_levels)
    objective = factory.objective(tuple(levels))
    evaluator = IncrementalEvaluator(objective, working)
    rng = Xorshift32(config.seed)
    total_slots = len(working)
    iterations = config.max_iterations
    if iterations is None:
        iterations = default_iteration_cap(
            objective.n_cores, objective.n_threads
        )

    n_clusters = len(ctx.ladders)
    n_levels = ctx.ladders[0].n_levels if n_clusters else 1
    opp_moves_possible = n_clusters > 0 and n_levels > 1

    perturb = config.initial_perturbation
    acceptance = config.initial_acceptance
    current = evaluator.value
    initial_value = current
    best_value = current
    best_allocation = working.copy()
    best_levels = tuple(levels)
    accepted = 0
    uphill = 0
    truncated = False
    deadline = None
    if config.time_budget_s is not None:
        deadline = time.perf_counter() + config.time_budget_s

    performed = 0
    for _ in range(iterations):
        if deadline is not None and performed % 32 == 0 and performed > 0:
            if time.perf_counter() >= deadline:
                truncated = True
                break
        performed += 1
        opp_move = (
            opp_moves_possible
            and rng.randi() % ctx.gov.opp_move_period == 0
        )
        if opp_move:
            cluster = rng.randi_range(0, n_clusters)
            step = 1 if rng.randi() % 2 == 0 else -1
            new_level = levels[cluster] + step
            if 0 <= new_level < n_levels:
                trial = list(levels)
                trial[cluster] = new_level
                trial_objective = factory.objective(tuple(trial))
                new_value = trial_objective.evaluate(working)
                diff = new_value - current
                if accept_move(
                    diff, current, acceptance, config.use_fixed_point_exp, rng
                ):
                    levels = trial
                    objective = trial_objective
                    # The running sums are per-objective: rebuild the
                    # O(1) tracker against the new rung's matrices.
                    evaluator = IncrementalEvaluator(objective, working)
                    current = new_value
                    accepted += 1
                    if diff < 0:
                        uphill += 1
                    if current > best_value:
                        best_value = current
                        best_allocation = working.copy()
                        best_levels = tuple(levels)
            # An out-of-ladder step is simply a rejected move.
        else:
            pos = rng.randi_range(0, total_slots)
            span = math.sqrt(perturb)
            offset = rng.randi_range(-pos, total_slots - pos)
            pos_new = pos + int(span * offset)
            pos_new = min(max(pos_new, 0), total_slots - 1)
            new_value = evaluator.apply_swap(pos, pos_new)
            diff = new_value - current
            if accept_move(
                diff, current, acceptance, config.use_fixed_point_exp, rng
            ):
                current = new_value
                accepted += 1
                if diff < 0:
                    uphill += 1
                if current > best_value:
                    best_value = current
                    best_allocation = working.copy()
                    best_levels = tuple(levels)
            else:
                evaluator.apply_swap(pos, pos_new)
        perturb *= config.perturbation_decay
        acceptance *= config.acceptance_decay

    sa_result = SAResult(
        best_allocation=best_allocation,
        best_value=best_value,
        initial_value=initial_value,
        iterations=performed,
        accepted_moves=accepted,
        uphill_accepts=uphill,
        truncated=truncated,
    )
    changes = ctx.incumbent.diff(best_allocation)
    n_opp = _levels_changed(best_levels, current_levels)
    required = _required_gain(ctx, len(changes), n_opp)
    if (changes or n_opp) and best_value > incumbent_value * required:
        return GovernorOutcome(
            changes=changes,
            sa_result=sa_result,
            incumbent_value=incumbent_value,
            levels=best_levels,
            candidates_evaluated=len(factory._cache),
            best_value=best_value,
            adopted_opp=n_opp > 0,
        )
    return GovernorOutcome(
        changes={},
        sa_result=sa_result,
        incumbent_value=incumbent_value,
        levels=current_levels,
        candidates_evaluated=len(factory._cache),
        best_value=best_value,
        adopted_opp=False,
    )


def pinned(ctx: SearchContext) -> GovernorOutcome:
    """Clamp every cluster to one rung; stock placement pipeline there.

    The OPP move is adopted unconditionally (the operator pinned it);
    only the thread placement goes through the churn gate.
    """
    assert ctx.gov.pinned_level is not None
    target = tuple(
        min(ctx.gov.pinned_level, ladder.n_levels - 1)
        for ladder in ctx.ladders
    )
    objective = ctx.factory.objective(target)
    incumbent_value = objective.evaluate(ctx.incumbent)
    result = anneal(
        objective, ctx.incumbent, ctx.sa_config, keep_trace=ctx.keep_trace
    )
    changes = ctx.incumbent.diff(result.best_allocation)
    required = _required_gain(ctx, len(changes), 0)
    if not (changes and result.best_value > incumbent_value * required):
        changes = {}
    return GovernorOutcome(
        changes=changes,
        sa_result=result,
        incumbent_value=incumbent_value,
        levels=target,
        candidates_evaluated=1,
        best_value=result.best_value,
        adopted_opp=target != ctx.current_levels,
    )


STRATEGIES = {
    "two_level": two_level,
    "coupled_anneal": coupled_anneal,
    "pinned": pinned,
}
