"""Joint (allocation, OPP-vector) search strategies.

One optimiser behind the strategy interface, plus the ``pinned``
baseline the experiments compare against:

``two_level``
    Outer search over cluster OPP level vectors, inner Algorithm-1
    annealing per candidate at a reduced iteration budget; the winning
    vector gets a full-budget anneal and the combined adoption gate.
    Past ``SCREEN_TOP`` vectors, a screen scores every vector by the
    incumbent allocation's ``J_E`` and anneals only the best.

``pinned``
    Clamp every cluster to one level and run the stock placement
    pipeline there — race-to-idle (top level) and the oracle static
    OPP sweep are both instances of this.

Every strategy returns a :class:`GovernorOutcome`; adoption gates are
applied here so the balancer wrapper only has to translate thread
indices to tids and levels to :class:`~repro.governor.ladder.OppChange`
entries.  The gate is the stock one,
:func:`~repro.core.balancer.adoption_threshold`, plus
:data:`~repro.governor.config.OPP_MIN_IMPROVEMENT` per switched
cluster.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from repro.core.allocation import Allocation
from repro.core.annealing import (
    SAConfig,
    SAResult,
    anneal,
    default_iteration_cap,
)
from repro.core.balancer import adoption_threshold
from repro.governor.config import (
    INNER_ITERATION_FRACTION,
    MAX_ENUMERATION,
    OPP_MIN_IMPROVEMENT,
    SCREEN_TOP,
    GovernorConfig,
)
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
    gov: GovernorConfig
    keep_trace: bool = False


@dataclass
class GovernorOutcome:
    """One epoch's joint decision, pre-gated."""

    #: Adopted thread moves, ``thread index -> core`` (empty = keep).
    changes: dict[int, int]
    #: The decision's last full anneal; its ``best_value`` is the
    #: value the adoption gate judged.
    sa_result: SAResult
    #: Incumbent allocation's value under the *current* OPP vector.
    incumbent_value: float
    #: Adopted level vector (equals the current one when no OPP moved).
    levels: tuple[int, ...]
    #: OPP candidate vectors scored this epoch.  ``two_level`` counts
    #: every enumerated vector, annealed or not (past ``SCREEN_TOP`` its
    #: screen scores them all), plus one for a fallback anneal.
    candidates_evaluated: int


def _levels_changed(a: "tuple[int, ...]", b: "tuple[int, ...]") -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def _screened(
    ctx: SearchContext, candidates: "list[tuple[int, ...]]"
) -> "list[tuple[int, ...]]":
    """The candidates that get an inner anneal, in enumeration order.

    Up to ``SCREEN_TOP`` candidates all pass.  Past it, every vector is
    scored by the incumbent allocation's ``J_E`` under it
    (:meth:`ConditionedObjectiveFactory.scores`), and the incumbent
    vector (``candidates[0]``) passes with the ``SCREEN_TOP - 1``
    best-scored others; a tie goes to the vector enumerated first.
    """
    if len(candidates) <= SCREEN_TOP:
        return candidates
    scores = ctx.factory.scores(ctx.incumbent, candidates)
    others = sorted(
        range(1, len(candidates)), key=scores.__getitem__, reverse=True
    )
    kept = sorted([0] + others[: SCREEN_TOP - 1])
    return [candidates[i] for i in kept]


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
    if n_levels**n_clusters <= MAX_ENUMERATION:
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
    """Outer OPP enumeration, inner annealing of the screened
    candidates, full anneal on the winner.

    The inner anneals share one reduced-iteration copy of
    ``ctx.sa_config``; the final and the fallback anneal get
    ``ctx.sa_config`` itself, which is how ``e2ebench/layers.py`` tells
    them apart.
    """
    factory = ctx.factory
    current = ctx.current_levels
    incumbent_value = factory.objective(current).evaluate(ctx.incumbent)

    m, n = factory.ips.shape
    inner_iterations = max(
        1,
        int(default_iteration_cap(n, m) * INNER_ITERATION_FRACTION),
    )
    inner_cfg = replace(
        ctx.sa_config, max_iterations=inner_iterations
    )

    best_levels = current
    best_inner = -math.inf
    candidates = _candidate_levels(ctx)
    evaluated = len(candidates)
    for levels in _screened(ctx, candidates):
        result = anneal(factory.objective(levels), ctx.incumbent, inner_cfg)
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
    required = adoption_threshold(
        len(changes), ctx.participants, OPP_MIN_IMPROVEMENT * n_opp
    )
    if (changes or n_opp) and result.best_value > incumbent_value * required:
        return GovernorOutcome(
            changes=changes,
            sa_result=result,
            incumbent_value=incumbent_value,
            levels=best_levels,
            candidates_evaluated=evaluated,
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
        required = adoption_threshold(len(changes), ctx.participants)
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
    required = adoption_threshold(len(changes), ctx.participants)
    if not (changes and result.best_value > incumbent_value * required):
        changes = {}
    return GovernorOutcome(
        changes=changes,
        sa_result=result,
        incumbent_value=incumbent_value,
        levels=target,
        candidates_evaluated=1,
    )


STRATEGIES = {
    "two_level": two_level,
    "pinned": pinned,
}
