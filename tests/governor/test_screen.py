"""The two-level governor's OPP screen.

``two_level`` scores every enumerated OPP vector by the incumbent
allocation's ``J_E`` under it and anneals only the incumbent vector and
the ``SCREEN_TOP - 1`` best-scored others.  These tests pin the three
parts of that contract: each score is the conditioned objective's own
evaluation, the selection keeps the incumbent and breaks ties by
enumeration order, and on clean dvfsquad runs the screened search makes
the same decisions as the full one.
"""

import itertools

import numpy as np
import pytest

from repro.core.allocation import Allocation
from repro.core.objective import EnergyEfficiencyObjective
from repro.governor import build_ladders, scaling, strategies
from repro.governor.config import MAX_ENUMERATION, N_POINTS
from repro.governor.scaling import (
    ConditionedObjectiveFactory,
    dynamic_ratio,
    freq_ratio,
)
from repro.hardware import power as power_model
from repro.runner.engine import execute_spec
from repro.runner.factories import dvfs_quad
from repro.runner.spec import RunSpec


def governed(workload="MTMI", *, platform="dvfsquad", epochs=6, seed=0, **knobs):
    return RunSpec(
        workload=workload, platform=platform, threads=8, n_epochs=epochs,
        seed=seed, governor="two_level", **knobs,
    )


def decisions_of(spec):
    """``(context, outcome)`` of every ``two_level`` decision in a run."""
    decisions = []

    def capture(ctx):
        outcome = strategies.two_level(ctx)
        decisions.append((ctx, outcome))
        return outcome

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(strategies.STRATEGIES, "two_level", capture)
        execute_spec(spec)
    return decisions


def inner_levels(ctx, monkeypatch):
    """The level vectors ``two_level(ctx)`` runs inner anneals for, in
    call order (read through a spy on ``strategies.anneal``)."""
    objectives = []
    original = strategies.anneal

    def spy(objective, initial, config, **kwargs):
        if config.max_iterations != ctx.sa_config.max_iterations:
            objectives.append(objective)
        return original(objective, initial, config, **kwargs)

    monkeypatch.setattr(strategies, "anneal", spy)
    strategies.two_level(ctx)
    monkeypatch.setattr(strategies, "anneal", original)
    # The factory memoises one objective per vector, so identity maps
    # each annealed objective back to its levels.
    by_id = {
        id(ctx.factory.objective(levels)): levels
        for levels in strategies._candidate_levels(ctx)
    }
    return [by_id[id(objective)] for objective in objectives]


def synthetic_factory(seed, threads=6, spoil=None):
    """A dvfsquad factory over random nominal matrices.

    ``spoil`` makes core 0's nominal rung invalid and leaves its lower
    rungs valid: a demand above 1 (which ``min(u / r, 1)`` clips on
    the lower rungs), a zero idle power or a negative sleep power
    (lower rungs take both from the power model).
    """
    platform = dvfs_quad()
    types = [core.core_type for core in platform]
    rng = np.random.default_rng(seed)
    n = len(types)
    utilization = rng.uniform(0.05, 0.9, size=(threads, n))
    idle = [power_model.idle_power(ct).total_w for ct in types]
    sleep = [power_model.sleep_power(ct) for ct in types]
    if spoil == "demand":
        utilization[0, 0] = 1.5
    elif spoil == "idle":
        idle[0] = 0.0
    elif spoil == "sleep":
        sleep[0] = -0.1
    # Busy power above each core's leakage, as the power model gives.
    leakage = np.array([power_model.leakage_power(ct) for ct in types])
    return ConditionedObjectiveFactory(
        ips=rng.uniform(1e8, 3e9, size=(threads, n)),
        power=leakage + rng.uniform(0.05, 2.0, size=(threads, n)),
        utilization=utilization,
        nominal_types=types,
        nominal_idle_w=tuple(idle),
        nominal_sleep_w=tuple(sleep),
        ladders=build_ladders(platform, N_POINTS),
        weights=None,
        mode="global",
        allowed=None,
    )


def all_vectors(factory):
    """Every level vector of a synthetic factory, all-lowest first."""
    return list(
        itertools.product(range(N_POINTS), repeat=len(factory.ladders))
    )


def random_allocations(factory, count, seed):
    rng = np.random.default_rng(seed)
    m = factory.ips.shape[0]
    return [
        Allocation.from_mapping(
            rng.integers(0, factory.n_cores, size=m).tolist(), factory.n_cores
        )
        for _ in range(count)
    ]


SCORE_SPECS = {
    "clean": governed(),
    "thermal": governed(faults="thermal"),
    "hotplug": governed(faults="hotplug", epochs=8, seed=1),
    "combined_adaptation": governed(faults="combined", adaptation=True, seed=1),
}


@pytest.fixture(scope="module")
def score_decisions():
    return {name: decisions_of(spec) for name, spec in SCORE_SPECS.items()}


class TestScore:
    @pytest.mark.parametrize("name", sorted(SCORE_SPECS))
    def test_score_is_the_conditioned_evaluation(self, score_decisions, name):
        decisions = score_decisions[name]
        assert decisions
        for ctx, outcome in decisions:
            candidates = strategies._candidate_levels(ctx)
            assert len(candidates) == 256
            scores = ctx.factory.scores(ctx.incumbent, candidates)
            for levels, score in zip(candidates, scores):
                objective = ctx.factory.objective(levels)
                # The screen leaves out the affinity penalty; these
                # incumbents respect their masks, so evaluate has none.
                assert objective.violations(ctx.incumbent) == 0
                expected = objective.evaluate(ctx.incumbent)
                assert abs(score - expected) <= 1e-12 * abs(expected)
            assert scores[0] == outcome.incumbent_value

    def test_hotplug_covers_a_masked_context(self, score_decisions):
        assert any(
            ctx.factory.allowed is not None
            for ctx, _ in score_decisions["hotplug"]
        )

    def test_rungs_are_cleaned_like_the_objective(self):
        """Non-finite IPS and power below the floor reach the screen
        cleaned, exactly as the objective cleans them."""
        factory = synthetic_factory(seed=3)
        factory.ips[0, 1] = np.nan
        factory.ips[2, 0] = np.inf
        factory.power[1, 2] = -1.0
        factory.power[3, 3] = np.nan
        candidates = all_vectors(factory)
        for allocation in random_allocations(factory, 5, seed=4):
            scores = factory.scores(allocation, candidates)
            for levels, score in zip(candidates, scores):
                expected = factory.objective(levels).evaluate(allocation)
                assert np.isfinite(score)
                assert abs(score - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("bad", ["demand", "idle", "sleep"])
    def test_a_rung_the_full_search_rejects_still_raises(self, bad):
        """Each of these spoils only core 0's nominal rung.  The full
        search would raise building the objective of a vector with that
        rung; the screen raises too, even from a valid first vector."""
        factory = synthetic_factory(seed=5, spoil=bad)
        candidates = all_vectors(factory)
        factory.objective(candidates[0])  # every cluster at its lowest rung
        with pytest.raises(ValueError):
            factory.objective(candidates[-1])  # every cluster at nominal
        allocation = Allocation.round_robin(factory.ips.shape[0], factory.n_cores)
        with pytest.raises(ValueError):
            factory.scores(allocation, candidates)


class TestSelection:
    def test_incumbent_kept_even_when_it_scores_last(
        self, score_decisions, monkeypatch
    ):
        ctx, _ = score_decisions["clean"][0]
        candidates = strategies._candidate_levels(ctx)
        scores = [-1.0] + [float(i) for i in range(1, len(candidates))]
        monkeypatch.setattr(ctx.factory, "scores", lambda allocation, vectors: scores)
        kept = strategies._screened(ctx, candidates)
        top = strategies.SCREEN_TOP
        assert kept == [candidates[0]] + candidates[-(top - 1):]
        assert kept[0] == ctx.current_levels

    def test_tie_at_the_cut_keeps_the_earlier_vector(
        self, score_decisions, monkeypatch
    ):
        ctx, _ = score_decisions["clean"][0]
        candidates = strategies._candidate_levels(ctx)
        top = strategies.SCREEN_TOP
        # Indices 1..top-2 clear the cut; 100 and 200 tie for its last
        # place, and every other vector scores below them.
        scores = [0.0] * len(candidates)
        for i in range(1, top - 1):
            scores[i] = 2.0
        scores[100] = scores[200] = 1.0
        monkeypatch.setattr(ctx.factory, "scores", lambda allocation, vectors: scores)
        kept = strategies._screened(ctx, candidates)
        assert kept == candidates[: top - 1] + [candidates[100]]

    def test_kept_vectors_are_annealed_in_enumeration_order(
        self, score_decisions, monkeypatch
    ):
        top = strategies.SCREEN_TOP
        for ctx, _ in score_decisions["clean"]:
            candidates = strategies._candidate_levels(ctx)
            scores = ctx.factory.scores(ctx.incumbent, candidates)
            best_others = sorted(
                range(1, len(candidates)), key=lambda i: (-scores[i], i)
            )[: top - 1]
            expected = [candidates[i] for i in sorted([0] + best_others)]
            assert inner_levels(ctx, monkeypatch) == expected

    def test_a_quad_context_anneals_all_four_vectors(self, monkeypatch):
        """quad is one cluster: 4 vectors, no screen."""
        decisions = decisions_of(governed(platform="quad", epochs=3))
        ctx, _ = decisions[0]
        candidates = strategies._candidate_levels(ctx)
        assert len(candidates) == 4

        def no_screen(allocation, vectors):
            raise AssertionError("a 4-vector search was screened")

        monkeypatch.setattr(ctx.factory, "scores", no_screen)
        assert inner_levels(ctx, monkeypatch) == candidates


#: HTHI/MTMI/LTLI x seeds 0-1 x 6 epochs: 30 clean dvfsquad decisions.
AGREEMENT_SPECS = [
    governed(workload, seed=seed)
    for workload in ("HTHI", "MTMI", "LTLI")
    for seed in (0, 1)
]


class TestAgreement:
    def test_screened_search_decides_like_the_full_search(self, monkeypatch):
        contexts = [
            ctx for spec in AGREEMENT_SPECS for ctx, _ in decisions_of(spec)
        ]
        assert len(contexts) == 30
        for ctx in contexts:
            screened = strategies.two_level(ctx)
            with monkeypatch.context() as patch:
                patch.setattr(strategies, "SCREEN_TOP", MAX_ENUMERATION)
                full = strategies.two_level(ctx)
            assert screened.changes == full.changes
            assert screened.levels == full.levels
            assert screened.candidates_evaluated == full.candidates_evaluated


class TestConditionedObjectiveFactory:
    def test_all_top_objective_is_the_stock_objective(self):
        factory = synthetic_factory(seed=1)
        top = tuple(ladder.top for ladder in factory.ladders)
        conditioned = factory.objective(top)
        stock = EnergyEfficiencyObjective(
            ips=factory.ips,
            power=factory.power,
            utilization=factory.utilization,
            idle_power=factory.nominal_idle_w,
            sleep_power=factory.nominal_sleep_w,
        )
        for allocation in random_allocations(factory, 20, seed=2):
            assert conditioned.evaluate(allocation) == stock.evaluate(allocation)

    def test_rung_columns_follow_the_scaling_laws(self):
        """``ips·r``, ``min(u/r, 1)`` and ``(P − leak_nom)·s + leak_opp``
        (docs/governor.md, "Scaling laws") on every core and rung."""
        factory = synthetic_factory(seed=2)
        clipped = 0
        for level in range(N_POINTS):
            objective = factory.objective((level,) * len(factory.ladders))
            for ladder in factory.ladders:
                for i, j in enumerate(ladder.core_ids):
                    nom, app = ladder.nominal_types[i], ladder.types[level][i]
                    r = freq_ratio(nom, app)
                    s = dynamic_ratio(nom, app)
                    demand = factory.utilization[:, j] / r
                    clipped += int((demand > 1.0).sum())
                    np.testing.assert_allclose(
                        objective.ips[:, j], factory.ips[:, j] * r, rtol=1e-12
                    )
                    np.testing.assert_allclose(
                        objective.utilization[:, j],
                        np.minimum(demand, 1.0),
                        rtol=1e-12,
                    )
                    np.testing.assert_allclose(
                        objective.power[:, j],
                        (factory.power[:, j] - power_model.leakage_power(nom)) * s
                        + power_model.leakage_power(app),
                        rtol=1e-12,
                    )
        assert clipped > 0, "no demand saturated a slowed core"

    def test_objective_is_memoised_per_vector(self, monkeypatch):
        factory = synthetic_factory(seed=3)
        vectors = all_vectors(factory)
        built = []

        def counted(**kwargs):
            built.append(kwargs)
            return EnergyEfficiencyObjective(**kwargs)

        monkeypatch.setattr(scaling, "EnergyEfficiencyObjective", counted)
        first = factory.objective(vectors[5])
        assert factory.objective(vectors[5]) is first
        assert len(built) == 1
        # Scoring every vector builds only the first one's objective,
        # and that one is memoised too.
        allocation = Allocation.round_robin(factory.ips.shape[0], factory.n_cores)
        factory.scores(allocation, vectors[10:])
        assert len(built) == 2
        factory.objective(vectors[10])
        assert len(built) == 2
