"""Differential fuzz: the fast annealer against its reference copy.

:mod:`sa_oracle` holds the straightforward form of the O(1) evaluator
and of Algorithm 1's loop.  The fast versions in ``repro.core`` must
agree with it exactly (``==``, not ``isclose``) on every objective
mode, with and without an affinity mask that forces violations, on
oversubscribed cores (Σu > 1) and on slot arrays that are mostly
empty:

* after every move of a random swap sequence (self and empty–empty
  swaps included), the tracked value, the slot array and the mapping
  match — ``greedy_allocate`` and ``random_search`` use only these;
* ``anneal`` returns the same best allocation, values, counters and
  trace;
* so it does where the fast loop's shortcuts matter: a walk whose
  undos leave the evaluator a few ULPs below ``current`` before a
  no-op move, a 64-core × 128-thread problem of 8192 mostly empty
  slots, and a run cut short by its iteration cap, whose best
  allocation is rebuilt from the undo journal.

A one-ULP nudge of one ``u·ips`` cell must break the agreement, so the
equality cannot hold vacuously.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sa_oracle
from repro.core import objective as objective_module
from repro.core.allocation import Allocation
from repro.core.annealing import SAConfig, anneal
from repro.core.objective import MODES, EnergyEfficiencyObjective, IncrementalEvaluator


def same(a: float, b: float) -> bool:
    """Exact float equality that also pairs NaN with NaN.

    A J_E can only be NaN on degenerate inputs (round-off drives the
    weighted throughput below zero when every thread sits on a zero-IPS
    core); both implementations must then agree on it too.
    """
    return a == b or (math.isnan(a) and math.isnan(b))


#: Boundary cells planted into the random matrices: zero IPS, power the
#: objective clamps to its floor, idle and saturated demand (Σu > 1 on a
#: shared core).
BOUNDARY_CELLS = {"ips": [0.0], "power": [0.0, -1.0], "util": [0.0, 1.0]}


@st.composite
def problems(draw):
    """A random objective plus a complete initial allocation."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    mode = draw(st.sampled_from(MODES))

    # Generic floats from a drawn seed, so that reordering any addition
    # shows up in the last bit, plus hypothesis-chosen boundary cells.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrices = {
        "ips": rng.uniform(1e6, 5e9, (m, n)),
        "power": rng.uniform(0.01, 8.0, (m, n)),
        "util": rng.uniform(0.0, 1.0, (m, n)),
    }
    for name, values in BOUNDARY_CELLS.items():
        for _ in range(draw(st.integers(0, m * n))):
            row, col = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
            matrices[name][row, col] = draw(st.sampled_from(values))

    mapping = [draw(st.integers(0, n - 1)) for _ in range(m)]
    allowed = None
    if n > 1 and draw(st.booleans()):
        allowed = np.array(
            [[draw(st.booleans()) for _ in range(n)] for _ in range(m)]
        )
        # Thread 0 starts on a core it may not use, so a masked problem
        # always carries violations; a row left empty gets one allowed
        # core other than its starting one.
        allowed[0, mapping[0]] = False
        for thread, row in enumerate(allowed):
            if not row.any():
                row[(mapping[thread] + 1 + draw(st.integers(0, n - 2))) % n] = True
    idle = [draw(st.floats(0.05, 1.0)) for _ in range(n)]
    alpha = draw(st.sampled_from([1.0, 1.7, 2.0, 2.5]))
    with mock.patch.object(objective_module, "THROUGHPUT_EXPONENT", alpha):
        objective = EnergyEfficiencyObjective(
            ips=matrices["ips"],
            power=matrices["power"],
            utilization=matrices["util"],
            idle_power=idle,
            sleep_power=[draw(st.floats(0.0, 1.0)) * p for p in idle],
            weights=draw(
                st.one_of(
                    st.none(), st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)
                )
            ),
            mode=mode,
            power_cap_w=draw(st.floats(0.1, 10.0)) if mode == "power_cap" else None,
            allowed=allowed,
        )
    # The default slots_per_core (m) leaves most slots empty; a wider
    # one makes empty–empty swaps dominate.
    spc = draw(st.one_of(st.none(), st.integers(m, 3 * m)))
    allocation = Allocation.from_mapping(mapping, n, spc)
    # Shuffle slots so a core's slot order is not its thread order: the
    # starting sums must accumulate in slot order.
    slot = st.integers(0, len(allocation) - 1)
    for a, b in draw(st.lists(st.tuples(slot, slot), max_size=2 * m)):
        allocation.swap(a, b)
    return objective, allocation


@st.composite
def swap_sequences(draw, n_slots):
    slot = st.integers(0, n_slots - 1)
    pair = st.one_of(slot.map(lambda p: (p, p)), st.tuples(slot, slot))
    return draw(st.lists(pair, min_size=1, max_size=120))


def assert_tracks_oracle(objective, allocation, moves, reference=None):
    fast_alloc = allocation.copy()
    ref_alloc = allocation.copy()
    fast = IncrementalEvaluator(objective, fast_alloc)
    ref = sa_oracle.IncrementalEvaluator(reference or objective, ref_alloc)
    assert same(fast.value, ref.value), "initial value"
    for step, (a, b) in enumerate(moves):
        got = fast.apply_swap(a, b)
        want = ref.apply_swap(a, b)
        assert same(got, want), f"value after move {step} ({a}, {b})"
        assert same(fast.value, ref.value), f".value after move {step}"
        assert fast_alloc.slots == ref_alloc.slots, f"slots after move {step}"
        assert fast_alloc.mapping() == ref_alloc.mapping()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_evaluator_matches_oracle_after_every_move(data):
    objective, allocation = data.draw(problems())
    moves = data.draw(swap_sequences(len(allocation)))
    assert_tracks_oracle(objective, allocation, moves)


def assert_same_result(got, want):
    assert got.best_allocation.slots == want.best_allocation.slots
    for name in ("best_value", "initial_value"):
        assert same(getattr(got, name), getattr(want, name)), name
    for name in ("iterations", "accepted_moves", "uphill_accepts"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.trace.stride == want.trace.stride
    assert len(got.trace.samples) == len(want.trace.samples)
    for mine, theirs in zip(got.trace.samples, want.trace.samples):
        assert mine.keys() == theirs.keys()
        assert all(same(mine[k], theirs[k]) for k in mine), (mine, theirs)


sa_configs = st.builds(
    SAConfig,
    max_iterations=st.integers(1, 400),
    initial_perturbation=st.floats(0.0, 1.0),
    perturbation_decay=st.floats(0.9, 1.0, exclude_min=True),
    initial_acceptance=st.floats(1e-4, 1.0),
    acceptance_decay=st.floats(0.9, 1.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_anneal_matches_oracle(data):
    objective, allocation = data.draw(problems())
    config = data.draw(sa_configs)
    got = anneal(objective, allocation, config, keep_trace=True)
    want = sa_oracle.anneal(objective, allocation, config, keep_trace=True)
    assert_same_result(got, want)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_round_off_negative_throughput_is_nan_like_the_reference():
    """Moving every thread onto a zero-IPS core leaves the weighted
    throughput sum at -1 ULP-ish round-off; ``J_E`` is then NaN (the
    numpy-scalar power of a negative base), never a complex number."""
    objective = EnergyEfficiencyObjective(
        ips=np.array([[0.7e9, 0.0], [3.1e9, 0.0]]),
        power=np.ones((2, 2)),
        utilization=np.full((2, 2), 0.4),
        idle_power=[0.3, 0.3],
        weights=[0.7, 1.0],
    )
    allocation = Allocation.from_mapping([0, 0], 2)
    spc = allocation.slots_per_core
    moves = [(0, spc), (1, spc + 1)]
    assert_tracks_oracle(objective, allocation, moves)
    evaluator = IncrementalEvaluator(objective, allocation.copy())
    for a, b in moves:
        evaluator.apply_swap(a, b)
    assert math.isnan(evaluator.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "full"])
@pytest.mark.parametrize("fixed_point", [True, False])
def test_underflowed_acceptance_temperature(fixed_point, incremental):
    """A fast acceptance decay drives ``accept`` to 0.0 within the run;
    a worse move then sees an infinite ratio (capped at 11) as in the
    reference, instead of dividing by zero.  The float ``e^x`` and the
    full re-evaluation ablations, which only the reference loop runs, go
    through the underflow too: full re-evaluation's values are Python
    floats, whose division by a zero scale raises rather than giving
    ``inf``."""
    rng = np.random.default_rng(3)
    objective = EnergyEfficiencyObjective(
        ips=rng.uniform(1e8, 2e9, (6, 3)),
        power=rng.uniform(0.1, 3.0, (6, 3)),
        utilization=rng.uniform(0.1, 0.9, (6, 3)),
        idle_power=[0.2, 0.3, 0.4],
    )
    allocation = Allocation.round_robin(6, 3)
    config = SAConfig(max_iterations=400, acceptance_decay=0.01)
    want = sa_oracle.anneal(
        objective, allocation, config, keep_trace=True,
        incremental=incremental, fixed_point_exp=fixed_point,
    )
    assert want.trace.samples[-1]["acceptance"] == 0.0
    assert want.iterations == 400
    if fixed_point and incremental:
        got = anneal(objective, allocation, config, keep_trace=True)
        assert got.trace.samples[-1]["acceptance"] == 0.0
        assert_same_result(got, want)


# ----------------------------------------------------------------------
# Mutation sanity: the equality above is not vacuous.


def nudged_pair():
    """Two objectives equal but for one ``u·ips`` cell, one ULP apart.

    Thread 0 does best alone on core 1, so both the moved-to value and
    the annealer's best value read the nudged cell ``u·ips[0, 1]``.
    """

    def build():
        return EnergyEfficiencyObjective(
            ips=np.array([[0.6e9, 1.9e9], [1.2e9, 0.5e9]]),
            power=np.array([[2.5, 0.9], [0.8, 1.6]]),
            utilization=np.array([[0.9, 0.7], [0.5, 0.8]]),
            idle_power=[0.3, 0.1],
        )

    exact, nudged = build(), build()
    nudged._uips[0, 1] = np.nextafter(nudged._uips[0, 1], np.inf)
    return exact, nudged, Allocation.from_mapping([0, 0], 2)


def test_one_ulp_nudge_changes_tracked_value():
    exact, nudged, allocation = nudged_pair()
    # Slot 0 holds thread 0; the first slot of core 1 is empty.
    moves = [(0, allocation.slots_per_core)]
    assert_tracks_oracle(exact, allocation, moves)
    with pytest.raises(AssertionError, match="value after move 0"):
        assert_tracks_oracle(nudged, allocation, moves, reference=exact)


def test_one_ulp_nudge_changes_anneal_result():
    exact, nudged, allocation = nudged_pair()
    config = SAConfig(max_iterations=200)
    want = sa_oracle.anneal(exact, allocation, config, keep_trace=True)
    assert_same_result(anneal(exact, allocation, config, keep_trace=True), want)
    with pytest.raises(AssertionError, match="best_value"):
        assert_same_result(
            anneal(nudged, allocation, config, keep_trace=True), want
        )


# ----------------------------------------------------------------------
# The fast loop's shortcuts: no-op moves, block draws, the best-state
# journal.


def drifted_problem():
    """A small problem whose walk undoes worse moves often enough that
    the evaluator's value drifts off ``current`` by a few ULPs."""
    rng = np.random.default_rng(1)
    m, n = 4, 3
    objective = EnergyEfficiencyObjective(
        ips=rng.uniform(1e6, 5e9, (m, n)),
        power=rng.uniform(0.05, 8.0, (m, n)),
        utilization=rng.uniform(0.0, 1.0, (m, n)),
        idle_power=rng.uniform(0.05, 1.0, n),
    )
    allocation = Allocation.from_mapping([int(c) for c in rng.integers(0, n, m)], n)
    # Under 64 iterations the trace records ``current`` after every move.
    return objective, allocation, SAConfig(max_iterations=60, seed=3)


def drifted_noops(objective, allocation, config, monkeypatch):
    """Moves of the reference walk that change no slot while the
    evaluator's value, left by an undo, sits below ``current``.

    A recording evaluator logs every ``apply_swap`` (the move, then the
    undo when the move is rejected); the stride-1 trace gives
    ``current`` after each move.  A worse move was rejected exactly
    when ``current`` did not become its value.
    """
    calls = []

    class Recording(sa_oracle.IncrementalEvaluator):
        def apply_swap(self, pos_a, pos_b):
            noop = self.allocation.slots[pos_a] == self.allocation.slots[pos_b]
            value = super().apply_swap(pos_a, pos_b)
            calls.append((noop, value))
            return value

    monkeypatch.setattr(sa_oracle, "IncrementalEvaluator", Recording)
    result = sa_oracle.anneal(objective, allocation, config, keep_trace=True)
    currents = [sample["current"] for sample in result.trace.samples]
    assert len(currents) == result.iterations + 1
    found = []
    calls_iter = iter(calls)
    for move in range(1, result.iterations + 1):
        noop, value = next(calls_iter)
        if noop and value < currents[move - 1]:
            found.append(move)
        if value < currents[move - 1] and currents[move] != value:
            next(calls_iter)  # the undo of this rejected move
    assert next(calls_iter, None) is None
    return found


def test_drifted_noop_moves_go_through_the_acceptance_rule(monkeypatch):
    """After an undo, the evaluator's value can sit a few ULPs below
    ``current``; a self or empty–empty swap then reads as a worse move.
    The fast loop skips ``apply_swap`` on such a move but must still
    apply the acceptance rule to it, draw included."""
    objective, allocation, config = drifted_problem()
    assert drifted_noops(objective, allocation, config, monkeypatch)
    monkeypatch.undo()
    assert_same_result(
        anneal(objective, allocation, config, keep_trace=True),
        sa_oracle.anneal(objective, allocation, config, keep_trace=True),
    )


def test_large_sparse_problem_matches_oracle():
    """64 cores × 128 threads at the default slots per core: 8192
    slots, nearly every move a no-op the fast loop skips."""
    rng = np.random.default_rng(64)
    m, n = 128, 64
    objective = EnergyEfficiencyObjective(
        ips=rng.uniform(1e8, 5e9, (m, n)),
        power=rng.uniform(0.05, 8.0, (m, n)),
        utilization=rng.uniform(0.05, 1.0, (m, n)),
        idle_power=rng.uniform(0.05, 1.0, n),
    )
    allocation = Allocation.from_mapping([t % n for t in range(m)], n)
    got = anneal(objective, allocation, SAConfig(), keep_trace=True)
    assert_same_result(
        got, sa_oracle.anneal(objective, allocation, SAConfig(), keep_trace=True)
    )
    assert got.iterations == 4000
    assert got.best_value > got.initial_value


def test_truncated_run_rebuilds_its_best_allocation():
    """A run cut short by its iteration cap returns the best state it
    visited, rebuilt by undoing the swaps accepted after it."""
    rng = np.random.default_rng(8)
    m, n = 12, 4
    objective = EnergyEfficiencyObjective(
        ips=rng.uniform(1e8, 5e9, (m, n)),
        power=rng.uniform(0.05, 8.0, (m, n)),
        utilization=rng.uniform(0.05, 1.0, (m, n)),
        idle_power=rng.uniform(0.05, 1.0, n),
    )
    allocation = Allocation.from_mapping([t % n for t in range(m)], n, 4)
    config = SAConfig(max_iterations=32)
    got = anneal(objective, allocation, config, keep_trace=True)
    assert got.iterations == 32
    assert_same_result(
        got, sa_oracle.anneal(objective, allocation, config, keep_trace=True)
    )
    # The walk ended away from its best, so the journal was replayed.
    assert got.trace.samples[-1]["current"] < got.best_value
    best = got.best_allocation
    assert best.is_complete()
    assert sorted(t for t in best.slots if t >= 0) == list(range(m))
    assert IncrementalEvaluator(objective, best.copy()).value == pytest.approx(
        got.best_value, rel=1e-12
    )
