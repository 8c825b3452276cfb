"""The annealer's scan over runs of no-op moves, against the reference loop.

On a sparse slot array :func:`repro.core.annealing.anneal` skips each
run of no-op moves in one numpy step (see the module's bit-identity
contract).  These tests hold it to ``tests/core/sa_oracle.py`` with
``==`` where the scan's own rules matter:

* random sparse problems (16–128 cores, 1–2 threads per core, default
  slots), with and without a trace, at iteration caps from 1 to the
  default;
* an hmp:128 × 256-sized run cut at move 32 by its iteration cap: the
  scan must stop at the cap and leave the last move to the loop;
* caps that fall halfway through a run of no-op moves, early, midway
  and late in a 64 × 96 walk: the skip must stop one move short;
* a walk where an undo leaves the evaluator's value off ``current``:
  the scan must wait until the value is back on ``current``;
* the schedule tables, which must equal the loop's repeated ``*=``.

The scan is also forced onto ``test_sa_oracle``'s small, dense
problems, and the rule that picks the scan is checked: sparse runs
only.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sa_oracle
from repro.core import annealing
from repro.core.allocation import Allocation
from repro.core.annealing import (
    SCAN_MIN_RUN,
    SAConfig,
    anneal,
    default_iteration_cap,
    expected_noop_run,
    schedule,
)
from repro.core.fixed_point import DRAW_BLOCK, Xorshift32
from repro.core.objective import MODES, EnergyEfficiencyObjective
from test_sa_oracle import drifted_noops, problems, sa_configs, same


def sparse_problem(n_cores, n_threads, seed, mode="global"):
    """Random matrices, a random complete mapping, default slots: an
    array of ``n_cores × n_threads`` slots, ``1 - 1/n_cores`` empty."""
    rng = np.random.default_rng(seed)
    shape = (n_threads, n_cores)
    objective = EnergyEfficiencyObjective(
        ips=rng.uniform(1e8, 5e9, shape),
        power=rng.uniform(0.05, 8.0, shape),
        utilization=rng.uniform(0.05, 1.0, shape),
        idle_power=rng.uniform(0.05, 1.0, n_cores),
        mode=mode,
        power_cap_w=5.0 * n_cores if mode == "power_cap" else None,
    )
    mapping = rng.integers(0, n_cores, n_threads).tolist()
    return objective, Allocation.from_mapping(mapping, n_cores)


def assert_same(got, want):
    """Every ``SAResult`` field, the best state's thread map and the
    trace, floats compared with ``==``."""
    assert got.best_allocation.slots == want.best_allocation.slots
    assert got.best_allocation._thread_slot == want.best_allocation._thread_slot
    for name in ("best_value", "initial_value"):
        assert same(getattr(got, name), getattr(want, name)), name
    for name in ("iterations", "accepted_moves", "uphill_accepts"):
        assert getattr(got, name) == getattr(want, name), name
    if want.trace is None:
        assert got.trace is None
        return
    assert got.trace.stride == want.trace.stride
    assert len(got.trace.samples) == len(want.trace.samples)
    for mine, theirs in zip(got.trace.samples, want.trace.samples):
        assert mine.keys() == theirs.keys()
        assert all(same(mine[k], theirs[k]) for k in mine), (mine, theirs)
        # A skip sets the schedules from its tables as Python floats.
        assert type(mine["perturbation"]) is type(mine["acceptance"]) is float


class Spy(annealing._NoopScan):
    """The scan, recording each run it makes and each skip it takes."""

    runs = 0
    skips: "list[tuple[int, int]]" = []

    def __init__(self, *args):
        super().__init__(*args)
        Spy.runs += 1

    def skip(self, move):
        taken = super().skip(move)
        Spy.skips.append((move, taken))
        return taken


@pytest.fixture
def spy(monkeypatch):
    monkeypatch.setattr(annealing, "_NoopScan", Spy)
    monkeypatch.setattr(Spy, "runs", 0)
    monkeypatch.setattr(Spy, "skips", [])
    return Spy


@st.composite
def sparse_runs(draw):
    n_cores = draw(st.integers(16, 128))
    n_threads = draw(st.integers(n_cores, 2 * n_cores))
    objective, allocation = sparse_problem(
        n_cores,
        n_threads,
        draw(st.integers(0, 2**32 - 1)),
        mode=draw(st.sampled_from(MODES)),
    )
    cap = default_iteration_cap(n_cores, n_threads)
    config = SAConfig(
        max_iterations=draw(st.one_of(st.none(), st.integers(1, cap))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return objective, allocation, config, draw(st.booleans())


@settings(max_examples=40, deadline=None)
@given(sparse_runs())
def test_scan_matches_oracle_on_sparse_problems(run):
    """Every drawn run scans (the break-even is lowered to 0, so the
    16–31-core problems below it scan too) and equals the oracle."""
    objective, allocation, config, keep_trace = run
    with mock.patch.multiple(annealing, _NoopScan=Spy, SCAN_MIN_RUN=0.0):
        with mock.patch.multiple(Spy, runs=0, skips=[]):
            got = anneal(objective, allocation, config, keep_trace=keep_trace)
            assert Spy.runs == 1
    assert_same(got, sa_oracle.anneal(objective, allocation, config, keep_trace))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_forced_scan_matches_oracle_on_small_problems(data):
    """The scan forced onto ``test_sa_oracle``'s small problems (masks,
    boundary cells, every mode, wider slot arrays) and random schedules."""
    objective, allocation = data.draw(problems())
    config = data.draw(sa_configs)
    with mock.patch.object(annealing, "SCAN_MIN_RUN", 0.0):
        got = anneal(objective, allocation, config, keep_trace=True)
    assert_same(got, sa_oracle.anneal(objective, allocation, config, keep_trace=True))


def test_which_runs_scan(spy):
    """A sparse run scans; a dense one (dvfsquad's 4 cores × 8 threads,
    biglittle's 8 × 4) keeps the loop."""
    for n_cores, n_threads in ((4, 8), (8, 4), (128, 256)):
        objective, allocation = sparse_problem(n_cores, n_threads, seed=1)
        assert (expected_noop_run(allocation) >= SCAN_MIN_RUN) == (n_cores == 128)
        runs = spy.runs
        anneal(objective, allocation, SAConfig(max_iterations=50))
        assert spy.runs == runs + (n_cores == 128)


def test_expected_noop_run():
    """``1 / (1 - e²)`` for an empty-slot fraction ``e``: 64.25 for
    hmp:128 × 256, 2.29 for 4 cores × 8 threads, 4.27 for 8 × 4, 1 for
    a full array."""
    assert expected_noop_run(Allocation.round_robin(256, 128)) == pytest.approx(
        128**2 / 255
    )
    assert expected_noop_run(Allocation.round_robin(8, 4)) == pytest.approx(16 / 7)
    assert expected_noop_run(Allocation.round_robin(4, 8)) == pytest.approx(64 / 15)
    assert expected_noop_run(Allocation.from_mapping([0, 1], 2, 1)) == 1.0


def test_hmp128_sized_run_cut_at_move_32(spy):
    """A 32-move cap ends the run at move 32: the scan must not carry it
    past the cap, and it leaves the last move to the loop."""
    objective, allocation = sparse_problem(128, 256, seed=2)
    config = SAConfig(max_iterations=32)
    got = anneal(objective, allocation, config, keep_trace=True)
    assert got.iterations == 32
    assert spy.runs == 1 and sum(taken for _, taken in spy.skips) > 0
    assert max(move + taken for move, taken in spy.skips) < 32
    assert_same(got, sa_oracle.anneal(objective, allocation, config, keep_trace=True))


@pytest.mark.parametrize("which", ["first", "middle", "last"])
def test_cap_inside_a_noop_run_cuts_the_skip(which, spy):
    """A cap that falls halfway through a run of no-op moves of the
    uncapped walk: the skip there must stop one move short of the cap,
    leave that last move to the loop, and the run must equal the
    oracle's.  The walk up to the cap does not depend on the cap."""
    objective, allocation = sparse_problem(64, 96, seed=3)
    anneal(objective, allocation, SAConfig())
    runs = [(move, taken) for move, taken in spy.skips if taken >= 4]
    move, taken = runs[{"first": 0, "middle": len(runs) // 2, "last": -1}[which]]
    cap = move + taken // 2 + 1
    spy.skips.clear()
    config = SAConfig(max_iterations=cap)
    got = anneal(objective, allocation, config, keep_trace=True)
    assert got.iterations == cap
    assert (move, cap - 1 - move) in spy.skips
    assert max(move + taken for move, taken in spy.skips) == cap - 1
    assert_same(got, sa_oracle.anneal(objective, allocation, config, keep_trace=True))


def test_scan_resumes_after_an_undo_leaves_the_value_off_current(spy, monkeypatch):
    """An undo can leave the evaluator a few ULPs off ``current``; the
    no-op moves after it are then not neutral and must go through the
    acceptance rule.  The scan waits, and takes over again right after
    the move that puts ``current`` back on the value."""
    objective, allocation = sparse_problem(32, 48, seed=0)
    config = SAConfig(seed=1)
    assert expected_noop_run(allocation) >= SCAN_MIN_RUN
    with monkeypatch.context() as patch:
        # A stride-1 trace of the reference walk gives ``current``
        # after every move.
        patch.setattr(sa_oracle, "TRACE_SAMPLES", math.inf)
        drifted = drifted_noops(objective, allocation, config, patch)
    assert drifted
    spy.skips.clear()
    assert_same(
        anneal(objective, allocation, config, keep_trace=True),
        sa_oracle.anneal(objective, allocation, config, keep_trace=True),
    )
    resumed = {move for move, taken in spy.skips if taken}
    assert resumed & set(drifted)


@settings(max_examples=200, deadline=None)
@given(
    initial=st.floats(0.0, 1.0),
    decay=st.floats(0.0, 1.0, exclude_min=True),
    n=st.integers(1, 4001),
)
def test_schedule_equals_repeated_products(initial, decay, n):
    """Entry ``k`` is what ``k`` repeated ``*= decay`` leave, and its
    ``np.sqrt`` is ``math.sqrt`` of it."""
    table = schedule(initial, decay, n)
    value, want = initial, []
    for _ in range(n):
        want.append(value)
        value *= decay
    assert table.tolist() == want
    assert np.sqrt(table).tolist() == [math.sqrt(v) for v in want]


@pytest.mark.parametrize(
    "initial, decay",
    [(1.0, 0.995), (0.05, 0.99), (0.05, 0.01), (0.3, 1.0)],
    ids=["perturbation", "acceptance", "underflow", "no-decay"],
)
def test_stock_schedules_equal_repeated_products(initial, decay):
    table = schedule(initial, decay, 4001).tolist()
    value = initial
    for k in range(4001):
        assert table[k] == value, k
        value *= decay


def test_short_dense_run_draws_one_block_of_three_per_move(monkeypatch):
    """A move takes at most three draws: a 100-iteration anneal (the
    governor's inner anneal) computes one 300-draw block, not 512."""
    sizes = []
    block = Xorshift32.randi_block

    def recording(self, n):
        sizes.append(n)
        return block(self, n)

    monkeypatch.setattr(Xorshift32, "randi_block", recording)
    objective, allocation = sparse_problem(4, 8, seed=6)
    anneal(objective, allocation, SAConfig(max_iterations=100))
    assert sizes == [300]
    sizes.clear()
    anneal(objective, allocation, SAConfig(max_iterations=400))
    assert sizes[0] == DRAW_BLOCK
