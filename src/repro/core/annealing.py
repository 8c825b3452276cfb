"""Run-time simulated-annealing optimizer (paper Algorithm 1).

Faithful structure: the allocation Ψ is a flat slot array; each
iteration perturbs one random slot position to a second position whose
distance contracts with the perturbation schedule, swaps them, and
accepts the move if the objective improves — otherwise with a
probability ``e^(-|ΔJ|/accept)`` that shrinks with the acceptance
schedule.  The probabilistic primitives are the paper's fixed-point
``rand``/``e^x`` (:mod:`repro.core.fixed_point`); the float-math and
full re-evaluation ablations run on the reference loop in
``tests/core/sa_oracle.py``.

Design notes / deliberate choices:

* ``diff`` is normalised by the magnitude of the current objective, so
  one acceptance scale works across workloads whose ``J_E`` differs by
  orders of magnitude (the paper's Fig. 8(b) constants are for its own
  fixed Gem5 platform; a library must be scale-free).
* The acceptance test for worse moves uses the paper's integer trick
  ``randi() mod round(1/probability) == 0``.
* The objective is evaluated incrementally (O(1) per move) via
  :class:`~repro.core.objective.IncrementalEvaluator`, the paper's
  "keeping track of previous computations" optimisation.
* Iterations are capped per platform scale by
  :func:`default_iteration_cap` — the Fig. 8(a) trade of solution
  quality for bounded overhead on large systems.

Bit-identity contract: the loop is written for host speed, but every
decision is a pure function of the seed and the objective, so run
digests do not depend on how fast the loop is.  No decision reads the
clock: the iteration cap is the run's only bound.  Each RNG draw keeps
its position, every float operation keeps its operands and order, the
evaluator's starting aggregates are numpy reductions and ``J_E``'s
power is a scalar ``**`` (see
:class:`~repro.core.objective.IncrementalEvaluator`).  Four shortcuts
keep that contract:

* **Block draws.**  The draws come from
  :meth:`~repro.core.fixed_point.Xorshift32.randi_block` (as an array,
  ``randi_array``, where the run scans), which returns exactly the
  next ``randi()`` outputs; a move takes two (``pos`` and the offset,
  each ``randi() % total_slots``) and a worse move its acceptance
  draw, in that order.  A move takes at most three draws, so the first
  block holds ``min(DRAW_BLOCK, 3·iterations)``.  What is left of the
  last block is never used, and the generator is private to the run.
* **No-op moves.**  A self or empty–empty swap changes no slot, so
  the loop skips ``apply_swap`` and reads the value the evaluator
  already holds.  That value is not always ``current``: undoing a
  worse move leaves the running sums a few ULPs off, so the move's
  ``diff`` still goes through the acceptance rule and may draw,
  exactly as the straightforward loop's does.
* **The best-state journal.**  Instead of copying the allocation at
  each new best, the loop logs the accepted slot-changing swaps made
  since the last one and, at the end, undoes them in reverse on one
  copy of the final state.  Swaps are involutions, so this rebuilds the
  best state's slots and thread map exactly.
* **Runs of no-op moves.**  While the evaluator's value equals
  ``current``, a no-op move is a neutral accept that takes exactly two
  draws and changes only ``accepted``, the iteration count and the two
  schedules.  On a sparse slot array the loop skips each run of them
  in one numpy step: from the buffered draws it computes a window of
  the moves ahead, ``pos = d % S`` and ``pos_new = clip(pos +
  trunc(span_k·(d′ % S − pos)), 0, S − 1)`` with ``span_k`` from a
  per-run :func:`schedule` table (``np.multiply.accumulate`` and
  ``np.sqrt`` give the same floats as repeated ``*=`` and
  ``math.sqrt``), finds the first move that swaps two distinct slots,
  one of them occupied, and advances the counters, the draws, both
  schedules and any trace samples across the moves before it at once;
  that move runs through the loop body as before.  An acceptance draw
  shifts the pairing of the draws and rebuilds the window; a change of
  occupancy only recomputes which of its moves are no-ops.  The rule
  that decides whether a run scans reads the allocation's empty-slot
  fraction ``e``: the expected no-op run, about ``1 / (1 − e²)``
  (:func:`expected_noop_run`), must reach :data:`SCAN_MIN_RUN` = 16.
  That is the measured break-even (2-vCPU VM, Python 3.11, numpy 2.4,
  stock schedule, per-anneal time of the loop over the scan's): on
  default-slot problems of 16–40 cores × 8–64 threads it was
  0.55–0.97× at an expected run of 8, 0.74–1.26× at 12 and
  1.05–1.60× from 16 to 20.  hmp:128 × 256 (a run of 64) scans and
  takes about 1.8× less time per anneal; dvfsquad × 8 (2.3) and
  biglittle's problems (4.3) keep the loop and its cost.

A differential fuzz against a reference copy of the straightforward
loop (``tests/core/sa_oracle.py``) pins this with exact equality.

Rejected alternative: batching the governor's short inner anneals
(up to 16 per decision once its OPP screen has run) into one numpy walk
in lockstep would amortise the Python per-move cost, but ``J_E`` would
then go through array ``np.power``, whose SIMD path differs from scalar
``pow`` in the last bit on some inputs — enough to flip an acceptance
decision and move digests.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Optional

import numpy as np

from repro.core.allocation import EMPTY, Allocation
from repro.core.fixed_point import DRAW_BLOCK, Xorshift32, exp_neg
from repro.core.objective import EnergyEfficiencyObjective, IncrementalEvaluator

#: Hard ceiling on iterations regardless of system size (Fig. 8(a)'s
#: flattening for 128-core scenarios).
MAX_ITERATION_CAP = 4000
#: Floor so tiny systems still explore.
MIN_ITERATION_CAP = 150


def default_iteration_cap(n_cores: int, n_threads: int) -> int:
    """Iteration budget per Fig. 8(a)'s scalability schedule.

    Grows with the search-space dimensions (m threads, n cores) but is
    clamped so the balance phase stays a bounded fraction of the epoch
    on large systems — the paper's explicit quality/overhead trade.
    """
    if n_cores < 1 or n_threads < 1:
        raise ValueError("need at least one core and one thread")
    proposed = int(25 * n_threads * math.sqrt(n_cores))
    return max(MIN_ITERATION_CAP, min(MAX_ITERATION_CAP, proposed))


@dataclass(frozen=True)
class SAConfig:
    """Tunable inputs of Algorithm 1.

    ``max_iterations=None`` selects :func:`default_iteration_cap` for
    the problem size at hand.
    """

    max_iterations: Optional[int] = None
    #: ``Opt_perturb`` — initial perturbation amplitude in [0, 1]:
    #: fraction of the slot array a move may span.
    initial_perturbation: float = 1.0
    #: ``Opt_Δperturb`` — geometric decay of the perturbation per move.
    perturbation_decay: float = 0.995
    #: ``Opt_accept`` — initial acceptance temperature, relative to the
    #: current objective magnitude.
    initial_acceptance: float = 0.05
    #: ``Opt_Δaccept`` — geometric decay of the acceptance temperature.
    acceptance_decay: float = 0.99
    #: PRNG seed (xorshift32 state).
    seed: int = 0x5EED5EED

    def __post_init__(self) -> None:
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not 0.0 <= self.initial_perturbation <= 1.0:
            raise ValueError("initial_perturbation must be in [0, 1]")
        for name in ("perturbation_decay", "acceptance_decay"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if self.initial_acceptance <= 0:
            raise ValueError("initial_acceptance must be positive")


#: Convergence-trace samples kept per annealing run; the sampling
#: stride adapts so long runs stay at this resolution.
TRACE_SAMPLES = 32


@dataclass
class SATrace:
    """Sampled convergence trace of one annealing run (Fig. 8 data).

    Sampling is iteration-indexed (every ``stride`` moves plus the
    final state), so the trace is deterministic for a given seed and
    bounded at roughly :data:`TRACE_SAMPLES` points however long the
    run is.  Each sample records the walk's current/best objective and
    the two cooling schedules.
    """

    stride: int = 1
    samples: "list[dict]" = field(default_factory=list)

    def record(
        self,
        iteration: int,
        current: float,
        best: float,
        perturbation: float,
        acceptance: float,
    ) -> None:
        self.samples.append(
            {
                "iteration": iteration,
                "current": current,
                "best": best,
                "perturbation": perturbation,
                "acceptance": acceptance,
            }
        )


@dataclass
class SAResult:
    """Outcome of one annealing run."""

    best_allocation: Allocation
    best_value: float
    initial_value: float
    iterations: int
    accepted_moves: int
    uphill_accepts: int
    #: Sampled convergence trace; None unless the caller asked for one.
    trace: Optional[SATrace] = None

    @property
    def improvement(self) -> float:
        """Relative objective improvement over the initial allocation."""
        if self.initial_value == 0:
            return 0.0
        return (self.best_value - self.initial_value) / abs(self.initial_value)


#: A run skips its runs of no-op moves in numpy steps when
#: :func:`expected_noop_run` reaches this (the measured break-even: see
#: the module docstring).
SCAN_MIN_RUN = 16.0
#: Moves per look-ahead window of the scan.
SCAN_WINDOW = 256


def expected_noop_run(allocation: Allocation) -> float:
    """Expected length of a run of no-op moves on ``allocation``.

    A move whose two slots fall independently on a fraction ``e`` of
    empty slots swaps two of them with probability ``e²``; the run of
    such moves is geometric, about ``1 / (1 - e²)`` long.
    """
    empty = 1.0 - allocation.n_threads / len(allocation)
    return math.inf if empty == 1.0 else 1.0 / (1.0 - empty * empty)


def schedule(initial: float, decay: float, n: int) -> np.ndarray:
    """``initial`` after 0, 1, …, ``n - 1`` decays: entry ``k`` is the
    float that ``k`` repeated ``*= decay`` leave (``accumulate``
    multiplies left to right, each product rounded once)."""
    factors = np.full(n, decay)
    factors[:1] = initial
    return np.multiply.accumulate(factors)


class _NoopScan:
    """The moves ahead of a sparse run, computed from its buffered draws.

    While the evaluator's value equals ``current``, a move that changes
    no slot is a neutral accept that takes exactly two draws, so the
    moves ahead follow from the draws alone: move ``j`` of a window
    built at move ``k`` from draw ``q`` has ``pos = d[q + 2j] % S`` and
    spans ``sqrt(perturbation[k + j])``.  :meth:`skip` takes the moves
    before the first that swaps two distinct slots, one of them
    occupied; the loop runs that move itself and reports it to
    :meth:`moved`.  A move that took an acceptance draw shifts the
    pairing of the draws, so the next :meth:`skip` builds a new window;
    a change of occupancy only recomputes which moves are no-ops.
    """

    def __init__(
        self, rng: Xorshift32, allocation: Allocation, iterations: int, config: SAConfig
    ) -> None:
        self._rng = rng
        self._slots = allocation.slots
        self._n_slots = len(allocation)
        # One byte per slot, read by :meth:`moved` and, as a bool array
        # over the same memory, by the window's no-op test.
        self._occupancy = bytearray(self._n_slots)
        self._occupied = np.frombuffer(self._occupancy, dtype=bool)
        for slot in allocation._thread_slot:
            self._occupancy[slot] = 1
        self._iterations = iterations
        self._perturbation = schedule(
            config.initial_perturbation, config.perturbation_decay, iterations + 1
        )
        self._acceptance = schedule(
            config.initial_acceptance, config.acceptance_decay, iterations + 1
        )
        self._span = np.sqrt(self._perturbation)
        # A move takes at most three draws.  ``_raw[:_filled]`` are the
        # run's draws so far (``_mod`` them mod S); ``_next`` is the next.
        self._raw = np.empty(3 * iterations, dtype=np.int64)
        self._mod = np.empty_like(self._raw)
        self._filled = self._next = 0
        self._window_move = self._window_draw = 0
        self._pos = self._new = self._moving = self._raw[:0]
        # Window moves that change a slot; None until computed.
        self._hits: "Optional[list[int]]" = None

    def draw(self) -> int:
        """The run's next draw: the next ``randi()`` output."""
        i = self._next
        if i == self._filled:
            self._fill(i + 1)
        self._next = i + 1
        return int(self._raw[i])

    def _fill(self, end: int) -> None:
        while self._filled < end:
            start = self._filled
            stop = min(start + DRAW_BLOCK, len(self._raw))
            self._raw[start:stop] = self._rng.randi_array(stop - start)
            np.remainder(
                self._raw[start:stop], self._n_slots, out=self._mod[start:stop]
            )
            self._filled = stop

    def _build(self, move: int) -> None:
        n = min(SCAN_WINDOW, self._iterations - move)
        first = self._next
        self._fill(first + 2 * n)
        pos = self._mod[first : first + 2 * n : 2]
        offset = self._mod[first + 1 : first + 2 * n : 2] - pos
        new = pos + (self._span[move : move + n] * offset).astype(np.int64)
        np.maximum(new, 0, out=new)
        np.minimum(new, self._n_slots - 1, out=new)
        self._pos, self._new, self._moving = pos, new, pos != new
        self._window_move, self._window_draw = move, first
        self._hits = None

    def skip(self, move: int) -> int:
        """Take the no-op moves from ``move`` on, with their draws, and
        return how many were taken.  The run's last move is always left
        to the loop."""
        limit = self._iterations - 1 - move
        taken = 0
        while taken < limit:
            j = move + taken - self._window_move
            if j >= len(self._pos) or self._next != self._window_draw + 2 * j:
                self._build(move + taken)
                j = 0
            if self._hits is None:
                occupied = self._occupied
                touched = occupied[self._pos] | occupied[self._new]
                self._hits = (self._moving & touched).nonzero()[0].tolist()
            hit = bisect_left(self._hits, j)
            stop = self._hits[hit] if hit < len(self._hits) else len(self._pos)
            run = min(stop - j, limit - taken)
            taken += run
            self._next += 2 * run
            if hit < len(self._hits):
                break
        return taken

    def schedules(self, move: int) -> "tuple[float, float]":
        """The perturbation and acceptance after ``move`` decays."""
        return float(self._perturbation[move]), float(self._acceptance[move])

    def moved(self, pos_a: int, pos_b: int) -> None:
        """Follow the loop's move of ``(pos_a, pos_b)``: an accepted swap
        of a thread with an empty slot moves an occupied slot."""
        occupancy = self._occupancy
        if occupancy[pos_a] != (self._slots[pos_a] != EMPTY):
            occupancy[pos_a], occupancy[pos_b] = occupancy[pos_b], occupancy[pos_a]
            self._hits = None


def anneal(
    objective: EnergyEfficiencyObjective,
    initial: Allocation,
    config: SAConfig = SAConfig(),
    keep_trace: bool = False,
) -> SAResult:
    """Run Algorithm 1 from ``initial`` and return the best allocation.

    ``initial`` is not mutated.  The returned allocation is the best
    one *visited* (tracking the best costs nothing and dominates
    returning the final state).  With ``keep_trace`` the result carries
    a sampled :class:`SATrace` of the walk — observability only, the
    search itself is identical either way.
    """
    working = initial.copy()
    evaluator = IncrementalEvaluator(objective, working)
    rng = Xorshift32(config.seed)
    total_slots = len(working)
    iterations = config.max_iterations
    if iterations is None:
        iterations = default_iteration_cap(objective.n_cores, objective.n_threads)

    perturb = config.initial_perturbation
    accept = config.initial_acceptance
    current = evaluator.value
    initial_value = current
    best_value = current
    # Accepted slot-changing swaps since the last new best: undone in
    # reverse on the final state, they give the best one.
    journal: "list[tuple[int, int]]" = []
    accepted = 0
    uphill = 0
    trace = None
    if keep_trace:
        trace = SATrace(stride=max(iterations // TRACE_SAMPLES, 1))
        trace.record(0, current, best_value, perturb, accept)

    # Hot-loop locals.  ``draw()`` is the next ``randi()`` output;
    # ``draw() % total_slots`` is exactly ``randi_range(0, total_slots)``,
    # and ``draw() % total_slots - pos`` is ``randi_range(-pos,
    # total_slots - pos)``: same draws, same order.  A move takes at most
    # three draws, so a short run needs only part of the first block.
    scan = None
    if expected_noop_run(working) >= SCAN_MIN_RUN:
        scan = _NoopScan(rng, working, iterations, config)
        draw = scan.draw
    else:
        blocks = chain((min(DRAW_BLOCK, 3 * iterations),), repeat(DRAW_BLOCK))
        draw = chain.from_iterable(map(rng.randi_block, blocks)).__next__
    sqrt = math.sqrt
    apply_swap = evaluator.apply_swap
    slots = working.slots
    # The evaluator's value for ``working`` as it stands.
    value = current
    perturbation_decay = config.perturbation_decay
    acceptance_decay = config.acceptance_decay
    last_slot = total_slots - 1
    performed = 0
    # A dense run makes every move in one pass of the inner loop.  A
    # sparse run alternates: while ``value == current`` it skips the
    # no-op moves ahead at once (each a neutral accept), leaving at
    # least one, then the inner loop makes one move.
    while performed < iterations:
        moves = iterations - performed
        if scan is not None:
            if value == current:
                skipped = scan.skip(performed)
                if skipped:
                    accepted += skipped
                    if trace is not None:
                        stride = trace.stride
                        first = (performed // stride + 1) * stride
                        last = performed + skipped
                        for done in range(first, last + 1, stride):
                            schedules = scan.schedules(done)
                            trace.record(done, current, best_value, *schedules)
                    performed += skipped
                    perturb, accept = scan.schedules(performed)
            moves = 1
        for _ in range(moves):
            performed += 1
            pos = draw() % total_slots
            span = sqrt(perturb)
            offset = draw() % total_slots - pos
            pos_new = pos + int(span * offset)
            if pos_new < 0:
                pos_new = 0
            elif pos_new > last_slot:
                pos_new = last_slot

            # A self or empty–empty swap changes nothing: ``apply_swap``
            # would return ``value`` as it stands.  That value can sit a few
            # ULPs off ``current`` after an undo, so even such a no-op move
            # goes through the acceptance rule.
            changed = slots[pos] != slots[pos_new]
            if changed:
                value = apply_swap(pos, pos_new)
            diff = value - current
            if diff < 0:
                # Algorithm 1's acceptance rule for a worse move: take it
                # with probability e^(-|ΔJ| / (accept·|J|)) through the
                # paper's integer trick ``randi() mod round(1/p) == 0``,
                # which draws only when p > 0.  An underflowed scale makes
                # the ratio +inf, which the cap absorbs.
                scale = accept * max(abs(current), 1e-30)
                probability = exp_neg(min(-diff / scale, 11.0) if scale else 11.0)
                take = (
                    probability > 0
                    and draw() % max(int(round(1.0 / probability)), 1) == 0
                )
            else:
                # Improving and neutral moves (e.g. an empty–empty swap) are
                # taken: a neutral move costs nothing and keeps the walk moving.
                take = True
            if take:
                current = value
                accepted += 1
                if diff < 0:
                    uphill += 1
                if current > best_value:
                    best_value = current
                    journal.clear()
                elif changed:
                    journal.append((pos, pos_new))
            elif changed:
                # Swaps are involutive: undo by re-applying.
                value = apply_swap(pos, pos_new)

            perturb *= perturbation_decay
            accept *= acceptance_decay
            if trace is not None and performed % trace.stride == 0:
                trace.record(performed, current, best_value, perturb, accept)
        if scan is not None:
            scan.moved(pos, pos_new)

    # ``working`` is this run's own copy, and the evaluator and the scan
    # that follow it are done: undo the journal on it in place.
    best_allocation = working
    for pos_a, pos_b in reversed(journal):
        best_allocation.swap(pos_a, pos_b)
    if trace is not None and trace.samples[-1]["iteration"] != performed:
        trace.record(performed, current, best_value, perturb, accept)
    return SAResult(
        best_allocation=best_allocation,
        best_value=best_value,
        initial_value=initial_value,
        iterations=performed,
        accepted_moves=accepted,
        uphill_accepts=uphill,
        trace=trace,
    )
