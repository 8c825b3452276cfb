"""Run-time simulated-annealing optimizer (paper Algorithm 1).

Faithful structure: the allocation Ψ is a flat slot array; each
iteration perturbs one random slot position to a second position whose
distance contracts with the perturbation schedule, swaps them, and
accepts the move if the objective improves — otherwise with a
probability ``e^(-|ΔJ|/accept)`` that shrinks with the acceptance
schedule.  The probabilistic primitives can run on the paper's
fixed-point ``rand``/``e^x`` (:mod:`repro.core.fixed_point`) or on
float math (the ablation benchmark compares both).

Design notes / deliberate choices:

* ``diff`` is normalised by the magnitude of the current objective, so
  one acceptance scale works across workloads whose ``J_E`` differs by
  orders of magnitude (the paper's Fig. 8(b) constants are for its own
  fixed Gem5 platform; a library must be scale-free).
* The acceptance test for worse moves uses the paper's integer trick
  ``randi() mod round(1/probability) == 0``.
* The objective is evaluated incrementally (O(1) per move) via
  :class:`~repro.core.objective.IncrementalEvaluator`, the paper's
  "keeping track of previous computations" optimisation; a full
  re-evaluation mode exists for the ablation.
* Iterations are capped per platform scale by
  :func:`default_iteration_cap` — the Fig. 8(a) trade of solution
  quality for bounded overhead on large systems.

Bit-identity contract: the loop is written for host speed, but every
decision is a pure function of the seed and the objective, so run
digests do not depend on how fast the loop is.  Each RNG draw keeps its
position, every float operation keeps its operands and order, the
evaluator's starting aggregates are numpy reductions and ``J_E``'s
power is a scalar ``**`` (see
:class:`~repro.core.objective.IncrementalEvaluator`).  Three shortcuts
keep that contract:

* **Block draws.**  The draws come from
  :meth:`~repro.core.fixed_point.Xorshift32.randi_block`, which returns
  exactly the next ``randi()`` outputs; a move takes two (``pos`` and
  the offset, each ``randi() % total_slots``) and a worse move its
  acceptance draw, in that order.  What is left of the last block is
  never used, and the generator is private to the run.
* **No-op moves.**  A self or empty–empty swap changes no slot, so in
  incremental mode the loop skips ``apply_swap`` and reads the value
  the evaluator already holds.  That value is not always ``current``:
  undoing a worse move leaves the running sums a few ULPs off, so the
  move's ``diff`` still goes through the acceptance rule and may draw,
  exactly as the straightforward loop's does.  The full re-evaluation
  mode scores every move.
* **The best-state journal.**  Instead of copying the allocation at
  each new best, the loop logs the accepted slot-changing swaps made
  since the last one and, at the end, undoes them in reverse on one
  copy of the final state.  Swaps are involutions, so this rebuilds the
  best state's slots and thread map exactly, truncated runs included.

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
import time
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Optional

from repro.core.allocation import Allocation
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
    #: Use the fixed-point ``e^x`` (paper's kernel implementation) or
    #: float math (ablation).
    use_fixed_point_exp: bool = True
    #: Use the O(1) incremental objective (paper's optimisation) or a
    #: full re-evaluation per move (ablation).
    incremental: bool = True
    #: Wall-clock budget (seconds) for the annealing run; the loop
    #: checks the clock every few moves and truncates cleanly when the
    #: budget is exhausted, returning the best allocation found so far.
    #: ``None`` disables the budget (iteration-bounded only).  This is
    #: the epoch-time-budget defence: the balance phase can never eat
    #: into the next epoch no matter how large the platform is.
    time_budget_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.time_budget_s is not None and self.time_budget_s <= 0:
            raise ValueError(
                f"time_budget_s must be positive, got {self.time_budget_s}"
            )
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
    #: True when the wall-clock budget cut the run short.
    truncated: bool = False
    #: Sampled convergence trace; None unless the caller asked for one.
    trace: Optional[SATrace] = None

    @property
    def improvement(self) -> float:
        """Relative objective improvement over the initial allocation."""
        if self.initial_value == 0:
            return 0.0
        return (self.best_value - self.initial_value) / abs(self.initial_value)


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
    # reverse on a copy of the final state, they give the best one.
    journal: "list[tuple[int, int]]" = []
    accepted = 0
    uphill = 0
    truncated = False
    deadline = None
    if config.time_budget_s is not None:
        deadline = time.perf_counter() + config.time_budget_s
    trace = None
    if keep_trace:
        trace = SATrace(stride=max(iterations // TRACE_SAMPLES, 1))
        trace.record(0, current, best_value, perturb, accept)

    # Hot-loop locals.  ``draw()`` is the next ``randi()`` output, taken
    # from blocks of DRAW_BLOCK; ``draw() % total_slots`` is exactly
    # ``randi_range(0, total_slots)``, and ``draw() % total_slots - pos``
    # is ``randi_range(-pos, total_slots - pos)``: same draws, same order.
    draw = chain.from_iterable(map(rng.randi_block, repeat(DRAW_BLOCK))).__next__
    sqrt = math.sqrt
    exp = exp_neg if config.use_fixed_point_exp else lambda x: math.exp(-x)
    slots = working.slots
    full = not config.incremental
    # The evaluator's value for ``working`` as it stands.
    value = current
    if full:

        def move(pos_a: int, pos_b: int) -> float:
            working.swap(pos_a, pos_b)
            return objective.evaluate(working)

        def undo(pos_a: int, pos_b: int) -> float:
            working.swap(pos_a, pos_b)
            return math.nan  # never read: this mode scores every move

    else:
        move = undo = evaluator.apply_swap
    perturbation_decay = config.perturbation_decay
    acceptance_decay = config.acceptance_decay
    last_slot = total_slots - 1
    performed = 0
    for _ in range(iterations):
        if deadline is not None and performed % 32 == 0 and performed > 0:
            if time.perf_counter() >= deadline:
                truncated = True
                break
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
        if changed or full:
            value = move(pos, pos_new)
        diff = value - current
        if diff < 0:
            # Algorithm 1's acceptance rule for a worse move: take it
            # with probability e^(-|ΔJ| / (accept·|J|)) through the
            # paper's integer trick ``randi() mod round(1/p) == 0``,
            # which draws only when p > 0.  An underflowed scale makes
            # the ratio +inf, which the cap absorbs.
            scale = accept * max(abs(current), 1e-30)
            probability = exp(min(-diff / scale, 11.0) if scale else 11.0)
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
            value = undo(pos, pos_new)

        perturb *= perturbation_decay
        accept *= acceptance_decay
        if trace is not None and performed % trace.stride == 0:
            trace.record(performed, current, best_value, perturb, accept)

    best_allocation = working.copy()
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
        truncated=truncated,
        trace=trace,
    )
