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

Bit-identity contract: the loop is written for host speed (hot names
bound to locals, one evaluator call per move, positions drawn as
``randi() % total_slots``), but every decision is a pure function of
the seed and the objective.  Each RNG draw keeps its position, every
float operation keeps its operands and order, the evaluator's starting
aggregates are numpy reductions and ``J_E``'s power is a scalar
``**`` (see :class:`~repro.core.objective.IncrementalEvaluator`), so
run digests do not depend on how fast the loop is.  A differential
fuzz against a reference copy of the straightforward loop pins this
with exact equality.

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
from typing import Optional

from repro.core.allocation import Allocation
from repro.core.fixed_point import Xorshift32, exp_neg
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


def accept_move(
    diff: float,
    current: float,
    acceptance: float,
    use_fixed_point_exp: bool,
    rng: Xorshift32,
) -> bool:
    """Algorithm 1's acceptance rule for a move that changes ``J`` by ``diff``.

    Improving and neutral moves (e.g. an empty–empty swap) are taken: a
    neutral move costs nothing and keeps the walk moving.  A worse move
    is taken with probability ``e^(-|ΔJ| / (accept·|J|))`` through the
    paper's integer trick ``randi() mod round(1/p) == 0``, which draws
    from ``rng`` only when ``p > 0``.
    """
    if not diff < 0:
        return True
    scale = acceptance * max(abs(current), 1e-30)
    # An underflowed scale makes the ratio +inf, which the cap absorbs.
    x = min(-diff / scale, 11.0) if scale else 11.0
    probability = exp_neg(x) if use_fixed_point_exp else math.exp(-x)
    if probability > 0:
        inverse = max(int(round(1.0 / probability)), 1)
        return rng.randi() % inverse == 0
    return False


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
    best_allocation = working.copy()
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

    # Hot-loop locals.  ``randi() % total_slots`` is exactly
    # ``randi_range(0, total_slots)``, and ``randi() % total_slots - pos``
    # is ``randi_range(-pos, total_slots - pos)``: same draws, same order.
    randi = rng.randi
    sqrt = math.sqrt
    if config.incremental:
        move = undo = evaluator.apply_swap
    else:

        def move(pos_a: int, pos_b: int) -> float:
            working.swap(pos_a, pos_b)
            return objective.evaluate(working)

        undo = working.swap
    fixed_point = config.use_fixed_point_exp
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
        pos = randi() % total_slots
        span = sqrt(perturb)
        offset = randi() % total_slots - pos
        pos_new = pos + int(span * offset)
        if pos_new < 0:
            pos_new = 0
        elif pos_new > last_slot:
            pos_new = last_slot

        new_value = move(pos, pos_new)
        diff = new_value - current
        if accept_move(diff, current, accept, fixed_point, rng):
            current = new_value
            accepted += 1
            if diff < 0:
                uphill += 1
            if current > best_value:
                best_value = current
                best_allocation = working.copy()
        else:
            # Swaps are involutive: undo by re-applying.
            undo(pos, pos_new)

        perturb *= perturbation_decay
        accept *= acceptance_decay
        if trace is not None and performed % trace.stride == 0:
            trace.record(performed, current, best_value, perturb, accept)

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
