"""Fig. 8 — SA iteration budget vs solution quality, and the
optimizer's parameter values.

(a) *distance to optimal*: run Algorithm 1 on synthetic allocation
problems whose optimum is known (small enough for exhaustive search)
under increasing iteration caps, reporting the mean relative gap to
the optimum — the paper's quality/overhead trade-off curve, plus the
iteration cap chosen for each scalability scenario;

(b) the values of the remaining optimizer parameters.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.analysis.reporting import ExperimentResult, Finding
from repro.analysis.stats import mean
from repro.core.allocation import Allocation
from repro.core.annealing import SAConfig, anneal, default_iteration_cap
from repro.core.objective import EnergyEfficiencyObjective
from repro.experiments.fig7 import SCALING_SCENARIOS
from repro.hardware import microarch
from repro.hardware import power as power_model
from repro.hardware.features import TABLE2_TYPES
from repro.workload.demand import demanded_fraction_on
from repro.workload.generator import training_corpus

#: Iteration caps swept in Fig. 8(a).
ITERATION_SWEEP = (10, 30, 100, 300, 1000, 3000)


def synthetic_problem(
    n_threads: int, n_cores: int, seed: int
) -> EnergyEfficiencyObjective:
    """A random allocation problem built from hardware ground truth.

    Thread characteristics are drawn from the synthetic corpus; the S/P
    matrices use the hardware model directly (no prediction error), so
    the optimum is a property of the problem, not the predictor.
    """
    phases = training_corpus(n_threads, seed)
    core_types = [TABLE2_TYPES[i % len(TABLE2_TYPES)] for i in range(n_cores)]
    ips = np.zeros((n_threads, n_cores))
    power = np.zeros((n_threads, n_cores))
    util = np.zeros((n_threads, n_cores))
    for i, phase in enumerate(phases):
        for j, core_type in enumerate(core_types):
            perf = microarch.estimate(phase, core_type)
            ips[i, j] = perf.ips(core_type)
            power[i, j] = power_model.busy_power(core_type, perf.ipc).total_w
            util[i, j] = demanded_fraction_on(phase, core_type)
    idle = [power_model.idle_power(t).total_w for t in core_types]
    sleep = [power_model.sleep_power(t) for t in core_types]
    return EnergyEfficiencyObjective(
        ips=ips, power=power, utilization=util, idle_power=idle, sleep_power=sleep
    )


def brute_force_optimum(objective: EnergyEfficiencyObjective) -> float:
    """Exhaustive search over all n^m allocations (small cases only)."""
    m, n = objective.n_threads, objective.n_cores
    if n ** m > 2_000_000:
        raise ValueError(
            f"{n}^{m} allocations is too many for exhaustive search"
        )
    best = float("-inf")
    for mapping in itertools.product(range(n), repeat=m):
        value = objective.evaluate_mapping(mapping)
        if value > best:
            best = value
    return best


def distance_to_optimal(
    max_iterations: int,
    n_threads: int = 6,
    n_cores: int = 4,
    n_problems: int = 5,
) -> float:
    """Mean relative gap to the known optimum at one iteration cap."""
    gaps = []
    for seed in range(n_problems):
        objective = synthetic_problem(n_threads, n_cores, seed)
        optimum = brute_force_optimum(objective)
        initial = Allocation.round_robin(n_threads, n_cores)
        config = SAConfig(max_iterations=max_iterations, seed=seed + 1)
        result = anneal(objective, initial, config)
        gaps.append(max(0.0, (optimum - result.best_value) / optimum))
    return mean(gaps)


def run_fig8a(
    sweep=ITERATION_SWEEP, n_threads: int = 6, n_cores: int = 4, n_problems: int = 5
) -> ExperimentResult:
    """Fig. 8(a): distance to optimal vs iteration cap + per-scale caps."""
    rows = []
    final_gap = None
    for cap in sweep:
        gap = distance_to_optimal(cap, n_threads, n_cores, n_problems)
        final_gap = gap
        rows.append([cap, round(100 * gap, 2)])
    cap_rows = [
        [f"{c}c/{t}t", default_iteration_cap(c, t)] for c, t in SCALING_SCENARIOS
    ]
    rows.append(["--- per-scale caps ---", ""])
    rows.extend(cap_rows)
    return ExperimentResult(
        experiment_id="fig8a",
        title="Fig. 8(a): SA distance to optimal vs iteration budget "
        f"({n_threads} threads on {n_cores} cores, known-optimal synthetics)",
        headers=["max iterations / scale", "distance to optimal %"],
        rows=rows,
        findings=(
            Finding(
                name="distance to optimal at largest budget",
                measured=100 * (final_gap or 0.0),
                unit="%",
            ),
        ),
    )


def run_fig8b() -> ExperimentResult:
    """Fig. 8(b): optimizer parameter values used."""
    config = SAConfig()
    rows = [
        ["Opt_perturb (initial perturbation)", config.initial_perturbation],
        ["Opt_dperturb (perturbation decay)", config.perturbation_decay],
        ["Opt_accept (initial acceptance)", config.initial_acceptance],
        ["Opt_daccept (acceptance decay)", config.acceptance_decay],
        ["fixed-point exp", True],
        ["incremental objective", True],
        ["PRNG", "xorshift32"],
    ]
    return ExperimentResult(
        experiment_id="fig8b",
        title="Fig. 8(b): Optimization parameter values",
        headers=["parameter", "value"],
        rows=rows,
    )
