"""Extension experiments (beyond the paper's figures).

* ``run_virtual_sensing`` — predictor accuracy vs physical counter
  count (the Section 6.4 sparse-sensing trade-off, quantified);
* ``run_optimizer_comparison`` — Algorithm 1 vs greedy / random /
  exhaustive on known-optimal problems (the quality argument behind
  choosing SA, as an artifact rather than an assertion);
* ``replicated_specs``/``replicated_build`` — the Fig. 4 headline
  improvements with multi-seed confidence intervals (the paper reports
  single runs).
"""

from __future__ import annotations

from functools import partial
from typing import Mapping

import numpy as np

from repro.analysis.replication import replicate
from repro.analysis.reporting import ExperimentResult, Finding
from repro.analysis.stats import mean
from repro.core.allocation import Allocation
from repro.core.annealing import SAConfig, anneal
from repro.core.optimizers import greedy_allocate, random_search
from repro.core.training import default_predictor, profile_phase
from repro.core.virtual_sensing import (
    MINIMAL_OBSERVED,
    sparsify,
    train_virtual_sensors,
)
from repro.experiments.common import Scale
from repro.experiments.fig8 import brute_force_optimum, synthetic_problem
from repro.hardware import microarch
from repro.hardware.features import TABLE2_TYPES
from repro.kernel.metrics import RunResult
from repro.runner.spec import RunSpec
from repro.workload.parsec import BENCHMARKS

#: Physical counter subsets swept, minimal -> full.
COUNTER_SWEEP: dict[str, tuple[str, ...] | None] = {
    "4 (cycle/instr only)": MINIMAL_OBSERVED,
    "6 (+L1D, branch)": MINIMAL_OBSERVED + ("mr_l1d", "mr_b"),
    "8 (+L1I, dTLB)": MINIMAL_OBSERVED + ("mr_l1d", "mr_b", "mr_l1i", "mr_dtlb"),
    "10 (all, no reconstruction)": None,
}


def _prediction_error(observed: tuple[str, ...] | None, eval_seed: int = 77) -> float:
    """Mean cross-type IPC error with a given physical counter set."""
    model = default_predictor()
    sensors = None
    if observed is not None:
        sensors = train_virtual_sensors(
            TABLE2_TYPES, observed=observed, n_synthetic=150
        )
    errors = []
    for bench in BENCHMARKS.values():
        for thread in bench.threads(1, eval_seed):
            for segment in thread.schedule.segments:
                phase = segment.phase
                for src in TABLE2_TYPES:
                    features = profile_phase(phase, src)
                    if sensors is not None:
                        features = sensors.reconstruct(
                            src, sparsify(features, observed)
                        )
                    for dst in TABLE2_TYPES:
                        if dst.name == src.name:
                            continue
                        truth = microarch.estimate(phase, dst).ipc
                        pred = model.predict_ipc(src.name, dst.name, features)
                        errors.append(abs(pred - truth) / truth)
    return float(np.mean(errors))


def run_virtual_sensing() -> ExperimentResult:
    """Predictor IPC error vs number of physical counters."""
    rows = []
    minimal_error = full_error = None
    for label, observed in COUNTER_SWEEP.items():
        error = _prediction_error(observed)
        if observed is MINIMAL_OBSERVED:
            minimal_error = error
        if observed is None:
            full_error = error
        rows.append([label, round(100 * error, 2)])
    findings = [
        Finding(
            name="IPC error with minimal counters",
            measured=100 * (minimal_error or 0.0),
            unit="%",
        ),
        Finding(
            name="IPC error with full counters",
            measured=100 * (full_error or 0.0),
            unit="%",
        ),
    ]
    return ExperimentResult(
        experiment_id="ext_virtual_sensing",
        title="Extension: sparse virtual sensing — predictor error vs "
        "physical counter count (paper Section 6.4)",
        headers=["physical counters", "IPC prediction error %"],
        rows=rows,
        findings=tuple(findings),
        notes=(
            "Hidden rates are reconstructed per core type by linear "
            "regression on the observed subset "
            "(repro.core.virtual_sensing)."
        ),
    )


def run_optimizer_comparison(
    n_threads: int = 6,
    n_cores: int = 4,
    n_problems: int = 5,
    budget: int = 1000,
) -> ExperimentResult:
    """Algorithm 1 vs alternatives on known-optimal problems."""
    methods = ("annealing", "greedy", "random")
    gaps: dict[str, list[float]] = {m: [] for m in methods}
    evaluations: dict[str, list[int]] = {m: [] for m in methods}
    for seed in range(n_problems):
        objective = synthetic_problem(n_threads, n_cores, seed)
        optimum = brute_force_optimum(objective)
        initial = Allocation.round_robin(n_threads, n_cores)
        sa = anneal(objective, initial, SAConfig(max_iterations=budget, seed=seed + 1))
        greedy = greedy_allocate(objective, initial)
        rand = random_search(objective, initial, iterations=budget)
        for method, best, count in (
            ("annealing", sa.best_allocation, sa.iterations),
            ("greedy", greedy.best_allocation, greedy.evaluations),
            ("random", rand.best_allocation, rand.evaluations),
        ):
            fresh = objective.evaluate(best)
            gaps[method].append(max(0.0, (optimum - fresh) / optimum))
            evaluations[method].append(count)
    rows = [
        [
            method,
            round(100 * mean(gaps[method]), 2),
            round(mean([float(e) for e in evaluations[method]])),
        ]
        for method in methods
    ]
    rows.append(["exhaustive", 0.0, n_cores ** n_threads])
    return ExperimentResult(
        experiment_id="ext_optimizers",
        title="Extension: optimizer comparison at matched budgets "
        f"({n_threads} threads, {n_cores} cores, {n_problems} problems)",
        headers=["optimizer", "distance to optimal %", "evaluations"],
        rows=rows,
        findings=(
            Finding(
                name="annealing distance to optimal",
                measured=100 * mean(gaps["annealing"]),
                unit="%",
            ),
        ),
    )


#: Replicated-headline cases: row label -> (workload, threads).
REPLICATED_CASES = {
    "MTMI x 8 (IMB)": ("MTMI", 8),
    "HTHI x 4 (IMB)": ("HTHI", 4),
    "x264_L_bow x 8": ("x264_L_bow", 8),
    "bodytrack x 4": ("bodytrack", 4),
}
#: Seeds per case; each seed redraws workload jitter and sensing noise.
REPLICATED_SEEDS = 5
REPLICATED_EPOCHS = 20


def _replicated_spec(
    workload: str, threads: int, balancer: str, seed: int
) -> RunSpec:
    return RunSpec(
        workload=workload,
        platform="quad",
        threads=threads,
        balancer=balancer,
        n_epochs=REPLICATED_EPOCHS,
        seed=seed,
    )


def replicated_specs(scale: Scale) -> "list[RunSpec]":
    """One vanilla and one SmartBalance job per (case, seed), at every
    scale."""
    return [
        _replicated_spec(workload, threads, balancer, seed)
        for workload, threads in REPLICATED_CASES.values()
        for seed in range(REPLICATED_SEEDS)
        for balancer in ("vanilla", "smartbalance")
    ]


def replicated_build(
    scale: Scale, results: "Mapping[RunSpec, RunResult]"
) -> ExperimentResult:
    """Headline smart-vs-vanilla improvements with bootstrap CIs."""

    def gain(workload: str, threads: int, seed: int) -> float:
        smart = results[_replicated_spec(workload, threads, "smartbalance", seed)]
        vanilla = results[_replicated_spec(workload, threads, "vanilla", seed)]
        return smart.improvement_over(vanilla)

    rows = []
    ci_lows = []
    for label, (workload, threads) in REPLICATED_CASES.items():
        replication = replicate(
            partial(gain, workload, threads), n_seeds=REPLICATED_SEEDS
        )
        ci_lows.append(replication.ci_low)
        rows.append(
            [
                label,
                round(replication.mean, 1),
                round(replication.stdev, 1),
                f"[{replication.ci_low:.1f}, {replication.ci_high:.1f}]",
            ]
        )
    return ExperimentResult(
        experiment_id="ext_replicated",
        title=f"Extension: replicated headline improvements over vanilla "
        f"({REPLICATED_SEEDS} seeds, 95 % bootstrap CI)",
        headers=["case", "gain % (mean)", "stdev", "95% CI"],
        rows=rows,
        findings=(
            Finding(
                name="worst-case CI lower bound",
                measured=min(ci_lows),
                unit="%",
            ),
        ),
        notes=(
            "Each seed redraws both the workload jitter and the sensing "
            "noise; the paper reports single runs."
        ),
    )
