"""Benchmarks for the implemented paper extensions.

* sparse virtual sensing (Section 6.4): predictor error and per-epoch
  cost as the physical counter set shrinks;
* optimizer comparison: Algorithm 1 vs greedy / random at matched
  budgets, against the exhaustive optimum (the quality claim behind
  choosing SA);
* alternative goals: performance and power-capped balancing.
"""


import numpy as np
import pytest

from repro.core.allocation import Allocation
from repro.core.annealing import SAConfig, anneal
from repro.core.objective import EnergyEfficiencyObjective
from repro.core.optimizers import greedy_allocate, random_search
from repro.core.training import default_predictor, profile_phase
from repro.core.virtual_sensing import (
    MINIMAL_OBSERVED,
    sparsify,
    train_virtual_sensors,
)
from repro.experiments import fig8
from repro.hardware import microarch
from repro.hardware.features import TABLE2_TYPES
from repro.workload.parsec import BENCHMARKS

#: Counter subsets swept by the virtual-sensing benchmark, from minimal
#: to nearly complete.
COUNTER_SETS = {
    "4-counters": MINIMAL_OBSERVED,
    "6-counters": MINIMAL_OBSERVED + ("mr_l1d", "mr_b"),
    "8-counters": MINIMAL_OBSERVED + ("mr_l1d", "mr_b", "mr_l1i", "mr_dtlb"),
}


def _prediction_error_with_counters(observed) -> float:
    sensors = train_virtual_sensors(TABLE2_TYPES, observed=observed, n_synthetic=150)
    model = default_predictor()
    errors = []
    for bench in list(BENCHMARKS.values())[:6]:
        for thread in bench.threads(1, 77):
            for segment in thread.schedule.segments:
                phase = segment.phase
                for src in TABLE2_TYPES:
                    features = profile_phase(phase, src)
                    reconstructed = sensors.reconstruct(
                        src, sparsify(features, observed)
                    )
                    for dst in TABLE2_TYPES:
                        if dst.name == src.name:
                            continue
                        truth = microarch.estimate(phase, dst).ipc
                        pred = model.predict_ipc(src.name, dst.name, reconstructed)
                        errors.append(abs(pred - truth) / truth)
    return float(np.mean(errors))


@pytest.mark.parametrize("label", list(COUNTER_SETS), ids=list(COUNTER_SETS))
def bench_virtual_sensing_error_vs_counters(benchmark, label):
    """Predictor error with a reduced physical counter set."""
    observed = COUNTER_SETS[label]
    error = benchmark.pedantic(
        lambda: _prediction_error_with_counters(observed), rounds=1, iterations=1
    )
    benchmark.extra_info["ipc_error_pct"] = 100 * error
    assert error < 0.25


@pytest.mark.parametrize("method", ["annealing", "greedy", "random"])
def bench_optimizer_comparison(benchmark, method):
    """Solution quality + speed of each optimizer vs the true optimum."""
    objective = fig8.synthetic_problem(6, 4, seed=9)
    initial = Allocation.round_robin(6, 4)
    optimum = fig8.brute_force_optimum(objective)

    run = {
        "annealing": lambda: anneal(
            objective, initial, SAConfig(max_iterations=1000, seed=4)
        ),
        "greedy": lambda: greedy_allocate(objective, initial),
        "random": lambda: random_search(objective, initial, iterations=1000),
    }[method]

    result = benchmark(run)
    gap = max(0.0, (optimum - result.best_value) / optimum)
    benchmark.extra_info["distance_to_optimal_pct"] = 100 * gap
    assert gap < 0.5


@pytest.mark.parametrize("mode,cap", [("performance", None), ("power_cap", 2.0)])
def bench_goal_variants(benchmark, mode, cap):
    """Annealing under the alternative goals."""
    base = fig8.synthetic_problem(8, 4, seed=11)
    objective = EnergyEfficiencyObjective(
        ips=base.ips,
        power=base.power,
        utilization=base.utilization,
        idle_power=base.idle_power,
        sleep_power=base.sleep_power,
        mode=mode,
        power_cap_w=cap,
    )
    initial = Allocation.round_robin(8, 4)
    config = SAConfig(max_iterations=1000, seed=5)

    result = benchmark(lambda: anneal(objective, initial, config))
    benchmark.extra_info["best_value"] = result.best_value
    assert result.best_value >= result.initial_value
