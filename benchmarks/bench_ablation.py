"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. fixed-point vs floating-point SA primitives (paper Section 4.3's
   stated trade-off),
2. incremental vs full objective evaluation in the SA inner loop
   (the paper's "keeping track of previous computations"),
3. objective mode: global IPS^α/P vs the literal Eq. 11 per-core-ratio
   sum (see repro.core.objective),
4. prediction vs sampling: the cost a sampling-based characteriser
   would add (running every thread on every core type) vs Eq. 8's
   prediction, which is why the paper rejects sampling,
5. epoch length sweep: responsiveness vs migration overhead.

Algorithm 1 runs one way in ``repro.core.annealing`` (fixed-point
``e^x``, incremental ``J_E``), so ablations 1 and 2 time the reference
loop ``tests/core/sa_oracle.py``, which takes both switches.
"""

import pytest

import sa_oracle
from repro.core.allocation import Allocation
from repro.core.annealing import SAConfig
from repro.core.balancer import SmartBalance
from repro.core.config import SmartBalanceConfig
from repro.experiments import fig8
from repro.hardware.platform import quad_hmp
from repro.kernel.balancers.vanilla import VanillaBalancer
from repro.kernel.simulator import SimulationConfig, System
from repro.workload.synthetic import imb_threads

_PROBLEM = fig8.synthetic_problem(10, 4, seed=5)
_INITIAL = Allocation.round_robin(10, 4)


@pytest.mark.parametrize("use_fixed_point", [True, False], ids=["fixed", "float"])
def bench_ablation_exp_implementation(benchmark, use_fixed_point):
    """Fixed-point vs float probabilistic primitives: speed + quality."""
    config = SAConfig(max_iterations=1000, seed=3)
    result = benchmark(
        lambda: sa_oracle.anneal(
            _PROBLEM, _INITIAL, config, fixed_point_exp=use_fixed_point
        )
    )
    benchmark.extra_info["best_value"] = result.best_value
    assert result.best_value >= result.initial_value


@pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "full"])
def bench_ablation_objective_evaluation(benchmark, incremental):
    """O(1) incremental vs O(m+n) full objective evaluation."""
    config = SAConfig(max_iterations=1000, seed=3)
    result = benchmark(
        lambda: sa_oracle.anneal(_PROBLEM, _INITIAL, config, incremental=incremental)
    )
    benchmark.extra_info["best_value"] = result.best_value


@pytest.mark.parametrize("mode", ["global", "per_core_sum"])
def bench_ablation_objective_mode(benchmark, mode):
    """Chip-level IPS^α/P vs the literal Eq. 11 sum of per-core ratios.

    The headline metric (measured chip IPS/W vs vanilla) is attached as
    extra info; on this platform the global mode wins it decisively —
    the per-core-ratio sum keeps the Huge core loaded.  The objective
    mode is no ``RunSpec`` knob, so the runs are built directly.
    """
    platform = quad_hmp()

    def run_comparison():
        vanilla, smart = (
            System(platform, imb_threads("MTMI", 8), balancer).run(n_epochs=12)
            for balancer in (
                VanillaBalancer(),
                SmartBalance(config=SmartBalanceConfig(objective_mode=mode)),
            )
        )
        return smart.improvement_over(vanilla)

    gain = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    benchmark.extra_info["gain_vs_vanilla_pct"] = gain


def bench_ablation_prediction_vs_sampling(benchmark):
    """Eq. 8 prediction vs sampling-based characterisation.

    Sampling means executing each thread on every core type long
    enough to measure it — at least one epoch per extra core type, i.e.
    (q-1) extra epochs of perturbed placement per characterisation
    round.  We charge the sampling approach that simulation cost; the
    prediction approach pays only the (timed) regression evaluation.
    """
    from repro.core.training import default_predictor, profile_phase
    from repro.hardware.features import TABLE2_TYPES
    from repro.workload.characteristics import COMPUTE_PHASE

    model = default_predictor()
    features = profile_phase(COMPUTE_PHASE, TABLE2_TYPES[0])

    def predict_all_types():
        return [
            model.predict_ipc("Huge", dst.name, features)
            for dst in TABLE2_TYPES[1:]
        ]

    values = benchmark(predict_all_types)
    assert len(values) == 3
    # Sampling-equivalent cost: 3 extra epochs of 60 ms each per round.
    benchmark.extra_info["sampling_equivalent_cost_s"] = 3 * 0.06


@pytest.mark.parametrize("periods_per_epoch", [5, 10, 20], ids=["30ms", "60ms", "120ms"])
def bench_ablation_epoch_length(benchmark, periods_per_epoch):
    """Epoch length sweep: the 60 ms paper value vs shorter/longer."""
    platform = quad_hmp()

    def run_smart():
        config = SimulationConfig(periods_per_epoch=periods_per_epoch)
        system = System(platform, imb_threads("MTMI", 8), SmartBalance(), config)
        return system.run(duration_s=1.2)

    result = benchmark.pedantic(run_smart, rounds=1, iterations=1)
    benchmark.extra_info["ips_per_watt"] = result.ips_per_watt
    benchmark.extra_info["migrations"] = result.migrations
