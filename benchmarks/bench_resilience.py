"""Resilience benchmarks: graceful degradation under injected faults.

The acceptance bar for the fault-injection framework:

1. under the ``combined`` scenario the mitigated balancer retains at
   least 80 % of its fault-free IPS/W and never raises;
2. the unmitigated (all defences ablated) balancer measurably degrades
   relative to fault-free, or errors outright;
3. the whole fault schedule is reproducible from the plan seed alone —
   two identical runs inject bit-identical faults and land on the same
   result.
"""

import dataclasses

from repro.experiments import resilience as resilience_exp
from repro.experiments.resilience import RETENTION_FLOOR, retention_under, run_one
from repro.faults import SCENARIOS, scenario
from repro.kernel.simulator import SimulationConfig

#: Fault-schedule seeds averaged over (single runs are noisy).
SEEDS = (0, 1, 2)


def bench_resilience_combined_retention(benchmark):
    """Mitigated >= 80 % retention under combined faults; ablated degrades."""

    def measure():
        mitigated, unmitigated = [], []
        for seed in SEEDS:
            m_ret, _ = retention_under("combined", seed=seed, mitigated=True)
            u_ret, _ = retention_under("combined", seed=seed, mitigated=False)
            mitigated.append(m_ret)
            unmitigated.append(u_ret)
        return mitigated, unmitigated

    mitigated, unmitigated = benchmark.pedantic(measure, rounds=1, iterations=1)
    mean_mitigated = sum(mitigated) / len(mitigated)
    mean_unmitigated = sum(unmitigated) / len(unmitigated)
    benchmark.extra_info["retention_mitigated"] = mean_mitigated
    benchmark.extra_info["retention_unmitigated"] = mean_unmitigated
    # retention_under re-raises any mitigated-run exception, so reaching
    # this point already proves the mitigated loop never raised.
    assert mean_mitigated >= RETENTION_FLOOR
    # The unmitigated balancer either crashed (scored 0) or measurably
    # lost efficiency to the same faults.
    assert mean_unmitigated <= 0.95


def bench_resilience_seed_reproducibility(benchmark):
    """Same plan, same run: fault schedules are pure functions of seed."""
    duration_s = resilience_exp.N_EPOCHS * SimulationConfig().epoch_s
    plan = scenario("combined", seed=0, n_cores=4, duration_s=duration_s)

    def twice():
        first = run_one(plan, mitigations=True, seed=0)
        second = run_one(plan, mitigations=True, seed=0)
        return first, second

    first, second = benchmark.pedantic(twice, rounds=1, iterations=1)
    assert first.resilience is not None
    assert dataclasses.asdict(first.resilience) == dataclasses.asdict(
        second.resilience
    )
    assert first.ips_per_watt == second.ips_per_watt
    assert first.migrations == second.migrations
    benchmark.extra_info["faults_injected"] = first.resilience.faults_injected


def bench_resilience_scenario_table(benchmark, save_artifact, runner_jobs):
    """The full retention table across every named scenario.

    The sweep goes through the parallel runner with crash tolerance
    (``on_error="none"``): an unmitigated run that dies scores zero
    retention instead of killing its worker.
    """
    result = benchmark.pedantic(
        lambda: resilience_exp.run(jobs=runner_jobs), rounds=1, iterations=1
    )
    benchmark.extra_info["jobs"] = runner_jobs
    save_artifact(result)
    assert [row[0] for row in result.rows] == list(SCENARIOS)
    finding = result.finding("combined retention (mitigated)")
    benchmark.extra_info["combined_retention_mitigated"] = finding.measured
    assert finding.measured >= RETENTION_FLOOR
