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

from repro.experiments import EXPERIMENTS
from repro.experiments.common import QUICK
from repro.experiments.resilience import RETENTION_FLOOR, resilience_spec
from repro.faults import SCENARIOS
from repro.runner import execute_spec, run_specs, run_sweep

#: Fault-schedule seeds averaged over (single runs are noisy).
SEEDS = (0, 1, 2)


def bench_resilience_combined_retention(benchmark):
    """Mitigated >= 80 % retention under combined faults; ablated degrades."""

    def measure():
        mitigated, unmitigated = [], []
        for seed in SEEDS:
            baseline, m_run = run_specs(
                [resilience_spec(None, seed), resilience_spec("combined", seed)]
            )
            (u_run,) = run_specs(
                [resilience_spec("combined", seed, mitigated=False)],
                on_error="none",
            )
            mitigated.append(m_run.ips_per_watt / baseline.ips_per_watt)
            unmitigated.append(
                0.0 if u_run is None else u_run.ips_per_watt / baseline.ips_per_watt
            )
        return mitigated, unmitigated

    mitigated, unmitigated = benchmark.pedantic(measure, rounds=1, iterations=1)
    mean_mitigated = sum(mitigated) / len(mitigated)
    mean_unmitigated = sum(unmitigated) / len(unmitigated)
    benchmark.extra_info["retention_mitigated"] = mean_mitigated
    benchmark.extra_info["retention_unmitigated"] = mean_unmitigated
    # The baseline and mitigated runs go through run_specs' default
    # on_error="raise", so reaching this point already proves the
    # mitigated loop never raised.
    assert mean_mitigated >= RETENTION_FLOOR
    # The unmitigated balancer either crashed (scored 0) or measurably
    # lost efficiency to the same faults.
    assert mean_unmitigated <= 0.95


def bench_resilience_seed_reproducibility(benchmark):
    """Same plan, same run: fault schedules are pure functions of seed."""
    spec = resilience_spec("combined", seed=0)

    def twice():
        return execute_spec(spec), execute_spec(spec)

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

    The sweep goes through the parallel runner, and the experiment
    tolerates crashes: an unmitigated run that dies scores zero
    retention instead of failing the sweep.
    """
    result = benchmark.pedantic(
        lambda: run_sweep([EXPERIMENTS["resilience"]], QUICK, jobs=runner_jobs)[0],
        rounds=1, iterations=1,
    )
    benchmark.extra_info["jobs"] = runner_jobs
    save_artifact(result)
    assert [row[0] for row in result.rows] == list(SCENARIOS)
    finding = result.finding("combined retention (mitigated)")
    benchmark.extra_info["combined_retention_mitigated"] = finding.measured
    assert finding.measured >= RETENTION_FLOOR
