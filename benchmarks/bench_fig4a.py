"""Benchmark + regeneration of Fig. 4(a): SmartBalance vs vanilla on
the interactive microbenchmarks.

The timed unit is one full (workload, two balancers) comparison; the
complete figure is regenerated once and written to
``benchmarks/out/fig4a.txt``.  Paper headline: ~50 % average IPS/W
gain; the assertion checks the shape (SmartBalance wins clearly).
"""

from repro.experiments import EXPERIMENTS
from repro.experiments.common import QUICK
from repro.runner import RunSpec, run_specs, run_sweep


def bench_fig4a_single_case(benchmark):
    """Time one Fig. 4(a) data point (MTMI, 8 threads, both balancers)."""
    specs = [
        RunSpec(workload="MTMI", platform="quad", threads=8, balancer=balancer,
                n_epochs=QUICK.n_epochs)
        for balancer in ("vanilla", "smartbalance")
    ]

    vanilla, smart = benchmark(lambda: run_specs(specs))
    gain = smart.improvement_over(vanilla)
    benchmark.extra_info["ips_per_watt_gain_pct"] = gain
    assert gain > 0


def bench_fig4a_full_figure(benchmark, save_artifact, runner_jobs):
    """Regenerate the whole Fig. 4(a) grid (quick scale).

    Runs through the parallel sweep runner; ``REPRO_JOBS`` controls the
    worker count without changing a single output bit.
    """
    result = benchmark.pedantic(
        lambda: run_sweep([EXPERIMENTS["fig4a"]], QUICK, jobs=runner_jobs)[0],
        rounds=1, iterations=1,
    )
    benchmark.extra_info["jobs"] = runner_jobs
    save_artifact(result)
    finding = result.finding("average IMB improvement")
    benchmark.extra_info["average_improvement_pct"] = finding.measured
    benchmark.extra_info["paper_pct"] = finding.paper
    assert finding.measured > 30.0
