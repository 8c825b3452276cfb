"""Benchmark + regeneration of Fig. 4(b): SmartBalance vs vanilla on
PARSEC benchmarks and the Table 3 mixes.

Paper headline: 52 % average IPS/W gain for PARSEC and mixes.
"""

from repro.experiments import EXPERIMENTS
from repro.experiments.common import QUICK
from repro.runner import RunSpec, run_specs, run_sweep


def bench_fig4b_single_mix(benchmark):
    """Time one Fig. 4(b) data point (Mix6, both balancers)."""
    specs = [
        RunSpec(workload="Mix6", platform="quad", threads=2, balancer=balancer,
                n_epochs=QUICK.n_epochs)
        for balancer in ("vanilla", "smartbalance")
    ]

    vanilla, smart = benchmark(lambda: run_specs(specs))
    gain = smart.improvement_over(vanilla)
    benchmark.extra_info["mix6_gain_pct"] = gain


def bench_fig4b_full_figure(benchmark, save_artifact, runner_jobs):
    """Regenerate the whole Fig. 4(b) set (quick scale) via the runner."""
    result = benchmark.pedantic(
        lambda: run_sweep([EXPERIMENTS["fig4b"]], QUICK, jobs=runner_jobs)[0],
        rounds=1, iterations=1,
    )
    benchmark.extra_info["jobs"] = runner_jobs
    save_artifact(result)
    finding = result.finding("average PARSEC improvement")
    benchmark.extra_info["average_improvement_pct"] = finding.measured
    benchmark.extra_info["paper_pct"] = finding.paper
    assert finding.measured > 20.0
