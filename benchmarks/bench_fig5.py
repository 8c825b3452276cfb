"""Benchmark + regeneration of Fig. 5: normalised energy efficiency vs
ARM GTS (and vanilla/IKS) on the octa-core big.LITTLE.

Paper headline: SmartBalance ~20 % above GTS.
"""

from repro.experiments import EXPERIMENTS
from repro.experiments.common import QUICK
from repro.runner import RunSpec, run_specs, run_sweep


def bench_fig5_single_case(benchmark):
    """Time one Fig. 5 data point (x264_L_bow x 8, GTS vs SmartBalance)."""
    specs = [
        RunSpec(workload="x264_L_bow", platform="biglittle", threads=8,
                balancer=balancer, n_epochs=QUICK.n_epochs)
        for balancer in ("gts", "smartbalance")
    ]

    gts, smart = benchmark(lambda: run_specs(specs))
    gain = smart.improvement_over(gts)
    benchmark.extra_info["gain_over_gts_pct"] = gain


def bench_fig5_full_figure(benchmark, save_artifact, runner_jobs):
    result = benchmark.pedantic(
        lambda: run_sweep([EXPERIMENTS["fig5"]], QUICK, jobs=runner_jobs)[0],
        rounds=1, iterations=1,
    )
    benchmark.extra_info["jobs"] = runner_jobs
    save_artifact(result)
    finding = result.finding("average gain over GTS")
    benchmark.extra_info["average_gain_over_gts_pct"] = finding.measured
    benchmark.extra_info["paper_pct"] = finding.paper
    assert finding.measured > 5.0
