"""Benchmark + regeneration of Fig. 5: normalised energy efficiency vs
ARM GTS (and vanilla/IKS) on the octa-core big.LITTLE.

Paper headline: SmartBalance ~20 % above GTS.
"""

from repro.core.balancer import SmartBalance
from repro.experiments import fig5
from repro.experiments.common import QUICK, compare_balancers
from repro.hardware.platform import big_little_octa
from repro.kernel.balancers.gts import GtsBalancer
from repro.workload.parsec import benchmark as parsec_benchmark


def bench_fig5_single_case(benchmark):
    """Time one Fig. 5 data point (x264_L_bow x 8, GTS vs SmartBalance)."""
    platform = big_little_octa()

    def one_case():
        return compare_balancers(
            platform,
            lambda: parsec_benchmark("x264_L_bow").threads(8),
            (GtsBalancer, SmartBalance),
            n_epochs=QUICK.n_epochs,
        )

    results = benchmark(one_case)
    gain = results["smartbalance"].improvement_over(results["gts"])
    benchmark.extra_info["gain_over_gts_pct"] = gain


def bench_fig5_full_figure(benchmark, save_artifact, runner_jobs):
    result = benchmark.pedantic(
        lambda: fig5.run(QUICK, jobs=runner_jobs), rounds=1, iterations=1
    )
    benchmark.extra_info["jobs"] = runner_jobs
    save_artifact(result)
    finding = result.finding("average gain over GTS")
    benchmark.extra_info["average_gain_over_gts_pct"] = finding.measured
    benchmark.extra_info["paper_pct"] = finding.paper
    assert finding.measured > 5.0
