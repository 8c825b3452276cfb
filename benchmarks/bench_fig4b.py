"""Benchmark + regeneration of Fig. 4(b): SmartBalance vs vanilla on
PARSEC benchmarks and the Table 3 mixes.

Paper headline: 52 % average IPS/W gain for PARSEC and mixes.
"""

from repro.core.balancer import SmartBalance
from repro.experiments import fig4
from repro.experiments.common import QUICK, compare_balancers
from repro.hardware.platform import quad_hmp
from repro.kernel.balancers.vanilla import VanillaBalancer
from repro.workload.parsec import mix_threads


def bench_fig4b_single_mix(benchmark):
    """Time one Fig. 4(b) data point (Mix6, both balancers)."""
    platform = quad_hmp()

    def one_case():
        return compare_balancers(
            platform,
            lambda: mix_threads("Mix6", 2),
            (VanillaBalancer, SmartBalance),
            n_epochs=QUICK.n_epochs,
        )

    results = benchmark(one_case)
    gain = results["smartbalance"].improvement_over(results["vanilla"])
    benchmark.extra_info["mix6_gain_pct"] = gain


def bench_fig4b_full_figure(benchmark, save_artifact, runner_jobs):
    """Regenerate the whole Fig. 4(b) set (quick scale) via the runner."""
    result = benchmark.pedantic(
        lambda: fig4.run_fig4b(QUICK, jobs=runner_jobs), rounds=1, iterations=1
    )
    benchmark.extra_info["jobs"] = runner_jobs
    save_artifact(result)
    finding = result.finding("average PARSEC improvement")
    benchmark.extra_info["average_improvement_pct"] = finding.measured
    benchmark.extra_info["paper_pct"] = finding.paper
    assert finding.measured > 20.0
