#!/usr/bin/env python3
"""SmartBalance vs ARM GTS and Linaro IKS on octa-core big.LITTLE.

The Fig. 5 / Section 6.1 scenario: a 4+4 big.LITTLE platform running
PARSEC workloads under the cluster-switching IKS, the utilisation-
threshold GTS, and SmartBalance.  GTS and IKS only work on two-cluster
platforms; SmartBalance handles this as just another heterogeneous
configuration.

Run:  python examples/biglittle_vs_gts.py
"""

from repro import (
    GtsBalancer,
    IksBalancer,
    SmartBalance,
    System,
    VanillaBalancer,
    benchmark,
    big_little_octa,
)
from repro.analysis import format_table, mean


def main() -> None:
    platform = big_little_octa()
    print(f"Platform: {platform.describe()}\n")

    benchmarks = ["x264_L_bow", "x264_H_crew", "bodytrack", "blackscholes"]
    balancers = [VanillaBalancer, IksBalancer, GtsBalancer, SmartBalance]

    rows = []
    smart_vs_gts = []
    for bench_name in benchmarks:
        normalised = {}
        raw = {}
        for make in balancers:
            balancer = make()
            system = System(platform, benchmark(bench_name).threads(8), balancer)
            raw[balancer.name] = system.run(n_epochs=30).ips_per_watt
        gts = raw["gts"]
        for name, value in raw.items():
            normalised[name] = value / gts
        smart_vs_gts.append(100.0 * (normalised["smartbalance"] - 1.0))
        rows.append(
            [
                bench_name,
                round(normalised["vanilla"], 2),
                round(normalised["iks"], 2),
                1.0,
                round(normalised["smartbalance"], 2),
            ]
        )

    print(
        format_table(
            ["benchmark", "vanilla", "IKS", "GTS", "SmartBalance"],
            rows,
            title="Normalised energy efficiency (GTS = 1.0), 8 threads each",
        )
    )
    print(
        f"\nSmartBalance vs GTS: {mean(smart_vs_gts):+.1f} % on average "
        "(paper: ~20 %)"
    )


if __name__ == "__main__":
    main()
