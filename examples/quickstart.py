#!/usr/bin/env python3
"""Quickstart: SmartBalance vs the vanilla Linux balancer.

Builds the paper's quad-core heterogeneous MPSoC (Huge + Big + Medium +
Small, Table 2), runs one interactive microbenchmark configuration
under both balancers, and reports the energy-efficiency improvement —
a single data point of Fig. 4(a).

Run:  python examples/quickstart.py
"""

from repro import (
    SmartBalance,
    System,
    VanillaBalancer,
    imb_threads,
    quad_hmp,
)


def main() -> None:
    platform = quad_hmp()
    print(f"Platform: {platform.describe()}")

    # Eight medium-throughput, medium-interactivity threads (the 'MTMI'
    # configuration of the paper's IMB grid).
    workload = lambda: imb_threads("MTMI", n_threads=8)  # noqa: E731

    results = {}
    for balancer in (VanillaBalancer(), SmartBalance()):
        system = System(platform, workload(), balancer)
        result = system.run(n_epochs=40)
        results[result.balancer_name] = result
        print(
            f"{result.balancer_name:>13}: "
            f"{result.ips_per_watt:.3e} instructions/J  "
            f"({result.average_ips:.3e} IPS, {result.average_power_w:.2f} W, "
            f"{result.migrations} migrations)"
        )

    improvement = results["smartbalance"].improvement_over(results["vanilla"])
    print(f"\nSmartBalance energy-efficiency gain over vanilla: {improvement:+.1f} %")
    print("(The paper reports >50 % averaged across all benchmarks.)")


if __name__ == "__main__":
    main()
