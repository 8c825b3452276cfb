#!/usr/bin/env python3
"""PARSEC mixes on the quad-core HMP (the Fig. 4(b) scenario).

Runs every Table 3 mix under the vanilla balancer, ARM-GTS-style
utilisation balancing is not applicable here (four core types), and
SmartBalance, printing a per-mix comparison and an ASCII bar chart of
the improvements.

Run:  python examples/parsec_mixes.py
"""

from repro import (
    MIXES,
    SmartBalance,
    System,
    VanillaBalancer,
    mix_threads,
    quad_hmp,
)
from repro.analysis import format_bar_chart, mean


def main() -> None:
    platform = quad_hmp()
    print(f"Platform: {platform.describe()}\n")

    labels, gains = [], []
    for mix_name in MIXES:
        results = {}
        for balancer in (VanillaBalancer(), SmartBalance()):
            system = System(platform, mix_threads(mix_name, 2), balancer)
            results[balancer.name] = system.run(n_epochs=30)
        vanilla = results["vanilla"]
        smart = results["smartbalance"]
        gain = smart.improvement_over(vanilla)
        labels.append(mix_name)
        gains.append(gain)
        print(
            f"{mix_name}: vanilla {vanilla.ips_per_watt:.3e} -> "
            f"smart {smart.ips_per_watt:.3e} instructions/J "
            f"({gain:+.1f} %, work ratio "
            f"{smart.instructions / vanilla.instructions:.2f})"
        )

    print()
    print(
        format_bar_chart(
            labels,
            gains,
            title="SmartBalance IPS/W gain over vanilla (Table 3 mixes)",
            unit="%",
        )
    )
    print(f"\nMean improvement: {mean(gains):+.1f} % (paper: ~52 % for PARSEC)")


if __name__ == "__main__":
    main()
