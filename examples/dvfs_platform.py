#!/usr/bin/env python3
"""Heterogeneity by DVFS alone (paper Section 3's observation).

Four *identical* Medium-class cores, each pinned at a different
operating point, form an aggressively heterogeneous platform that the
two-type balancers cannot express — and SmartBalance treats exactly
like micro-architectural heterogeneity.

Run:  python examples/dvfs_platform.py
"""

from repro import (
    MEDIUM,
    SmartBalance,
    System,
    VanillaBalancer,
    imb_threads,
    train_predictor,
)
from repro.analysis import format_table
from repro.hardware.dvfs import dvfs_platform, energy_per_instruction, opp_table


def main() -> None:
    opps = opp_table(MEDIUM, n_points=4)
    print("Medium-core OPP table (energy/instruction at peak):")
    rows = [
        [f"{opp.freq_mhz:.0f} MHz", f"{opp.vdd:.2f} V",
         f"{ips:.3e}", f"{1e9 * epi:.3f} nJ"]
        for opp, ips, epi in energy_per_instruction(MEDIUM, opps)
    ]
    print(format_table(["frequency", "voltage", "peak IPS", "energy/instr"], rows))

    platform = dvfs_platform(MEDIUM, n_cores=4)
    print(f"\nPlatform: {platform.describe()}")

    predictor = train_predictor(platform.core_types)
    # Light, interactive threads: consolidation onto the low-V/f cores
    # (and power-gating the rest) is where DVFS heterogeneity pays.
    workload = lambda: imb_threads("MTHI", 4)  # noqa: E731
    results = {}
    for balancer in (
        VanillaBalancer(),
        SmartBalance(predictor=predictor),
    ):
        system = System(platform, workload(), balancer)
        result = system.run(n_epochs=30)
        results[result.balancer_name] = result
        print(
            f"{result.balancer_name:>13}: {result.ips_per_watt:.3e} "
            f"instructions/J ({result.migrations} migrations)"
        )
    gain = results["smartbalance"].improvement_over(results["vanilla"])
    print(f"\nSmartBalance gain on the DVFS-heterogeneous platform: {gain:+.1f} %")


if __name__ == "__main__":
    main()
