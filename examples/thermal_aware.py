#!/usr/bin/env python3
"""Thermal-aware balancing via Eq. 11's core weights.

Enables the per-core RC thermal model (with leakage-temperature
feedback) and compares plain SmartBalance against a thermally-aware
variant that derives the ω_j weights from core temperatures each
epoch — hot cores get depreferred before they hit the junction limit.

The workload (CPU-bound blackscholes) is one where the efficiency
objective keeps the Huge core busy for its throughput — pushing it past
the configured thermal envelope.  With thermal awareness on, the Huge
core's weight collapses as it heats and SmartBalance evacuates and
power-gates it.

Run:  python examples/thermal_aware.py
"""

from repro import SmartBalance, System, benchmark, quad_hmp
from repro.analysis import format_table
from repro.core import SmartBalanceConfig
from repro.kernel import SimulationConfig


def run_variant(thermal_aware: bool):
    balancer = SmartBalance(
        config=SmartBalanceConfig(
            thermal_aware=thermal_aware,
            # Aggressive thermal envelope: de-rate from 60 C, forbid 78 C.
            thermal_knee_c=60.0,
            thermal_zero_c=78.0,
        )
    )
    config = SimulationConfig(thermal_enabled=True, seed=1)
    system = System(
        quad_hmp(), benchmark("blackscholes").threads(8), balancer, config
    )
    return system.run(n_epochs=50)


def main() -> None:
    plain = run_variant(thermal_aware=False)
    aware = run_variant(thermal_aware=True)

    rows = []
    for label, result in (("plain", plain), ("thermal-aware", aware)):
        peak = max(c.peak_temp_c for c in result.core_stats)
        rows.append(
            [
                label,
                f"{result.ips_per_watt:.3e}",
                f"{result.average_ips:.3e}",
                f"{peak:.1f} C",
                result.migrations,
            ]
        )
    print(
        format_table(
            ["variant", "instr/J", "IPS", "peak temp", "migrations"],
            rows,
            title="SmartBalance with and without thermal-aware weights "
            "(quad HMP, blackscholes x 8, RC thermal model on)",
        )
    )
    print("\nPer-core peak temperatures:")
    for label, result in (("plain", plain), ("thermal-aware", aware)):
        temps = {c.core_type_name: f"{c.peak_temp_c:.1f}" for c in result.core_stats}
        print(f"  {label:>13}: {temps}")


if __name__ == "__main__":
    main()
