#!/usr/bin/env python3
"""Fault injection and graceful degradation.

A deployable in-kernel balancer has to survive what real silicon does:
sensors drop out or latch, counters wrap, migrations get lost, cores
hot-unplug and firmware throttles clocks behind the OS's back.  This
example injects the named ``combined`` fault scenario into a
SmartBalance run twice — once with the full resilience layer
(observation sanity checks, last-good-row fallback, prediction
watchdog, hotplug masking) and once with every defence ablated — and
compares both against the fault-free run.

Run:  python examples/resilience.py
"""

from repro.analysis import format_table
from repro.core.balancer import SmartBalance
from repro.core.config import SmartBalanceConfig
from repro.faults import scenario
from repro.hardware.platform import quad_hmp
from repro.kernel.simulator import SimulationConfig, System
from repro.workload.generator import random_thread_set

N_EPOCHS = 16


def run_once(plan, mitigations: bool, seed: int = 0):
    balancer = SmartBalance(config=SmartBalanceConfig(mitigations=mitigations))
    system = System(
        quad_hmp(),
        random_thread_set(6, seed=42),
        balancer,
        SimulationConfig(seed=seed, faults=plan),
    )
    return system.run(n_epochs=N_EPOCHS)


def main() -> None:
    duration_s = N_EPOCHS * SimulationConfig().epoch_s
    plan = scenario("combined", seed=0, n_cores=4, duration_s=duration_s)

    fault_free = run_once(None, mitigations=True)
    mitigated = run_once(plan, mitigations=True)
    unmitigated = run_once(plan, mitigations=False)

    rows = []
    for label, result in (
        ("fault-free", fault_free),
        ("faults, mitigated", mitigated),
        ("faults, unmitigated", unmitigated),
    ):
        stats = result.resilience
        rows.append(
            [
                label,
                f"{result.ips_per_watt:.3e}",
                f"{result.ips_per_watt / fault_free.ips_per_watt:.3f}",
                stats.faults_injected if stats else 0,
                stats.samples_rejected if stats else 0,
            ]
        )
    print(
        format_table(
            ["run", "IPS/W", "retention", "faults", "rejected"],
            rows,
            title="Combined fault scenario on the quad HMP (6 threads, "
            f"{N_EPOCHS} epochs)",
        )
    )

    stats = mitigated.resilience
    print(
        f"\nDefence activity (mitigated run): "
        f"{stats.samples_rejected} samples rejected "
        f"({', '.join(f'{k}: {v}' for k, v in stats.rejects_by_reason.items()) or 'none'}), "
        f"{stats.fallback_rows_used} last-good fallback rows, "
        f"{stats.samples_rebaselined} re-baselined, "
        f"{stats.watchdog_trips} watchdog trips, "
        f"{stats.hotplug_masked_epochs} hotplug-masked epochs."
    )
    print(
        "The mitigated run keeps optimising through every fault; the "
        "unmitigated run feeds corrupt samples straight into the "
        "characterisation store and places threads onto offline cores."
    )


if __name__ == "__main__":
    main()
