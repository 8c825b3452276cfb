#!/usr/bin/env python3
"""Balancing on a custom, aggressively heterogeneous platform.

The paper's core argument is *generality*: GTS/IKS hard-code two core
types, while SmartBalance handles any mix.  This example builds a
six-core platform with four different core types — including a custom
DVFS-derived variant — and shows SmartBalance managing it, which the
GTS implementation rightly refuses to do.

Run:  python examples/custom_platform.py
"""

from repro import (
    GtsBalancer,
    HUGE,
    MEDIUM,
    SMALL,
    SmartBalance,
    System,
    VanillaBalancer,
    benchmark,
    build_platform,
    imb_threads,
    train_predictor,
)


def main() -> None:
    # A custom core type: the Medium micro-architecture run at a lower
    # operating point (Section 3: same microarchitecture + different
    # nominal V/f = a distinct core type).
    medium_lp = MEDIUM.with_frequency(600.0, vdd=0.62)

    platform = build_platform(
        [(HUGE, 1), (MEDIUM, 2), (medium_lp, 1), (SMALL, 2)],
        name="hexa-custom",
    )
    print(f"Platform: {platform.describe()}")

    # GTS cannot handle more than two clusters/types.
    try:
        System(platform, imb_threads("MTMI", 6), GtsBalancer()).run(n_epochs=2)
    except ValueError as exc:
        print(f"GTS refuses this platform (as expected): {exc}")

    # SmartBalance needs a predictor covering the platform's types —
    # train one for this exact type set (offline profiling step).
    predictor = train_predictor(platform.core_types)
    print(
        "Trained predictor for types:",
        ", ".join(predictor.type_names),
    )

    workload = lambda: (  # noqa: E731
        imb_threads("HTMI", 3) + benchmark("bodytrack").threads(3)
    )
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
            f"instructions/J, {result.migrations} migrations"
        )
    gain = results["smartbalance"].improvement_over(results["vanilla"])
    print(f"\nSmartBalance gain on the custom platform: {gain:+.1f} %")


if __name__ == "__main__":
    main()
