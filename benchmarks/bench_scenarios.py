"""Scenario benchmark: the variants must earn their figure of merit.

The scenarios subsystem ships two balancer variants whose existence is
justified by measurable wins, plus an interference model whose value
shows up under SMT co-run.  This file gates all three claims at pinned
seeds:

* ``tpeq`` must cut barrier-group makespan vs stock SmartBalance by at
  least :data:`TPEQ_MAKESPAN_FLOOR_PCT`.
* ``slo`` must cut both the SLO-miss rate and p99 latency of open-loop
  traffic vs stock SmartBalance.
* Stock SmartBalance must hold a J_E (IPS/Watt) margin over ARM GTS
  when the big cluster co-runs threads SMT-style — the throughput
  -greedy racking GTS does is exactly what the energy objective avoids.

Methodology mirrors :mod:`repro.experiments.scenarios`: every cell
shares platform, base workload, scenario string and epochs, averaged
over the same pinned seeds; only the balancer differs.  Unfinished
barrier groups are charged the full horizon.

Results land in the committed ``benchmarks/BENCH_scenarios.json``
(benchmarks/out is git-ignored), so variant regressions show up as
diffs in review:

    PYTHONPATH=src python -m pytest benchmarks/bench_scenarios.py -q

``--quick`` runs the quick experiment scale for CI; quick results go
to benchmarks/out/ so the committed scorecard only ever holds
full-fidelity numbers.
"""

import json
import os

from repro.experiments.common import FULL, QUICK
from repro.experiments.scenarios import CASES, compare, scenario_specs
from repro.runner import run_specs

#: The committed scorecard (benchmarks/out is git-ignored; this is not).
SCORECARD = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_scenarios.json"
)

#: Acceptance floors, deliberately below the measured values (quick
#: scale measures ~11% / ~5% / ~15% / ~69%; full scale ~24% / ~10% /
#: ~4% / ~69%) so seed-level noise does not flake CI while a real
#: regression still trips the gate.
TPEQ_MAKESPAN_FLOOR_PCT = 4.0
SLO_MISS_FLOOR_PCT = 1.0
SLO_P99_FLOOR_PCT = 2.0
SMT_JE_FLOOR_PCT = 25.0


def bench_scenario_variants(benchmark, quick, artifact_dir, runner_jobs):
    scale = QUICK if quick else FULL

    def measure():
        specs = scenario_specs(scale)
        return compare(scale, dict(zip(specs, run_specs(specs, jobs=runner_jobs))))

    data = benchmark.pedantic(measure, rounds=1, iterations=1)

    gates = {
        "tpeq_makespan_cut_pct": TPEQ_MAKESPAN_FLOOR_PCT,
        "slo_miss_cut_pct": SLO_MISS_FLOOR_PCT,
        "slo_p99_cut_pct": SLO_P99_FLOOR_PCT,
        "smt_je_vs_gts_pct": SMT_JE_FLOOR_PCT,
    }
    for key, floor in gates.items():
        measured = data[key]
        assert measured >= floor, (
            f"{key} below its {floor}% floor: {measured:.2f}%"
        )
        benchmark.extra_info[key] = round(measured, 2)

    # The barrier win must come from placement, not from abandoning
    # the energy objective: tpeq's J_E stays within 10% of stock.
    assert data["tpeq_je_vs_stock_pct"] >= -10.0, (
        "tpeq pays too much J_E for its makespan win: "
        f"{data['tpeq_je_vs_stock_pct']:.2f}%"
    )

    scorecard = {
        "scale": scale.name,
        "platform": data["platform"],
        "threads": data["threads"],
        "n_epochs": data["n_epochs"],
        "seeds": data["seeds"],
        "scenarios": data["scenarios"],
        "balancers": {f: list(CASES[f][1]) for f in CASES},
        "floors_pct": gates,
        "headline": {
            key: round(data[key], 2)
            for key in (
                "tpeq_makespan_cut_pct",
                "tpeq_je_vs_stock_pct",
                "slo_miss_cut_pct",
                "slo_p99_cut_pct",
                "smt_je_vs_gts_pct",
            )
        },
        "families": data["families"],
        "methodology": (
            "repro.experiments.scenarios.compare: per-(family, balancer) "
            "means over pinned seeds; unfinished barrier groups charged "
            "the full horizon; only the balancer differs within a family"
        ),
    }
    # Quick (CI) runs never overwrite the committed full-fidelity file.
    target = (
        os.path.join(artifact_dir, "BENCH_scenarios.quick.json")
        if quick
        else SCORECARD
    )
    with open(target, "w") as handle:
        json.dump(scorecard, handle, indent=2, sort_keys=True)
        handle.write("\n")
