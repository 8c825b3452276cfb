"""Governor experiment: joint placement + DVFS vs fixed-V/f baselines.

The paper's SmartBalance balances threads at fixed nominal operating
points; :mod:`repro.governor` extends the same sense→predict→balance
loop to choose *(thread allocation, per-cluster OPP vector)* jointly.
This experiment measures what that buys, per workload, against the
baselines that bracket it:

* ``fixed`` — the stock balancer (every cluster at its nominal OPP):
  the paper's configuration and the race-to-idle end of the spectrum.
* ``pinned:<l>`` — every cluster statically pinned at ladder level
  ``l`` for the whole run (placement still optimised per epoch).  The
  best of these plus ``fixed`` is the **oracle static OPP**: the best
  single operating-point vector knowable only in hindsight.
* ``two_level`` — the joint governor: an outer OPP-ladder search
  around the stock annealer.

Every run shares platform, workload, seed and epoch count, so the
columns differ only in the governor strategy.  The headline findings
are the J_E (IPS/Watt) gain of the dynamic governor over ``fixed``
and over the oracle static OPP — a dynamic governor that cannot beat
the best *static* setting is just a slower way to configure the chip.

The sweep is a Pareto scan as well: the table reports throughput and
power alongside J_E, so throughput-vs-power trade-offs (e.g.
``pinned:0`` saving power by starving IPS) stay visible instead of
being collapsed into the ratio.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.reporting import ExperimentResult, Finding
from repro.experiments.common import Scale
from repro.kernel.metrics import RunResult
from repro.runner.spec import RunSpec

#: Platform of the sweep: the paper's quad HMP re-clustered one V/f
#: knob per core type (see ``repro.runner.factories.dvfs_quad``).
PLATFORM = "dvfsquad"

#: Threads per run.
N_THREADS = 8

#: Simulation seed shared by every cell.
SEED = 0

#: Static pin levels bracketing the ladder (level 3 is nominal ==
#: ``fixed``, so it is not re-run).
PIN_LEVELS = (0, 1, 2)

#: The dynamic strategies under test.
DYNAMIC = ("two_level",)


def governor_specs(scale: Scale) -> "list[RunSpec]":
    """One spec per (workload, strategy) cell of the sweep."""
    strategies = ["fixed"]
    strategies += [f"pinned:{level}" for level in PIN_LEVELS]
    strategies += list(DYNAMIC)
    return [
        RunSpec(
            workload=workload,
            platform=PLATFORM,
            threads=N_THREADS,
            balancer="smartbalance",
            n_epochs=scale.n_epochs,
            seed=SEED,
            governor=strategy,
        )
        for workload in scale.imb_configs
        for strategy in strategies
    ]


def compare(scale: Scale, results: "Mapping[RunSpec, RunResult]") -> dict:
    """Fold the sweep's results into a JSON-ready comparison dict."""
    cells: "dict[str, dict[str, dict]]" = {}
    for spec in governor_specs(scale):
        result = results[spec]
        stats = result.governor or {}
        cells.setdefault(spec.workload, {})[spec.governor] = {
            "ips_per_watt": result.ips_per_watt,
            "ips": result.average_ips,
            "power_w": result.average_power_w,
            "energy_j": result.energy_j,
            "opp_changes": stats.get("opp_changes", 0),
            "transition_energy_j": stats.get("transition_energy_j", 0.0),
        }

    statics = ["fixed"] + [f"pinned:{level}" for level in PIN_LEVELS]
    workloads = {}
    for workload, row in cells.items():
        fixed_je = row["fixed"]["ips_per_watt"]
        oracle = max(statics, key=lambda s: row[s]["ips_per_watt"])
        oracle_je = row[oracle]["ips_per_watt"]
        workloads[workload] = {
            "cells": row,
            "oracle_static": oracle,
            "gain_vs_fixed_pct": {
                s: 100.0 * (row[s]["ips_per_watt"] / fixed_je - 1.0)
                for s in row
            },
            "gain_vs_oracle_pct": {
                s: 100.0 * (row[s]["ips_per_watt"] / oracle_je - 1.0)
                for s in DYNAMIC
            },
        }

    def mean_gain(strategy: str, against: str) -> float:
        gains = [
            workloads[w][against][strategy] for w in workloads
        ]
        return sum(gains) / len(gains) if gains else 0.0

    return {
        "n_epochs": scale.n_epochs,
        "platform": PLATFORM,
        "threads": N_THREADS,
        "workloads": workloads,
        "mean_gain_vs_fixed_pct": {
            s: mean_gain(s, "gain_vs_fixed_pct") for s in DYNAMIC
        },
        "mean_gain_vs_oracle_pct": {
            s: mean_gain(s, "gain_vs_oracle_pct") for s in DYNAMIC
        },
    }


def governor_build(
    scale: Scale, results: "Mapping[RunSpec, RunResult]"
) -> ExperimentResult:
    """Governor sweep: J_E / IPS / power per (workload, strategy)."""
    data = compare(scale, results)
    rows = []
    for workload in sorted(data["workloads"]):
        entry = data["workloads"][workload]
        for strategy in sorted(entry["cells"]):
            cell = entry["cells"][strategy]
            marker = " *" if strategy == entry["oracle_static"] else ""
            rows.append(
                [
                    workload,
                    strategy + marker,
                    f"{cell['ips_per_watt']:.4e}",
                    f"{cell['ips']:.4e}",
                    round(cell["power_w"], 3),
                    round(entry["gain_vs_fixed_pct"][strategy], 1),
                    cell["opp_changes"],
                ]
            )
    return ExperimentResult(
        experiment_id="governor",
        title=(
            "Joint placement + DVFS governor vs fixed-V/f SmartBalance "
            f"({data['platform']}, {data['threads']} threads, "
            f"{data['n_epochs']} epochs)"
        ),
        headers=[
            "workload",
            "strategy",
            "IPS/W",
            "IPS",
            "power W",
            "vs fixed %",
            "OPP switches",
        ],
        rows=rows,
        findings=(
            Finding(
                name="two_level mean J_E gain vs fixed V/f",
                measured=data["mean_gain_vs_fixed_pct"]["two_level"],
                unit="%",
            ),
            Finding(
                name="two_level mean J_E gain vs oracle static OPP",
                measured=data["mean_gain_vs_oracle_pct"]["two_level"],
                unit="%",
            ),
        ),
        notes=(
            "All cells share seed, workload and epoch count; only the "
            "governor strategy differs.  '*' marks the oracle static "
            "OPP (best of fixed + every pinned level, knowable only in "
            "hindsight).  pinned levels trade throughput for power "
            "without sensing; the dynamic governors pick per-cluster "
            "levels from the same epoch sensing the placement already "
            "uses, so gains over the oracle static column are pure "
            "workload-adaptivity."
        ),
    )
