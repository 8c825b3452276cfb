"""Fleet chaos experiment: does the dispatcher survive losing 30 % of
the cluster mid-run?

Not a paper artifact — the paper stops at one MPSoC.  This experiment
is the fleet tier's acceptance gate: run the same request stream
through a 4-node heterogeneous fleet once fault-free and once under
the ``kill30`` chaos schedule (30 % of nodes crashed mid-run, same
seed), then check that the defence stack turned permanent node loss
into a latency/throughput tax rather than lost work:

* **completion** — 100 % of accepted jobs complete, every job that was
  in flight on a killed node is re-dispatched (the reroute ledger must
  balance the rescue ledger);
* **throughput retention** — the chaos run keeps ≥ 70 % of fault-free
  throughput;
* **J_E retention** — fleet-level IPS/W stays close to fault-free
  (work migrates to the surviving nodes' operating points).

A second fault-free pass under round-robin placement measures what the
energy-aware policy is worth on a heterogeneous fleet (the reason the
dispatcher senses at all).

Scenario rows also cover ``chaos`` (crash + hang + partition +
telemetry lies together) so every defence layer fires in one table.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis import ExperimentResult, Finding
from repro.experiments.common import QUICK, Scale
from repro.fleet import FleetResult, FleetSim, FleetSpec
from repro.fleet.profiles import profile_table
from repro.kernel.metrics import RunResult
from repro.runner.spec import RunSpec

#: Acceptance floors (ISSUE 6): the chaos run must complete everything
#: and keep at least this share of fault-free throughput.
COMPLETION_FLOOR = 1.0
THROUGHPUT_RETENTION_FLOOR = 0.70

#: The chaos fleet: heterogeneous on purpose (two platforms), sized so
#: the request stream keeps all nodes busy when the kills land.
NODES = ("quad", "biglittle", "quad", "biglittle")
FLEET_SEED = 7


def fleet_spec(
    scale: Scale = QUICK,
    faults: "str | None" = None,
    policy: str = "energy",
) -> FleetSpec:
    """The experiment's fleet sizing at ``scale``."""
    full = scale.name == "full"
    return FleetSpec(
        nodes=NODES,
        n_requests=96 if full else 48,
        distinct_jobs=6,
        threads=4,
        n_epochs=4,
        arrival_rate_hz=10.0,
        seed=FLEET_SEED,
        policy=policy,
        faults=faults,
    )


def _row(name: str, result: FleetResult, baseline: "FleetResult | None"):
    retention = (
        result.throughput_rps / baseline.throughput_rps
        if baseline is not None and baseline.throughput_rps > 0
        else 1.0
    )
    return [
        name,
        f"{result.completed}/{result.accepted}",
        result.stats["reroutes"],
        result.duplicates,
        result.failed,
        round(result.throughput_rps, 2),
        round(retention, 3),
        round(result.ips_per_watt / 1e9, 3),
    ]


def _fleets(scale: Scale) -> "list[FleetSpec]":
    """The clean, kill30, chaos and round-robin fleets, in row order."""
    return [
        fleet_spec(scale),
        fleet_spec(scale, faults="kill30"),
        fleet_spec(scale, faults="chaos"),
        fleet_spec(scale, policy="round_robin"),
    ]


def fleet_specs(scale: Scale) -> "list[RunSpec]":
    """The profile-phase jobs of every fleet the table runs."""
    return [spec for fleet in _fleets(scale) for spec in fleet.profile_specs()]


def fleet_build(
    scale: Scale, results: "Mapping[RunSpec, RunResult]"
) -> ExperimentResult:
    """Fault-free vs chaos fleet runs; acceptance findings."""
    clean, kill30, chaos, round_robin = [
        FleetSim(fleet, profile_table(fleet, results)).run()
        for fleet in _fleets(scale)
    ]

    rows = [
        _row("clean", clean, None),
        _row("kill30", kill30, clean),
        _row("chaos", chaos, clean),
        _row("clean/round_robin", round_robin, clean),
    ]
    kill30_retention = (
        kill30.throughput_rps / clean.throughput_rps
        if clean.throughput_rps > 0 else 0.0
    )
    energy_gain = (
        clean.ips_per_watt / round_robin.ips_per_watt
        if round_robin.ips_per_watt > 0 else 0.0
    )
    return ExperimentResult(
        experiment_id="fleet",
        title=(
            f"Fleet chaos: {len(NODES)}-node heterogeneous fleet, "
            f"kill30 = {kill30.injections['node_crashes']} nodes crashed "
            f"mid-run ({scale.name} scale, seed {FLEET_SEED})"
        ),
        headers=[
            "scenario",
            "completed",
            "reroutes",
            "dups",
            "failed",
            "throughput (req/s)",
            "retention",
            "IPS/W (G)",
        ],
        rows=rows,
        findings=(
            Finding(
                name="kill30 completion rate",
                measured=kill30.completion_rate,
            ),
            Finding(
                name="kill30 throughput retention",
                measured=kill30_retention,
            ),
            Finding(
                name="kill30 J_E retention",
                measured=(kill30.ips_per_watt / clean.ips_per_watt
                          if clean.ips_per_watt > 0 else 0.0),
            ),
            Finding(
                name="energy policy J_E gain vs round-robin",
                measured=energy_gain,
            ),
        ),
        notes=(
            "Every job in flight on a crashed node is rescued and "
            "re-dispatched (exactly-once by ledger); acceptance bars: "
            f"kill30 completion = {COMPLETION_FLOOR:.0%} and throughput "
            f"retention >= {THROUGHPUT_RETENTION_FLOOR:.0%}.  Retention "
            "is throughput over the fault-free run at the same seed.  "
            "The chaos row adds hangs, a partition and lying telemetry "
            "on top of a crash — hedged re-dispatch plus duplicate "
            "suppression keeps completions exactly-once."
        ),
    )
