"""Diagnostic report rendered from a structured event stream.

Turns a JSONL trace (the raw events of :mod:`repro.obs.events`) into
the paper's headline diagnostics:

* **Prediction accuracy** — mean absolute percentage error of the
  cross-core IPS and power predictions (Eqs. 8–9), broken down per
  (source type -> target type) pair like Table 4 of the paper.
* **Annealer convergence** — iteration/acceptance/uphill statistics of
  the simulated-annealing search (Algorithm 1) and how much the
  objective improved per invocation.
* **Migration causality** — how many migrations each cause produced.
* **Resilience pairing** — injected-fault and mitigation counts by kind.
* **Epoch health** — degenerate-epoch count (epochs whose energy
  accounting made ``ips_per_watt`` meaningless).
* **Governor** — joint placement + DVFS decision counts and the
  cluster OPP switch ledger, when the run used ``--governor``.
* **Fleet** — multi-node dispatch/completion totals and the node
  failure + reroute ledger, when the trace came from a
  :mod:`repro.fleet` run.
* **Phase overhead** — the wall-clock sense/predict/balance breakdown
  when the trace carries a ``phase_profile`` event (Fig. 7 data).

:func:`build_report` produces a plain dict (JSON-ready, fully
deterministic given a deterministic event stream); :func:`render_report`
formats it as the fixed-width text the ``repro report`` subcommand
prints.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.obs import events as ev


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _pair_key(src: str, dst: str) -> str:
    return f"{src}->{dst}"


def build_prediction_accuracy(events: Iterable[dict]) -> "dict[str, dict]":
    """Per-(source,target) core-type-pair prediction error summary."""
    pairs: "dict[str, dict]" = {}
    for event in events:
        if event.get("type") != ev.PREDICTION_CHECK:
            continue
        key = _pair_key(str(event["src_type"]), str(event["dst_type"]))
        bucket = pairs.setdefault(key, {"ipc": [], "power": []})
        bucket["ipc"].append(float(event["ipc_abs_pct_error"]))
        power_err = event.get("power_abs_pct_error")
        if power_err is not None:
            bucket["power"].append(float(power_err))
    report = {}
    for key in sorted(pairs):
        bucket = pairs[key]
        report[key] = {
            "samples": len(bucket["ipc"]),
            "ipc_mean_abs_pct_error": _mean(bucket["ipc"]),
            "ipc_max_abs_pct_error": max(bucket["ipc"]) if bucket["ipc"] else 0.0,
            "power_samples": len(bucket["power"]),
            "power_mean_abs_pct_error": _mean(bucket["power"]),
        }
    return report


def build_annealer_summary(events: Iterable[dict]) -> dict:
    runs = [e for e in events if e.get("type") == ev.ANNEAL]
    if not runs:
        return {"runs": 0}
    iterations = [int(e["iterations"]) for e in runs]
    accepted = [int(e["accepted"]) for e in runs]
    uphill = [int(e["uphill"]) for e in runs]
    improvements = [
        float(e["improvement_pct"]) for e in runs if e.get("improvement_pct") is not None
    ]
    return {
        "runs": len(runs),
        "iterations_total": sum(iterations),
        "iterations_mean": _mean(iterations),
        "accepted_total": sum(accepted),
        "uphill_total": sum(uphill),
        "acceptance_rate": (
            sum(accepted) / sum(iterations) if sum(iterations) else 0.0
        ),
        "improvement_pct_mean": _mean(improvements),
    }


def _count_by(events: Iterable[dict], etype: str, field: str) -> "dict[str, int]":
    counts: "dict[str, int]" = {}
    for event in events:
        if event.get("type") != etype:
            continue
        key = str(event.get(field))
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def build_adaptation_summary(events: Iterable[dict]) -> dict:
    """Online model-maintenance activity: drift alarms, commits with
    their held-out error deltas, rollbacks, and the version history."""
    drifts = [e for e in events if e.get("type") == ev.DRIFT_DETECTED]
    updates = [e for e in events if e.get("type") == ev.MODEL_UPDATE]
    rollbacks = [e for e in events if e.get("type") == ev.MODEL_ROLLBACK]
    deltas = [
        float(e["holdout_error_before_pct"]) - float(e["holdout_error_after_pct"])
        for e in updates
        if e.get("holdout_error_before_pct") is not None
        and e.get("holdout_error_after_pct") is not None
    ]
    return {
        "drift_detections": len(drifts),
        "drifted_pairs": sorted({str(e["pair"]) for e in drifts}),
        "model_updates": len(updates),
        "model_rollbacks": len(rollbacks),
        "updates_by_cause": _count_by(events, ev.MODEL_UPDATE, "cause"),
        "mean_holdout_improvement_pct": _mean(deltas),
        "versions": [
            {
                "version": int(e["version"]),
                "epoch": e.get("epoch"),
                "cause": str(e["cause"]),
                "fingerprint": e.get("fingerprint"),
                "pairs_updated": list(e.get("pairs_updated") or []),
            }
            for e in updates
        ],
    }


def build_governor_summary(events: Iterable[dict]) -> dict:
    """Joint placement + DVFS governor activity: decision counts,
    adoption rate, OPP switch ledger and the per-cluster level
    trajectory endpoints."""
    decisions = [e for e in events if e.get("type") == ev.GOVERNOR_DECISION]
    switches = [e for e in events if e.get("type") == ev.OPP_CHANGE]
    if not decisions and not switches:
        return {"decisions": 0, "opp_switches": 0}
    candidates = [int(e.get("candidates_evaluated") or 0) for e in decisions]
    return {
        "decisions": len(decisions),
        "strategy": str(decisions[0]["strategy"]) if decisions else None,
        "adopted": sum(1 for e in decisions if e.get("adopted")),
        "candidates_evaluated_total": sum(candidates),
        "candidates_evaluated_mean": _mean(candidates),
        "opp_switches": len(switches),
        "switches_by_cluster": _count_by(events, ev.OPP_CHANGE, "cluster"),
        "transition_energy_j": sum(
            float(e.get("transition_energy_j") or 0.0) for e in switches
        ),
        "transition_latency_s": sum(
            float(e.get("transition_latency_s") or 0.0) for e in switches
        ),
        # Last write per cluster; clusters that never switched ran at
        # their top (nominal) rung throughout and have no entry here.
        "final_levels": {
            str(e["cluster"]): int(e["to_level"]) for e in switches
        },
        "switch_ledger": [
            {
                "t_s": float(e["t_s"]),
                "cluster": str(e["cluster"]),
                "from_level": int(e["from_level"]),
                "to_level": int(e["to_level"]),
                "from_freq_mhz": float(e["from_freq_mhz"]),
                "to_freq_mhz": float(e["to_freq_mhz"]),
            }
            for e in switches
        ],
    }


def build_fleet_summary(events: Iterable[dict]) -> dict:
    """Fleet-tier activity: dispatch/completion totals, the node
    failure + recovery ledger, reroute causes and circuit actions.

    The ledger is *consistent by construction*: every ``node_down``
    event carries the number of jobs rescued off that node, and every
    rescue shows up again as a ``reroute`` event — the report
    cross-counts both sides.
    """
    events = list(events)
    dispatches = [e for e in events if e.get("type") == ev.FLEET_DISPATCH]
    completes = [e for e in events if e.get("type") == ev.FLEET_COMPLETE]
    downs = [e for e in events if e.get("type") == ev.NODE_DOWN]
    reroutes = [e for e in events if e.get("type") == ev.REROUTE]
    duplicates = [e for e in completes if e.get("duplicate")]
    recoveries = [
        e for e in events
        if e.get("type") == ev.NODE_UP and e.get("detail") != "boot"
    ]
    latencies = [
        float(e["latency_s"]) for e in completes
        if not e.get("duplicate") and e.get("latency_s") is not None
    ]
    return {
        "dispatches": len(dispatches),
        "degraded_dispatches": sum(1 for e in dispatches if e.get("degraded")),
        "completions": len(completes) - len(duplicates),
        "duplicates": len(duplicates),
        "jobs": len({str(e["job"]) for e in dispatches}),
        "mean_completion_latency_s": _mean(latencies),
        "dispatches_by_node": _count_by(events, ev.FLEET_DISPATCH, "node"),
        "completions_by_node": _count_by(
            (e for e in completes if not e.get("duplicate")),
            ev.FLEET_COMPLETE, "node",
        ),
        "node_failures": [
            {
                "node": int(e["node"]),
                "t_s": float(e["t_s"]),
                "cause": str(e["cause"]),
                "jobs_rescued": int(e.get("jobs_rescued") or 0),
            }
            for e in downs
        ],
        "jobs_rescued_total": sum(int(e.get("jobs_rescued") or 0) for e in downs),
        "node_recoveries": len(recoveries),
        "heartbeats_missed": sum(
            1 for e in events if e.get("type") == ev.HEARTBEAT_MISSED
        ),
        "reroutes": len(reroutes),
        "reroutes_by_cause": _count_by(events, ev.REROUTE, "cause"),
        "circuit_opens": sum(
            1 for e in events if e.get("type") == ev.CIRCUIT_OPEN
        ),
        "circuit_closes": sum(
            1 for e in events if e.get("type") == ev.CIRCUIT_CLOSE
        ),
    }


def build_scenario_summary(events: Iterable[dict]) -> dict:
    """Scenario-tier activity: request latency percentiles and SLO
    misses (open-loop traffic) plus barrier release/stall totals."""
    events = list(events)
    completes = [
        e for e in events if e.get("type") == ev.REQUEST_COMPLETED
    ]
    arrivals = sum(
        1 for e in events if e.get("type") == ev.REQUEST_ARRIVED
    )
    stalls = [e for e in events if e.get("type") == ev.BARRIER_STALL]
    summary: dict = {
        "requests_arrived": arrivals,
        "requests_completed": len(completes),
        "barriers_released": len(stalls),
    }
    if completes:
        from repro.analysis.stats import percentiles

        latencies = [float(e["latency_s"]) for e in completes]
        p50, p95, p99 = percentiles(latencies, (0.50, 0.95, 0.99))
        misses = sum(1 for e in completes if e.get("slo_miss"))
        summary.update(
            latency_p50_s=p50,
            latency_p95_s=p95,
            latency_p99_s=p99,
            latency_mean_s=_mean(latencies),
            slo_misses=misses,
            slo_miss_rate=misses / len(completes),
        )
    if stalls:
        summary.update(
            barrier_stall_s=sum(float(e.get("stall_s") or 0.0) for e in stalls),
            barrier_stalls_by_group=_count_by(
                events, ev.BARRIER_STALL, "group"
            ),
        )
    return summary


def build_report(events: Sequence[dict]) -> dict:
    """Aggregate one event stream into the full diagnostic report."""
    run_end = next((e for e in events if e.get("type") == ev.RUN_END), None)
    phase_profile = next(
        (e for e in events if e.get("type") == ev.PHASE_PROFILE), None
    )
    epochs = sum(1 for e in events if e.get("type") == ev.EPOCH_END)
    degenerate = sum(1 for e in events if e.get("type") == ev.DEGENERATE_EPOCH)
    report = {
        "events": len(events),
        "epochs": epochs,
        "degenerate_epochs": degenerate,
        "run": None
        if run_end is None
        else {
            "duration_s": run_end.get("duration_s"),
            "instructions": run_end.get("instructions"),
            "energy_j": run_end.get("energy_j"),
            "migrations": run_end.get("migrations"),
            "ips_per_watt": run_end.get("ips_per_watt"),
        },
        "prediction_accuracy": build_prediction_accuracy(events),
        "annealer": build_annealer_summary(events),
        "migration_causes": _count_by(events, ev.MIGRATION, "cause"),
        "faults_injected": _count_by(events, ev.FAULT_INJECTED, "kind"),
        "mitigations": {
            kind: count
            for kind, count in _count_by(events, ev.MITIGATION, "kind").items()
            if kind not in ev.RETIRED_MITIGATION_KINDS
        },
        "degradation_transitions": _count_by(events, ev.DEGRADATION, "state"),
        "adaptation": build_adaptation_summary(events),
        "governor": build_governor_summary(events),
        "fleet": build_fleet_summary(events),
        "scenario": build_scenario_summary(events),
        "phase_profile": None
        if phase_profile is None
        else dict(phase_profile.get("phases") or {}),
    }
    return report


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def _section(title: str) -> "list[str]":
    return ["", title, "-" * len(title)]


def render_report(report: dict) -> str:
    """Format a :func:`build_report` dict as fixed-width text."""
    lines = ["SmartBalance trace report", "========================="]
    lines.append(
        f"events: {report['events']}   epochs: {report['epochs']}   "
        f"degenerate epochs: {report['degenerate_epochs']}"
    )

    run = report.get("run")
    if run:
        lines += _section("Run summary")
        lines.append(f"  duration      {run['duration_s']:.6g} s")
        lines.append(f"  instructions  {run['instructions']:.6g}")
        lines.append(f"  energy        {run['energy_j']:.6g} J")
        lines.append(f"  migrations    {run['migrations']}")
        if run.get("ips_per_watt") is not None:
            lines.append(f"  IPS/Watt      {run['ips_per_watt']:.6g}")

    accuracy = report.get("prediction_accuracy") or {}
    lines += _section("Prediction accuracy (abs % error, Table 4)")
    if accuracy:
        header = (
            f"  {'pair':<18} {'samples':>7} {'ipc mean':>9} {'ipc max':>9} "
            f"{'power mean':>10}"
        )
        lines.append(header)
        for pair, row in accuracy.items():
            power = (
                f"{row['power_mean_abs_pct_error']:>10.2f}"
                if row["power_samples"]
                else f"{'-':>10}"
            )
            lines.append(
                f"  {pair:<18} {row['samples']:>7} "
                f"{row['ipc_mean_abs_pct_error']:>9.2f} "
                f"{row['ipc_max_abs_pct_error']:>9.2f} {power}"
            )
    else:
        lines.append("  (no prediction_check events in trace)")

    annealer = report.get("annealer") or {}
    lines += _section("Annealer convergence (Algorithm 1)")
    if annealer.get("runs"):
        lines.append(f"  runs              {annealer['runs']}")
        lines.append(
            f"  iterations        total={annealer['iterations_total']} "
            f"mean={annealer['iterations_mean']:.1f}"
        )
        lines.append(
            f"  accepted          {annealer['accepted_total']} "
            f"(rate {annealer['acceptance_rate']:.1%}, "
            f"uphill {annealer['uphill_total']})"
        )
        lines.append(
            f"  mean improvement  {annealer['improvement_pct_mean']:.2f}%"
        )
    else:
        lines.append("  (no anneal events in trace)")

    for title, key in (
        ("Migrations by cause", "migration_causes"),
        ("Faults injected by kind", "faults_injected"),
        ("Mitigations by kind", "mitigations"),
        ("Degradation transitions", "degradation_transitions"),
    ):
        counts = report.get(key) or {}
        if counts:
            lines += _section(title)
            for name, count in counts.items():
                lines.append(f"  {name:<26} {count}")

    adaptation = report.get("adaptation") or {}
    if (
        adaptation.get("drift_detections")
        or adaptation.get("model_updates")
        or adaptation.get("model_rollbacks")
    ):
        lines += _section("Adaptation (online model maintenance)")
        lines.append(
            f"  drift detections  {adaptation['drift_detections']} "
            f"({', '.join(adaptation['drifted_pairs']) or 'none'})"
        )
        lines.append(
            f"  model updates     {adaptation['model_updates']} "
            f"(rollbacks {adaptation['model_rollbacks']})"
        )
        if adaptation.get("model_updates"):
            lines.append(
                "  mean held-out error improvement  "
                f"{adaptation['mean_holdout_improvement_pct']:.2f} pp"
            )
        for row in adaptation.get("versions") or []:
            epoch = row.get("epoch")
            lines.append(
                f"    v{row['version']} @ epoch {epoch if epoch is not None else '?'}"
                f" cause={row['cause']}"
                f" pairs={len(row['pairs_updated'])}"
                f" fp={row.get('fingerprint') or '-'}"
            )

    governor = report.get("governor") or {}
    if governor.get("decisions") or governor.get("opp_switches"):
        lines += _section("Governor (joint placement + DVFS)")
        lines.append(
            f"  strategy          {governor.get('strategy') or '?'}"
        )
        lines.append(
            f"  decisions         {governor['decisions']} "
            f"(adopted {governor.get('adopted', 0)})"
        )
        lines.append(
            "  candidates        "
            f"total={governor.get('candidates_evaluated_total', 0)} "
            f"mean={governor.get('candidates_evaluated_mean', 0.0):.1f}"
        )
        lines.append(
            f"  OPP switches      {governor['opp_switches']} "
            f"(transition energy "
            f"{governor.get('transition_energy_j', 0.0) * 1e6:.1f} uJ, "
            f"dead time {governor.get('transition_latency_s', 0.0) * 1e6:.1f} us)"
        )
        final = governor.get("final_levels") or {}
        if final:
            lines.append(
                "  final levels      "
                + ", ".join(f"{k}={v}" for k, v in sorted(final.items()))
            )
        for row in governor.get("switch_ledger") or []:
            lines.append(
                f"    {row['cluster']:<8} @ {row['t_s']:.3f}s  "
                f"L{row['from_level']}->L{row['to_level']}  "
                f"{row['from_freq_mhz']:.0f}->{row['to_freq_mhz']:.0f} MHz"
            )

    fleet = report.get("fleet") or {}
    if fleet.get("dispatches"):
        lines += _section("Fleet (multi-node dispatch)")
        lines.append(
            f"  jobs              {fleet['jobs']} "
            f"(dispatches {fleet['dispatches']}, "
            f"degraded {fleet['degraded_dispatches']})"
        )
        lines.append(
            f"  completions       {fleet['completions']} "
            f"(duplicates suppressed {fleet['duplicates']})"
        )
        lines.append(
            "  mean latency      "
            f"{fleet['mean_completion_latency_s']:.6g} s"
        )
        lines.append(
            f"  heartbeats missed {fleet['heartbeats_missed']}   "
            f"node recoveries {fleet['node_recoveries']}   "
            f"circuit open/close {fleet['circuit_opens']}/"
            f"{fleet['circuit_closes']}"
        )
        per_node = fleet.get("dispatches_by_node") or {}
        if per_node:
            done = fleet.get("completions_by_node") or {}
            lines.append(f"  {'node':<6} {'dispatched':>10} {'completed':>10}")
            for node, count in per_node.items():
                lines.append(
                    f"  {node:<6} {count:>10} {done.get(node, 0):>10}"
                )
        failures = fleet.get("node_failures") or []
        if failures:
            lines.append("  node failures:")
            for row in failures:
                lines.append(
                    f"    node {row['node']} down @ {row['t_s']:.3f}s "
                    f"({row['cause']}), {row['jobs_rescued']} rescued"
                )
        causes = fleet.get("reroutes_by_cause") or {}
        if causes:
            lines.append(
                "  reroutes:         "
                + ", ".join(f"{k}={v}" for k, v in causes.items())
            )

    scenario = report.get("scenario") or {}
    if (
        scenario.get("requests_completed")
        or scenario.get("requests_arrived")
        or scenario.get("barriers_released")
    ):
        lines += _section("Scenario (workload scenarios)")
        if scenario.get("requests_arrived") or scenario.get("requests_completed"):
            lines.append(
                f"  requests:         {scenario.get('requests_completed', 0)} "
                f"completed / {scenario.get('requests_arrived', 0)} arrived"
            )
        if "latency_p50_s" in scenario:
            lines.append(
                "  latency:          "
                f"p50={scenario['latency_p50_s'] * 1e3:.2f}ms "
                f"p95={scenario['latency_p95_s'] * 1e3:.2f}ms "
                f"p99={scenario['latency_p99_s'] * 1e3:.2f}ms"
            )
            lines.append(
                f"  SLO misses:       {scenario['slo_misses']} "
                f"({scenario['slo_miss_rate']:.1%})"
            )
        if scenario.get("barriers_released"):
            lines.append(
                f"  barriers:         {scenario['barriers_released']} released, "
                f"{scenario.get('barrier_stall_s', 0.0):.4f}s total stall"
            )
            by_group = scenario.get("barrier_stalls_by_group") or {}
            if by_group:
                lines.append(
                    "  releases by group: "
                    + ", ".join(f"{k}={v}" for k, v in sorted(by_group.items()))
                )

    phases = report.get("phase_profile")
    if phases:
        lines += _section("Phase overhead (wall clock, Fig. 7)")
        total = sum(float(v) for v in phases.values()) or 1.0
        for name, seconds in sorted(phases.items()):
            lines.append(
                f"  {name:<10} {float(seconds):>10.6f} s "
                f"({float(seconds) / total:.1%})"
            )
    return "\n".join(lines) + "\n"
