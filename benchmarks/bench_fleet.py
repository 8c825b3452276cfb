"""Fleet-tier benchmarks: throughput, dispatch-latency tail and energy
retention under chaos.

The acceptance bar (ISSUE 6):

1. with 30 % of the fleet killed mid-run, every accepted job still
   completes (re-dispatch rescues in-flight work);
2. the chaos run retains >= 70 % of fault-free throughput;
3. identical seeds replay to identical digests at any profiling
   parallelism.

Besides the pass/fail gates this file writes a committed scorecard,
``benchmarks/BENCH_fleet.json`` (not ``benchmarks/out/``, which is
git-ignored), so fleet regressions show up as diffs in review:

    PYTHONPATH=src python -m pytest benchmarks/bench_fleet.py -q
"""

import json
import os

from repro.experiments import EXPERIMENTS
from repro.experiments import fleet as fleet_exp
from repro.experiments.common import QUICK
from repro.fleet import run_fleet
from repro.runner import run_sweep

#: The committed scorecard (benchmarks/out is git-ignored; this is not).
SCORECARD = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "BENCH_fleet.json")


def _specs():
    clean = fleet_exp.fleet_spec(QUICK)
    kill30 = fleet_exp.fleet_spec(QUICK, faults="kill30")
    return clean, kill30


def bench_fleet_chaos_scorecard(benchmark, runner_jobs, save_artifact):
    """Clean vs kill30: completion, retention and tail-latency gates."""
    clean_spec, kill30_spec = _specs()

    def measure():
        clean = run_fleet(clean_spec, jobs=runner_jobs)
        kill30 = run_fleet(kill30_spec, jobs=runner_jobs)
        return clean, kill30

    clean, kill30 = benchmark.pedantic(measure, rounds=1, iterations=1)

    retention = kill30.throughput_rps / clean.throughput_rps
    je_retention = kill30.ips_per_watt / clean.ips_per_watt
    scorecard = {
        "fleet": {
            "nodes": list(fleet_exp.NODES),
            "requests": clean.accepted,
            "seed": fleet_exp.FLEET_SEED,
        },
        "clean": {
            "throughput_rps": round(clean.throughput_rps, 6),
            "dispatch_latency_p99_s": round(clean.dispatch_latency_p99_s, 6),
            "completion_latency_p99_s": round(
                clean.completion_latency_p99_s, 6),
            "ips_per_watt": round(clean.ips_per_watt, 3),
        },
        "kill30": {
            "nodes_killed": kill30.injections["node_crashes"],
            "completion_rate": round(kill30.completion_rate, 6),
            "reroutes": kill30.stats["reroutes"],
            "throughput_rps": round(kill30.throughput_rps, 6),
            "throughput_retention": round(retention, 6),
            "dispatch_latency_p99_s": round(kill30.dispatch_latency_p99_s, 6),
            "j_e_retention": round(je_retention, 6),
        },
    }
    with open(SCORECARD, "w") as handle:
        json.dump(scorecard, handle, indent=2, sort_keys=True)
        handle.write("\n")

    benchmark.extra_info.update(
        throughput_rps=clean.throughput_rps,
        dispatch_p99_s=clean.dispatch_latency_p99_s,
        kill30_retention=retention,
        kill30_je_retention=je_retention,
    )
    # The acceptance gates.
    assert kill30.completion_rate >= fleet_exp.COMPLETION_FLOOR
    assert kill30.failed == 0
    assert retention >= fleet_exp.THROUGHPUT_RETENTION_FLOOR
    assert clean.dispatch_latency_p99_s < 10.0, "dispatch tail blew up"


def bench_fleet_replayability(benchmark):
    """Same seed + same fault schedule => identical digest, twice."""
    _, kill30_spec = _specs()

    def twice():
        return run_fleet(kill30_spec), run_fleet(kill30_spec)

    first, second = benchmark.pedantic(twice, rounds=1, iterations=1)
    assert first.digest() == second.digest()
    benchmark.extra_info["digest"] = first.digest()


def bench_fleet_experiment_table(benchmark, runner_jobs, save_artifact):
    """The full experiment table, saved as a benchmarks/out artifact."""
    result = benchmark.pedantic(
        lambda: run_sweep([EXPERIMENTS["fleet"]], QUICK, jobs=runner_jobs)[0],
        rounds=1, iterations=1,
    )
    save_artifact(result)
    by_name = {f.name: f.measured for f in result.findings}
    assert by_name["kill30 completion rate"] >= fleet_exp.COMPLETION_FLOOR
    assert (by_name["kill30 throughput retention"]
            >= fleet_exp.THROUGHPUT_RETENTION_FLOOR)
    benchmark.extra_info.update(
        {name.replace(" ", "_"): value for name, value in by_name.items()}
    )
