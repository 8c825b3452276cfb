"""Governor benchmark: joint placement + DVFS gain over fixed V/f.

The governor subsystem (:mod:`repro.governor`) exists to reclaim the
energy the fixed-V/f balancer leaves on the table — clusters running
at nominal frequency for workloads that cannot use it.  This file
gates exactly that claim: the ``two_level`` governor must deliver at
least **10 % more J_E (IPS/Watt)** than the stock fixed-V/f
SmartBalance, per workload and in the mean, at a pinned seed.

Methodology
-----------
* Same spec per pair — platform ``dvfsquad`` (the paper's quad HMP
  with one V/f knob per core type), same workload, threads, seed and
  epoch count; only the governor strategy differs.
* Runs go through :func:`repro.runner.engine.execute_spec` — the same
  resolution path as the CLI — so the benchmark measures what users
  get, not a hand-tuned harness.
* The fixed-mode identity is asserted alongside the gain: a
  ``governor="fixed"`` spec and the governor-free spec must produce
  byte-identical metric digests (the default-off contract).

Results land in the committed ``benchmarks/BENCH_governor.json``
(benchmarks/out is git-ignored), so governor regressions show up as
diffs in review:

    PYTHONPATH=src python -m pytest benchmarks/bench_governor.py -q

``--quick`` drops to one workload and fewer epochs for CI; quick
results go to benchmarks/out/ so the committed scorecard only ever
holds full-fidelity numbers.

``bench_two_level_screen_speedup`` gates the search's cost: one
``two_level`` decision with its OPP screen must be at least 5x faster
than the full search over every vector, on the decisions of a governed
dvfsquad run.
"""

import json
import os
import statistics
import time

from repro.governor import strategies
from repro.governor.config import MAX_ENUMERATION
from repro.runner.engine import execute_spec
from repro.runner.serialize import metrics_digest
from repro.runner.spec import RunSpec

#: The committed scorecard (benchmarks/out is git-ignored; this is not).
SCORECARD = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_governor.json"
)

PLATFORM = "dvfsquad"
THREADS = 8
SEED = 0

FULL_WORKLOADS = ("HTHI", "MTMI", "LTLI")
QUICK_WORKLOADS = ("MTMI",)
FULL_EPOCHS = 12
QUICK_EPOCHS = 6

#: The acceptance gate: two_level J_E gain over fixed V/f, per
#: workload and in the mean.
GAIN_FLOOR_PCT = 10.0


def _spec(workload: str, governor: str, n_epochs: int) -> RunSpec:
    return RunSpec(
        workload=workload,
        platform=PLATFORM,
        threads=THREADS,
        balancer="smartbalance",
        n_epochs=n_epochs,
        seed=SEED,
        governor=governor,
    )


def measure_row(workload: str, n_epochs: int) -> dict:
    fixed = execute_spec(_spec(workload, "fixed", n_epochs))
    governed = execute_spec(_spec(workload, "two_level", n_epochs))
    gain_pct = 100.0 * (governed.ips_per_watt / fixed.ips_per_watt - 1.0)
    stats = governed.governor or {}
    return {
        "workload": workload,
        "fixed_ips_per_watt": fixed.ips_per_watt,
        "governed_ips_per_watt": governed.ips_per_watt,
        "gain_pct": round(gain_pct, 2),
        "fixed_power_w": round(fixed.average_power_w, 4),
        "governed_power_w": round(governed.average_power_w, 4),
        "opp_changes": stats.get("opp_changes", 0),
        "transition_energy_j": stats.get("transition_energy_j", 0.0),
        "final_levels": stats.get("levels", {}),
    }


def bench_governor_gain(benchmark, quick, artifact_dir):
    workloads = QUICK_WORKLOADS if quick else FULL_WORKLOADS
    n_epochs = QUICK_EPOCHS if quick else FULL_EPOCHS

    def measure():
        return [measure_row(w, n_epochs) for w in workloads]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Gate 1: the default-off contract.  governor="fixed" must be
    # byte-identical to the pre-governor pipeline (the spec differs
    # only in cache key, never in simulated content).
    base = RunSpec(
        workload=workloads[0],
        platform=PLATFORM,
        threads=THREADS,
        balancer="smartbalance",
        n_epochs=n_epochs,
        seed=SEED,
    )
    assert base.governor == "fixed"
    fixed_digest = metrics_digest(execute_spec(base))
    explicit_digest = metrics_digest(
        execute_spec(_spec(workloads[0], "fixed", n_epochs))
    )
    assert fixed_digest == explicit_digest, (
        "governor='fixed' diverged from the default spec: "
        f"{fixed_digest} != {explicit_digest}"
    )

    # Gate 2: the reason the subsystem exists.
    for row in rows:
        assert row["gain_pct"] >= GAIN_FLOOR_PCT, (
            f"two_level below the {GAIN_FLOOR_PCT}% J_E floor on "
            f"{row['workload']}: {row['gain_pct']}%"
        )
        benchmark.extra_info[f"gain_{row['workload']}_pct"] = row["gain_pct"]
    mean_gain = sum(r["gain_pct"] for r in rows) / len(rows)
    assert mean_gain >= GAIN_FLOOR_PCT
    benchmark.extra_info["mean_gain_pct"] = round(mean_gain, 2)

    scorecard = {
        "platform": PLATFORM,
        "threads": THREADS,
        "seed": SEED,
        "n_epochs": n_epochs,
        "strategy": "two_level",
        "gain_floor_pct": GAIN_FLOOR_PCT,
        "mean_gain_pct": round(mean_gain, 2),
        "fixed_mode_digest": fixed_digest,
        "methodology": (
            "ips_per_watt of execute_spec pairs differing only in the "
            "governor field; fixed-mode byte-identity asserted against "
            "the default spec"
        ),
        "rows": rows,
    }
    # Quick (CI) runs never overwrite the committed full-fidelity file.
    target = (
        os.path.join(artifact_dir, "BENCH_governor.quick.json")
        if quick
        else SCORECARD
    )
    with open(target, "w") as handle:
        json.dump(scorecard, handle, indent=2, sort_keys=True)
        handle.write("\n")


#: The screen's gate: median per-decision speedup of screened
#: ``two_level`` over the full search.
SCREEN_SPEEDUP_FLOOR = 5.0
#: Timed (screened, full) pairs per captured decision.
SCREEN_ROUNDS = 3


def measure_screen(monkeypatch) -> dict:
    """Per-decision time of ``two_level`` with and without its screen.

    The decisions are those of a governed dvfsquad run (MTMI x 8,
    seed 0, 6 epochs).  The full search is the same code with
    ``SCREEN_TOP`` raised to ``MAX_ENUMERATION``.  One untimed call of
    each side per decision warms the factories' objective caches, so
    neither side pays for building objectives the other already built;
    then alternating pairs are timed and the speedup is the median of
    full / screened over the pairs.
    """
    contexts = []

    def capture(ctx):
        contexts.append(ctx)
        return strategies.two_level(ctx)

    with monkeypatch.context() as patch:
        patch.setitem(strategies.STRATEGIES, "two_level", capture)
        execute_spec(_spec("MTMI", "two_level", QUICK_EPOCHS))

    def decide(ctx, screened):
        with monkeypatch.context() as patch:
            if not screened:
                patch.setattr(strategies, "SCREEN_TOP", MAX_ENUMERATION)
            start = time.perf_counter()
            outcome = strategies.two_level(ctx)
            return time.perf_counter() - start, outcome

    for ctx in contexts:
        decide(ctx, True)
        decide(ctx, False)
    times = {True: [], False: []}
    agreed = 0
    for pair in range(SCREEN_ROUNDS * len(contexts)):
        ctx = contexts[pair % len(contexts)]
        outcomes = {}
        for screened in ((True, False) if pair % 2 == 0 else (False, True)):
            elapsed, outcomes[screened] = decide(ctx, screened)
            times[screened].append(elapsed)
        if pair < len(contexts):
            agreed += all(
                getattr(outcomes[True], field) == getattr(outcomes[False], field)
                for field in ("changes", "levels")
            )
    speedups = [full / screen for screen, full in zip(times[True], times[False])]
    return {
        "decisions": len(contexts),
        "agreed": agreed,
        "screened_ms": round(statistics.median(times[True]) * 1e3, 2),
        "full_ms": round(statistics.median(times[False]) * 1e3, 2),
        "speedup": round(statistics.median(speedups), 2),
    }


def bench_two_level_screen_speedup(benchmark, monkeypatch):
    row = benchmark.pedantic(
        lambda: measure_screen(monkeypatch), rounds=1, iterations=1
    )
    for key in ("speedup", "screened_ms", "full_ms"):
        benchmark.extra_info[f"screen_{key}"] = row[key]
    benchmark.extra_info["screen_agreement"] = f"{row['agreed']}/{row['decisions']}"
    assert row["speedup"] >= SCREEN_SPEEDUP_FLOOR, (
        f"screened two_level below the {SCREEN_SPEEDUP_FLOOR}x floor: "
        f"{row['speedup']}x ({row['screened_ms']} vs {row['full_ms']} ms "
        "per decision)"
    )
