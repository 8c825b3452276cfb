"""Kernel-core benchmark: SoA vs reference epoch throughput, and
batched vs per-owner sensing.

The structure-of-arrays engine exists for one reason — simulating
hundreds-to-thousands of cores at interactive speed — so this file
measures exactly that: epochs simulated per wall-second, same spec, on
the SoA engine and on the object-per-task reference kernel (the test
oracle in ``tests/kernel/reference_kernel.py``), at every
Table-2-style scale from 16 to 1024 cores.

Methodology
-----------
* ``balancer="none"`` for the headline rows: the balancer and sensing
  run the same code on both engines, outside the kernel core, so the
  null balancer isolates what the refactor actually changed.  The
  smartbalance rows are recorded for context (end-to-end gains are
  bounded by the sensing and balancer cost; no floor is enforced
  there).
* Construction (workload instantiation, engine layout) is excluded:
  the timer brackets ``System.run`` only.
* Every timed pair doubles as a differential check — the two runs
  must produce identical :func:`metrics_digest` fingerprints.

The acceptance gate: **>= 10x epoch throughput at 128 cores and
above** on the headline rows.  Results land in the committed
``benchmarks/BENCH_kernel.json`` (benchmarks/out is git-ignored), so
kernel-perf regressions show up as diffs in review:

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel.py -q

``--quick`` drops to two scales and two epochs for CI; quick results
go to benchmarks/out/ so the committed scorecard only ever holds
full-fidelity numbers.

The sensing gate times ``System.build_view`` (one batched read of the
window) against the per-owner scalar oracle
(``tests/kernel/reference_sensing.py``), alternating in one process
from the same RNG state, after an untimed one-epoch SmartBalance run on
hmp:128 × 256 threads (and hmp:1024 in full mode).  SmartBalance reads
sensors, so every timed view carries the PMU part: the noisy counter
and power read and the PMU block of rates and power; a baseline's view
would skip all of it.  Every pair must build equal views (records by
``==`` and ``repr``, PMU blocks byte for byte) and leave the sensing
RNG in the same state; the median per-pair
speedup must be **>= 2.55x** at 128 cores (ten quick-gate readings on a
2-vCPU VM, Python 3.11, were 3.00-3.44x; the floor sits 15% below the
lowest).  Its numbers go to ``benchmark.extra_info`` only.

The steady-period gate runs the paper's shape — quad, MTMI x 8,
SmartBalance, 40 epochs, seeds 100-102 — on the stock engine and on
``NoReplayKernel`` (the same engine with its steady-period memo off),
alternating which goes first.  Every pair must produce equal digests
and the stock engine must replay at least 80% of its periods; a full
run also needs a median per-pair speedup of **>= 1.3x** on
``System.run``.  ``--quick`` reports the speedup without gating it.
"""

import contextlib
import json
import os
import statistics
import time

from reference_kernel import NoReplayKernel, kernel_engine, reference_kernel
from reference_sensing import build_view as reference_build_view
from sensed_tasks import comparable
from repro.kernel.simulator import SimulationConfig, System
from repro.runner.factories import make_balancer, make_platform, make_workload
from repro.runner.serialize import metrics_digest

#: The committed scorecard (benchmarks/out is git-ignored; this is not).
SCORECARD = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_kernel.json"
)

FULL_CORES = (16, 64, 128, 256, 512, 1024)
QUICK_CORES = (16, 128)
#: Scales that also get an end-to-end smartbalance context row.
CONTEXT_CORES = (128, 256)

SPEEDUP_FLOOR = 10.0
FLOOR_FROM_CORES = 128

WORKLOAD = "MTMI"
THREADS_PER_CORE = 2

#: The named presets double as the spec under test for the big scales.
PRESETS = {256: "hmp256", 512: "hmp512", 1024: "hmp1024"}


def platform_spec(n_cores: int) -> str:
    return PRESETS.get(n_cores, f"hmp:{n_cores}")


def timed_run(engine, n_cores, balancer, n_epochs):
    """(epochs/second, digest) of one run built inside the ``engine``
    context; construction excluded."""
    with engine:
        system = System(
            make_platform(platform_spec(n_cores)),
            make_workload(WORKLOAD, THREADS_PER_CORE * n_cores, seed=0),
            make_balancer(balancer),
            SimulationConfig(seed=0),
        )
    start = time.perf_counter()
    result = system.run(n_epochs=n_epochs)
    elapsed = time.perf_counter() - start
    return n_epochs / elapsed, metrics_digest(result)


def measure_row(n_cores, balancer, n_epochs):
    soa_tps, soa_digest = timed_run(
        contextlib.nullcontext(), n_cores, balancer, n_epochs
    )
    ref_tps, ref_digest = timed_run(
        reference_kernel(), n_cores, balancer, n_epochs
    )
    assert soa_digest == ref_digest, (
        f"kernel divergence at {n_cores} cores ({balancer}): "
        f"reference={ref_digest} soa={soa_digest}"
    )
    return {
        "cores": n_cores,
        "threads": THREADS_PER_CORE * n_cores,
        "balancer": balancer,
        "soa_epochs_per_s": round(soa_tps, 3),
        "reference_epochs_per_s": round(ref_tps, 3),
        "speedup": round(soa_tps / ref_tps, 2),
        "digest": soa_digest,
    }


def bench_kernel_epoch_throughput(benchmark, quick, artifact_dir):
    core_counts = QUICK_CORES if quick else FULL_CORES
    # Epoch count is NOT reduced in quick mode: with too few epochs the
    # one-time costs (group registration, first sensing) dominate and
    # the measured speedup undershoots the steady state being gated.
    n_epochs = 5

    def measure():
        rows = [measure_row(n, "none", n_epochs) for n in core_counts]
        if not quick:
            rows += [
                measure_row(n, "smartbalance", n_epochs)
                for n in CONTEXT_CORES
            ]
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    # The acceptance gate: >= 10x on every headline row at scale.
    for row in rows:
        if row["balancer"] == "none" and row["cores"] >= FLOOR_FROM_CORES:
            assert row["speedup"] >= SPEEDUP_FLOOR, (
                f"SoA kernel below the {SPEEDUP_FLOOR}x floor at "
                f"{row['cores']} cores: {row['speedup']}x"
            )
        benchmark.extra_info[
            f"speedup_{row['balancer']}_{row['cores']}c"
        ] = row["speedup"]

    scorecard = {
        "workload": WORKLOAD,
        "threads_per_core": THREADS_PER_CORE,
        "n_epochs": n_epochs,
        "seed": 0,
        "speedup_floor": SPEEDUP_FLOOR,
        "floor_from_cores": FLOOR_FROM_CORES,
        "methodology": (
            "epochs per wall-second of System.run, construction "
            "excluded; headline rows use balancer=none to isolate the "
            "kernel core, smartbalance rows are end-to-end context"
        ),
        "rows": rows,
    }
    # Quick (CI) runs never overwrite the committed full-fidelity file.
    target = (
        os.path.join(artifact_dir, "BENCH_kernel.quick.json")
        if quick
        else SCORECARD
    )
    with open(target, "w") as handle:
        json.dump(scorecard, handle, indent=2, sort_keys=True)
        handle.write("\n")


SENSING_FLOOR = 2.55
SENSING_FLOOR_CORES = 128
SENSING_CORES_QUICK = (128,)
SENSING_CORES_FULL = (128, 1024)
#: Alternating (batched, oracle) view pairs timed per scale, after one
#: untimed warm-up pair.
SENSING_PAIRS = 30


def measure_sensing(n_cores, n_pairs):
    """Per-view times of the batched and the oracle ``build_view``.

    The system's balancer is SmartBalance, which reads sensors, so both
    paths build the PMU part.  The speedup is the median over pairs of
    oracle time / batched time: each pair runs back to back, so host
    drift between pairs cancels.
    """
    system = System(
        make_platform(platform_spec(n_cores)),
        make_workload(WORKLOAD, THREADS_PER_CORE * n_cores, seed=0),
        make_balancer("smartbalance"),
        SimulationConfig(seed=0),
    )
    system.run(n_epochs=1)
    window_s = system.config.period_s
    rng = system.sensing._rng
    paths = {
        "batched": system.build_view,
        "oracle": lambda w: reference_build_view(system, w),
    }
    times = {name: [] for name in paths}
    for pair in range(n_pairs + 1):
        start_state = rng.getstate()
        # Alternate which path goes first so neither always runs warm.
        order = ("batched", "oracle") if pair % 2 == 0 else ("oracle", "batched")
        views, end_states, elapsed = {}, [], {}
        for name in order:
            rng.setstate(start_state)
            start = time.perf_counter()
            views[name] = paths[name](window_s)
            elapsed[name] = time.perf_counter() - start
            end_states.append(rng.getstate())
        assert comparable(views["batched"]) == comparable(views["oracle"]), (
            f"batched view differs from the oracle at {n_cores} cores"
        )
        assert end_states[0] == end_states[1], (
            f"batched read consumed a different draw count at {n_cores} cores"
        )
        if pair > 0:
            for name in paths:
                times[name].append(elapsed[name])
    speedups = [o / b for o, b in zip(times["oracle"], times["batched"])]
    return {
        "cores": n_cores,
        "tasks": len(views["batched"].tasks),
        "batched_ms_per_view": round(statistics.median(times["batched"]) * 1e3, 3),
        "oracle_ms_per_view": round(statistics.median(times["oracle"]) * 1e3, 3),
        "speedup": round(statistics.median(speedups), 2),
    }


def bench_sensing_view_speedup(benchmark, quick):
    core_counts = SENSING_CORES_QUICK if quick else SENSING_CORES_FULL

    def measure():
        return [measure_sensing(n, SENSING_PAIRS) for n in core_counts]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    for row in rows:
        for key in ("batched_ms_per_view", "oracle_ms_per_view", "speedup"):
            benchmark.extra_info[f"sensing_{key}_{row['cores']}c"] = row[key]
    for row in rows:
        if row["cores"] == SENSING_FLOOR_CORES:
            assert row["speedup"] >= SENSING_FLOOR, (
                f"batched sensing below the {SENSING_FLOOR}x floor at "
                f"{row['cores']} cores: {row['speedup']}x "
                f"({row['batched_ms_per_view']} vs "
                f"{row['oracle_ms_per_view']} ms per view)"
            )


STEADY_SEEDS = (100, 101, 102)
STEADY_EPOCHS = 40
STEADY_THREADS = 8
STEADY_SHARE_FLOOR = 0.8
STEADY_SPEEDUP_FLOOR = 1.3
#: Timed (stock, no-replay) pairs per seed, after one untimed warm-up.
STEADY_REPEATS_QUICK = 1
STEADY_REPEATS_FULL = 3


def steady_run(engine, seed):
    """(seconds, digest, replayed periods) of one quad MTMI x 8
    SmartBalance run built inside the ``engine`` context."""
    with engine:
        system = System(
            make_platform("quad"),
            make_workload(WORKLOAD, STEADY_THREADS, seed=seed),
            make_balancer("smartbalance"),
            SimulationConfig(seed=seed),
        )
    start = time.perf_counter()
    result = system.run(n_epochs=STEADY_EPOCHS)
    elapsed = time.perf_counter() - start
    return elapsed, metrics_digest(result), system.engine.steady_periods


def bench_steady_period_replay(benchmark, quick):
    repeats = STEADY_REPEATS_QUICK if quick else STEADY_REPEATS_FULL
    engines = {
        "stock": contextlib.nullcontext,
        "full": lambda: kernel_engine(NoReplayKernel),
    }

    def measure():
        steady_run(contextlib.nullcontext(), STEADY_SEEDS[0])  # warm-up
        times = {name: [] for name in engines}
        ratios, replayed = [], 0
        for pair in range(repeats * len(STEADY_SEEDS)):
            seed = STEADY_SEEDS[pair % len(STEADY_SEEDS)]
            order = ("stock", "full") if pair % 2 == 0 else ("full", "stock")
            runs = {name: steady_run(engines[name](), seed) for name in order}
            assert runs["stock"][1] == runs["full"][1], (
                f"steady-period replay changed the digest at seed {seed}"
            )
            for name in engines:
                times[name].append(runs[name][0])
            ratios.append(runs["full"][0] / runs["stock"][0])
            replayed += runs["stock"][2]
        periods = (
            len(ratios) * STEADY_EPOCHS * SimulationConfig().periods_per_epoch
        )
        return {
            "stock_ms_per_run": round(statistics.median(times["stock"]) * 1e3, 2),
            "full_ms_per_run": round(statistics.median(times["full"]) * 1e3, 2),
            "speedup": round(statistics.median(ratios), 3),
            "replay_share": round(replayed / periods, 4),
        }

    row = benchmark.pedantic(measure, rounds=1, iterations=1)
    for key, value in row.items():
        benchmark.extra_info[f"steady_{key}"] = value
    assert row["replay_share"] >= STEADY_SHARE_FLOOR, (
        f"only {row['replay_share']:.1%} of the steady-shape periods "
        f"replayed (floor {STEADY_SHARE_FLOOR:.0%})"
    )
    if not quick:
        assert row["speedup"] >= STEADY_SPEEDUP_FLOOR, (
            f"steady-period replay below the {STEADY_SPEEDUP_FLOOR}x floor: "
            f"{row['speedup']}x ({row['stock_ms_per_run']} vs "
            f"{row['full_ms_per_run']} ms per run)"
        )
