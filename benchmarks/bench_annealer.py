"""Annealer benchmark: the fast Algorithm 1 loop against its reference.

Two gates time :func:`repro.core.annealing.anneal` against the
straightforward loop in ``tests/core/sa_oracle.py`` on objectives taken
from real runs, each annealed with the configuration its caller used:

* **sparse**: the objective SmartBalance builds on hmp:128, MTMI x 256
  threads, at the second epoch's decision (the first has no
  measurement), with the stock :data:`repro.core.balancer.SA_CONFIG`.
  Its 32768 slots are almost all empty, so the fast loop skips its runs
  of no-op moves in numpy steps; the block draws and the best-state
  journal pay here too.  The median per-pair speedup (oracle time /
  fast time) must be **>= 7.58x** (ten quick-gate readings on a 2-vCPU
  VM, Python 3.11, were 8.92-10.93x; the floor sits 15% below the
  lowest).
* **dense**: the first inner anneal of the two-level DVFS governor on
  dvfsquad, MTMI x 8 threads (4 cores x 8 slots, 100 iterations).  Too
  dense to scan, it keeps the per-move loop; the gate holds the cost of
  that path.  Each timed sample is :data:`DENSE_REPEATS` anneals.  The
  median speedup must be **>= 2.18x** (ten readings 2.57-3.46x; 15%
  below the lowest).

The two loops run alternately in one process, each pair from the same
inputs, with a trace kept, and every pair must return the same best
allocation, values, counters and trace.  The numbers go to
``benchmark.extra_info`` only::

    PYTHONPATH=src python -m pytest benchmarks/bench_annealer.py -q --quick
"""

import statistics
import time

import sa_oracle
from repro.core import balancer as balancer_module
from repro.core.annealing import anneal
from repro.governor import strategies as strategies_module
from repro.kernel.simulator import SimulationConfig, System
from repro.runner.factories import make_balancer, make_platform, make_workload

ANNEAL_FLOOR = 7.58
DENSE_FLOOR = 2.18
#: Alternating (fast, oracle) pairs timed, after one untimed warm-up pair.
ANNEAL_PAIRS = 10
#: Anneals per timed sample of the dense gate (one takes well under 1 ms).
DENSE_REPEATS = 20


def captured_problem(monkeypatch, module, platform, threads, balancer):
    """The (objective, incumbent, config) of the first anneal that
    ``module`` makes in a run of ``balancer`` on ``platform``, MTMI x
    ``threads``."""
    problems = []

    def spy(objective, incumbent, config, keep_trace=False):
        problems.append((objective, incumbent.copy(), config))
        return anneal(objective, incumbent, config, keep_trace=keep_trace)

    monkeypatch.setattr(module, "anneal", spy)
    system = System(
        make_platform(platform),
        make_workload("MTMI", threads, seed=0),
        balancer,
        SimulationConfig(seed=0),
    )
    system.run(n_epochs=2)
    monkeypatch.undo()
    return problems[0]


def summary(result):
    return (
        result.best_allocation.slots,
        result.best_allocation._thread_slot,
        result.best_value,
        result.initial_value,
        result.iterations,
        result.accepted_moves,
        result.uphill_accepts,
        result.trace.stride,
        result.trace.samples,
    )


def measure_anneal(objective, incumbent, config, n_pairs, repeats=1):
    paths = {"fast": anneal, "oracle": sa_oracle.anneal}
    times = {name: [] for name in paths}
    for pair in range(n_pairs + 1):
        # Alternate which path goes first so neither always runs warm.
        order = ("fast", "oracle") if pair % 2 == 0 else ("oracle", "fast")
        results, elapsed = {}, {}
        for name in order:
            start = time.perf_counter()
            for _ in range(repeats):
                results[name] = paths[name](
                    objective, incumbent, config, keep_trace=True
                )
            elapsed[name] = (time.perf_counter() - start) / repeats
        assert summary(results["fast"]) == summary(results["oracle"]), (
            "fast anneal differs from the oracle"
        )
        if pair > 0:
            for name in paths:
                times[name].append(elapsed[name])
    speedups = [o / f for o, f in zip(times["oracle"], times["fast"])]
    return {
        "slots": len(incumbent),
        "iterations": results["fast"].iterations,
        "fast_ms_per_anneal": round(statistics.median(times["fast"]) * 1e3, 3),
        "oracle_ms_per_anneal": round(statistics.median(times["oracle"]) * 1e3, 3),
        "speedup": round(statistics.median(speedups), 2),
    }


def bench_anneal_speedup(benchmark, monkeypatch):
    objective, incumbent, config = captured_problem(
        monkeypatch, balancer_module, "hmp:128", 256, make_balancer("smartbalance")
    )
    row = benchmark.pedantic(
        measure_anneal,
        args=(objective, incumbent, config, ANNEAL_PAIRS),
        rounds=1,
        iterations=1,
    )
    for key, value in row.items():
        benchmark.extra_info[f"anneal_{key}"] = value
    assert row["speedup"] >= ANNEAL_FLOOR, (
        f"fast anneal below the {ANNEAL_FLOOR}x floor on hmp:128 x 256: "
        f"{row['speedup']}x ({row['fast_ms_per_anneal']} vs "
        f"{row['oracle_ms_per_anneal']} ms per anneal)"
    )


def bench_dense_anneal_speedup(benchmark, monkeypatch):
    objective, incumbent, config = captured_problem(
        monkeypatch,
        strategies_module,
        "dvfsquad",
        8,
        make_balancer("smartbalance", governor="two_level"),
    )
    assert (len(incumbent), config.max_iterations) == (32, 100)
    row = benchmark.pedantic(
        measure_anneal,
        args=(objective, incumbent, config, ANNEAL_PAIRS, DENSE_REPEATS),
        rounds=1,
        iterations=1,
    )
    for key, value in row.items():
        benchmark.extra_info[f"dense_anneal_{key}"] = value
    assert row["speedup"] >= DENSE_FLOOR, (
        f"fast anneal below the {DENSE_FLOOR}x floor on dvfsquad x 8: "
        f"{row['speedup']}x ({row['fast_ms_per_anneal']} vs "
        f"{row['oracle_ms_per_anneal']} ms per anneal)"
    )
