"""Annealer benchmark: the fast Algorithm 1 loop against its reference.

The gate times :func:`repro.core.annealing.anneal` against the
straightforward loop in ``tests/core/sa_oracle.py`` on the objective
SmartBalance builds from a real view: hmp:128, MTMI x 256 threads,
the second epoch's decision (the first has no measurement), annealed
with the stock :data:`repro.core.balancer.SA_CONFIG`.  That problem has
32768 slots, almost all of them empty, which is where the fast loop's
block draws, skipped no-op moves and best-state journal pay.

The two run alternately in one process, each pair starting from the
same inputs, and every pair must return the same best allocation,
values, counters and trace.  The median per-pair speedup (oracle time
/ fast time) must be **>= 4.37x** (ten quick-gate readings on a 2-vCPU
VM, Python 3.11, were 5.15-5.73x; the floor sits 15% below the
lowest).  Its numbers go to ``benchmark.extra_info`` only::

    PYTHONPATH=src python -m pytest benchmarks/bench_annealer.py -q --quick
"""

import statistics
import time

import sa_oracle
from repro.core import balancer as balancer_module
from repro.core.annealing import anneal
from repro.kernel.simulator import SimulationConfig, System
from repro.runner.factories import make_balancer, make_platform, make_workload

ANNEAL_FLOOR = 4.37
#: Alternating (fast, oracle) pairs timed, after one untimed warm-up pair.
ANNEAL_PAIRS = 10


def captured_problem(monkeypatch):
    """The (objective, incumbent) of SmartBalance's first anneal on
    hmp:128 x 256 threads."""
    problems = []

    def spy(objective, incumbent, config, keep_trace=False):
        problems.append((objective, incumbent.copy()))
        return anneal(objective, incumbent, config, keep_trace=keep_trace)

    monkeypatch.setattr(balancer_module, "anneal", spy)
    system = System(
        make_platform("hmp:128"),
        make_workload("MTMI", 256, seed=0),
        make_balancer("smartbalance"),
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
        result.truncated,
        result.trace.stride,
        result.trace.samples,
    )


def measure_anneal(objective, incumbent, n_pairs):
    config = balancer_module.SA_CONFIG
    paths = {"fast": anneal, "oracle": sa_oracle.anneal}
    times = {name: [] for name in paths}
    for pair in range(n_pairs + 1):
        # Alternate which path goes first so neither always runs warm.
        order = ("fast", "oracle") if pair % 2 == 0 else ("oracle", "fast")
        results, elapsed = {}, {}
        for name in order:
            start = time.perf_counter()
            results[name] = paths[name](objective, incumbent, config, keep_trace=True)
            elapsed[name] = time.perf_counter() - start
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
    objective, incumbent = captured_problem(monkeypatch)
    row = benchmark.pedantic(
        measure_anneal, args=(objective, incumbent, ANNEAL_PAIRS), rounds=1, iterations=1
    )
    for key, value in row.items():
        benchmark.extra_info[f"anneal_{key}"] = value
    assert row["speedup"] >= ANNEAL_FLOOR, (
        f"fast anneal below the {ANNEAL_FLOOR}x floor on hmp:128 x 256: "
        f"{row['speedup']}x ({row['fast_ms_per_anneal']} vs "
        f"{row['oracle_ms_per_anneal']} ms per anneal)"
    )
