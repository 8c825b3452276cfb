"""Fig. 7 — SmartBalance overhead and scalability.

(a) average wall-clock time of each SmartBalance phase (sense, predict,
balance) per epoch on the quad-core HMP, plus the estimated migration
cost, against the 60 ms epoch budget;

(b) the same phase timings as the platform scales from 2 to 128 cores
with twice as many threads (the paper's scaling scenarios), with the
iteration cap of Fig. 8(a) bounding the balance phase.

Absolute times are Python-on-host rather than the paper's C-in-kernel
microseconds, so the comparison of record is *shape*: the balance
(optimizer) phase dominates, overhead is negligible at mobile scale and
is kept bounded at large scale by capping SA iterations.
"""

from __future__ import annotations

import random

import numpy as np

from repro.analysis.reporting import ExperimentResult, Finding
from repro.analysis.stats import mean
from repro.core.annealing import default_iteration_cap
from repro.core.balancer import SmartBalance
from repro.core.training import default_predictor
from repro.experiments.common import FULL, Scale
from repro.hardware import microarch
from repro.hardware import power as power_model
from repro.hardware.counters import CounterBlock
from repro.hardware.platform import quad_hmp, scaled_hmp
from repro.kernel.simulator import MIGRATION_KERNEL_COST_S
from repro.kernel.view import PMU_COLUMNS, CoreView, SystemView, TaskView
from repro.workload.demand import demanded_fraction_on
from repro.workload.generator import random_phase

#: The paper's epoch length (L x CFS period).
EPOCH_S = 0.06
#: The paper assumes ~50 % of threads migrate each epoch when costing
#: the migration phase.
MIGRATED_FRACTION = 0.5

#: Fig. 7(b) scaling scenarios: (cores, threads).
SCALING_SCENARIOS = ((2, 4), (4, 8), (8, 16), (16, 32), (32, 64), (64, 128), (128, 256))


def synthetic_view(n_cores: int, n_threads: int, seed: int = 0) -> SystemView:
    """A populated :class:`SystemView` at an arbitrary platform scale.

    Its PMU block holds the rates of counters charged from random
    workloads as one 60 ms epoch of execution would, so
    ``SmartBalance.decide`` does exactly the work it does inside the
    simulator — without simulating the epoch itself (which is what
    makes 128-core full-system runs slow).
    """
    platform = quad_hmp() if n_cores == 4 else scaled_hmp(n_cores)
    rng = random.Random(seed)
    task_views = []
    pmu = []
    for tid in range(n_threads):
        core = platform[tid % n_cores]
        phase = random_phase(rng)
        perf = microarch.estimate(phase, core.core_type)
        busy_s = 0.03
        block = CounterBlock()
        block.charge_execution(
            perf, core.core_type, busy_s, phase.mem_share, phase.branch_share
        )
        task_views.append(
            TaskView(
                tid=tid,
                name=f"synt-{tid}",
                core_id=core.core_id,
                core_type=core.core_type,
                weight=1.0,
                is_user=True,
                utilization=demanded_fraction_on(phase, core.core_type),
                busy_time_s=busy_s,
            )
        )
        pmu.append(
            (
                *block.derive_rates(),
                power_model.busy_power(core.core_type, perf.ipc).total_w,
            )
        )
    core_views = []
    for core in platform:
        core_type = core.core_type
        core_views.append(
            CoreView(
                core_id=core.core_id,
                core_type=core_type,
                idle_power_w=power_model.idle_power(core_type).total_w,
                sleep_power_w=power_model.sleep_power(core_type),
            )
        )
    return SystemView(
        epoch_index=1,
        time_s=EPOCH_S,
        window_s=EPOCH_S,
        platform=platform,
        tasks=tuple(task_views),
        cores=tuple(core_views),
        pmu=np.array(pmu).reshape(n_threads, len(PMU_COLUMNS)),
    )


def phase_timings(
    n_cores: int, n_threads: int, n_epochs: int = 4, seed: int = 0
) -> dict[str, float]:
    """Mean per-epoch phase times (seconds) at one platform scale.

    Drives the sense-predict-balance engine directly on synthetic
    system views (one fresh view per repetition), so timings cover
    exactly the per-epoch work SmartBalance adds to the kernel.
    """
    engine = SmartBalance(default_predictor())
    # Warm up (predictor caches, numpy import paths).
    engine.decide(synthetic_view(n_cores, n_threads, seed))
    sense, predict, balance = [], [], []
    for rep in range(max(n_epochs, 2)):
        view = synthetic_view(n_cores, n_threads, seed + 1 + rep)
        decision = engine.decide(view)
        sense.append(decision.timings.sense_s)
        predict.append(decision.timings.predict_s)
        balance.append(decision.timings.balance_s)
    migration_s = MIGRATED_FRACTION * n_threads * MIGRATION_KERNEL_COST_S
    return {
        "sense_s": mean(sense),
        "predict_s": mean(predict),
        "balance_s": mean(balance),
        "migrate_s": migration_s,
    }


def run_fig7a(scale: Scale = FULL) -> ExperimentResult:
    """Fig. 7(a): per-phase overhead on the quad-core HMP."""
    timings = phase_timings(4, 8, n_epochs=max(scale.n_epochs // 4, 3))
    total = sum(timings.values())
    rows = [
        [phase, round(1e6 * seconds, 1), round(100 * seconds / EPOCH_S, 3)]
        for phase, seconds in timings.items()
    ]
    rows.append(["total", round(1e6 * total, 1), round(100 * total / EPOCH_S, 3)])
    return ExperimentResult(
        experiment_id="fig7a",
        title="Fig. 7(a): SmartBalance per-phase overhead, quad-core HMP "
        "(8 threads, 60 ms epoch)",
        headers=["phase", "time (us)", "% of epoch"],
        rows=rows,
        findings=(
            Finding(
                name="total overhead share of epoch",
                measured=100 * total / EPOCH_S,
                paper=1.0,
                unit="%",
            ),
        ),
        notes="Paper: total overhead below 1 % of the 60 ms epoch at 2-8 cores.",
    )


def run_fig7b(scenarios=SCALING_SCENARIOS, n_epochs: int = 3) -> ExperimentResult:
    """Fig. 7(b): phase timings vs platform scale."""
    rows = []
    for n_cores, n_threads in scenarios:
        t = phase_timings(n_cores, n_threads, n_epochs=n_epochs)
        total = sum(t.values())
        rows.append(
            [
                f"{n_cores}c/{n_threads}t",
                round(1e6 * t["sense_s"], 1),
                round(1e6 * t["predict_s"], 1),
                round(1e6 * t["balance_s"], 1),
                round(1e6 * t["migrate_s"], 1),
                round(100 * total / EPOCH_S, 2),
                default_iteration_cap(n_cores, n_threads),
            ]
        )
    small_share = rows[1][5]  # 4 cores / 8 threads
    return ExperimentResult(
        experiment_id="fig7b",
        title="Fig. 7(b): Scalability of SmartBalance phases (2-128 cores)",
        headers=[
            "scale",
            "sense us",
            "predict us",
            "balance us",
            "migrate us",
            "% of epoch",
            "SA iter cap",
        ],
        rows=rows,
        findings=(
            Finding(
                name="overhead share at mobile scale (4c/8t)",
                measured=float(small_share),
                paper=1.0,
                unit="%",
            ),
        ),
        notes=(
            "Balance-phase growth is bounded by the Fig. 8(a) iteration "
            "cap; migrate assumes 50 % of threads move per epoch."
        ),
    )
