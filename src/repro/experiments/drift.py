"""Drift-recovery experiment: online adaptation vs a stale predictor.

The paper trains Θ and the power lines offline and freezes them.  This
experiment measures what happens when that characterisation corpus is
*wrong* for the deployed workload — and whether the adaptation layer
(:mod:`repro.adaptation`) earns its keep:

1. Train a **mismatched predictor** on a deliberately narrow corpus of
   cache-resident, compute-bound phases (tiny working sets, almost no
   memory traffic).
2. Run a diverse, memory-heavy workload on big.LITTLE under that
   predictor, twice with identical seeds: once **frozen** (adaptation
   off — today's behaviour) and once **adapted** (drift-triggered RLS
   re-fits with registry rollback).  The adapted run's trace carries
   the ``drift_detected`` / ``model_update`` story.
3. Score the frozen predictor and the adapted run's **final model**
   against simulator ground truth (:mod:`repro.hardware.microarch`) on
   the deployed workload's own phases — every ordered type pair, every
   phase, noiseless features.

Ground-truth probing (rather than scoring runtime ``prediction_check``
events) is deliberate: an *accurate* model stops cross-type
migrations, and cross-type checks only exist where migrations happen,
so trace-based scoring systematically starves exactly the runs it is
supposed to reward.  The probe set is dense, identical for both
models, and fully deterministic.

The headline findings are the relative reduction of mean per-pair IPC
prediction error and mean per-type power prediction error, plus the
J_E of both runs (adaptation must not buy accuracy with energy
efficiency).
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.analysis.reporting import ExperimentResult, Finding
from repro.core.balancer import SmartBalance
from repro.core.config import SmartBalanceConfig
from repro.core.prediction import PredictorModel
from repro.core.training import profile_phase, train_predictor
from repro.experiments.common import QUICK, Scale
from repro.hardware import microarch
from repro.hardware import power as power_model
from repro.hardware.features import CoreType
from repro.hardware.platform import big_little_octa
from repro.kernel.metrics import RunResult
from repro.kernel.simulator import SimulationConfig, System
from repro.obs import ObsContext
from repro.workload.characteristics import WorkloadPhase
from repro.workload.thread import ThreadBehavior, phased_thread

#: Seed of the mismatched training corpus and of the simulated runs.
SEED = 11

#: Threads of the evaluation workload.
N_THREADS = 6


def mismatched_phases(n: int = 160, seed: int = SEED) -> "list[WorkloadPhase]":
    """A deliberately narrow profiling corpus: cache-resident,
    compute-bound, highly predictable phases.

    Every dimension the runtime workload will exercise — memory share
    up to 0.5, multi-MiB working sets, poor locality — is *absent*
    here, so the fitted Θ extrapolates badly and the power lines only
    ever saw a narrow IPC band.
    """
    rng = random.Random(seed)
    phases = []
    for _ in range(n):
        phases.append(
            WorkloadPhase(
                ilp=rng.uniform(4.0, 8.0),
                mem_share=rng.uniform(0.01, 0.08),
                branch_share=rng.uniform(0.02, 0.08),
                working_set_kb=8.0 * 2 ** rng.uniform(0.0, 3.0),
                code_footprint_kb=8.0,
                branch_entropy=rng.uniform(0.0, 0.2),
                data_locality=rng.uniform(0.9, 1.0),
            )
        )
    return phases


def _memory_phase(rng: random.Random) -> WorkloadPhase:
    """A memory-heavy phase — the opposite corner of the training
    corpus (large working sets, poor locality, low ILP)."""
    mem_share = rng.uniform(0.25, 0.5)
    return WorkloadPhase(
        ilp=rng.uniform(1.0, 3.0),
        mem_share=mem_share,
        branch_share=rng.uniform(0.05, min(0.2, 0.95 - mem_share)),
        working_set_kb=256.0 * 2 ** rng.uniform(0.0, 6.0),
        code_footprint_kb=8.0 * 2 ** rng.uniform(0.0, 4.0),
        branch_entropy=rng.uniform(0.3, 0.9),
        data_locality=rng.uniform(0.3, 0.7),
    )


def _moderate_phase(rng: random.Random) -> WorkloadPhase:
    """A middling phase, still outside the training corpus."""
    mem_share = rng.uniform(0.12, 0.25)
    return WorkloadPhase(
        ilp=rng.uniform(2.0, 6.0),
        mem_share=mem_share,
        branch_share=rng.uniform(0.05, 0.2),
        working_set_kb=64.0 * 2 ** rng.uniform(0.0, 4.0),
        code_footprint_kb=8.0 * 2 ** rng.uniform(0.0, 3.0),
        branch_entropy=rng.uniform(0.2, 0.6),
        data_locality=rng.uniform(0.5, 0.9),
    )


def evaluation_threads(
    n_threads: int = N_THREADS, seed: int = SEED
) -> "list[ThreadBehavior]":
    """The deployed workload: memory-heavy, phase-cycling threads.

    Every phase sits in the region the mismatched corpus never
    covered, so the frozen predictor is consistently wrong — not just
    wrong on a lucky subset of threads.  Threads cycle between a heavy
    and a moderate phase with short segments, which keeps the balancer
    re-placing them across core types — the migrations that feed the
    adaptation controller its cross-type samples.
    """
    rng = random.Random(seed)
    threads = []
    for i in range(n_threads):
        segments = [
            (_memory_phase(rng), 10 ** rng.uniform(6.8, 7.4)),
            (_moderate_phase(rng), 10 ** rng.uniform(6.8, 7.4)),
        ]
        if rng.random() < 0.5:
            segments.append((_memory_phase(rng), 10 ** rng.uniform(6.8, 7.4)))
        threads.append(phased_thread(f"drift-{i}", segments, cyclic=True))
    return threads


def _platform_types() -> "list[CoreType]":
    types: "list[CoreType]" = []
    for core in big_little_octa():
        if core.core_type.name not in [t.name for t in types]:
            types.append(core.core_type)
    return types


def mismatched_predictor(seed: int = SEED) -> PredictorModel:
    """The stale predictor: big.LITTLE types, narrow corpus."""
    return train_predictor(
        _platform_types(), phases=mismatched_phases(seed=seed), seed=seed
    )


def drift_scenario_run(
    adapted: bool,
    n_epochs: int,
    seed: int = SEED,
) -> "tuple[RunResult, ObsContext, SmartBalance]":
    """One traced run of the drift scenario (frozen or adapted).

    Returns the run result, the trace context, and the balancer (whose
    ``predictor`` is the final — possibly adapted — model).
    """
    predictor = mismatched_predictor(seed=seed)
    balancer = SmartBalance(
        predictor=predictor, config=SmartBalanceConfig(adaptation=adapted)
    )
    obs = ObsContext()
    system = System(
        big_little_octa(),
        evaluation_threads(seed=seed),
        balancer,
        SimulationConfig(seed=seed),
        obs=obs,
    )
    return system.run(n_epochs=n_epochs), obs, balancer


def score_model(
    model: PredictorModel,
    phases: Sequence[WorkloadPhase],
    types: Optional[Sequence[CoreType]] = None,
) -> dict:
    """Ground-truth prediction error of ``model`` over ``phases``.

    For every ordered (src, dst) type pair and every phase: profile
    noiseless features on src, predict IPC on dst (Eq. 8), and compare
    against the hardware model's true IPC; then predict power from the
    *predicted* IPC (Eq. 9 — the chain the balancer actually evaluates)
    and compare against the true busy power at the true IPC.  Returns
    mean absolute percentage errors per pair, fully deterministic.
    """
    types = list(types) if types is not None else _platform_types()
    ipc_errors: "dict[str, float]" = {}
    power_errors: "dict[str, float]" = {}
    for src in types:
        features = [profile_phase(p, src) for p in phases]
        for dst in types:
            if dst.name == src.name:
                continue
            ipc_errs = []
            power_errs = []
            for phase, feats in zip(phases, features):
                true_ipc = microarch.estimate(phase, dst).ipc
                pred_ipc = model.predict_ipc(src.name, dst.name, feats)
                ipc_errs.append(abs(pred_ipc - true_ipc) / true_ipc)
                true_power = power_model.busy_power(dst, true_ipc).total_w
                pred_power = model.predict_power(dst.name, pred_ipc)
                power_errs.append(abs(pred_power - true_power) / true_power)
            pair = f"{src.name}->{dst.name}"
            ipc_errors[pair] = 100.0 * _mean(ipc_errs)
            power_errors[pair] = 100.0 * _mean(power_errs)
    return {"ipc": ipc_errors, "power": power_errors}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def compare(scale: Scale = QUICK, seed: int = SEED) -> dict:
    """Run frozen vs adapted and score both models on ground truth.

    Returns a JSON-ready dict; :func:`run` and
    :func:`repro.experiments.table4.run_adapted` render it.
    """
    n_epochs = 2 * scale.n_epochs
    frozen_result, _, frozen_balancer = drift_scenario_run(False, n_epochs, seed)
    adapted_result, adapted_obs, adapted_balancer = drift_scenario_run(
        True, n_epochs, seed
    )
    probe_phases = [
        seg.phase
        for thread in evaluation_threads(seed=seed)
        for seg in thread.schedule.segments
    ]
    frozen_score = score_model(frozen_balancer.predictor, probe_phases)
    adapted_score = score_model(adapted_balancer.predictor, probe_phases)
    pairs = sorted(frozen_score["ipc"])

    def reduction(before: float, after: float) -> float:
        return 100.0 * (before - after) / before if before > 0 else 0.0

    stats = adapted_result.resilience
    return {
        "n_epochs": n_epochs,
        "pairs": {
            pair: {
                "frozen_ipc_pct": frozen_score["ipc"][pair],
                "adapted_ipc_pct": adapted_score["ipc"][pair],
                "frozen_power_pct": frozen_score["power"][pair],
                "adapted_power_pct": adapted_score["power"][pair],
            }
            for pair in pairs
        },
        "mean_frozen_ipc_pct": _mean(frozen_score["ipc"].values()),
        "mean_adapted_ipc_pct": _mean(adapted_score["ipc"].values()),
        "mean_frozen_power_pct": _mean(frozen_score["power"].values()),
        "mean_adapted_power_pct": _mean(adapted_score["power"].values()),
        "ipc_error_reduction_pct": reduction(
            _mean(frozen_score["ipc"].values()),
            _mean(adapted_score["ipc"].values()),
        ),
        "power_error_reduction_pct": reduction(
            _mean(frozen_score["power"].values()),
            _mean(adapted_score["power"].values()),
        ),
        "frozen_ips_per_watt": frozen_result.ips_per_watt,
        "adapted_ips_per_watt": adapted_result.ips_per_watt,
        "model_updates": stats.model_updates if stats else 0,
        "model_rollbacks": stats.model_rollbacks if stats else 0,
        "drift_detections": stats.drift_detections if stats else 0,
        "watchdog_repairs": stats.watchdog_repairs if stats else 0,
        "adaptation_events": [
            {k: v for k, v in event.items() if k != "t_s"}
            for event in adapted_obs.tracer.events
            if event.get("type")
            in ("drift_detected", "model_update", "model_rollback")
        ],
    }


def run(scale: Scale = QUICK) -> ExperimentResult:
    """Drift scenario: frozen vs adapted predictor, per-pair errors."""
    data = compare(scale)
    rows = [
        [
            pair,
            round(row["frozen_ipc_pct"], 2),
            round(row["adapted_ipc_pct"], 2),
            round(row["frozen_power_pct"], 2),
            round(row["adapted_power_pct"], 2),
        ]
        for pair, row in data["pairs"].items()
    ]
    return ExperimentResult(
        experiment_id="drift",
        title=(
            "Drift recovery: mismatched predictor, frozen vs adapted "
            f"({data['n_epochs']} epochs, big.LITTLE)"
        ),
        headers=[
            "pair",
            "frozen ipc %",
            "adapted ipc %",
            "frozen pwr %",
            "adapted pwr %",
        ],
        rows=rows,
        findings=(
            Finding(
                name="mean per-pair IPC error reduction",
                measured=data["ipc_error_reduction_pct"],
                unit="%",
            ),
            Finding(
                name="mean power error reduction",
                measured=data["power_error_reduction_pct"],
                unit="%",
            ),
            Finding(name="drift detections", measured=data["drift_detections"]),
            Finding(name="model updates", measured=data["model_updates"]),
            Finding(name="model rollbacks", measured=data["model_rollbacks"]),
            Finding(
                name="adapted J_E vs frozen",
                measured=100.0
                * (data["adapted_ips_per_watt"] / data["frozen_ips_per_watt"] - 1.0),
                unit="%",
            ),
        ),
        notes=(
            "Predictor trained on a cache-resident compute-bound corpus, "
            "deployed on a memory-heavy phase-cycling workload.  The "
            "adapted run re-fits Θ and the power lines online from "
            "observed-vs-predicted samples (repro.adaptation); both the "
            "frozen predictor and the adapted run's final model are then "
            "scored against hardware-model ground truth on the deployed "
            "phases (dense probe, identical for both — runtime "
            "prediction_check samples only exist where migrations "
            "happen, which would under-sample exactly the accurate "
            "model)."
        ),
    )
