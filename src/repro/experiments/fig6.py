"""Fig. 6 — per-benchmark performance and power prediction error.

For every PARSEC workload model, profile each phase on each source
core type (with runtime sensing noise), predict IPC and power on every
*other* type with the trained model, and compare against the hardware
model's ground truth.  The paper reports 4.2 % average IPC error and
5 % average power error.

Evaluation workloads are instantiated from a seed disjoint from the
training corpus, so this measures generalisation, not memorisation.
"""

from __future__ import annotations

import random

from repro.analysis.reporting import ExperimentResult, Finding
from repro.analysis.stats import mean
from repro.core.prediction import PredictorModel
from repro.core.training import default_predictor, profile_phase
from repro.hardware import microarch
from repro.hardware import power as power_model
from repro.hardware.features import TABLE2_TYPES
from repro.hardware.sensors import NoiseModel
from repro.workload.parsec import BENCHMARKS

PAPER_IPC_ERROR_PCT = 4.2
PAPER_POWER_ERROR_PCT = 5.0

#: Seed for evaluation workload instantiation; training uses 0..4.
EVAL_SEED = 99
#: Runtime sensing noise applied to the profiled features.
EVAL_NOISE = NoiseModel(sigma=0.015)


def prediction_errors(
    model: PredictorModel,
    threads_per_benchmark: int = 2,
    seed: int = EVAL_SEED,
) -> dict[str, tuple[float, float]]:
    """Per-benchmark (IPC error, power error), as fractions."""
    rng = random.Random(seed)
    errors: dict[str, tuple[float, float]] = {}
    for name, bench in BENCHMARKS.items():
        ipc_errs: list[float] = []
        pow_errs: list[float] = []
        for thread in bench.threads(threads_per_benchmark, seed):
            for segment in thread.schedule.segments:
                phase = segment.phase
                for src in TABLE2_TYPES:
                    features = profile_phase(phase, src, EVAL_NOISE, rng)
                    for dst in TABLE2_TYPES:
                        if dst.name == src.name:
                            continue
                        true_ipc = microarch.estimate(phase, dst).ipc
                        pred_ipc = model.predict_ipc(src.name, dst.name, features)
                        ipc_errs.append(abs(pred_ipc - true_ipc) / true_ipc)
                        true_power = power_model.busy_power(dst, true_ipc).total_w
                        pred_power = model.predict_power(dst.name, pred_ipc)
                        pow_errs.append(abs(pred_power - true_power) / true_power)
        errors[name] = (mean(ipc_errs), mean(pow_errs))
    return errors


def run(model: PredictorModel | None = None) -> ExperimentResult:
    """Fig. 6: average prediction error per PARSEC benchmark."""
    model = model or default_predictor()
    errors = prediction_errors(model)
    rows = [
        [name, round(100 * ipc_err, 1), round(100 * pow_err, 1)]
        for name, (ipc_err, pow_err) in errors.items()
    ]
    avg_ipc = mean([e[0] for e in errors.values()])
    avg_pow = mean([e[1] for e in errors.values()])
    return ExperimentResult(
        experiment_id="fig6",
        title="Fig. 6: Average prediction error across PARSEC",
        headers=["benchmark", "IPC error %", "power error %"],
        rows=rows,
        findings=(
            Finding(
                name="average IPC prediction error",
                measured=100 * avg_ipc,
                paper=PAPER_IPC_ERROR_PCT,
                unit="%",
            ),
            Finding(
                name="average power prediction error",
                measured=100 * avg_pow,
                paper=PAPER_POWER_ERROR_PCT,
                unit="%",
            ),
        ),
    )
