"""Table 4 — the predictor coefficient matrix Θ.

Regenerates the paper's coefficient table: one row per ordered core-
type pair, one column per feature.  The absolute values differ from
the paper's (their regression was fitted on Gem5 measurements, ours on
the simulated hardware, and ours regresses in CPI space — see
:mod:`repro.core.prediction`), but the artifact is the same: the full
Θ exported for all 12 type pairs, plus per-pair training fit error.
"""

from __future__ import annotations

from repro.analysis.reporting import ExperimentResult, Finding
from repro.analysis.stats import mean
from repro.core.estimation import FEATURE_NAMES
from repro.core.prediction import PredictorModel
from repro.core.training import default_predictor
from repro.experiments.common import QUICK, Scale
from repro.hardware.features import TABLE2_TYPES


def run(model: PredictorModel | None = None) -> ExperimentResult:
    """Table 4: fitted Θ over the four Table 2 core types."""
    model = model or default_predictor()
    names = [t.name for t in TABLE2_TYPES]
    rows = []
    fit_errors = []
    for src in names:
        for dst in names:
            if src == dst:
                continue
            coeffs = model.theta[(src, dst)]
            error = model.fit_error.get((src, dst), float("nan"))
            fit_errors.append(error)
            rows.append(
                [f"{src}->{dst}", *[round(float(c), 4) for c in coeffs],
                 round(100 * error, 2)]
            )
    return ExperimentResult(
        experiment_id="table4",
        title="Table 4: Predictor coefficient matrix (CPI-space regression)",
        headers=["pair", *FEATURE_NAMES, "fit err %"],
        rows=rows,
        findings=(
            Finding(
                name="mean training fit error",
                measured=100 * mean(fit_errors),
                unit="%",
            ),
        ),
        notes=(
            "Coefficients act on the design vector of "
            "repro.core.prediction.design_vector (source IPC inverted to "
            "CPI; target in CPI).  The paper's Table 4 values are not "
            "directly comparable since they were fitted on Gem5 data."
        ),
    )


def run_adapted(scale: "Scale | None" = None) -> ExperimentResult:
    """Table 4 ``--adapted`` variant: frozen vs adapted per-pair error.

    Reuses the drift scenario (:mod:`repro.experiments.drift`): a
    predictor trained on a mismatched corpus is deployed frozen and
    with online adaptation, and the runtime per-pair IPC / power
    prediction errors are reported side by side — the Table 4 fit-error
    column re-measured in deployment instead of on the training set.
    """
    from repro.experiments import drift

    data = drift.compare(scale or QUICK)
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
    rows.append(
        [
            "mean",
            round(data["mean_frozen_ipc_pct"], 2),
            round(data["mean_adapted_ipc_pct"], 2),
            round(data["mean_frozen_power_pct"], 2),
            round(data["mean_adapted_power_pct"], 2),
        ]
    )
    return ExperimentResult(
        experiment_id="table4_adapted",
        title=(
            "Table 4 (adapted): per-pair prediction error, "
            "frozen vs online-adapted predictor"
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
                name="IPC error reduction",
                measured=data["ipc_error_reduction_pct"],
                unit="%",
            ),
            Finding(
                name="power error reduction",
                measured=data["power_error_reduction_pct"],
                unit="%",
            ),
            Finding(name="model updates", measured=data["model_updates"]),
        ),
        notes=(
            "Both models are scored against hardware-model ground truth "
            "on the deployed workload's phases, under a deliberately "
            "mismatched training corpus; the adapted model is the final "
            "model of an online-adapted run.  See experiments/drift.py "
            "for the scenario."
        ),
    )
