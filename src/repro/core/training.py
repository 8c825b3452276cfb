"""Offline predictor training (paper Section 4.2.2 / Table 4).

The paper obtains Θ "by standard linear regression using the least
squares method" over offline profiling runs, and the power constants
α₀, α₁ "from offline profiling".  This module reproduces that pipeline
against the simulated hardware:

1. build a profiling corpus — the PARSEC workload models (the paper's
   training set) plus a synthetic corpus spanning the characterisation
   space;
2. for every (workload, source type), produce the counter-derived
   feature vector a real profiling run would measure (optionally with
   sensor noise);
3. for every ordered type pair, least-squares fit
   ``ipc_dst ≈ Θ_{src→dst} · X``;
4. per type, fit the affine IPC→power line.

``train_predictor`` returns a :class:`~repro.core.prediction.PredictorModel`.
Like the paper's, the default model is fitted once, offline, and
deployed as fixed coefficients: ``default_predictor.json`` next to this
module is ``train_predictor`` over all built-in core types at seed 7
(``python -m repro train --output src/repro/core/default_predictor.json``
regenerates it), and ``default_predictor`` loads it (used by
SmartBalance and the experiments).
"""

from __future__ import annotations

import json
import random
import warnings
from functools import lru_cache
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from repro.core.estimation import N_FEATURES, features_from_rates
from repro.core.prediction import PowerLine, PredictorModel, design_vector
from repro.hardware import microarch
from repro.hardware import power as power_model
from repro.hardware.features import CoreType
from repro.hardware.sensors import NoiseModel
from repro.workload.characteristics import WorkloadPhase
from repro.workload.generator import training_corpus
from repro.workload.parsec import BENCHMARKS

#: Mild measurement noise on profiled features/targets: offline
#: profiling averages many samples, so it is cleaner than runtime
#: sensing but not perfect.
DEFAULT_TRAINING_NOISE = NoiseModel(sigma=0.01)

#: Effective rank (SVD of the column-equilibrated design) below which
#: the normal equations are declared ill-conditioned.  The feature
#: model itself carries a few exact linear dependencies, so even a
#: dense healthy corpus spans only ~8 of the 11 design dimensions; a
#: corpus of near-duplicate phases collapses to 1–2.  Equilibration
#: matters: raw columns span ~6 orders of magnitude (MHz vs miss
#: rates), which would swamp the rank test with mere scaling.
MIN_EFFECTIVE_RANK = 6


def parsec_phases(seed: int = 0) -> list[WorkloadPhase]:
    """All distinct phases of the PARSEC workload models (one seed)."""
    phases: list[WorkloadPhase] = []
    for model in BENCHMARKS.values():
        thread = model.threads(1, seed)[0]
        phases.extend(seg.phase for seg in thread.schedule.segments)
    return phases


def parsec_training_corpus(
    n_seeds: int = 5, threads_per_benchmark: int = 4
) -> list[WorkloadPhase]:
    """A dense PARSEC profiling corpus (the paper's training set).

    Many jittered instantiations of every benchmark, so the regression
    sees the per-thread variation it will face at runtime.
    """
    if n_seeds < 1 or threads_per_benchmark < 1:
        raise ValueError("need at least one seed and one thread per benchmark")
    phases: list[WorkloadPhase] = []
    for model in BENCHMARKS.values():
        for seed in range(n_seeds):
            for thread in model.threads(threads_per_benchmark, seed):
                phases.extend(seg.phase for seg in thread.schedule.segments)
    return phases


def profile_phase(
    phase: WorkloadPhase,
    src_type: CoreType,
    noise: Optional[NoiseModel] = None,
    rng: Optional[random.Random] = None,
) -> np.ndarray:
    """Feature vector a profiling run on ``src_type`` would measure.

    Rates come from the hardware model's event rates — exactly what the
    performance counters of :mod:`repro.hardware.counters` would ratio
    out over a long run — with optional read-out noise.
    """
    perf = microarch.estimate(phase, src_type)

    def read(value: float) -> float:
        if noise is None or rng is None:
            return value
        return noise.apply(value, rng)

    return features_from_rates(
        freq_mhz=src_type.freq_mhz,
        mr_l1i=read(perf.icache_miss_rate),
        mr_l1d=read(perf.dcache_miss_rate),
        i_msh=read(phase.mem_share),
        i_bsh=read(phase.branch_share),
        mr_b=read(perf.branch_miss_rate),
        mr_itlb=read(perf.itlb_miss_rate),
        mr_dtlb=read(perf.dtlb_miss_rate),
        ipc_src=read(perf.ipc),
        stall_frac=read(perf.stall_cpi / perf.cpi),
    )


def train_predictor(
    core_types: Sequence[CoreType],
    phases: Optional[Sequence[WorkloadPhase]] = None,
    n_synthetic: int = 100,
    seed: int = 7,
    noise: Optional[NoiseModel] = DEFAULT_TRAINING_NOISE,
    ridge: float = 0.0,
) -> PredictorModel:
    """Train Θ and the power lines for a set of core types.

    ``phases=None`` uses the dense PARSEC profiling corpus (the paper's
    training set) plus ``n_synthetic`` random workloads to cover the
    space between benchmarks.  Distinct type *names* are required
    (types are keyed by name, as γ keys cores by type).

    ``ridge`` adds Tikhonov regularisation ``λ·I`` to the normal
    equations.  The paper's plain least squares (``ridge=0``) is the
    default; a small ridge stabilises the fit when a narrow profiling
    corpus leaves the Gram matrix ill-conditioned (a warning is issued
    whenever that is detected, regularised or not).  ``ridge = 1/p0``
    also makes the fit the exact batch counterpart of a zero-prior
    :class:`repro.adaptation.rls.RLSUpdater`.
    """
    if ridge < 0:
        raise ValueError(f"ridge must be non-negative, got {ridge}")
    types = list(core_types)
    names = [t.name for t in types]
    if len(set(names)) != len(names):
        raise ValueError(f"core types must have distinct names, got {names}")
    if len(types) < 2:
        raise ValueError("need at least two core types to train a predictor")
    if phases is None:
        corpus = parsec_training_corpus() + training_corpus(n_synthetic, seed)
    else:
        corpus = list(phases)
    if len(corpus) < 4 * N_FEATURES:
        raise ValueError(
            f"corpus of {len(corpus)} phases is too small to fit "
            f"{N_FEATURES}-feature regressions reliably"
        )
    rng = random.Random(seed)

    # Profile every phase on every type once.
    features = {
        t.name: np.vstack([profile_phase(p, t, noise, rng) for p in corpus])
        for t in types
    }
    designs = {
        name: np.vstack([design_vector(row) for row in mat])
        for name, mat in features.items()
    }
    true_ipc = {
        t.name: np.array([microarch.estimate(p, t).ipc for p in corpus])
        for t in types
    }

    theta: dict[tuple[str, str], np.ndarray] = {}
    fit_error: dict[tuple[str, str], float] = {}
    for src in types:
        x = designs[src.name]
        gram = x.T @ x
        norms = np.linalg.norm(x, axis=0)
        rank = int(
            np.linalg.matrix_rank(x / np.where(norms > 0, norms, 1.0))
        )
        if rank < MIN_EFFECTIVE_RANK:
            warnings.warn(
                f"normal-equation matrix for source type {src.name!r} is "
                f"ill-conditioned (effective rank {rank}/{x.shape[1]}): the "
                "profiling corpus does not span the feature space and the "
                "fitted Θ coefficients are noise-sensitive — use a wider "
                "corpus or ridge > 0",
                RuntimeWarning,
                stacklevel=2,
            )
        for dst in types:
            if dst.name == src.name:
                continue
            y = true_ipc[dst.name]
            # CPI-space least squares (see repro.core.prediction).
            if ridge > 0:
                coeffs = np.linalg.solve(
                    gram + ridge * np.eye(x.shape[1]), x.T @ (1.0 / y)
                )
            else:
                coeffs, *_ = np.linalg.lstsq(x, 1.0 / y, rcond=None)
            theta[(src.name, dst.name)] = coeffs
            prediction = 1.0 / np.maximum(x @ coeffs, 1e-3)
            fit_error[(src.name, dst.name)] = float(
                np.mean(np.abs(prediction - y) / np.maximum(y, 1e-9))
            )

    power_lines: dict[str, PowerLine] = {}
    ipc_range: dict[str, tuple[float, float]] = {}
    for t in types:
        ipcs = true_ipc[t.name]
        powers = np.array(
            [power_model.busy_power(t, ipc).total_w for ipc in ipcs]
        )
        alpha1, alpha0 = np.polyfit(ipcs, powers, deg=1)
        power_lines[t.name] = PowerLine(alpha1=float(alpha1), alpha0=float(alpha0))
        ipc_range[t.name] = (float(ipcs.min()) * 0.5, float(ipcs.max()) * 1.2)

    return PredictorModel(
        type_names=tuple(names),
        theta=theta,
        power_lines=power_lines,
        ipc_range=ipc_range,
        fit_error=fit_error,
    )


@lru_cache(maxsize=None)
def default_predictor() -> PredictorModel:
    """The shipped predictor over all built-in core types (cached).

    Loaded from ``default_predictor.json``, the exact output of
    ``train_predictor(tuple(BUILTIN_TYPES.values()), seed=7)`` (JSON
    floats round-trip exactly), so no process pays for the training.
    """
    text = resources.files(__package__).joinpath("default_predictor.json").read_text()
    return PredictorModel.from_dict(json.loads(text))
