"""SmartBalance — the paper's primary contribution.

The closed-loop sense-predict-balance load balancer: epoch sensing and
per-thread estimation (Eqs. 4–5), cross-core-type throughput/power
prediction (Eqs. 8–9, Table 4), the energy-efficiency objective
(Eqs. 10–11) with O(1) incremental evaluation, and the fixed-point
simulated-annealing optimizer (Algorithm 1).

The comparison optimizers (:mod:`repro.core.optimizers`) and sparse
virtual sensing (:mod:`repro.core.virtual_sensing`) are extensions no
run uses: they are imported from their own modules, so a run does not
load them.
"""

from repro.core.allocation import EMPTY, Allocation
from repro.core.annealing import (
    SAConfig,
    SAResult,
    anneal,
    default_iteration_cap,
)
from repro.core.balancer import BalanceDecision, PhaseTimings, SmartBalance
from repro.core.config import SmartBalanceConfig
from repro.core.estimation import (
    FEATURE_NAMES,
    N_FEATURES,
    features_from_rates,
)
from repro.core.fixed_point import Xorshift32, exp_neg, exp_neg_q16, from_q16, to_q16
from repro.core.objective import MODES, EnergyEfficiencyObjective, IncrementalEvaluator
from repro.core.prediction import (
    CharacterisationMatrices,
    MatrixBuilder,
    PowerLine,
    PredictorModel,
)
from repro.core.training import (
    default_predictor,
    parsec_phases,
    parsec_training_corpus,
    profile_phase,
    train_predictor,
)

__all__ = [
    "Allocation",
    "EMPTY",
    "SAConfig",
    "SAResult",
    "anneal",
    "default_iteration_cap",
    "SmartBalance",
    "SmartBalanceConfig",
    "BalanceDecision",
    "PhaseTimings",
    "EnergyEfficiencyObjective",
    "IncrementalEvaluator",
    "MODES",
    "parsec_training_corpus",
    "PredictorModel",
    "PowerLine",
    "MatrixBuilder",
    "CharacterisationMatrices",
    "features_from_rates",
    "FEATURE_NAMES",
    "N_FEATURES",
    "Xorshift32",
    "exp_neg",
    "exp_neg_q16",
    "to_q16",
    "from_q16",
    "train_predictor",
    "default_predictor",
    "parsec_phases",
    "profile_phase",
]
