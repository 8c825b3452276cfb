"""Per-thread scalar oracle of :meth:`repro.core.prediction.MatrixBuilder.build`.

``MatrixBuilder.build`` groups threads by source core type and predicts
every target type with one matrix multiply; this is the literal
per-(thread, target) loop it replaced, kept for the vectorization
property tests in ``test_vectorized_equivalence.py``.  It reads each
thread through ``sensed_tasks.SensedTask``, the record with its PMU
readings, and :func:`feature_vector` is the scalar form of
:func:`repro.core.estimation.feature_matrix`.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimation import features_from_rates
from repro.core.prediction import (
    CPU_BOUND_UTILIZATION,
    CharacterisationMatrices,
    PredictorModel,
)
from repro.hardware.features import CoreType
from sensed_tasks import SensedTask


def feature_vector(task: SensedTask) -> np.ndarray:
    """The ``X_ij`` characterisation vector of Eq. 8 for one thread."""
    rates = task.rates
    return features_from_rates(
        freq_mhz=task.core_type.freq_mhz,
        mr_l1i=rates.l1i_miss_rate,
        mr_l1d=rates.l1d_miss_rate,
        i_msh=rates.mem_share,
        i_bsh=rates.branch_share,
        mr_b=rates.branch_miss_rate,
        mr_itlb=rates.itlb_miss_rate,
        mr_dtlb=rates.dtlb_miss_rate,
        ipc_src=rates.ipc,
        stall_frac=rates.stall_fraction,
    )


def build_scalar(
    model: PredictorModel,
    tasks: list[SensedTask],
    cores: list[CoreType],
) -> CharacterisationMatrices:
    """Reference per-thread scalar formulation of ``MatrixBuilder.build``.

    Semantics are the paper's, entry by entry.
    """
    m, n = len(tasks), len(cores)
    if m == 0:
        raise ValueError("need at least one measured thread")
    ips = np.zeros((m, n))
    power = np.zeros((m, n))
    measured = np.zeros((m, n), dtype=bool)
    util = np.zeros((m, n))
    for i, task in enumerate(tasks):
        if not task.has_measurement:
            raise ValueError(
                f"thread {task.tid} ({task.name}) has no measurement"
            )
        features = feature_vector(task)
        src = task.core_type.name
        # Predict once per distinct target type, then broadcast to
        # the cores of that type (same type => same prediction).
        ipc_by_type: dict[str, float] = {}
        for j, core_type in enumerate(cores):
            dst = core_type.name
            if dst not in ipc_by_type:
                if dst == src:
                    ipc_by_type[dst] = task.rates.ipc
                else:
                    ipc_by_type[dst] = model.predict_ipc(src, dst, features)
            ipc = ipc_by_type[dst]
            ips[i, j] = ipc * core_type.freq_hz
            if dst == src:
                power[i, j] = max(task.power_w, 1e-6)
                measured[i, j] = True
            else:
                power[i, j] = model.predict_power(dst, ipc)
        # Demand translation across cores (see class docstring).
        if task.utilization >= CPU_BOUND_UTILIZATION:
            util[i, :] = 1.0
        else:
            delivered_rate = task.utilization * ips[i, task.core_id]
            with np.errstate(divide="ignore"):
                util[i, :] = np.minimum(
                    delivered_rate / np.maximum(ips[i, :], 1e-9), 1.0
                )
    return CharacterisationMatrices(
        tids=tuple(task.tid for task in tasks),
        ips=ips,
        power=power,
        utilization=util,
        measured_mask=measured,
    )
