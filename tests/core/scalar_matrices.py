"""Per-thread scalar oracle of :meth:`repro.core.prediction.MatrixBuilder.build`.

``MatrixBuilder.build`` groups threads by source core type and predicts
every target type with one matrix multiply; this is the literal
per-(thread, target) loop it replaced, kept for the vectorization
property tests in ``test_vectorized_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimation import feature_vector
from repro.core.prediction import (
    CPU_BOUND_UTILIZATION,
    CharacterisationMatrices,
    PredictorModel,
)
from repro.hardware.features import CoreType
from repro.kernel.view import TaskView


def build_scalar(
    model: PredictorModel,
    tasks: list[TaskView],
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
