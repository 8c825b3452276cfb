"""Estimation phase: the feature vectors of Eq. 8.

The per-thread measured throughput and power (Eqs. 4–5) arrive in the
view's PMU block (:attr:`~repro.kernel.view.SystemView.pmu`); this
module turns each thread's row into the feature vector ``X_ij`` (the
regressor input of Eq. 8, with the Table 4 feature ordering).  The
per-core aggregates the paper defines (Eq. 6: ``IPS_j``, the average of
the member threads' throughputs; Eq. 7: ``P_j``, the average of their
powers) feed no decision: they and the core IPC identity
``IPS_j = IPC_j · F_j = I_total · F / (cyBusy + cyIdle)`` are checked
in ``tests/core/test_sensing_estimation.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.sensing import COLUMNS, TaskColumns

#: Feature ordering of the Θ regressor — the Table 4 columns (source
#: frequency, L1I/L1D miss rates, memory/branch instruction shares,
#: branch/i-TLB/d-TLB miss rates, source IPC, intercept) plus the
#: stall fraction.  The stall fraction (``cyIdle / (cyBusy + cyIdle)``)
#: comes from the same cycle counters the paper already samples and
#: separates stall-bound from issue-bound threads, which the other
#: rates cannot do alone.
FEATURE_NAMES = (
    "freq_mhz",
    "mr_l1i",
    "mr_l1d",
    "i_msh",
    "i_bsh",
    "mr_b",
    "mr_itlb",
    "mr_dtlb",
    "ipc_src",
    "stall_frac",
    "const",
)

N_FEATURES = len(FEATURE_NAMES)

#: The column of :attr:`TaskColumns.values <repro.core.sensing.TaskColumns>`
#: each feature but the intercept is read from, in :data:`FEATURE_NAMES`
#: order.
FEATURE_COLUMNS = np.array(
    [
        COLUMNS.index(column)
        for column in (
            "freq_mhz", "l1i_miss_rate", "l1d_miss_rate", "mem_share", "branch_share",
            "branch_miss_rate", "itlb_miss_rate", "dtlb_miss_rate", "ipc", "stall_fraction",
        )
    ]
)


def feature_matrix(tasks: TaskColumns) -> np.ndarray:
    """The ``X_ij`` characterisation vectors of Eq. 8, one row per row
    of ``tasks``, in :data:`FEATURE_NAMES` order."""
    features = np.ones((len(tasks), N_FEATURES))
    features[:, :-1] = tasks.values[:, FEATURE_COLUMNS]
    return features


def features_from_rates(
    freq_mhz: float,
    mr_l1i: float,
    mr_l1d: float,
    i_msh: float,
    i_bsh: float,
    mr_b: float,
    mr_itlb: float,
    mr_dtlb: float,
    ipc_src: float,
    stall_frac: float = 0.0,
) -> np.ndarray:
    """Assemble a feature vector in the canonical order."""
    return np.array(
        [
            freq_mhz,
            mr_l1i,
            mr_l1d,
            i_msh,
            i_bsh,
            mr_b,
            mr_itlb,
            mr_dtlb,
            ipc_src,
            stall_frac,
            1.0,
        ]
    )
