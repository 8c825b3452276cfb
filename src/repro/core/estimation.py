"""Estimation phase: per-thread and per-core aggregates (Eqs. 4–7).

The per-thread measured throughput and power (Eqs. 4–5) arrive with the
:class:`~repro.kernel.view.TaskView`; this module adds the core-level
aggregates the paper defines —

* Eq. 6: ``IPS_j``, the average of the member threads' throughputs,
* Eq. 7: ``P_j``, the average of the member threads' powers,

and the feature vector ``X_ij`` (the regressor input of Eq. 8, with
the Table 4 feature ordering).  The core IPC identity
``IPS_j = IPC_j · F_j = I_total · F / (cyBusy + cyIdle)`` is checked
in ``tests/core/test_sensing_estimation.py``: no view carries core
counters, so no run evaluates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.sensing import COLUMNS, TaskColumns
from repro.kernel.view import TaskView

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


def feature_vector(task: TaskView) -> np.ndarray:
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


def feature_matrix(tasks: TaskColumns) -> np.ndarray:
    """The ``X_ij`` vectors of every row of ``tasks``: row ``i`` is
    :func:`feature_vector` of ``tasks.records[i]``."""
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


@dataclass(frozen=True)
class CoreEstimate:
    """Eqs. 6–7 aggregates for one core over one epoch."""

    core_id: int
    #: Eq. 6 — mean of member threads' measured IPS.
    ips_avg: float
    #: Eq. 7 — mean of member threads' measured power (W).
    power_avg: float
    n_threads: int


def estimate_cores(tasks: Iterable[TaskView]) -> dict[int, CoreEstimate]:
    """Per-core Eq. 6/7 estimates from the measured threads among ``tasks``."""
    groups: dict[int, list[TaskView]] = {}
    for task in tasks:
        if task.has_measurement:
            groups.setdefault(task.core_id, []).append(task)
    estimates = {}
    for core_id, threads in groups.items():
        n = len(threads)
        estimates[core_id] = CoreEstimate(
            core_id=core_id,
            ips_avg=sum(t.rates.ips for t in threads) / n,
            power_avg=sum(t.power_w for t in threads) / n,
            n_threads=n,
        )
    return estimates
