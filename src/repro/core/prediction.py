"""Predict phase: cross-core-type throughput and power (Eqs. 8–9).

A thread measured on one core type must be characterised on *every*
type without sampling it there (the paper rejects sampling for its
overhead).  Two models:

* **Throughput** (Eq. 8): per ordered type pair ``(src, dst)``, a
  linear regression over the counter feature vector of
  :mod:`repro.core.estimation`; ``ips = ipc · F_dst``.  The fitted Θ is
  the reproduction of the paper's Table 4.  The regression runs in
  **CPI space** — ``cpi_dst = Θ_{src→dst} · X'`` with the source-IPC
  feature inverted to source CPI — because stall contributions are
  additive in CPI, making the linear model a far better fit (the
  difference is roughly 3x in mean error on our hardware model); the
  prediction is inverted back to IPC and clipped to the IPC band seen
  in training.
* **Power** (Eq. 9): per core type, an affine map ``p = α₁·ipc + α₀``
  from predicted IPC to Watts, from offline profiling.

:class:`MatrixBuilder` assembles the full ``S`` (Eq. 2) and ``P``
(Eq. 3) matrices for the balance phase: measured entries where the
thread actually ran, predictions everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.core.estimation import FEATURE_NAMES, N_FEATURES, feature_matrix
from repro.core.sensing import IPC, POWER, UTILIZATION, TaskColumns
from repro.hardware.features import CoreType

#: Index of the source-IPC feature, inverted to CPI in design space.
IPC_FEATURE_INDEX = FEATURE_NAMES.index("ipc_src")


def design_vector(features: np.ndarray) -> np.ndarray:
    """Map a feature vector into the regressor's design space.

    Identical to the feature vector except the source-IPC entry is
    replaced by source CPI, matching the CPI-space regression.
    """
    x = np.asarray(features, dtype=float).copy()
    x[IPC_FEATURE_INDEX] = 1.0 / max(x[IPC_FEATURE_INDEX], 1e-6)
    return x


def design_matrix(features: np.ndarray) -> np.ndarray:
    """Vectorized :func:`design_vector` over a ``(k, n_features)`` batch."""
    x = np.array(features, dtype=float, copy=True, ndmin=2)
    x[:, IPC_FEATURE_INDEX] = 1.0 / np.maximum(x[:, IPC_FEATURE_INDEX], 1e-6)
    return x


@dataclass(frozen=True)
class PowerLine:
    """Eq. 9's per-core-type affine IPC→power map."""

    alpha1: float
    alpha0: float

    def predict(self, ipc: float) -> float:
        """Predicted power (W), floored to stay physical."""
        return max(self.alpha1 * ipc + self.alpha0, 1e-6)


@dataclass(frozen=True)
class PredictorModel:
    """The trained cross-core predictor (Θ of Table 4 + power lines).

    ``theta`` maps ordered core-type name pairs (src → dst) to
    coefficient vectors over the design space of :func:`design_vector`
    (Table 4 feature order, source IPC inverted to CPI, target in CPI).
    ``ipc_range`` clips predictions to the IPC band seen in training
    for each target type — extrapolation outside it is meaningless.
    """

    type_names: tuple[str, ...]
    theta: dict[tuple[str, str], np.ndarray]
    power_lines: dict[str, PowerLine]
    ipc_range: dict[str, tuple[float, float]]
    #: Training diagnostics: mean absolute relative error per pair.
    fit_error: dict[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for pair, coeffs in self.theta.items():
            if np.asarray(coeffs).shape != (N_FEATURES,):
                raise ValueError(
                    f"theta[{pair}] must have {N_FEATURES} coefficients"
                )
        # Memo store for the stacked per-source coefficient/bound/power
        # matrices of the batched Eq. 8/9 path (built lazily, keyed on
        # the target-type tuple).  ``object.__setattr__`` because the
        # dataclass is frozen; the cache is derived state, not identity.
        object.__setattr__(self, "_batch_cache", {})

    def predict_ipc(self, src_type: str, dst_type: str, features: np.ndarray) -> float:
        """Eq. 8: predicted IPC of the thread on ``dst_type``."""
        if src_type == dst_type:
            # Same type: the measurement itself (features carry it).
            return float(features[IPC_FEATURE_INDEX])
        try:
            coeffs = self.theta[(src_type, dst_type)]
        except KeyError:
            raise KeyError(
                f"predictor has no coefficients for {src_type} -> {dst_type}; "
                f"trained types: {self.type_names}"
            ) from None
        cpi = float(np.dot(coeffs, design_vector(features)))
        raw = 1.0 / max(cpi, 1e-3)
        lo, hi = self.ipc_range[dst_type]
        return min(max(raw, lo), hi)

    # ------------------------------------------------------------------
    # Batched Eq. 8/9 (the epoch-loop hot path)
    # ------------------------------------------------------------------

    def _batch_tables(
        self, src_type: str, dst_types: "tuple[str, ...]"
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """Memoized stacked tables for one (source → target set) pair.

        Returns ``(theta_matrix, same_mask, ipc_lo, ipc_hi, alpha1,
        alpha0)``: the Θ rows for every target type stacked into one
        ``(d, n_features)`` matrix (zero rows where target == source,
        masked out after the multiply), the per-target IPC clip band
        and the Eq. 9 power-line coefficients.  Built once per predictor
        and target-type tuple, then reused every epoch.
        """
        key = (src_type, dst_types)
        cached = self._batch_cache.get(key)
        if cached is not None:
            return cached
        coeff_rows = np.zeros((len(dst_types), N_FEATURES))
        same_mask = np.zeros(len(dst_types), dtype=bool)
        ipc_lo = np.empty(len(dst_types))
        ipc_hi = np.empty(len(dst_types))
        for j, dst in enumerate(dst_types):
            if dst == src_type:
                same_mask[j] = True
                ipc_lo[j], ipc_hi[j] = 0.0, np.inf
                continue
            try:
                coeff_rows[j] = self.theta[(src_type, dst)]
            except KeyError:
                raise KeyError(
                    f"predictor has no coefficients for {src_type} -> {dst}; "
                    f"trained types: {self.type_names}"
                ) from None
            ipc_lo[j], ipc_hi[j] = self.ipc_range[dst]
        tables = (coeff_rows, same_mask, ipc_lo, ipc_hi)
        self._batch_cache[key] = tables
        return tables

    def _power_tables(
        self, dst_types: "tuple[str, ...]"
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Memoized ``(alpha1, alpha0)`` vectors over a target tuple."""
        key = ("__power__", dst_types)
        cached = self._batch_cache.get(key)
        if cached is not None:
            return cached
        alpha1 = np.empty(len(dst_types))
        alpha0 = np.empty(len(dst_types))
        for j, dst in enumerate(dst_types):
            try:
                line = self.power_lines[dst]
            except KeyError:
                raise KeyError(
                    f"predictor has no power line for {dst!r}; "
                    f"trained types: {self.type_names}"
                ) from None
            alpha1[j], alpha0[j] = line.alpha1, line.alpha0
        tables = (alpha1, alpha0)
        self._batch_cache[key] = tables
        return tables

    def predict_ipc_batch(
        self,
        src_type: str,
        dst_types: "tuple[str, ...]",
        features: np.ndarray,
        measured_ipc: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Eq. 8 for a batch: ``(k, len(dst_types))`` predicted IPC.

        One matrix multiply covers every (thread, target-type) pair for
        a common source type, replacing the per-thread scalar loop.
        Where target == source the measurement itself is used
        (``measured_ipc``, defaulting to the source-IPC feature), as in
        the scalar path.
        """
        features = np.array(features, dtype=float, copy=False, ndmin=2)
        coeff_rows, same_mask, ipc_lo, ipc_hi = self._batch_tables(
            src_type, dst_types
        )
        cpi = design_matrix(features) @ coeff_rows.T
        raw = 1.0 / np.maximum(cpi, 1e-3)
        ipc = np.clip(raw, ipc_lo[None, :], ipc_hi[None, :])
        if same_mask.any():
            if measured_ipc is None:
                measured_ipc = features[:, IPC_FEATURE_INDEX]
            ipc[:, same_mask] = np.asarray(measured_ipc, dtype=float)[:, None]
        return ipc

    def predict_power_batch(
        self, dst_types: "tuple[str, ...]", ipc: np.ndarray
    ) -> np.ndarray:
        """Eq. 9 for a batch: per-type affine map over ``(k, d)`` IPC."""
        alpha1, alpha0 = self._power_tables(dst_types)
        return np.maximum(alpha1[None, :] * ipc + alpha0[None, :], 1e-6)

    def predict_power(self, dst_type: str, ipc: float) -> float:
        """Eq. 9: predicted power (W) of the thread on ``dst_type``."""
        try:
            line = self.power_lines[dst_type]
        except KeyError:
            raise KeyError(
                f"predictor has no power line for {dst_type!r}; "
                f"trained types: {self.type_names}"
            ) from None
        return line.predict(ipc)

    # ------------------------------------------------------------------
    # Serialisation (a kernel would carry these as firmware blobs).
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "type_names": list(self.type_names),
            "theta": {
                f"{src}->{dst}": list(map(float, coeffs))
                for (src, dst), coeffs in self.theta.items()
            },
            "power_lines": {
                name: [line.alpha1, line.alpha0]
                for name, line in self.power_lines.items()
            },
            "ipc_range": {name: list(r) for name, r in self.ipc_range.items()},
            "fit_error": {
                f"{src}->{dst}": err for (src, dst), err in self.fit_error.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PredictorModel":
        def split(key: str) -> tuple[str, str]:
            src, dst = key.split("->")
            return src, dst

        return cls(
            type_names=tuple(data["type_names"]),
            theta={
                split(key): np.asarray(coeffs, dtype=float)
                for key, coeffs in data["theta"].items()
            },
            power_lines={
                name: PowerLine(alpha1=a1, alpha0=a0)
                for name, (a1, a0) in data["power_lines"].items()
            },
            ipc_range={
                name: (float(lo), float(hi))
                for name, (lo, hi) in data["ipc_range"].items()
            },
            fit_error={
                split(key): float(err)
                for key, err in data.get("fit_error", {}).items()
            },
        )


@dataclass(frozen=True)
class CharacterisationMatrices:
    """The S (Eq. 2) and P (Eq. 3) matrices plus companion vectors.

    ``ips``/``power`` are (m threads × n cores); row order follows
    ``tids``.  ``measured_mask[i, j]`` is True where the entry is a
    direct measurement rather than a prediction.

    ``utilization`` is also (m × n): the time fraction each thread
    would demand of each core.  A thread observed running below the
    CPU-bound threshold is rate-limited — it currently delivers
    ``u_meas · ips_measured`` instructions per wall second, and would
    demand ``min(rate / ips_ij, 1)`` of core ``j`` to sustain that
    rate; a CPU-bound thread demands every core fully.
    """

    tids: tuple[int, ...]
    ips: np.ndarray
    power: np.ndarray
    utilization: np.ndarray
    measured_mask: np.ndarray

    @classmethod
    def from_rows(
        cls, tids: "tuple[int, ...]", rows: np.ndarray, measured_mask: np.ndarray
    ) -> "CharacterisationMatrices":
        """Matrices whose S, P and U are the three rows of one
        ``(3, m, n)`` block, which :meth:`rows` then returns as it is."""
        matrices = cls(tids, rows[0], rows[1], rows[2], measured_mask)
        object.__setattr__(matrices, "_rows", rows)
        return matrices

    def rows(self) -> np.ndarray:
        """S, P and U as one ``(3, m, n)`` array: the block of
        :meth:`from_rows`, or a stacked copy of matrices made field by
        field (``dataclasses.replace`` makes them so too)."""
        rows = self.__dict__.get("_rows")
        if rows is None:
            rows = np.stack((self.ips, self.power, self.utilization))
        return rows


_TID = attrgetter("tid")
_TYPE_NAME = attrgetter("core_type.name")

#: Observed utilisation above which a thread is treated as CPU-bound
#: (it would saturate any core, so its demand does not shrink on a
#: faster one).
CPU_BOUND_UTILIZATION = 0.93


class MatrixBuilder:
    """Builds the characterisation matrices for the balance phase."""

    def __init__(self, model: PredictorModel) -> None:
        self.model = model

    def build(
        self,
        tasks: TaskColumns,
        cores: list[CoreType],
    ) -> CharacterisationMatrices:
        """Assemble S and P for the rows of ``tasks`` across ``cores``.

        Every row must carry a measurement (take the
        ``TaskColumns.measured`` rows first).

        This is the vectorized epoch hot path: threads are grouped by
        source core type and each group's Eq. 8 predictions for *all*
        target types come from one matrix multiply against the
        memoized Θ stack, instead of a per-(thread, target) Python
        loop.  ``tests/core/scalar_matrices.py`` keeps the literal
        per-thread formulation as the equivalence-tested reference.
        S, P and U are written into one ``(3, m, n)`` block
        (:meth:`CharacterisationMatrices.from_rows`).
        """
        m, n = len(tasks), len(cores)
        if m == 0:
            raise ValueError("need at least one measured thread")
        if not tasks.measured.all():
            task = tasks.records[int(np.argmin(tasks.measured))]
            raise ValueError(f"thread {task.tid} ({task.name}) has no measurement")
        features = feature_matrix(tasks)
        values = tasks.values
        ipc_meas = values[:, IPC]
        util_obs = values[:, UTILIZATION]
        core_ids = tasks.core_id

        # Distinct target types, in first-appearance platform order.
        core_type_names = [core.name for core in cores]
        dst_types = tuple(dict.fromkeys(core_type_names))
        type_index = {name: j for j, name in enumerate(dst_types)}
        #: Column map: core j -> its type's column in the (m, d) tables.
        core_type_col = np.array(
            [type_index[name] for name in core_type_names], dtype=np.intp
        )
        freq_hz = np.array([core.freq_hz for core in cores])
        #: Each thread's source type's column.
        src_type_col = np.fromiter(
            map(type_index.__getitem__, map(_TYPE_NAME, tasks.records)),
            dtype=np.intp,
            count=m,
        )

        # Eq. 8, one matmul per distinct source type.
        ipc_by_type = np.empty((m, len(dst_types)))
        for j, src in enumerate(dst_types):
            rows = np.flatnonzero(src_type_col == j)
            if rows.size:
                ipc_by_type[rows] = self.model.predict_ipc_batch(
                    src, dst_types, features[rows], measured_ipc=ipc_meas[rows]
                )
        # Eq. 9, one affine map over the whole batch.
        power_by_type = self.model.predict_power_batch(dst_types, ipc_by_type)

        block = np.empty((3, m, n))
        ips, power, util = block
        np.multiply(ipc_by_type[:, core_type_col], freq_hz, out=ips)
        np.take(power_by_type, core_type_col, axis=1, out=power)
        # Same-type entries are measurements, not predictions.
        measured = core_type_col[None, :] == src_type_col[:, None]
        np.copyto(power, np.maximum(values[:, POWER], 1e-6)[:, None], where=measured)

        # Demand translation across cores (see class docstring).
        delivered_rate = util_obs * ips[np.arange(m), core_ids]
        with np.errstate(divide="ignore"):
            np.divide(delivered_rate[:, None], np.maximum(ips, 1e-9), out=util)
        np.minimum(util, 1.0, out=util)
        util[util_obs >= CPU_BOUND_UTILIZATION] = 1.0

        return CharacterisationMatrices.from_rows(
            tuple(map(_TID, tasks.records)), block, measured
        )
