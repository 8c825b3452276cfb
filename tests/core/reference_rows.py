"""Reference copy of SmartBalance's per-row EWMA store, for differential tests.

This is the dict-of-row-copies form of the smoothed characterisation
rows: :meth:`ReferenceRows.blend` and :meth:`ReferenceRows.append_fallback_rows`
are ``SmartBalance._blend`` and ``SmartBalance._append_fallback_rows``
as they were before the rows moved into one (3 × rows × cores) matrix
store, and :meth:`ReferenceRows.note_prediction` keeps the per-tid IPS
and power rows the watchdog and the prediction checks used to read.
``test_smoothed_rows.py`` requires the matrix store to reproduce every
blended matrix, fallback row and prediction of this copy with ``==``.

Keep it as it is: it is the specification, not code to optimise.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core import balancer as balancer_module
from repro.core.prediction import CharacterisationMatrices


class ReferenceRows:
    def __init__(self) -> None:
        self._rows: dict[int, tuple] = {}
        self.last_prediction: dict[int, np.ndarray] = {}
        self.last_power: dict[int, np.ndarray] = {}

    def blend(
        self,
        matrices: CharacterisationMatrices,
        keep: "frozenset[int] | set[int]" = frozenset(),
    ) -> CharacterisationMatrices:
        beta = balancer_module.SMOOTHING
        ips = matrices.ips.copy()
        power = matrices.power.copy()
        util = matrices.utilization.copy()
        # Blend all threads with history in one vectorized pass.
        prev = [self._rows.get(tid) for tid in matrices.tids]
        known = [i for i, row in enumerate(prev) if row is not None]
        if known:
            prev_ips = np.array([prev[i][0] for i in known])
            prev_power = np.array([prev[i][1] for i in known])
            prev_util = np.array([prev[i][2] for i in known])
            ips[known] = (1.0 - beta) * prev_ips + beta * ips[known]
            power[known] = (1.0 - beta) * prev_power + beta * power[known]
            util[known] = (1.0 - beta) * prev_util + beta * util[known]
        for i, tid in enumerate(matrices.tids):
            self._rows[tid] = (ips[i].copy(), power[i].copy(), util[i].copy())
        live = set(matrices.tids) | set(keep)
        for tid in list(self._rows):
            if tid not in live:
                del self._rows[tid]
        return replace(matrices, ips=ips, power=power, utilization=util)

    def has_row(self, tid: int) -> bool:
        return tid in self._rows

    def append_fallback_rows(
        self,
        matrices: CharacterisationMatrices,
        fallback: "list[int]",
    ) -> CharacterisationMatrices:
        n = matrices.ips.shape[1]
        ips_rows = []
        power_rows = []
        util_rows = []
        for tid in fallback:
            row_ips, row_power, row_util = self._rows[tid]
            ips_rows.append(row_ips)
            power_rows.append(row_power)
            util_rows.append(row_util)
        extra = len(fallback)
        return replace(
            matrices,
            tids=matrices.tids + tuple(fallback),
            ips=np.vstack([matrices.ips, np.array(ips_rows)]),
            power=np.vstack([matrices.power, np.array(power_rows)]),
            utilization=np.vstack([matrices.utilization, np.array(util_rows)]),
            measured_mask=np.vstack(
                [matrices.measured_mask, np.zeros((extra, n), dtype=bool)]
            ),
        )

    def note_prediction(self, matrices: CharacterisationMatrices) -> None:
        self.last_prediction = {
            tid: matrices.ips[i].copy() for i, tid in enumerate(matrices.tids)
        }
        self.last_power = {
            tid: matrices.power[i].copy() for i, tid in enumerate(matrices.tids)
        }
