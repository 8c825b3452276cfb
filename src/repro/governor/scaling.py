"""Frequency-conditioning of observations and predictor outputs.

The paper's Eq. 8/9 predictors characterise threads at each core
type's *nominal* operating point.  Running a cluster at a scaled OPP
changes three measured quantities in model-exact ways (each law is
locked by tests against the hardware model):

* **IPC is frequency-invariant** — the micro-architectural model sees
  the same structures whatever the clock, so ``ips = ipc · f`` scales
  linearly with frequency;
* **demand stretches**: a thread needing time fraction ``d`` of a core
  at nominal frequency needs ``min(d / r, 1)`` of it at frequency
  ratio ``r = f_opp / f_nom`` (rate-limited phases re-expand exactly);
* **busy power separates** into dynamic (``∝ V² f``) and leakage
  (frequency-independent at fixed V, recomputed per OPP voltage):
  ``P(opp) = (P(nom) − leak_nom) · s + leak_opp`` with
  ``s = (V_opp² f_opp) / (V_nom² f_nom)``.

This module applies those laws in both directions: *normalising* a
view sensed at a scaled OPP back into the nominal frame the
predictors and the adaptation layer expect, and *conditioning* the
nominal-frame characterisation matrices onto a candidate OPP vector so
one epoch's sensing scores every rung of every cluster's ladder.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.allocation import Allocation
from repro.core.objective import (
    EnergyEfficiencyObjective,
    checked_terms,
    per_core_terms,
)
from repro.hardware import power as power_model
from repro.hardware.features import CoreType
from repro.kernel.view import PMU_COLUMNS, SystemView


def freq_ratio(nominal: CoreType, applied: CoreType) -> float:
    """``r = f_opp / f_nom``."""
    return applied.freq_mhz / nominal.freq_mhz


def dynamic_ratio(nominal: CoreType, applied: CoreType) -> float:
    """Dynamic-power scale ``s = (V² f)_opp / (V² f)_nom``."""
    return (applied.vdd**2 * applied.freq_mhz) / (
        nominal.vdd**2 * nominal.freq_mhz
    )


#: Columns of ``SystemView.pmu`` that normalisation rewrites.
_IPS = PMU_COLUMNS.index("ips")
_POWER = PMU_COLUMNS.index("power_w")


def normalize_view(
    view: SystemView,
    nominal_by_core: "dict[int, CoreType]",
    nominal_idle_w: "tuple[float, ...]",
    nominal_sleep_w: "tuple[float, ...]",
) -> SystemView:
    """Normalise a whole system view into the nominal frame.

    Returns ``view`` itself while every core runs its nominal type;
    otherwise every task and core is re-expressed at nominal, with the
    firmware idle/sleep power of the nominal types.  A task measured
    off nominal gets its record's ``core_type`` and ``utilization``
    and its PMU row's ``ips`` and ``power_w`` rewritten, the row in a
    copy of the view's block.

    The inverse laws: ``ips_nom = ips / r`` (IPC invariant, so the
    clock identity ``ips_nom / ipc ≈ f_nom`` still holds and throttle
    faults stay detectable), ``util_nom = util · r`` (exact unless the
    thread saturated the slowed core, where the saturation clipped the
    information away), ``p_nom = (p − leak_opp) / s + leak_nom``
    (clamped non-negative; sensor noise can push the dynamic part
    below zero).
    """
    if all(core.core_type == nominal_by_core[core.core_id] for core in view.cores):
        return view
    tasks = list(view.tasks)
    pmu = None if view.pmu is None else view.pmu.copy()
    for i, task in enumerate(tasks):
        applied = task.core_type
        nominal = nominal_by_core[task.core_id]
        if applied == nominal:
            continue
        r = freq_ratio(nominal, applied)
        tasks[i] = task._replace(
            core_type=nominal, utilization=min(task.utilization * r, 1.0)
        )
        if pmu is not None:
            power_w = float(pmu[i, _POWER])
            if power_w > 0:
                s = dynamic_ratio(nominal, applied)
                leak_applied = power_model.leakage_power(applied)
                leak_nominal = power_model.leakage_power(nominal)
                power_w = max((power_w - leak_applied) / s + leak_nominal, 0.0)
            pmu[i, _IPS] = float(pmu[i, _IPS]) / r
            pmu[i, _POWER] = power_w
    cores = tuple(
        core._replace(
            core_type=nominal_by_core[core.core_id],
            idle_power_w=idle_w,
            sleep_power_w=sleep_w,
        )
        for core, idle_w, sleep_w in zip(view.cores, nominal_idle_w, nominal_sleep_w)
    )
    return replace(view, tasks=tuple(tasks), cores=cores, pmu=pmu)


class ConditionedObjectiveFactory:
    """Memoised ``J_E`` objectives, one per candidate OPP level vector.

    Holds one epoch's nominal-frame characterisation matrices and
    conditions them onto any requested ``(level per cluster)`` vector
    via the scaling laws above.  Cores whose applied type *is* the
    nominal type get their matrix columns copied through untouched, so
    the all-top objective is numerically identical to the stock
    (governor-free) objective — candidate values are always compared
    in the same currency.

    Idle/sleep power per rung comes from the firmware-table model of
    the applied type, mixed with the shallow-idle fraction recovered
    from the nominal observation (``idle_eff = φ·idle + (1−φ)·sleep``,
    so φ is algebraically recoverable and level-independent).

    :meth:`scores` gives one allocation's ``J_E`` under many vectors
    without building their objectives (the two-level search's screen).
    """

    def __init__(
        self,
        ips: np.ndarray,
        power: np.ndarray,
        utilization: np.ndarray,
        nominal_types: "list[CoreType]",
        nominal_idle_w: "tuple[float, ...]",
        nominal_sleep_w: "tuple[float, ...]",
        ladders,
        weights,
        mode: str,
        allowed,
    ) -> None:
        self.ips = np.asarray(ips, dtype=float)
        self.power = np.asarray(power, dtype=float)
        self.utilization = np.asarray(utilization, dtype=float)
        self.nominal_types = nominal_types
        self.nominal_idle_w = nominal_idle_w
        self.nominal_sleep_w = nominal_sleep_w
        self.ladders = ladders
        self.weights = weights
        self.mode = mode
        self.allowed = allowed
        self.n_cores = len(nominal_types)
        #: Shallow-idle mix per core, recovered from the observation.
        self._shallow = []
        for j, ct in enumerate(nominal_types):
            idle_model = power_model.idle_power(ct).total_w
            sleep_model = power_model.sleep_power(ct)
            span = idle_model - sleep_model
            if span > 1e-12:
                phi = (nominal_idle_w[j] - sleep_model) / span
            else:
                phi = 1.0
            self._shallow.append(min(max(phi, 0.0), 1.0))
        self._cache: dict[tuple[int, ...], EnergyEfficiencyObjective] = {}
        #: ``(core, applied type) -> (ips, power, util columns, idle, sleep)``.
        #: A full enumeration scores every level vector, but each core
        #: only ever sees its own ladder's few rungs.
        self._rungs: dict = {}

    def _rung(self, j: int, nom: CoreType, app: CoreType) -> tuple:
        """Core ``j``'s conditioned matrix columns and idle/sleep power
        at applied type ``app`` (memoised)."""
        key = (j, app)
        rung = self._rungs.get(key)
        if rung is None:
            r = freq_ratio(nom, app)
            s = dynamic_ratio(nom, app)
            leak_nom = power_model.leakage_power(nom)
            leak_app = power_model.leakage_power(app)
            sleep = power_model.sleep_power(app)
            phi = self._shallow[j]
            rung = (
                self.ips[:, j] * r,
                (self.power[:, j] - leak_nom) * s + leak_app,
                np.minimum(self.utilization[:, j] / r, 1.0),
                phi * power_model.idle_power(app).total_w + (1.0 - phi) * sleep,
                sleep,
            )
            self._rungs[key] = rung
        return rung

    def _conditioned(self, levels: "tuple[int, ...]") -> tuple:
        """``(ips, power, util, idle, sleep)`` conditioned onto
        ``levels``, before the objective's cleaning."""
        from repro.governor.ladder import applied_types

        applied = applied_types(self.ladders, levels, self.n_cores)
        ips = self.ips.copy()
        power = self.power.copy()
        util = self.utilization.copy()
        idle = list(self.nominal_idle_w)
        sleep = list(self.nominal_sleep_w)
        for j, (nom, app) in enumerate(zip(self.nominal_types, applied)):
            if app == nom:
                continue
            ips[:, j], power[:, j], util[:, j], idle[j], sleep[j] = self._rung(
                j, nom, app
            )
        return ips, power, util, idle, sleep

    def objective(self, levels: "tuple[int, ...]") -> EnergyEfficiencyObjective:
        cached = self._cache.get(levels)
        if cached is not None:
            return cached
        ips, power, util, idle, sleep = self._conditioned(levels)
        obj = EnergyEfficiencyObjective(
            ips=ips,
            power=power,
            utilization=util,
            idle_power=idle,
            sleep_power=sleep,
            weights=self.weights,
            mode=self.mode,
            allowed=self.allowed,
        )
        self._cache[levels] = obj
        return obj

    def scores(
        self, allocation: Allocation, vectors: "list[tuple[int, ...]]"
    ) -> "list[float]":
        """``J_E`` of ``allocation`` under each level vector in ``vectors``.

        Each entry is what ``self.objective(levels).evaluate(allocation)``
        returns, without the affinity penalty: the penalty depends only
        on the allocation, so it would shift every score alike (and
        1e30 per violation would swamp them).  Only ``vectors[0]``'s
        objective is built, for the weights, mode and exponent every
        vector shares.

        A core's (throughput, power) term depends only on its own
        cluster's level, so the allocation's threads are summed once
        per core and rung, with the objective's cleaning and
        validation; a vector's score folds its cores' terms through
        the objective's ``aggregates`` and ``scalar_value``.
        """
        reference = self.objective(vectors[0])
        mapping = np.asarray(allocation.mapping(), dtype=np.intp)
        rows = np.arange(len(mapping))
        n = self.n_cores
        n_levels = self.ladders[0].n_levels
        core_ips = np.empty((n_levels, n))
        core_power = np.empty((n_levels, n))
        for level in range(n_levels):
            # Every cluster at ``level`` at once: column j holds core j's
            # rung at that level, and its term needs nothing else.
            ips, power, util, idle, sleep = self._conditioned(
                (level,) * len(self.ladders)
            )
            ips, power = checked_terms(
                ips, power, util, np.asarray(idle), np.asarray(sleep)
            )
            u = util[rows, mapping]
            sum_u = np.bincount(mapping, weights=u, minlength=n)
            sum_uips = np.bincount(
                mapping, weights=u * ips[rows, mapping], minlength=n
            )
            sum_up = np.bincount(
                mapping, weights=u * power[rows, mapping], minlength=n
            )
            for j in range(n):
                core_ips[level, j], core_power[level, j] = per_core_terms(
                    sum_u[j], sum_uips[j], sum_up[j], idle[j], sleep[j]
                )
        cluster = np.empty(n, dtype=np.intp)
        for index, ladder in enumerate(self.ladders):
            cluster[list(ladder.core_ids)] = index
        # levels[v, j]: core j's rung under vector v.
        levels = np.asarray(vectors, dtype=np.intp)[:, cluster]
        cores = np.arange(n)
        weighted_ips, total_power, ratio_sum = reference.aggregates(
            core_ips[levels, cores], core_power[levels, cores]
        )
        return [
            reference.scalar_value(*terms)
            for terms in zip(
                weighted_ips.tolist(), total_power.tolist(), ratio_sum.tolist()
            )
        ]
