"""Structure-of-arrays kernel core: the simulator's only kernel state.

A CFS period could walk one Python object per task — per-core run-queue
loops, a dozen float attribute adds per counter block, an lru-cache hit
per perf estimate — and at 1024 cores that object walk would dominate
epoch wall-clock.  This module holds the simulation state as flat numpy
arrays — weights, progress, warm-up, utilisation, the 12 hardware
counters, energy — indexed by task id, plus per-core accumulator and
thermal arrays, and advances one CFS period for *every* core with
batched array ops.  :class:`~repro.kernel.simulator.System` reads its
views and results straight from these arrays; no object mirror exists.

**Bit-identity contract.**  ``SoaKernel`` is not an approximation: for
any run it must produce results whose
:func:`~repro.runner.serialize.metrics_digest` equals the object-per-task
reference kernel's — the readable statement of the CFS semantics, kept
as a test oracle in ``tests/kernel/reference_kernel.py``.  That works
because every float operation here is either

* elementwise (IEEE-754 ops are deterministic per element, so a numpy
  float64 lane equals the equivalent Python float expression), or
* an *ordered* reduction replayed in exactly the reference's
  accumulation order: left-to-right per-queue sums become masked
  ``np.cumsum`` rows (adding a masked-out ``0.0`` is the identity),
  and per-core scatter-merges use ``np.add.at``, which applies
  repeated indices sequentially in index order — matching the
  reference's run-queue slot order.

Anything the reference computes through a memoised scalar helper
(:func:`repro.hardware.microarch.estimate`,
:func:`repro.hardware.power.busy_power`,
:func:`repro.workload.demand.demanded_fraction_on`) is evaluated here
through the *same* helper once per distinct (phase, core-type, warm-up
level) group and broadcast, so the floats are identical by
construction.  Tasks that sub-step within one slice (phase boundary or
exit inside the slice) fall back to a scalar loop that mirrors the
reference's ``_execute_slice`` line for line; everything else takes the
single-step vector path.  A steady period, one whose structure and
demand versions match the last replayable period's, re-applies that
period's memoised increments through the same accumulation code.  The
differential-equivalence suite (``tests/kernel/test_soa_equivalence.py``)
enforces the contract.

See ``docs/kernel.md`` for the array layout and the rules to follow
when extending the kernel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.hardware import microarch, power, thermal
from repro.hardware.counters import CounterBlock
from repro.kernel.cfs import (
    CACHE_WARMUP_S,
    CONTEXT_SWITCH_COST_S,
    IDLE_TO_SLEEP_LATENCY_S,
    UTIL_DECAY,
)
from repro.kernel.task import TaskState
from repro.workload.demand import demanded_fraction_on

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.simulator import System

#: Number of hardware counters in a :class:`CounterBlock`, in dataclass
#: field order (``cy_busy`` … ``busy_time_s``).
N_COUNTERS = 12

#: Columns of the per-group value table ``_V``.
_IPC = 0
_BASE_CPI = 1
_MEM_SHARE = 2
_BR_SHARE = 3
_BR_MISS = 4
_L1I = 5
_L1D = 6
_ITLB = 7
_DTLB = 8
_POWER_W = 9
_FREQ = 10
_DEMAND = 11
_IPS = 12
_N_COLS = 13

#: Core-type registry capacity folded into group codes.  Throttle
#: events register fresh clones, but even fault-heavy runs create a
#: handful; the ceiling only bounds the integer encoding.
_MAX_CTYPES = 1 << 20

_WQ = microarch.WARMUP_QUANTISATION
_SMT_Q = microarch.SMT_QUANTISATION


class PeriodIncrements:
    """What one CFS period adds to the kernel state, before it is added.

    :meth:`SoaKernel._increments` computes it and :meth:`SoaKernel._apply`
    folds it into the accumulators, progress, phases and utilisation.
    A *replayable* period — no warm-up decaying, no slow-path task, no
    SMT core, no thermal step — has increments that are a pure
    function of ``key``, so :meth:`SoaKernel.simulate_period` keeps the
    last one and applies it again while the key holds.
    """

    __slots__ = (
        # (structure version, demand version, period) computed under.
        "key",
        "replayable",
        # The replay check's operands: grants and per-task IPS.
        "granted",
        "ips_t",
        # Tasks on the one-step path, and whether there are any.
        "fast",
        "any_fast",
        # Per task: the 12 counters, energy and busy time of the slice.
        "S",
        "E",
        "gu",
        # Exits on the slow path (None when no task took it).
        "slow_exited",
        # ``np.add.at`` scatter of the runnable tasks' counter rows
        # into ``c_cnt``, in run-queue slot order (rows None if none).
        "add_at_q",
        "add_at_rows",
        # Per core: instructions, the two sleep-cycle addends of
        # ``c_cnt[:, 2]`` and the energy/time/busy/idle/sleep splits.
        "ci_q",
        "sleep_cy_empty",
        "sleep_cy_deep",
        "energy_q",
        "time_q",
        "busy_q",
        "idle_q",
        "sleep_q",
        # The period's user instructions and energy (the return value).
        "period_instr",
        "period_energy",
        # Per-task demand before execution (the EWMA input).
        "demand_t",
    )


class SoaKernel:
    """Vectorised per-period engine behind :class:`~repro.kernel.simulator.System`.

    Owns every numeric kernel state.  The Task and CfsRunQueue objects
    hold only identity, lifecycle state and run-queue membership; the
    System tells the engine when those change (arrival, migration,
    hotplug, core-type change, barrier block) through the narrow
    ``on_*``/``set_*`` hooks below, and everything that observes the
    kernel — views, hotplug load checks, results, scenario runtimes —
    reads the arrays directly.
    """

    def __init__(self, system: "System") -> None:
        # The System's task and queue lists, not the System itself: the
        # System owns the engine, and a back-reference would keep every
        # finished run alive until a full garbage collection.
        self.tasks = tasks = system.tasks
        self.runqueues = system.runqueues
        self._thermal_on = system.config.thermal_enabled
        n = len(tasks)
        m = len(system.runqueues)
        self.n_tasks = n
        self.n_cores = m

        # --- per-task state -------------------------------------------------
        self.weight = np.array([t.weight for t in tasks], dtype=np.float64)
        self.progress = np.zeros(n)
        self.warmup = np.zeros(n)
        self.util = np.zeros(n)
        self.epoch_energy = np.zeros(n)
        self.total_instr = np.zeros(n)
        self.total_busy = np.zeros(n)
        self.total_energy = np.zeros(n)
        self.t_cnt = np.zeros((n, N_COUNTERS))
        self.active = np.array(
            [t.state is TaskState.ACTIVE for t in tasks], dtype=bool
        )
        self.is_user = np.array([t.is_user for t in tasks], dtype=bool)
        self.core_of = np.array([t.core_id for t in tasks], dtype=np.intp)
        self.behavior_total = np.array(
            [
                np.inf if t.behavior.total_instructions is None
                else t.behavior.total_instructions
                for t in tasks
            ]
        )
        self._schedules = [t.behavior.schedule for t in tasks]
        self._multi_ids = [
            i for i in range(n) if len(self._schedules[i].segments) > 1
        ]
        self.until_boundary = np.full(n, np.inf)
        #: Next barrier stop per task (``inf`` = none); every ``min``
        #: against it is then the identity, keeping barrier-free runs
        #: bit-identical.  Updated through :meth:`set_barrier_stop`.
        self.barrier_stop = np.full(n, np.inf)
        #: Whether a slice can end at an exit (some finite instruction
        #: total) or, once a stop is set, at a barrier.  Without either
        #: the slice limit is the distance to the next phase boundary.
        self._exits = bool(np.isfinite(self.behavior_total).any())
        self._bounded = self._exits
        #: Whether a warm-up may be decaying: set by a migration that
        #: starts one, cleared by the first period that finds none.
        self._warming = False

        # --- per-core state -------------------------------------------------
        self.c_cnt = np.zeros((m, N_COUNTERS))
        self.q_total_energy = np.zeros(m)
        self.q_total_busy = np.zeros(m)
        self.q_total_idle = np.zeros(m)
        self.q_total_sleep = np.zeros(m)
        self.q_epoch_energy = np.zeros(m)
        self.q_epoch_time = np.zeros(m)
        self.core_instr = np.zeros(m)
        self.online = np.array(system._online, dtype=bool)
        #: Opt-in SMT cores (``CfsRunQueue.smt``, read with the queue
        #: layout): doubled period capacity, co-runner contention fed
        #: to the estimate.
        self.smt_core = np.zeros(m, dtype=bool)
        self._any_smt = False

        # --- per-core thermal state (vectorised RC model) -------------------
        # R and the per-period decay come from each core's type at
        # construction (its nominal type, fixed for the run); base
        # leakage is gathered per current core type (throttle/OPP
        # changes move it) via ``_ct_leak_w``.  Cores without the
        # thermal model stay at ambient.
        self.thermal_temp = np.full(m, thermal.AMBIENT_C)
        self.thermal_peak = np.full(m, thermal.AMBIENT_C)
        self._thermal_r = np.zeros(m)
        self._thermal_decay = np.zeros(m)
        thermal_ids = []
        if system.config.thermal_enabled:
            for q in system.runqueues:
                qid = q.core.core_id
                thermal_ids.append(qid)
                self._thermal_r[qid] = thermal.thermal_resistance(q.core.core_type)
                self._thermal_decay[qid] = thermal.decay_factor(
                    q.core.core_type, system.config.period_s
                )
        self._thermal_idx = np.array(sorted(thermal_ids), dtype=np.intp)

        # --- registries -----------------------------------------------------
        self._phases: list = []
        self._phase_ids: dict[int, int] = {}
        #: ``mem_share`` per registered phase (the SMT contention input).
        self._phase_mem: list[float] = []
        self._ctypes: list = []
        self._ctype_ids: dict[int, int] = {}
        self._ct_freq: list[float] = []
        self._ct_idle_w: list[float] = []
        self._ct_sleep_w: list[float] = []
        self._ct_leak_w: list[float] = []
        self.phase_key = np.zeros(n, dtype=np.int64)
        for i, task in enumerate(tasks):
            self.phase_key[i] = self._register_phase(
                self._schedules[i].phase_at(0.0)
            )
        self.ctype_idx = np.zeros(m, dtype=np.int64)
        for q in system.runqueues:
            self.ctype_idx[q.core.core_id] = self._register_ctype(
                q.core.core_type
            )

        # --- multi-segment phase tables (vectorised phase_at) ---------------
        # ``_mB`` holds each multi-segment schedule's cumulative
        # boundaries padded with +inf (one spare column so a gather at
        # index k lands on inf — the "terminal segment" answer);
        # bisect_right(B, p) becomes a row count of boundaries <= p.
        n_multi = len(self._multi_ids)
        self._multi_idx = np.array(self._multi_ids, dtype=np.intp)
        if n_multi:
            kmax = max(
                len(self._schedules[i].segments) for i in self._multi_ids
            )
            self._mB = np.full((n_multi, kmax + 1), np.inf)
            self._mseg_phase = np.zeros((n_multi, kmax), dtype=np.int64)
            self._mk = np.zeros(n_multi, dtype=np.int64)
            self._mcyc = np.zeros(n_multi, dtype=bool)
            self._mC = np.ones(n_multi)
            self._mrow = np.arange(n_multi, dtype=np.intp)
            for row, i in enumerate(self._multi_ids):
                schedule = self._schedules[i]
                k = len(schedule.segments)
                self._mB[row, :k] = schedule._boundaries
                self._mk[row] = k
                self._mcyc[row] = schedule.cyclic
                self._mC[row] = schedule.cycle_instructions
                for s, segment in enumerate(schedule.segments):
                    self._mseg_phase[row, s] = self._register_phase(
                        segment.phase
                    )
            # Each row's current segment as the bracket [lo, hi) of
            # (wrapped) progress that keeps it there; ``_mB_lo[:, k]``
            # is the boundary before column k.  Empty until the first
            # refresh.
            self._mB_lo = np.hstack(
                [np.full((n_multi, 1), -np.inf), self._mB[:, :-1]]
            )
            self._m_lo = np.full(n_multi, np.inf)
            self._m_hi = np.full(n_multi, -np.inf)
        self._n_multi = n_multi

        # --- (phase, ctype, warm-up level) -> value-table row ---------------
        self._code2row: dict[int, int] = {}
        self._V = np.zeros((0, _N_COLS))
        self._codes_sorted = np.zeros(0, dtype=np.int64)
        self._rows_sorted = np.zeros(0, dtype=np.int64)

        # --- caches and dirty flags -----------------------------------------
        self._layout_dirty = True
        self._struct_ver = 0  # bumps on membership/active/online changes
        self._demand_ver = 0  # bumps on phase/core-type changes
        self._rows_cache: (
            "tuple[tuple[int, int], np.ndarray, np.ndarray] | None"
        ) = None
        self._sched_cache: "dict | None" = None
        self._grants_cache: "tuple[tuple[int, int], np.ndarray] | None" = None
        self._one_minus_decay = 1.0 - UTIL_DECAY
        #: Per-core (freq, idle W, sleep W) rows; rebuilt when a core's
        #: type changes (throttle fault).
        self._ctype_change_ver = 0
        self._core_pw_cache: "tuple[int, np.ndarray, np.ndarray, np.ndarray] | None" = None
        #: The last replayable period's increments, and how many
        #: periods re-applied them (:meth:`simulate_period`).
        self._memo: "PeriodIncrements | None" = None
        self.steady_periods = 0
        if n_multi:
            self._refresh_phase_state()

    # ------------------------------------------------------------------
    # Registries
    # ------------------------------------------------------------------

    def _register_phase(self, phase) -> int:
        idx = self._phase_ids.get(id(phase))
        if idx is None:
            idx = len(self._phases)
            self._phases.append(phase)
            self._phase_mem.append(phase.mem_share)
            self._phase_ids[id(phase)] = idx
        return idx

    def _register_ctype(self, ctype) -> int:
        idx = self._ctype_ids.get(id(ctype))
        if idx is None:
            idx = len(self._ctypes)
            if idx >= _MAX_CTYPES:  # pragma: no cover - encoding ceiling
                raise RuntimeError("core-type registry overflow")
            self._ctypes.append(ctype)
            self._ctype_ids[id(ctype)] = idx
            self._ct_freq.append(ctype.freq_hz)
            self._ct_idle_w.append(power.idle_power(ctype).total_w)
            self._ct_sleep_w.append(power.sleep_power(ctype))
            self._ct_leak_w.append(power.leakage_power(ctype))
        return idx

    def _lookup_rows(self, codes: np.ndarray) -> np.ndarray:
        """Map group codes to value-table rows, registering new groups."""
        if self._codes_sorted.size:
            pos = np.searchsorted(self._codes_sorted, codes)
            pos_c = np.minimum(pos, self._codes_sorted.size - 1)
            hit = self._codes_sorted[pos_c] == codes
            if hit.all():
                return self._rows_sorted[pos_c]
            missing = np.unique(codes[~hit])
        else:
            missing = np.unique(codes)
        new_rows = []
        next_row = self._V.shape[0]
        for code in missing.tolist():
            smt_level = code % (_SMT_Q + 1)
            rest = code // (_SMT_Q + 1)
            wlevel = rest % (_WQ + 1)
            rest = rest // (_WQ + 1)
            ct_idx = rest % _MAX_CTYPES
            ph_idx = rest // _MAX_CTYPES
            phase = self._phases[ph_idx]
            ctype = self._ctypes[ct_idx]
            perf = microarch.estimate(
                phase, ctype, wlevel / _WQ, smt_level / _SMT_Q
            )
            new_rows.append(
                [
                    perf.ipc,
                    perf.base_cpi,
                    phase.mem_share,
                    phase.branch_share,
                    perf.branch_miss_rate,
                    perf.icache_miss_rate,
                    perf.dcache_miss_rate,
                    perf.itlb_miss_rate,
                    perf.dtlb_miss_rate,
                    power.busy_power(ctype, perf.ipc).total_w,
                    ctype.freq_hz,
                    demanded_fraction_on(phase, ctype),
                    perf.ips(ctype),
                ]
            )
            self._code2row[code] = next_row
            next_row += 1
        self._V = np.vstack([self._V, np.array(new_rows)])
        order = np.argsort(np.fromiter(self._code2row, dtype=np.int64))
        all_codes = np.fromiter(self._code2row, dtype=np.int64)
        all_rows = np.fromiter(self._code2row.values(), dtype=np.int64)
        self._codes_sorted = all_codes[order]
        self._rows_sorted = all_rows[order]
        pos = np.searchsorted(self._codes_sorted, codes)
        return self._rows_sorted[pos]

    # ------------------------------------------------------------------
    # Structure maintenance (called by System)
    # ------------------------------------------------------------------

    def mark_structure_dirty(self) -> None:
        self._layout_dirty = True
        self._struct_ver += 1

    def on_arrival(self, tid: int) -> None:
        self.active[tid] = True
        self._struct_ver += 1

    def set_online(self, core_id: int, online: bool) -> None:
        self.online[core_id] = online
        self._struct_ver += 1

    def on_core_type_changed(self, core_id: int, ctype) -> None:
        self.ctype_idx[core_id] = self._register_ctype(ctype)
        self._demand_ver += 1
        self._ctype_change_ver += 1

    def set_blocked(self, tid: int, blocked: bool) -> None:
        """Barrier block/release: mirrors ``TaskState.BLOCKED``."""
        self.active[tid] = not blocked
        self._struct_ver += 1

    def set_barrier_stop(self, tid: int, stop_instr: float) -> None:
        """Advance a task's next barrier stop (no cache depends on it:
        the stop only enters the per-period slice limit, which is
        recomputed from the arrays every period)."""
        self.barrier_stop[tid] = stop_instr
        self._bounded = True

    def _core_power_rows(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        cache = self._core_pw_cache
        if cache is None or cache[0] != self._ctype_change_ver:
            freq_q = np.asarray(self._ct_freq)[self.ctype_idx]
            idle_w_q = np.asarray(self._ct_idle_w)[self.ctype_idx]
            sleep_w_q = np.asarray(self._ct_sleep_w)[self.ctype_idx]
            cache = (self._ctype_change_ver, freq_q, idle_w_q, sleep_w_q)
            self._core_pw_cache = cache
        return cache[1], cache[2], cache[3]

    def _refresh_phase_state(self) -> "np.ndarray | None":
        """Vectorised ``phase_at`` + ``instructions_until_phase_change``.

        Recomputes the active phase and the instructions remaining in
        the current segment for every multi-segment task at its current
        progress, exactly as :class:`~repro.workload.phases.PhaseSchedule`
        does scalar-wise (``%`` on positive floats is ``np.mod``;
        ``bisect_right`` is a row count of boundaries <= progress).
        Returns the changed-phase mask over the multi-segment rows, or
        None when no phase moved; bumps the demand version when one did.
        """
        p = self.progress[self._multi_idx]
        p2 = np.where(self._mcyc, np.mod(p, self._mC), p)
        if not ((self._m_lo <= p2) & (p2 < self._m_hi)).all():
            # Some task left its segment: count the boundaries again.
            # Inside the bracket the count cannot move (the boundaries
            # ascend), so only the distance to the segment end does.
            idx = np.sum(self._mB <= p2[:, None], axis=1)
            self._m_lo = self._mB_lo[self._mrow, idx]
            self._m_hi = self._mB[self._mrow, idx]
            idx_phase = np.minimum(idx, self._mk - 1)
            new_key = self._mseg_phase[self._mrow, idx_phase]
            changed = new_key != self.phase_key[self._multi_idx]
        else:
            changed = None
        self.until_boundary[self._multi_idx] = self._m_hi - p2
        if changed is None or not changed.any():
            return None
        self.phase_key[self._multi_idx] = new_key
        self._demand_ver += 1
        return changed

    def on_migration(self, tid: int, warmup_s: float) -> None:
        """A task moved queues: follow it and start its cache warm-up."""
        self.warmup[tid] = warmup_s
        if warmup_s > 0.0:
            self._warming = True
        self.core_of[tid] = self.tasks[tid].core_id
        self.mark_structure_dirty()

    def _ensure_layout(self) -> None:
        """Gather run-queue membership (slot order) and SMT flags."""
        if not self._layout_dirty:
            return
        members: list[int] = []
        member_queue: list[int] = []
        for q in self.runqueues:
            qid = q.core.core_id
            self.smt_core[qid] = q.smt
            for task in q.tasks:
                members.append(task.tid)
                member_queue.append(qid)
        self._members = np.array(members, dtype=np.intp)
        self._member_queue = np.array(member_queue, dtype=np.intp)
        self._any_smt = bool(self.smt_core.any())
        self._layout_dirty = False

    def reset_window_accounting(self) -> None:
        self.t_cnt[:] = 0.0
        self.epoch_energy[:] = 0.0
        self.c_cnt[:] = 0.0
        self.q_epoch_energy[:] = 0.0
        self.q_epoch_time[:] = 0.0

    # ------------------------------------------------------------------
    # One CFS period, all cores
    # ------------------------------------------------------------------

    def simulate_period(self, period_s: float) -> "tuple[float, float]":
        """Advance every online core by one period; returns (instr, energy).

        A steady period re-applies the increments of the last full
        period computed under the same key instead of recomputing them
        (``docs/kernel.md``, "Steady periods").  Warm-ups, progress and
        barrier stops move without a version bump, so it replays only
        when no warm-up is decaying and no task's slice limit falls
        below its grant.
        """
        self._ensure_layout()

        # Phase + boundary state is maintained by _refresh_phase_state
        # (at init and after each period's execution), so the per-task
        # rows are already positioned at the current progress.
        any_warm = self._warming = (
            self._warming and bool((self.warmup > 0.0).any())
        )
        key = (self._struct_ver, self._demand_ver, period_s)
        memo = self._memo
        limit_over_ips = slow = None
        if not any_warm and memo is not None and memo.key == key:
            # The memo's tasks on the one-step path are this period's
            # executing tasks; one that would sub-step sends the period
            # down the full path, which reuses both arrays.
            limit_over_ips = self._limit_over_ips(memo.ips_t)
            slow = memo.fast & (limit_over_ips < memo.granted)
            if not slow.any():
                self.steady_periods += 1
                return self._apply(memo, any_warm)
        inc = self._increments(period_s, any_warm, limit_over_ips, slow)
        if inc.replayable:
            inc.key = key
            self._memo = inc
        return self._apply(inc, any_warm)

    def _limit_over_ips(self, ips_t: np.ndarray) -> np.ndarray:
        """Each task's slice limit in seconds at its current rate: the
        instructions to its next phase boundary, exit or barrier stop,
        over its IPS."""
        if not self._bounded:
            # min(b, inf) == b bit for bit: no total, no stop.  The
            # boundary distance is positive, so no 0/0 can arise.
            return self.until_boundary / ips_t
        with np.errstate(invalid="ignore"):
            limit = np.minimum(
                self.until_boundary,
                np.maximum(self.behavior_total - self.progress, 0.0),
            )
            # Barrier stop: ``inf`` (no barrier) keeps the minimum an
            # identity; a near stop forces the slow path, which breaks
            # at the barrier exactly like the reference slice loop.
            limit = np.minimum(
                limit, np.maximum(self.barrier_stop - self.progress, 0.0)
            )
            return limit / ips_t

    def _increments(
        self,
        period_s: float,
        any_warm: bool,
        limit_over_ips: "np.ndarray | None",
        slow: "np.ndarray | None",
    ) -> "PeriodIncrements":
        """Compute what one period adds to the kernel state.

        Leaves the accumulators, progress, phases and utilisation to
        :meth:`_apply`; only slow-path tasks (which sub-step through
        their own progress and warm-up) and the thermal RC state are
        advanced here.  ``limit_over_ips`` and ``slow`` are the arrays a
        failed replay check already computed, or None.
        """
        n, m = self.n_tasks, self.n_cores

        # Scheduling structure (who is runnable where) and fair shares.
        # Built before the perf rows: on SMT cores the per-task
        # contention level is part of the row code and needs the
        # run-queue slot layout.
        sched_key = self._struct_ver
        if self._sched_cache is None or self._sched_cache["key"] != sched_key:
            run_m = self.active[self._members] & self.online[self._member_queue]
            r_mem = self._members[run_m]
            r_q = self._member_queue[run_m]
            nr = np.bincount(r_q, minlength=m)
            capacity = np.maximum(
                period_s - CONTEXT_SWITCH_COST_S * nr.astype(np.float64), 0.0
            )
            if self._any_smt:
                # Two hardware threads per SMT core, but only when the
                # queue is shared — a lone occupant owns the core as on
                # a non-SMT core (matches the reference's conditional
                # ``capacity * 2.0`` — exact in binary FP).
                capacity = np.where(
                    self.smt_core & (nr > 1), capacity * 2.0, capacity
                )
            if r_mem.size:
                starts = np.zeros(m, dtype=np.intp)
                np.cumsum(nr[:-1], out=starts[1:])
                col = np.arange(r_mem.size, dtype=np.intp) - starts[r_q]
                width = int(nr.max())
                M = np.full((m, width), -1, dtype=np.intp)
                M[r_q, col] = r_mem
                valid = M >= 0
                M_safe = np.where(valid, M, 0)
            else:
                M = np.zeros((m, 0), dtype=np.intp)
                valid = np.zeros((m, 0), dtype=bool)
                M_safe = M
            self._sched_cache = {
                "key": sched_key,
                "run_m": run_m,
                "r_mem": r_mem,
                "r_q": r_q,
                "nr": nr,
                "capacity": capacity,
                "M": M,
                "valid": valid,
                "M_safe": M_safe,
            }
            self._grants_cache = None
        sc = self._sched_cache
        r_mem, r_q, nr = sc["r_mem"], sc["r_q"], sc["nr"]
        capacity, M, valid, M_safe = (
            sc["capacity"], sc["M"], sc["valid"], sc["M_safe"],
        )

        # Per-task SMT contention, fixed for the period: the summed
        # memory share of the *other* runnable tasks on the same SMT
        # core.  The per-core total replays the reference's
        # left-to-right slot-order accumulation as a masked cumsum row;
        # ``total - own`` is exactly 0.0 for a single occupant.
        smt_cont: "np.ndarray | None" = None
        smt_level: "np.ndarray | None" = None
        if self._any_smt and r_mem.size:
            mem_t = np.asarray(self._phase_mem)[self.phase_key]
            mem_pad = np.where(valid, mem_t[M_safe], 0.0)
            totals = (
                np.cumsum(mem_pad, axis=1)[:, -1] if mem_pad.shape[1] else
                np.zeros(m)
            )
            smt_cont = np.zeros(n)
            smt_cont[r_mem] = np.where(
                self.smt_core[r_q],
                np.minimum(totals[r_q] - mem_t[r_mem], 1.0),
                0.0,
            )
            # Same half-even rounding as ``microarch.estimate``.
            smt_level = np.rint(
                np.clip(smt_cont, 0.0, 1.0) * _SMT_Q
            ).astype(np.int64)

        # Per-task perf/demand rows (cached while no warm-up is decaying
        # and no phase/core-type/placement change occurred — a migration
        # can move a task onto a different core type, so the structure
        # version is part of the key; SMT contention only moves with
        # the phase/membership state the key already covers).
        rows_key = (self._struct_ver, self._demand_ver)
        if any_warm or self._rows_cache is None or self._rows_cache[0] != rows_key:
            if any_warm:
                frac = np.clip(
                    np.where(self.warmup > 0.0, self.warmup / CACHE_WARMUP_S, 0.0),
                    0.0,
                    1.0,
                )
                wlevel = np.rint(frac * _WQ).astype(np.int64)
            else:
                wlevel = np.zeros(n, dtype=np.int64)
            codes = (
                (self.phase_key * _MAX_CTYPES + self.ctype_idx[self.core_of])
                * (_WQ + 1)
                + wlevel
            ) * (_SMT_Q + 1)
            if smt_level is not None:
                codes = codes + smt_level
            rows = self._lookup_rows(codes)
            V = self._V[rows]
            self._rows_cache = None if any_warm else (rows_key, rows, V)
        else:
            _, rows, V = self._rows_cache

        demand_t = V[:, _DEMAND]
        gkey = (self._struct_ver, self._demand_ver)
        if self._grants_cache is not None and self._grants_cache[0] == gkey:
            granted = self._grants_cache[1]
        else:
            granted = self._fair_shares_batched(
                demand_t, period_s, capacity, M, valid, M_safe
            )
            self._grants_cache = (gkey, granted)

        # Execute the granted slices.
        ips_t = V[:, _IPS]
        if limit_over_ips is None:
            limit_over_ips = self._limit_over_ips(ips_t)
        runnable_t = np.zeros(n, dtype=bool)
        runnable_t[r_mem] = True
        # The slice loop in the reference (`while remaining > 1e-12`)
        # never runs for grants at or below its floor — an underweight
        # task can be granted ~1e-150 s and execute exactly nothing.
        exec_t = runnable_t & (granted > 1e-12)
        if slow is None:
            slow = exec_t & (limit_over_ips < granted)
        fast = exec_t & ~slow

        inc = PeriodIncrements()
        inc.granted = granted
        inc.ips_t = ips_t
        inc.fast = fast
        inc.any_fast = any_fast = bool(fast.any())
        inc.demand_t = demand_t
        S = np.zeros((n, N_COUNTERS))
        E = np.zeros(n)
        gu = np.zeros(n)

        if any_fast:
            # Column 3 (instructions) and column 11 (the slice) carry
            # the fast tasks' progress and warm-up steps to _apply.
            step = np.where(fast, granted, 0.0)
            freq = V[:, _FREQ]
            cycles = step * freq
            instr = V[:, _IPC] * cycles
            busy_cy = instr * V[:, _BASE_CPI]
            idle_cy = np.maximum(cycles - busy_cy, 0.0)
            mem_i = instr * V[:, _MEM_SHARE]
            br_i = instr * V[:, _BR_SHARE]
            S[:, 0] = busy_cy
            S[:, 1] = idle_cy
            S[:, 3] = instr
            S[:, 4] = mem_i
            S[:, 5] = br_i
            S[:, 6] = br_i * V[:, _BR_MISS]
            S[:, 7] = instr * V[:, _L1I]
            S[:, 8] = mem_i * V[:, _L1D]
            S[:, 9] = instr * V[:, _ITLB]
            S[:, 10] = mem_i * V[:, _DTLB]
            S[:, 11] = step
            S[~fast] = 0.0
            E = np.where(fast, V[:, _POWER_W] * step, 0.0)
            gu = step

        inc.slow_exited = None
        any_slow = bool(slow.any())
        if any_slow:
            inc.slow_exited = exited = np.zeros(n, dtype=bool)
            for t in np.nonzero(slow)[0].tolist():
                contention = (
                    float(smt_cont[t]) if smt_cont is not None else 0.0
                )
                self._execute_slow(
                    int(t), float(granted[t]), S, E, gu, exited, contention
                )
        inc.S = S
        inc.E = E
        inc.gu = gu

        # Core-side accounting, in run-queue slot order.
        instr_slice = S[:, 3]
        inc.add_at_q = r_q
        inc.add_at_rows = None
        if r_mem.size:
            inc.add_at_rows = S[r_mem]
            gu_pad = np.where(valid, gu[M_safe], 0.0)
            busy_q = (
                np.cumsum(gu_pad, axis=1)[:, -1] if gu_pad.shape[1] else
                np.zeros(m)
            )
            e_pad = np.where(valid, E[M_safe], 0.0)
            busy_e_q = (
                np.cumsum(e_pad, axis=1)[:, -1] if e_pad.shape[1] else
                np.zeros(m)
            )
            ci_pad = np.where(valid, instr_slice[M_safe], 0.0)
            ci_q = (
                np.cumsum(ci_pad, axis=1)[:, -1] if ci_pad.shape[1] else
                np.zeros(m)
            )
            u_mem = np.where(
                sc["run_m"] & self.is_user[self._members],
                instr_slice[self._members],
                0.0,
            )
            period_instr = float(np.cumsum(u_mem)[-1]) if u_mem.size else 0.0
        else:
            busy_q = np.zeros(m)
            busy_e_q = np.zeros(m)
            ci_q = np.zeros(m)
            period_instr = 0.0
        inc.ci_q = ci_q
        inc.period_instr = period_instr

        # Idle / sleep split per core.
        freq_q, idle_w_q, sleep_w_q = self._core_power_rows()
        has_run = (nr > 0) & self.online
        empty = self.online & ~has_run

        idle_s_q = np.zeros(m)
        sleep_s_q = np.zeros(m)
        idle_e_q = np.zeros(m)
        sleep_e_q = np.zeros(m)

        sleep_s_q[empty] = period_s
        sleep_e_q[empty] = sleep_w_q[empty] * period_s
        inc.sleep_cy_empty = np.where(empty, period_s * freq_q, 0.0)

        leftover = np.where(has_run, np.maximum(period_s - busy_q, 0.0), 0.0)
        shallow = np.minimum(leftover, IDLE_TO_SLEEP_LATENCY_S)
        deep = leftover - shallow
        idle_s_q = np.where(has_run, shallow, idle_s_q)
        idle_e_q = np.where(has_run, idle_w_q * shallow, idle_e_q)
        sleep_s_q = np.where(has_run, deep, sleep_s_q)
        sleep_e_q = np.where(has_run, sleep_w_q * deep, sleep_e_q)
        inc.sleep_cy_deep = np.where(has_run, deep * freq_q, 0.0)

        # _account(): thermal feedback, then the per-core totals.
        thermal_stepped = False
        thermal_e_q = np.zeros(m)
        if self._thermal_on and self._thermal_idx.size:
            idx = self._thermal_idx[self.online[self._thermal_idx]]
            if idx.size:
                thermal_stepped = True
                base_e_q = busy_e_q + idle_e_q + sleep_e_q
                base_power = base_e_q[idx] / period_s
                new_t, new_p = thermal.step_batch(
                    self.thermal_temp[idx],
                    self.thermal_peak[idx],
                    base_power,
                    self._thermal_r[idx],
                    self._thermal_decay[idx],
                )
                self.thermal_temp[idx] = new_t
                self.thermal_peak[idx] = new_p
                powered_fraction = (busy_q[idx] + idle_s_q[idx]) / period_s
                base_leak = np.asarray(self._ct_leak_w)[self.ctype_idx[idx]]
                thermal_e_q[idx] = (
                    thermal.extra_leakage_batch(new_t, base_leak)
                    * powered_fraction
                    * period_s
                )

        energy_q = busy_e_q + idle_e_q + sleep_e_q + thermal_e_q
        online_f = self.online
        inc.energy_q = np.where(online_f, energy_q, 0.0)
        inc.time_q = np.where(online_f, period_s, 0.0)
        inc.busy_q = np.where(online_f, busy_q, 0.0)
        inc.idle_q = np.where(online_f, idle_s_q, 0.0)
        inc.sleep_q = np.where(online_f, sleep_s_q, 0.0)
        inc.period_energy = float(np.cumsum(inc.energy_q)[-1]) if m else 0.0

        inc.replayable = not (
            any_warm or any_slow or self._any_smt or thermal_stepped
        )
        return inc

    def _apply(
        self, inc: "PeriodIncrements", any_warm: bool
    ) -> "tuple[float, float]":
        """Fold one period's increments into the state, in the order the
        reference kernel accumulates them; returns (instr, energy).

        Reads ``inc`` and never writes it, so a memoised period can be
        applied again.
        """
        S = inc.S
        fast = inc.fast
        exited = inc.slow_exited
        if inc.any_fast:
            self.progress = np.where(fast, self.progress + S[:, 3], self.progress)
            if any_warm:
                self.warmup = np.where(
                    fast, np.maximum(self.warmup - S[:, 11], 0.0), self.warmup
                )
            if self._exits:
                done = fast & (self.behavior_total - self.progress <= 0.0)
                exited = done if exited is None else done | exited

        # Merge once per task (matches the reference's slice-local merge).
        self.t_cnt += S
        self.total_instr += S[:, 3]
        self.total_busy += inc.gu
        self.total_energy += inc.E
        self.epoch_energy += inc.E

        # Core-side accounting, in run-queue slot order.
        if inc.add_at_rows is not None:
            np.add.at(self.c_cnt, inc.add_at_q, inc.add_at_rows)
        self.core_instr += inc.ci_q
        self.c_cnt[:, 2] += inc.sleep_cy_empty
        self.c_cnt[:, 2] += inc.sleep_cy_deep
        self.q_total_energy += inc.energy_q
        self.q_epoch_energy += inc.energy_q
        self.q_epoch_time += inc.time_q
        self.q_total_busy += inc.busy_q
        self.q_total_idle += inc.idle_q
        self.q_total_sleep += inc.sleep_q

        # Exits: flip state eagerly so queue membership checks stay valid.
        # A thread can retire its last instruction mid-warm-up; it never
        # runs again, so its warm-up is dropped rather than left to keep
        # every later period off the steady path.
        if exited is not None and exited.any():
            for t in np.nonzero(exited)[0].tolist():
                self.tasks[t].state = TaskState.EXITED
            self.active[exited] = False
            self.warmup[exited] = 0.0
            self._struct_ver += 1

        # Re-position multi-segment tasks at their new progress, then
        # fold the post-execution demand into the utilisation EWMA.  A
        # phase can only move for a task that executed, so correcting
        # just the changed rows reproduces the reference's full
        # re-evaluation (unchanged rows re-derive the same value).
        demand_post = inc.demand_t
        if self._n_multi:
            changed = self._refresh_phase_state()
            if changed is not None:
                ids = self._multi_idx[changed]
                codes = (
                    (
                        self.phase_key[ids] * _MAX_CTYPES
                        + self.ctype_idx[self.core_of[ids]]
                    )
                    * (_WQ + 1)
                ) * (_SMT_Q + 1)
                # Two statements: _lookup_rows may grow (rebind) _V.
                rows2 = self._lookup_rows(codes)
                demand_post = demand_post.copy()
                demand_post[ids] = self._V[rows2, _DEMAND]
        util_mask = self.active & self.online[self.core_of]
        self.util = np.where(
            util_mask,
            UTIL_DECAY * self.util + self._one_minus_decay * demand_post,
            self.util,
        )
        return inc.period_instr, inc.period_energy

    # ------------------------------------------------------------------
    # Batched waterfill (fair_shares across every queue at once)
    # ------------------------------------------------------------------

    def _fair_shares_batched(
        self,
        demand_t: np.ndarray,
        period_s: float,
        capacity: np.ndarray,
        M: np.ndarray,
        valid: np.ndarray,
        M_safe: np.ndarray,
    ) -> np.ndarray:
        """Replay the reference kernel's ``fair_shares`` for all queues.

        Rows are queues, columns run-queue slots (ascending — the order
        the scalar set iteration visits).  Masked lanes contribute
        ``0.0`` to every cumulative sum, which is the identity, so each
        row's float trajectory is bit-identical to the scalar loop's.
        """
        n = self.n_tasks
        granted = np.zeros(n)
        if not M.shape[1]:
            return granted
        demands_pad = np.where(valid, demand_t[M_safe] * period_s, 0.0)
        weights_pad = np.where(valid, self.weight[M_safe], 0.0)
        grants = np.zeros_like(demands_pad)
        rem = demands_pad > 0.0
        available = capacity.copy()
        row_alive = rem.any(axis=1) & (available > 1e-15)
        while row_alive.any():
            lanes = rem & row_alive[:, None]
            w_eff = np.where(lanes, weights_pad, 0.0)
            tw = np.cumsum(w_eff, axis=1)[:, -1]
            tw_safe = np.where(row_alive, tw, 1.0)
            with np.errstate(invalid="ignore", divide="ignore"):
                offer = available[:, None] * weights_pad / tw_safe[:, None]
            need = demands_pad - grants
            take = np.where(lanes, np.minimum(offer, need), 0.0)
            grants = grants + take
            consumed = np.cumsum(take, axis=1)[:, -1]
            available = available - consumed
            satisfied = lanes & (grants >= demands_pad - 1e-15)
            row_alive &= satisfied.any(axis=1)
            rem &= ~satisfied
            row_alive &= rem.any(axis=1) & (available > 1e-15)
        granted[M[valid]] = grants[valid]
        return granted

    # ------------------------------------------------------------------
    # Scalar fallback for multi-sub-step slices
    # ------------------------------------------------------------------

    def _execute_slow(
        self,
        t: int,
        granted_s: float,
        S: np.ndarray,
        E: np.ndarray,
        gu: np.ndarray,
        exited: np.ndarray,
        smt_contention: float = 0.0,
    ) -> None:
        """Mirror of the reference kernel's ``_execute_slice`` for one task.

        Runs when a slice sub-steps (phase boundary, exit or barrier
        stop inside the slice) — the identical scalar float sequence,
        reading/writing the arrays instead of a Task object.
        """
        schedule = self._schedules[t]
        total = float(self.behavior_total[t])
        stop = float(self.barrier_stop[t])
        ctype = self._ctypes[self.ctype_idx[self.core_of[t]]]
        progress = float(self.progress[t])
        warmup = float(self.warmup[t])
        slice_block = CounterBlock()
        remaining = granted_s
        instructions = 0.0
        energy = 0.0
        is_active = True
        while remaining > 1e-12 and is_active:
            barrier_room = max(stop - progress, 0.0)
            if barrier_room <= 0.0:
                break
            phase = schedule.phase_at(progress)
            warmup_fraction = warmup / CACHE_WARMUP_S if warmup > 0 else 0.0
            perf = microarch.estimate(
                phase, ctype, warmup_fraction, smt_contention
            )
            ips = perf.ips(ctype)

            boundary = schedule.instructions_until_phase_change(progress)
            step_limit_instr = min(
                boundary, max(total - progress, 0.0), barrier_room
            )
            step_s = remaining
            if step_limit_instr != float("inf") and ips > 0:
                step_s = min(step_s, step_limit_instr / ips)
            step_s = max(step_s, 1e-9)
            step_s = min(step_s, remaining)

            retired = slice_block.charge_execution(
                perf, ctype, step_s, phase.mem_share, phase.branch_share
            )
            slice_energy = power.busy_power(ctype, perf.ipc).total_w * step_s
            progress += retired
            if max(total - progress, 0.0) <= 0:
                is_active = False
            warmup = max(warmup - step_s, 0.0)

            instructions += retired
            energy += slice_energy
            remaining -= step_s
        self.progress[t] = progress
        self.warmup[t] = warmup
        exited[t] = not is_active
        S[t, 0] = slice_block.cy_busy
        S[t, 1] = slice_block.cy_idle
        S[t, 2] = slice_block.cy_sleep
        S[t, 3] = slice_block.instructions
        S[t, 4] = slice_block.mem_instructions
        S[t, 5] = slice_block.branch_instructions
        S[t, 6] = slice_block.branch_mispredicts
        S[t, 7] = slice_block.l1i_misses
        S[t, 8] = slice_block.l1d_misses
        S[t, 9] = slice_block.itlb_misses
        S[t, 10] = slice_block.dtlb_misses
        S[t, 11] = slice_block.busy_time_s
        E[t] = energy
        gu[t] = granted_s - remaining
