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

#: Rows of the per-task accumulator block after the 12 window
#: counters (``t_cnt``): the run's instructions, busy time and energy,
#: then the window's energy.
_T_INSTR = N_COUNTERS
_T_BUSY = N_COUNTERS + 1
_T_ENERGY = N_COUNTERS + 2
_T_EPOCH_ENERGY = N_COUNTERS + 3
_T_ROWS = N_COUNTERS + 4
#: The per-task addend rows a core sums over its run-queue slots:
#: instructions, busy time and energy (rows 0 and 1 of the per-core
#: block take the first two), shaped to index a (queue, slot) matrix.
_SLOT_ROWS = np.array([3, _T_BUSY, _T_ENERGY], dtype=np.intp)[:, None, None]

#: Rows of the per-core accumulator block.
_Q_INSTR = 0
_Q_BUSY = 1
_Q_ENERGY = 2
_Q_EPOCH_ENERGY = 3
_Q_EPOCH_TIME = 4
_Q_IDLE = 5
_Q_SLEEP = 6
_Q_ROWS = 7

#: Rows of the value table ``_V`` (one column per group).  The first
#: five are the slice's per-instruction rates, the next three the rates
#: of derived counts, each in the order of the counters they produce.
_BASE_CPI = 0
_MEM_SHARE = 1
_BR_SHARE = 2
_L1I = 3
_ITLB = 4
_BR_MISS = 5
_L1D = 6
_DTLB = 7
_IPC = 8
_POWER_W = 9
_FREQ = 10
_DEMAND = 11
_IPS = 12
_N_VALUES = 13
#: One-step slice counters, as ``S[rows] = base * V[rates]``: busy
#: cycles, memory and branch instructions, L1I and ITLB misses per
#: instruction; then branch mispredicts per branch, L1D and DTLB
#: misses per memory instruction.
_PER_INSTR_ROWS = np.array([0, 4, 5, 7, 9], dtype=np.intp)
_DERIVED_ROWS = np.array([6, 8, 10], dtype=np.intp)
_DERIVED_BASES = np.array([5, 4, 4], dtype=np.intp)
#: Rows that repeat the slice's instructions and its length (busy
#: time).
_INSTR_ROWS = np.array([3, _T_INSTR], dtype=np.intp)
_STEP_ROWS = np.array([11, _T_BUSY], dtype=np.intp)

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
        # The addend of the per-task accumulator block (16 x n): per
        # task, the slice's 12 counters, then its instructions, busy
        # time, energy and energy again.
        "S",
        # Exits on the slow path (None when no task took it).
        "slow_exited",
        # ``np.add.at`` scatter of the runnable tasks' counter rows
        # into ``c_cnt``, in run-queue slot order (rows None if none).
        "add_at_q",
        "add_at_rows",
        # Per core: the sleep-cycle addend of ``c_cnt[:, 2]``, and the
        # addend of the per-core accumulator block (7 x m).
        "sleep_cy",
        "core",
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
        # Every per-task accumulator is a row of one block, so a period
        # folds them all in with one add; ``t_cnt`` is the (task,
        # counter) view of its first 12 rows.
        self._task_acc = np.zeros((_T_ROWS, n))
        self.t_cnt = self._task_acc[:N_COUNTERS].T
        self.total_instr = self._task_acc[_T_INSTR]
        self.total_busy = self._task_acc[_T_BUSY]
        self.total_energy = self._task_acc[_T_ENERGY]
        self.epoch_energy = self._task_acc[_T_EPOCH_ENERGY]
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
        #: total) or, once a stop is set, at a barrier.  Without them
        #: the slice limit is the distance to the next phase boundary.
        self._exits = bool(np.isfinite(self.behavior_total).any())
        self._barriers = False
        #: Whether a warm-up may be decaying: set by a migration that
        #: starts one, cleared by the first period that finds none.
        self._warming = False

        # --- per-core state -------------------------------------------------
        self.c_cnt = np.zeros((m, N_COUNTERS))
        # The seven per-core accumulators are the rows of one block.
        self._core_acc = np.zeros((_Q_ROWS, m))
        self.core_instr = self._core_acc[_Q_INSTR]
        self.q_total_busy = self._core_acc[_Q_BUSY]
        self.q_total_energy = self._core_acc[_Q_ENERGY]
        self.q_epoch_energy = self._core_acc[_Q_EPOCH_ENERGY]
        self.q_epoch_time = self._core_acc[_Q_EPOCH_TIME]
        self.q_total_idle = self._core_acc[_Q_IDLE]
        self.q_total_sleep = self._core_acc[_Q_SLEEP]
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
        self._V = np.zeros((_N_VALUES, 0))
        #: Registered group codes in ascending order (row 0) over their
        #: value-table columns (row 1).
        self._code_table = np.zeros((2, 0), dtype=np.int64)

        # --- caches and dirty flags -----------------------------------------
        self._layout_dirty = True
        self._struct_ver = 0  # bumps on membership/active/online changes
        self._demand_ver = 0  # bumps on phase/core-type changes
        self._placement_ver = 0  # bumps when a task changes core
        #: Per-task value rows, under (placement, demand, structure on
        #: SMT) versions.
        self._rows_cache: "tuple[tuple, np.ndarray] | None" = None
        #: Run-queue structure (``_schedule``), under ``_struct_ver`` and
        #: the period length.
        self._sched_cache: "dict | None" = None
        #: Grants and the executing mask, under (structure, demand,
        #: period length).
        self._grants_cache: "tuple[tuple, np.ndarray, np.ndarray] | None" = None
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
        table = self._code_table
        if table.shape[1]:
            pos = np.searchsorted(table[0], codes)
            pos_c = np.minimum(pos, table.shape[1] - 1)
            hit = table[0, pos_c] == codes
            if hit.all():
                return table[1, pos_c]
            missing = np.unique(codes[~hit])
        else:
            missing = np.unique(codes)
        new_rows = []
        first_row = self._V.shape[1]
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
                    perf.base_cpi,
                    phase.mem_share,
                    phase.branch_share,
                    perf.icache_miss_rate,
                    perf.itlb_miss_rate,
                    perf.branch_miss_rate,
                    perf.dcache_miss_rate,
                    perf.dtlb_miss_rate,
                    perf.ipc,
                    power.busy_power(ctype, perf.ipc).total_w,
                    ctype.freq_hz,
                    demanded_fraction_on(phase, ctype),
                    perf.ips(ctype),
                ]
            )
        self._V = np.hstack([self._V, np.array(new_rows).T])
        # ``missing`` is sorted and absent from the table, so inserting
        # it at its search positions keeps the table sorted.
        self._code_table = table = np.insert(
            table,
            np.searchsorted(table[0], missing),
            (missing, np.arange(first_row, self._V.shape[1])),
            axis=1,
        )
        return table[1, np.searchsorted(table[0], codes)]

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
        self._barriers = True

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
        self._placement_ver += 1
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
        # min(b, inf) == b bit for bit, so a run without finite totals
        # skips the exit term and one without stops the barrier term.
        limit = self.until_boundary
        if not (self._exits or self._barriers):
            # The boundary distance is positive, so no 0/0 can arise.
            return limit / ips_t
        with np.errstate(invalid="ignore"):
            if self._exits:
                limit = np.minimum(
                    limit, np.maximum(self.behavior_total - self.progress, 0.0)
                )
            if self._barriers:
                # A near stop forces the slow path, which breaks at the
                # barrier exactly like the reference slice loop.
                limit = np.minimum(
                    limit, np.maximum(self.barrier_stop - self.progress, 0.0)
                )
            return limit / ips_t

    def _schedule(self, period_s: float) -> dict:
        """Gather the run-queue structure of the current structure version.

        Everything here is a function of membership, task states, online
        flags and the period length, so it is rebuilt only when
        ``_struct_ver`` or ``period_s`` moves: the runnable members in
        slot order, the padded (queue, slot) matrices, capacities, and
        the masks the period reads.
        """
        n, m = self.n_tasks, self.n_cores
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
        # (queue, slot) matrices of the runnable members: ``M_safe``
        # holds the tid (0 in a padding slot), ``valid`` the real slots.
        width = int(nr.max()) if r_mem.size else 0
        valid = np.zeros((m, width), dtype=bool)
        M_safe = np.zeros((m, width), dtype=np.intp)
        if r_mem.size:
            starts = np.zeros(m, dtype=np.intp)
            np.cumsum(nr[:-1], out=starts[1:])
            col = np.arange(r_mem.size, dtype=np.intp) - starts[r_q]
            valid[r_q, col] = True
            M_safe[r_q, col] = r_mem
        runnable = np.zeros(n, dtype=bool)
        runnable[r_mem] = True
        sc = {
            "key": (self._struct_ver, period_s),
            "r_mem": r_mem,
            "r_q": r_q,
            "capacity": capacity,
            "valid": valid,
            "M_safe": M_safe,
            "weights_pad": np.where(valid, self.weight[M_safe], 0.0),
            "runnable": runnable,
            # Runnable user members in slot order: the period's
            # instruction count sums them.
            "user_mem": r_mem[self.is_user[r_mem]],
            # Cores that ran (only online queues have runnable
            # members), and the tasks whose utilisation decays.
            "has_run": nr > 0,
            "util_mask": self.active & self.online[self.core_of],
            "time_q": np.where(self.online, period_s, 0.0),
        }
        self._sched_cache = sc
        return sc

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
        sc = self._sched_cache
        if sc is None or sc["key"] != (self._struct_ver, period_s):
            sc = self._schedule(period_s)
        r_mem, r_q = sc["r_mem"], sc["r_q"]
        valid, M_safe = sc["valid"], sc["M_safe"]

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

        # Per-task perf/demand rows.  A row's code is its phase, its
        # core's type, its warm-up level and, on SMT cores, its
        # contention level, so the rows are cached while no warm-up is
        # decaying and no phase, core type or placement moved; with an
        # SMT core the membership is an input too.  Arrivals, exits,
        # barrier blocks and a core going on or offline leave them (a
        # thread that hotplug moves is a migration).
        rows_key = (
            self._placement_ver,
            self._demand_ver,
            self._struct_ver if self._any_smt else None,
        )
        cache = self._rows_cache
        if any_warm or cache is None or cache[0] != rows_key:
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
            # Two statements: _lookup_rows may grow (rebind) _V.
            rows = self._lookup_rows(codes)
            V = self._V[:, rows]
            self._rows_cache = None if any_warm else (rows_key, V)
        else:
            V = cache[1]

        demand_t = V[_DEMAND]
        gkey = (self._struct_ver, self._demand_ver, period_s)
        grants = self._grants_cache
        if grants is not None and grants[0] == gkey:
            _, granted, exec_t = grants
        else:
            granted = self._fair_shares_batched(demand_t, period_s, sc)
            # The slice loop in the reference (`while remaining >
            # 1e-12`) never runs for grants at or below its floor — an
            # underweight task can be granted ~1e-150 s and execute
            # exactly nothing.
            exec_t = sc["runnable"] & (granted > 1e-12)
            self._grants_cache = (gkey, granted, exec_t)

        # Execute the granted slices.
        ips_t = V[_IPS]
        if slow is None:
            if limit_over_ips is None:
                limit_over_ips = self._limit_over_ips(ips_t)
            slow = exec_t & (limit_over_ips < granted)
        fast = exec_t & ~slow

        inc = PeriodIncrements()
        inc.granted = granted
        inc.ips_t = ips_t
        inc.fast = fast
        inc.any_fast = any_fast = bool(fast.any())
        inc.demand_t = demand_t
        S = np.zeros((_T_ROWS, n))

        if any_fast:
            # Row 3 (instructions) and row 11 (the slice) carry the
            # fast tasks' progress and warm-up steps to _apply.
            step = np.where(fast, granted, 0.0)
            cycles = step * V[_FREQ]
            instr = V[_IPC] * cycles
            S[_PER_INSTR_ROWS] = instr * V[_BASE_CPI:_BR_MISS]
            S[_DERIVED_ROWS] = S[_DERIVED_BASES] * V[_BR_MISS:_IPC]
            S[1] = np.maximum(cycles - S[0], 0.0)
            S[_INSTR_ROWS] = instr
            S[_STEP_ROWS] = step
            S[_T_ENERGY:] = V[_POWER_W] * step
            S[:, ~fast] = 0.0

        inc.slow_exited = None
        any_slow = bool(slow.any())
        if any_slow:
            inc.slow_exited = exited = np.zeros(n, dtype=bool)
            for t in np.nonzero(slow)[0].tolist():
                contention = (
                    float(smt_cont[t]) if smt_cont is not None else 0.0
                )
                self._execute_slow(
                    int(t), float(granted[t]), S, exited, contention
                )
        inc.S = S

        # Core-side accounting, in run-queue slot order.  One masked
        # cumsum over (addend row, queue, slot) sums each core's
        # instructions, busy time and energy (rows 0-1 of ``core``,
        # and the energy's first term).
        inc.add_at_q = r_q
        inc.add_at_rows = None
        if r_mem.size:
            inc.add_at_rows = S[:N_COUNTERS, r_mem].T
            slots = np.where(sc["valid"], S[_SLOT_ROWS, M_safe], 0.0)
            sums = np.cumsum(slots, axis=2)[:, :, -1]
            # Skipping the masked-out members skips only ``+ 0.0``s.
            user_instr = S[3, sc["user_mem"]]
            inc.period_instr = (
                float(np.cumsum(user_instr)[-1]) if user_instr.size else 0.0
            )
        else:
            sums = np.zeros((3, m))
            inc.period_instr = 0.0
        core = np.empty((_Q_ROWS, m))
        core[:_Q_BUSY + 1] = sums[:2]
        busy_q = core[_Q_BUSY]
        busy_e_q = sums[2]

        # Idle / sleep split per core.  A core that ran idles shallow
        # up to the cpuidle latency and sleeps the rest; an online core
        # with nothing to run (no busy time) sleeps the whole period;
        # an offline core has none of either.
        freq_q, idle_w_q, sleep_w_q = self._core_power_rows()
        leftover = np.maximum(period_s - busy_q, 0.0)
        shallow = np.where(
            sc["has_run"], np.minimum(leftover, IDLE_TO_SLEEP_LATENCY_S), 0.0
        )
        deep = np.where(self.online, leftover - shallow, 0.0)
        core[_Q_IDLE] = shallow
        core[_Q_SLEEP] = deep
        inc.sleep_cy = deep * freq_q
        energy_q = busy_e_q + idle_w_q * shallow + sleep_w_q * deep

        # _account(): thermal feedback, then the per-core totals.
        thermal_stepped = False
        if self._thermal_on and self._thermal_idx.size:
            idx = self._thermal_idx[self.online[self._thermal_idx]]
            if idx.size:
                thermal_stepped = True
                base_power = energy_q[idx] / period_s
                new_t, new_p = thermal.step_batch(
                    self.thermal_temp[idx],
                    self.thermal_peak[idx],
                    base_power,
                    self._thermal_r[idx],
                    self._thermal_decay[idx],
                )
                self.thermal_temp[idx] = new_t
                self.thermal_peak[idx] = new_p
                powered_fraction = (busy_q[idx] + shallow[idx]) / period_s
                base_leak = np.asarray(self._ct_leak_w)[self.ctype_idx[idx]]
                thermal_e_q = np.zeros(m)
                thermal_e_q[idx] = (
                    thermal.extra_leakage_batch(new_t, base_leak)
                    * powered_fraction
                    * period_s
                )
                energy_q = energy_q + thermal_e_q

        core[_Q_ENERGY:_Q_EPOCH_ENERGY + 1] = energy_q
        core[_Q_EPOCH_TIME] = sc["time_q"]
        inc.core = core
        inc.period_energy = float(np.cumsum(energy_q)[-1]) if m else 0.0

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
            np.add(self.progress, S[3], out=self.progress, where=fast)
            if any_warm:
                self.warmup = np.where(
                    fast, np.maximum(self.warmup - S[11], 0.0), self.warmup
                )
            if self._exits:
                done = fast & (self.behavior_total - self.progress <= 0.0)
                exited = done if exited is None else done | exited

        # Merge once per task (matches the reference's slice-local
        # merge), then the core side in run-queue slot order.
        self._task_acc += S
        if inc.add_at_rows is not None:
            np.add.at(self.c_cnt, inc.add_at_q, inc.add_at_rows)
        self.c_cnt[:, 2] += inc.sleep_cy
        self._core_acc += inc.core

        # Exits: flip state eagerly so queue membership checks stay valid.
        # A thread can retire its last instruction mid-warm-up; it never
        # runs again, so its warm-up is dropped rather than left to keep
        # every later period off the steady path.
        util_mask = self._sched_cache["util_mask"]
        if exited is not None and exited.any():
            for t in np.nonzero(exited)[0].tolist():
                self.tasks[t].state = TaskState.EXITED
            self.active[exited] = False
            self.warmup[exited] = 0.0
            self._struct_ver += 1
            util_mask = self.active & self.online[self.core_of]

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
                demand_post[ids] = self._V[_DEMAND, rows2]
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
        self, demand_t: np.ndarray, period_s: float, sc: dict
    ) -> np.ndarray:
        """Replay the reference kernel's ``fair_shares`` for all queues.

        Rows are queues, columns run-queue slots (ascending — the order
        the scalar set iteration visits).  Masked lanes contribute
        ``0.0`` to every cumulative sum, which is the identity, so each
        row's float trajectory is bit-identical to the scalar loop's.
        ``sc`` is the run-queue structure (:meth:`_schedule`).
        """
        granted = np.zeros(self.n_tasks)
        valid = sc["valid"]
        if not valid.shape[1]:
            return granted
        demands_pad = np.where(valid, demand_t[sc["M_safe"]] * period_s, 0.0)
        weights_pad = sc["weights_pad"]
        floor = demands_pad - 1e-15
        grants = np.zeros_like(demands_pad)
        available = sc["capacity"]
        rem = demands_pad > 0.0
        row_alive = rem.any(axis=1) & (available > 1e-15)
        # A dead row's 0/0 offer is masked out of ``take``.
        with np.errstate(invalid="ignore", divide="ignore"):
            while row_alive.any():
                lanes = rem & row_alive[:, None]
                tw = np.cumsum(np.where(lanes, weights_pad, 0.0), axis=1)[:, -1]
                offer = available[:, None] * weights_pad / tw[:, None]
                take = np.where(
                    lanes, np.minimum(offer, demands_pad - grants), 0.0
                )
                grants = grants + take
                satisfied = lanes & (grants >= floor)
                rem = lanes ^ satisfied
                # The reference stops a queue whose round satisfied
                # nobody or everybody; only a queue with both goes on,
                # and only while capacity is left.
                row_alive = satisfied.any(axis=1) & rem.any(axis=1)
                if not row_alive.any():
                    break
                available = available - np.cumsum(take, axis=1)[:, -1]
                row_alive &= available > 1e-15
        # Row-major order over the real slots is the runnable members'
        # order.
        granted[sc["r_mem"]] = grants[valid]
        return granted

    # ------------------------------------------------------------------
    # Scalar fallback for multi-sub-step slices
    # ------------------------------------------------------------------

    def _execute_slow(
        self,
        t: int,
        granted_s: float,
        S: np.ndarray,
        exited: np.ndarray,
        smt_contention: float = 0.0,
    ) -> None:
        """Mirror of the reference kernel's ``_execute_slice`` for one task.

        Runs when a slice sub-steps (phase boundary, exit or barrier
        stop inside the slice) — the identical scalar float sequence,
        reading/writing the arrays instead of a Task object.  Writes
        the task's column of the per-task addend block ``S``.
        """
        schedule = self._schedules[t]
        total = float(self.behavior_total[t])
        stop = float(self.barrier_stop[t])
        ctype = self._ctypes[self.ctype_idx[self.core_of[t]]]
        progress = float(self.progress[t])
        warmup = float(self.warmup[t])
        slice_block = CounterBlock()
        remaining = granted_s
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

            energy += slice_energy
            remaining -= step_s
        self.progress[t] = progress
        self.warmup[t] = warmup
        exited[t] = not is_active
        S[:, t] = (
            slice_block.cy_busy,
            slice_block.cy_idle,
            slice_block.cy_sleep,
            slice_block.instructions,
            slice_block.mem_instructions,
            slice_block.branch_instructions,
            slice_block.branch_mispredicts,
            slice_block.l1i_misses,
            slice_block.l1d_misses,
            slice_block.itlb_misses,
            slice_block.dtlb_misses,
            slice_block.busy_time_s,
            slice_block.instructions,
            granted_s - remaining,
            energy,
            energy,
        )
