"""Run metrics: the quantities the paper's figures are built from.

The headline metric is **energy efficiency** — throughput per Watt,
equivalently instructions per Joule (Eq. 10/11 optimise its per-core
weighted sum; the figures report the whole-chip value).  A
:class:`RunResult` aggregates a full simulation, and keeps a per-epoch
history so experiments can plot convergence and count migrations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.faults import InjectionCounts


@dataclass(frozen=True)
class EpochRecord:
    """Aggregate outcome of one SmartBalance epoch (or epoch-equivalent
    window under a baseline balancer)."""

    epoch_index: int
    start_time_s: float
    duration_s: float
    instructions: float
    energy_j: float
    migrations: int
    #: Wall-clock seconds the balancer itself spent deciding (overhead).
    balancer_time_s: float

    @property
    def degenerate(self) -> bool:
        """True when the epoch's energy accounting is unusable.

        ``energy_j <= 0`` (every core offline, or a zero-length window)
        makes ``ips_per_watt`` report 0.0 — a value that must not be
        averaged into efficiency figures as if the chip did work for
        free.  Consumers filter on this flag; the observability layer
        counts and flags such epochs instead of silently zeroing them.
        """
        return self.energy_j <= 0

    @property
    def ips_per_watt(self) -> float:
        """Energy efficiency over the epoch (instructions per Joule).

        0.0 for degenerate epochs — check :attr:`degenerate` before
        treating that as a real efficiency.
        """
        return self.instructions / self.energy_j if self.energy_j > 0 else 0.0


@dataclass(frozen=True)
class CoreStats:
    """Lifetime per-core accounting."""

    core_id: int
    core_type_name: str
    instructions: float
    energy_j: float
    busy_s: float
    idle_s: float
    sleep_s: float
    #: Peak junction temperature (deg C); None when the run had the
    #: thermal model disabled.
    peak_temp_c: "float | None" = None

    @property
    def utilisation(self) -> float:
        total = self.busy_s + self.idle_s + self.sleep_s
        return self.busy_s / total if total > 0 else 0.0


@dataclass(frozen=True)
class ResilienceStats:
    """Fault-injection and graceful-degradation accounting for a run.

    The injection side counts what the fault models actually did; the
    defence side counts what the resilience layer did about it.  A
    mitigated run under faults shows both sides non-zero; a clean run
    shows all zeros.
    """

    # -- injection side (what the FaultPlan inflicted) ----------------
    sensor_dropouts: int = 0
    sensor_stuck: int = 0
    sensor_spikes: int = 0
    counter_wraps: int = 0
    counter_saturations: int = 0
    migrations_lost: int = 0
    migrations_delayed: int = 0
    hotplug_events: int = 0
    throttle_events: int = 0
    # -- defence side (what the resilience layer did) -----------------
    samples_rejected: int = 0
    rejects_by_reason: "dict[str, int]" = field(default_factory=dict)
    fallback_rows_used: int = 0
    threads_dropped: int = 0
    samples_rebaselined: int = 0
    watchdog_trips: int = 0
    watchdog_fallback_epochs: int = 0
    #: Always 0: the annealer has no time budget to cut a run short or
    #: skip an epoch.  Kept because every serialised result, and so
    #: every result digest and cached run, carries both fields.
    truncated_epochs: int = 0
    budget_skipped_epochs: int = 0
    hotplug_masked_epochs: int = 0
    #: Placements the kernel refused because the target was offline.
    offline_placements_blocked: int = 0
    # -- adaptation side (online model maintenance) -------------------
    drift_detections: int = 0
    model_updates: int = 0
    model_rollbacks: int = 0
    #: Watchdog trips resolved by an online re-fit (repair before
    #: fallback) instead of capability placement.
    watchdog_repairs: int = 0

    @property
    def faults_injected(self) -> int:
        """Total fault events the plan actually delivered: the sum of
        the :class:`~repro.faults.InjectionCounts` fields."""
        return sum(getattr(self, f.name) for f in fields(InjectionCounts))


@dataclass(frozen=True)
class RunResult:
    """Complete outcome of one simulated run."""

    balancer_name: str
    platform_name: str
    duration_s: float
    instructions: float
    energy_j: float
    migrations: int
    epochs: tuple[EpochRecord, ...]
    core_stats: tuple[CoreStats, ...]
    #: Per-task (tid, name, instructions, busy_s, energy_j).
    task_stats: tuple["TaskStats", ...] = ()
    #: Fault/defence accounting; None when the run injected no faults
    #: and the balancer reported no health telemetry.
    resilience: "ResilienceStats | None" = None
    #: Wall-clock balancer phase breakdown, ``((phase, seconds), ...)``
    #: — e.g. sense/predict/balance for SmartBalance (Fig. 7).  Host
    #: time, not simulation time: excluded from the determinism
    #: fingerprint like ``EpochRecord.balancer_time_s``.
    phase_times: tuple[tuple[str, float], ...] = ()
    #: How many executions it took to produce this result (1 = first
    #: try; >1 means ``on_error="retry"`` recovered a crashed worker).
    #: Host-side execution telemetry, excluded from the determinism
    #: fingerprint like ``phase_times``.
    attempts: int = 1
    #: Governor (joint placement + DVFS) accounting — strategy, OPP
    #: switch counts, final per-cluster levels.  ``None`` for every
    #: non-governor balancer, and serialised only when present so
    #: ``governor="fixed"`` results stay byte-identical.
    governor: "dict | None" = None
    #: Scenario accounting (repro.scenarios) — request latency
    #: percentiles and SLO misses for open-loop traffic, barrier stall
    #: totals and makespan for barrier groups, co-running core set for
    #: SMT.  ``None`` for every scenario-free run, and serialised only
    #: when present so ``scenario="none"`` results stay byte-identical.
    scenario: "dict | None" = None

    @property
    def ips_per_watt(self) -> float:
        """Whole-run energy efficiency (instructions per Joule).

        Instructions-per-Joule equals average-IPS per average-Watt, the
        paper's 'throughput/Watt'.
        """
        return self.instructions / self.energy_j if self.energy_j > 0 else 0.0

    @property
    def average_power_w(self) -> float:
        return self.energy_j / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def average_ips(self) -> float:
        return self.instructions / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def degenerate_epochs(self) -> int:
        """Epochs whose energy accounting was unusable (see
        :attr:`EpochRecord.degenerate`)."""
        return sum(1 for e in self.epochs if e.degenerate)

    def improvement_over(self, baseline: "RunResult") -> float:
        """Percent energy-efficiency improvement relative to ``baseline``."""
        if baseline.ips_per_watt <= 0:
            raise ValueError("baseline has non-positive energy efficiency")
        return 100.0 * (self.ips_per_watt / baseline.ips_per_watt - 1.0)


@dataclass(frozen=True)
class TaskStats:
    """Lifetime per-task accounting."""

    tid: int
    name: str
    instructions: float
    busy_s: float
    energy_j: float
    migrations: int
