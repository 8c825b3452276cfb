"""Seeded, deterministic fault injection for the sense→predict→balance loop.

A real SmartBalance deployment lives inside a kernel where sensors
glitch, counters wrap, cores get hot-unplugged or thermally throttled
and migrations are lost under load.  This module defines the *fault
models* the simulated platform can be subjected to and the runtime
:class:`FaultInjector` that applies them, so robustness claims are
measurable rather than asserted:

* **sensor faults** — dropout (a read returns zero), stuck-at (the
  sensor latches its current value for a number of reads) and spike
  (a read is multiplied by a large factor), applied per counter channel
  to the noisy readings by :meth:`repro.kernel.simulator.System.build_view`;
* **counter faults** — overflow wrap at a register width and hard
  saturation, applied to a noisy counter row by
  :func:`repro.hardware.counters.apply_overflow`
  / :func:`repro.hardware.counters.apply_saturation`;
* **platform events** — core hotplug offline/online and thermal
  throttling, scheduled on the simulator timeline and executed by
  :class:`repro.kernel.simulator.System`;
* **migration faults** — a requested migration is silently lost or
  applied a few scheduler periods late.

Everything is derived from the single ``FaultPlan.seed``: two runs with
the same plan see bit-identical fault schedules, so resilience
experiments are reproducible and diffable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.hardware.counters import COUNT_FIELDS, apply_overflow, apply_saturation
from repro.obs import NULL_OBS
from repro.obs.events import FAULT_INJECTED

#: Named fault scenarios reachable from the CLI / experiments.
SCENARIOS = ("sensor", "counter", "hotplug", "thermal", "migration", "combined")


# ----------------------------------------------------------------------
# Fault models (pure configuration, all frozen)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SensorFaultModel:
    """Per-read fault rates of one sensor bank.

    Rates are probabilities per individual reading.  A *stuck* sensor
    latches the value it returned when the fault struck and keeps
    returning it for ``stuck_reads`` subsequent reads of the same
    channel.
    """

    dropout_rate: float = 0.0
    stuck_rate: float = 0.0
    stuck_reads: int = 16
    spike_rate: float = 0.0
    spike_magnitude: float = 50.0

    def __post_init__(self) -> None:
        for name in ("dropout_rate", "stuck_rate", "spike_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.stuck_reads < 1:
            raise ValueError(f"stuck_reads must be >= 1, got {self.stuck_reads}")
        if self.spike_magnitude <= 1.0:
            raise ValueError(
                f"spike_magnitude must exceed 1, got {self.spike_magnitude}"
            )

    @property
    def active(self) -> bool:
        return self.dropout_rate > 0 or self.stuck_rate > 0 or self.spike_rate > 0


@dataclass(frozen=True)
class CounterFaultModel:
    """Register-file pathologies of the hardware counter bank."""

    #: Wrap counts modulo ``2**overflow_bits`` (None = no wrapping).
    overflow_bits: Optional[int] = None
    #: Clamp counts at this ceiling (None = no saturation).
    saturate_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.overflow_bits is not None and self.overflow_bits < 8:
            raise ValueError(
                f"overflow_bits must be >= 8, got {self.overflow_bits}"
            )
        if self.saturate_at is not None and self.saturate_at <= 0:
            raise ValueError(f"saturate_at must be positive, got {self.saturate_at}")

    @property
    def active(self) -> bool:
        return self.overflow_bits is not None or self.saturate_at is not None


@dataclass(frozen=True)
class MigrationFaultModel:
    """Loss / delay of requested migrations under kernel load."""

    loss_rate: float = 0.0
    delay_rate: float = 0.0
    #: Scheduler periods a delayed migration waits before applying.
    delay_periods: int = 2

    def __post_init__(self) -> None:
        for name in ("loss_rate", "delay_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.loss_rate + self.delay_rate > 1.0:
            raise ValueError("loss_rate + delay_rate must not exceed 1")
        if self.delay_periods < 1:
            raise ValueError(f"delay_periods must be >= 1, got {self.delay_periods}")

    @property
    def active(self) -> bool:
        return self.loss_rate > 0 or self.delay_rate > 0


@dataclass(frozen=True)
class HotplugEvent:
    """Take a core offline (or bring it back) at a point in time."""

    time_s: float
    core_id: int
    online: bool

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError(f"time_s must be non-negative, got {self.time_s}")
        if self.core_id < 0:
            raise ValueError(f"core_id must be non-negative, got {self.core_id}")


@dataclass(frozen=True)
class ThrottleEvent:
    """Thermally throttle a core for a stretch of the timeline."""

    time_s: float
    core_id: int
    duration_s: float
    #: Frequency multiplier while throttled, in (0, 1).
    freq_scale: float = 0.5

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError(f"time_s must be non-negative, got {self.time_s}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if not 0.0 < self.freq_scale < 1.0:
            raise ValueError(
                f"freq_scale must be in (0, 1), got {self.freq_scale}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """Complete fault configuration of one simulated run."""

    seed: int = 0
    sensor: SensorFaultModel = field(default_factory=SensorFaultModel)
    counter: CounterFaultModel = field(default_factory=CounterFaultModel)
    migration: MigrationFaultModel = field(default_factory=MigrationFaultModel)
    hotplug: tuple[HotplugEvent, ...] = ()
    throttle: tuple[ThrottleEvent, ...] = ()

    @property
    def active(self) -> bool:
        return (
            self.sensor.active
            or self.counter.active
            or self.migration.active
            or bool(self.hotplug)
            or bool(self.throttle)
        )


# ----------------------------------------------------------------------
# Runtime injector
# ----------------------------------------------------------------------

#: Migration fates the injector can decree.
DELIVER, LOSE, DELAY = "deliver", "lose", "delay"


def _channel_str(channel: object) -> str:
    """Flatten a (possibly nested) channel key into ``task:3:power``."""
    parts: list[str] = []

    def walk(node: object) -> None:
        if isinstance(node, tuple):
            for item in node:
                walk(item)
        else:
            parts.append(str(node))

    walk(channel)
    return ":".join(parts)


@dataclass
class InjectionCounts:
    """Mutable tally of every fault actually injected.

    Its fields are the injection side of
    :class:`~repro.kernel.metrics.ResilienceStats`, whose
    ``faults_injected`` sums them.
    """

    sensor_dropouts: int = 0
    sensor_stuck: int = 0
    sensor_spikes: int = 0
    counter_wraps: int = 0
    counter_saturations: int = 0
    migrations_lost: int = 0
    migrations_delayed: int = 0
    hotplug_events: int = 0
    throttle_events: int = 0


class FaultInjector:
    """Applies a :class:`FaultPlan` deterministically at runtime.

    Owns private RNG streams per concern (sensing vs migration) so the
    two fault families cannot perturb each other's schedules, and a
    latch table for stuck-at sensors keyed by sensor channel.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._sensor_rng = random.Random(plan.seed * 0x9E3779B1 + 0xF417)
        self._migration_rng = random.Random(plan.seed * 0x9E3779B1 + 0x1517)
        #: channel key -> (latched value, reads remaining).
        self._stuck: dict[object, tuple[float, int]] = {}
        self.counts = InjectionCounts()
        #: Observability sink plus the current *simulated* time; the
        #: owning simulator assigns the sink and advances the time so
        #: every injected fault emits a timestamped ``fault_injected``
        #: event.  The fault draws themselves never consult either, so
        #: traced and untraced runs inject bit-identical fault schedules.
        self.obs = NULL_OBS
        self.time_s = 0.0

    def _emit(self, kind: str, channel: object = None, **extra: object) -> None:
        """Record one delivered fault as an event + metrics counter."""
        obs = self.obs
        if not obs.enabled:
            return
        payload: dict = {"kind": kind}
        if channel is not None:
            payload["channel"] = _channel_str(channel)
        payload.update(extra)
        obs.tracer.emit(FAULT_INJECTED, self.time_s, **payload)
        obs.metrics.inc(f"faults.injected[{kind}]")

    # -- sensor channel faults -----------------------------------------

    def corrupt_value(self, channel: object, value: float) -> float:
        """Pass one sensor reading through the fault model."""
        model = self.plan.sensor
        if not model.active:
            return value
        latched = self._stuck.get(channel)
        if latched is not None:
            stuck_value, remaining = latched
            if remaining > 1:
                self._stuck[channel] = (stuck_value, remaining - 1)
            else:
                del self._stuck[channel]
            self.counts.sensor_stuck += 1
            self._emit("sensor_stuck", channel, detail="latched_replay")
            return stuck_value
        roll = self._sensor_rng.random()
        if roll < model.dropout_rate:
            self.counts.sensor_dropouts += 1
            self._emit("sensor_dropout", channel)
            return 0.0
        roll -= model.dropout_rate
        if roll < model.stuck_rate:
            self._stuck[channel] = (value, model.stuck_reads)
            self.counts.sensor_stuck += 1
            self._emit("sensor_stuck", channel, detail="latched")
            return value
        roll -= model.stuck_rate
        if roll < model.spike_rate:
            self.counts.sensor_spikes += 1
            self._emit("sensor_spike", channel)
            return value * model.spike_magnitude
        return value

    def corrupt_counts(self, owner: object, row: "list[float]") -> None:
        """Apply sensor + counter faults to one noisy counter row, in
        place.  Register ``name`` of ``owner`` is the sensor channel
        ``(owner, name)``."""
        if self.plan.sensor.active:
            # Every counter register; busy time is kernel bookkeeping
            # and cannot glitch this way.
            for column, name in enumerate(COUNT_FIELDS):
                row[column] = self.corrupt_value((owner, name), row[column])
        model = self.plan.counter
        if model.overflow_bits is not None:
            wrapped = apply_overflow(row, model.overflow_bits)
            self.counts.counter_wraps += wrapped
            if wrapped:
                self._emit("counter_wrap", owner, count=wrapped)
        if model.saturate_at is not None:
            saturated = apply_saturation(row, model.saturate_at)
            self.counts.counter_saturations += saturated
            if saturated:
                self._emit("counter_saturation", owner, count=saturated)

    def corrupt_power(self, owner: object, value: float) -> float:
        """Pass one power-sensor reading through the fault model."""
        return self.corrupt_value((owner, "power"), value)

    # -- migration faults ----------------------------------------------

    def migration_fate(self) -> tuple[str, int]:
        """Decide one requested migration's fate.

        Returns ``(DELIVER, 0)``, ``(LOSE, 0)`` or
        ``(DELAY, periods)``.
        """
        model = self.plan.migration
        if not model.active:
            return DELIVER, 0
        roll = self._migration_rng.random()
        if roll < model.loss_rate:
            self.counts.migrations_lost += 1
            self._emit("migration_lost")
            return LOSE, 0
        if roll < model.loss_rate + model.delay_rate:
            self.counts.migrations_delayed += 1
            self._emit("migration_delayed", detail=model.delay_periods)
            return DELAY, model.delay_periods
        return DELIVER, 0


# ----------------------------------------------------------------------
# Scenario presets
# ----------------------------------------------------------------------


def _hotplug_events(n_cores: int, duration_s: float) -> tuple[HotplugEvent, ...]:
    """One early offline/online cycle of the highest-numbered core.

    Core 0 is never unplugged (a kernel keeps the boot CPU online).  The
    victim is the *last* core: heterogeneous platforms enumerate their
    low-capability cores last, and those are the ones a power governor
    actually hot-unplugs.  The outage sits early in the run (15-35 % of
    the timeline) so it never overlaps the thermal-throttle stretch —
    stacking both would remove capacity no balancer can recover.
    """
    if n_cores < 2:
        return ()
    victim = n_cores - 1
    return (
        HotplugEvent(time_s=0.15 * duration_s, core_id=victim, online=False),
        HotplugEvent(time_s=0.35 * duration_s, core_id=victim, online=True),
    )


def _throttle_events(n_cores: int, duration_s: float) -> tuple[ThrottleEvent, ...]:
    """One late thermal-throttle stretch on a mid-capability core.

    Firmware throttling is invisible to the OS view (the core still
    reports its nominal type), so this is the fault the prediction
    watchdog and the sanity-check re-baseline rule exist for.
    """
    victim = n_cores // 2
    return (
        ThrottleEvent(
            time_s=0.55 * duration_s,
            core_id=victim,
            duration_s=0.20 * duration_s,
            freq_scale=0.6,
        ),
    )


def scenario(
    name: str, seed: int = 0, n_cores: int = 4, duration_s: float = 2.4
) -> FaultPlan:
    """Build a named fault scenario for a run of ``duration_s`` seconds.

    The event schedule (victims, timings) is a pure function of the
    arguments; the per-read fault draws are derived from ``seed`` by the
    :class:`FaultInjector` at runtime.  Same arguments, same faults.
    """
    if name not in SCENARIOS:
        raise ValueError(f"unknown fault scenario {name!r}; use one of {SCENARIOS}")
    if n_cores < 1:
        raise ValueError(f"need at least one core, got {n_cores}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")

    sensor = SensorFaultModel()
    counter = CounterFaultModel()
    migration = MigrationFaultModel()
    hotplug: tuple[HotplugEvent, ...] = ()
    throttle: tuple[ThrottleEvent, ...] = ()

    if name in ("sensor", "combined"):
        sensor = SensorFaultModel(
            dropout_rate=0.02,
            stuck_rate=0.01,
            stuck_reads=4,
            spike_rate=0.02,
            spike_magnitude=50.0,
        )
    if name in ("counter", "combined"):
        # 2^26 ~ 6.7e7: busy threads wrap their instruction and cycle
        # counters within one 60 ms epoch on GHz-class cores.
        counter = CounterFaultModel(overflow_bits=26)
    if name in ("hotplug", "combined"):
        hotplug = _hotplug_events(n_cores, duration_s)
    if name in ("thermal", "combined"):
        throttle = _throttle_events(n_cores, duration_s)
    if name in ("migration", "combined"):
        migration = MigrationFaultModel(
            loss_rate=0.15, delay_rate=0.15, delay_periods=3
        )

    return FaultPlan(
        seed=seed,
        sensor=sensor,
        counter=counter,
        migration=migration,
        hotplug=hotplug,
        throttle=throttle,
    )
