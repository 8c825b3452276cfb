"""Typed event catalogue of the observability subsystem.

Every event a :class:`~repro.obs.tracer.Tracer` records is a flat JSON
object with two universal fields — ``type`` (one of :data:`EVENT_TYPES`)
and ``t_s`` (the *simulated* time it happened at, seconds) — plus the
per-type payload described in :data:`EVENT_SCHEMA`.  Keeping the schema
as data rather than classes means a trace written by one version can be
validated and rendered by another, and the JSONL files stay greppable.
A field or kind that a version stops writing moves to
:data:`RETIRED_FIELDS` or :data:`RETIRED_MITIGATION_KINDS` instead of
disappearing, so older traces keep validating.

Timestamps are simulation time on purpose: wall-clock durations live in
the metrics registry's timing section and in the single
``phase_profile`` summary event, so the rest of the stream is
bit-deterministic for a given :class:`~repro.runner.spec.RunSpec` (the
determinism suite compares streams with
:func:`deterministic_events`).
"""

from __future__ import annotations

from numbers import Number
from typing import Iterable

# ---------------------------------------------------------------------------
# Event types
# ---------------------------------------------------------------------------

#: Lifecycle of a run.
RUN_START = "run_start"
RUN_END = "run_end"
#: Metrics-epoch boundaries (independent of the balancer interval).
EPOCH_START = "epoch_start"
EPOCH_END = "epoch_end"
#: An epoch whose energy accounting is degenerate (``energy_j <= 0``):
#: its ``ips_per_watt`` is meaningless and must not be averaged in.
DEGENERATE_EPOCH = "degenerate_epoch"
#: One sense phase: what the balancer observed and what it trusted.
SENSE = "sense"
#: Last epoch's per-thread prediction checked against this epoch's
#: realised measurement (the Table 4 accuracy data).
PREDICTION_CHECK = "prediction_check"
#: One simulated-annealing run (Algorithm 1) with a sampled trace.
ANNEAL = "anneal"
#: Outcome of one sense→predict→balance pass.
DECISION = "decision"
#: One applied thread migration, with its cause.
MIGRATION = "migration"
#: One fault the injection layer actually delivered.
FAULT_INJECTED = "fault_injected"
#: One defensive action of the graceful-degradation layer.
MITIGATION = "mitigation"
#: A state transition of the degradation machinery (watchdog).
DEGRADATION = "degradation"
#: A per-pair prediction-error drift detector fired (adaptation layer).
DRIFT_DETECTED = "drift_detected"
#: The adaptation layer committed and activated a re-fitted model.
MODEL_UPDATE = "model_update"
#: A committed model failed probation and was rolled back.
MODEL_ROLLBACK = "model_rollback"
#: Governor tier: one applied per-cluster operating-point change.
OPP_CHANGE = "opp_change"
#: Governor tier: outcome of one joint (allocation, OPP-vector) search.
GOVERNOR_DECISION = "governor_decision"
#: Wall-clock per-phase time breakdown (one per run; nondeterministic).
PHASE_PROFILE = "phase_profile"
#: Fleet tier: a node joined (or rejoined) the membership view.
NODE_UP = "node_up"
#: Fleet tier: the failure detector declared a node dead.
NODE_DOWN = "node_down"
#: Fleet tier: one heartbeat interval elapsed without a heartbeat.
HEARTBEAT_MISSED = "heartbeat_missed"
#: Fleet tier: a job was moved off its assigned node (rescue / hedge /
#: circuit avoidance).
REROUTE = "reroute"
#: Fleet tier: a node's circuit breaker opened (dispatches suspended).
CIRCUIT_OPEN = "circuit_open"
#: Fleet tier: a node's circuit breaker closed again after a probe.
CIRCUIT_CLOSE = "circuit_close"
#: Fleet tier: the dispatcher placed one job on one node.
FLEET_DISPATCH = "fleet_dispatch"
#: Fleet tier: a node reported one job finished (possibly a duplicate
#: of an already-completed hedged job).
FLEET_COMPLETE = "fleet_complete"
#: Scenario tier: an open-loop request thread became runnable.
REQUEST_ARRIVED = "request_arrived"
#: Scenario tier: an open-loop request finished, with its latency and
#: SLO verdict.
REQUEST_COMPLETED = "request_completed"
#: Scenario tier: one barrier release, with the group's summed stall.
BARRIER_STALL = "barrier_stall"

EVENT_TYPES = (
    RUN_START,
    RUN_END,
    EPOCH_START,
    EPOCH_END,
    DEGENERATE_EPOCH,
    SENSE,
    PREDICTION_CHECK,
    ANNEAL,
    DECISION,
    MIGRATION,
    FAULT_INJECTED,
    MITIGATION,
    DEGRADATION,
    DRIFT_DETECTED,
    MODEL_UPDATE,
    MODEL_ROLLBACK,
    OPP_CHANGE,
    GOVERNOR_DECISION,
    PHASE_PROFILE,
    NODE_UP,
    NODE_DOWN,
    HEARTBEAT_MISSED,
    REROUTE,
    CIRCUIT_OPEN,
    CIRCUIT_CLOSE,
    FLEET_DISPATCH,
    FLEET_COMPLETE,
    REQUEST_ARRIVED,
    REQUEST_COMPLETED,
    BARRIER_STALL,
)

#: Event types whose payload depends only on the simulation (never on
#: the host's wall clock); these must be byte-identical across runs of
#: the same spec.
DETERMINISTIC_TYPES = tuple(t for t in EVENT_TYPES if t != PHASE_PROFILE)

#: Kinds a ``fault_injected`` event may carry.  The ``node_*`` /
#: ``telemetry_*`` kinds are cluster-level faults delivered by the
#: fleet fault layer (:mod:`repro.fleet.faults`); the rest are the
#: intra-node faults of :mod:`repro.faults`.
FAULT_KINDS = (
    "sensor_dropout",
    "sensor_stuck",
    "sensor_spike",
    "counter_wrap",
    "counter_saturation",
    "migration_lost",
    "migration_delayed",
    "hotplug",
    "throttle",
    "node_crash",
    "node_hang",
    "node_partition",
    "telemetry_stale",
    "telemetry_corrupt",
)

#: Kinds a ``mitigation`` event may carry.  The last group is the
#: fleet dispatcher's defence ledger (telemetry sanity checks,
#: last-good fallback, quorum degradation, hedged re-dispatch).
MITIGATION_KINDS = (
    "sample_rejected",
    "fallback_row",
    "thread_dropped",
    "rebaseline",
    "watchdog_fallback",
    "hotplug_mask",
    "offline_placement_blocked",
    "telemetry_rejected",
    "stale_fallback",
    "quorum_degraded",
    "hedged_dispatch",
    "duplicate_suppressed",
)

#: Known causes of a thread migration.
MIGRATION_CAUSES = ("balancer", "hotplug", "fault_delay")

#: What earlier versions wrote and this one no longer does, so that
#: their traces still validate: ``type -> retired payload fields`` and
#: the retired ``mitigation`` kinds.  The report ignores them.  The
#: annealer's wall-clock budget left ``anneal.truncated`` and the
#: ``budget_skip`` / ``sa_truncated`` mitigations behind.
RETIRED_FIELDS: "dict[str, tuple[str, ...]]" = {ANNEAL: ("truncated",)}
RETIRED_MITIGATION_KINDS = ("budget_skip", "sa_truncated")

# ---------------------------------------------------------------------------
# Schema: required / optional payload fields per type
# ---------------------------------------------------------------------------

#: ``type -> (required fields, optional fields)`` beyond the universal
#: ``type`` and ``t_s``.
EVENT_SCHEMA: "dict[str, tuple[tuple[str, ...], tuple[str, ...]]]" = {
    RUN_START: (
        ("balancer", "platform", "n_tasks", "n_cores"),
        ("core_types", "seed", "faults"),
    ),
    RUN_END: (
        ("duration_s", "instructions", "energy_j", "migrations"),
        ("ips_per_watt",),
    ),
    EPOCH_START: (("epoch",), ()),
    EPOCH_END: (
        ("epoch", "duration_s", "instructions", "energy_j", "migrations"),
        ("ips_per_watt", "degenerate", "per_core"),
    ),
    DEGENERATE_EPOCH: (("epoch", "duration_s", "instructions"), ("energy_j",)),
    SENSE: (
        ("epoch", "window_s", "threads", "measured", "healthy", "rejected"),
        ("fallback_rows",),
    ),
    PREDICTION_CHECK: (
        (
            "tid",
            "src_type",
            "dst_type",
            "core",
            "predicted_ips",
            "measured_ips",
            "ipc_abs_pct_error",
        ),
        ("predicted_power_w", "measured_power_w", "power_abs_pct_error"),
    ),
    ANNEAL: (
        (
            "epoch",
            "iterations",
            "accepted",
            "uphill",
            "initial_value",
            "best_value",
        ),
        ("improvement_pct", "samples"),
    ),
    DECISION: (
        ("epoch", "migrations", "fallback", "rejected"),
        ("incumbent_value", "best_value"),
    ),
    MIGRATION: (("tid", "from_core", "to_core", "cause"), ()),
    FAULT_INJECTED: (
        ("kind",),
        ("channel", "tid", "core", "count", "detail", "node"),
    ),
    MITIGATION: (("kind", "cause"), ("tid", "core", "node", "job")),
    DEGRADATION: (("state", "cause"), ()),
    DRIFT_DETECTED: (
        ("pair", "statistic", "threshold"),
        ("epoch", "samples", "opp_bin"),
    ),
    MODEL_UPDATE: (
        ("version", "cause", "pairs_updated"),
        (
            "epoch",
            "fingerprint",
            "holdout_error_before_pct",
            "holdout_error_after_pct",
            "power_types_updated",
        ),
    ),
    MODEL_ROLLBACK: (
        ("from_version", "to_version", "cause"),
        ("epoch", "fingerprint"),
    ),
    OPP_CHANGE: (
        ("cluster", "from_freq_mhz", "to_freq_mhz"),
        (
            "epoch",
            "from_level",
            "to_level",
            "from_vdd",
            "to_vdd",
            "cores",
            "transition_latency_s",
            "transition_energy_j",
        ),
    ),
    GOVERNOR_DECISION: (
        ("epoch", "strategy", "opp_levels"),
        (
            "candidates_evaluated",
            "opp_changes",
            "incumbent_value",
            "best_value",
            "transition_energy_j",
            "adopted",
        ),
    ),
    PHASE_PROFILE: (("phases",), ()),
    NODE_UP: (("node",), ("platform", "detail")),
    NODE_DOWN: (("node", "cause"), ("jobs_rescued",)),
    HEARTBEAT_MISSED: (("node", "misses"), ()),
    REROUTE: (("job", "to_node", "cause"), ("from_node", "attempt")),
    CIRCUIT_OPEN: (("node",), ("failures", "cooldown_s")),
    CIRCUIT_CLOSE: (("node",), ("probe_job",)),
    FLEET_DISPATCH: (
        ("job", "node", "attempt"),
        ("policy", "queue_depth", "degraded"),
    ),
    FLEET_COMPLETE: (
        ("job", "node"),
        ("attempt", "duplicate", "latency_s"),
    ),
    REQUEST_ARRIVED: (("tid",), ("name",)),
    REQUEST_COMPLETED: (
        ("tid", "latency_s"),
        ("slo_s", "slo_miss", "name"),
    ),
    BARRIER_STALL: (("group", "barrier"), ("stall_s", "waiters")),
}


def validate_event(event: object) -> "str | None":
    """Check one event against the schema; returns the error or None."""
    if not isinstance(event, dict):
        return f"event must be an object, got {type(event).__name__}"
    etype = event.get("type")
    if etype not in EVENT_SCHEMA:
        return f"unknown event type {etype!r}"
    t_s = event.get("t_s")
    if not isinstance(t_s, Number) or isinstance(t_s, bool) or t_s < 0:
        return f"{etype}: t_s must be a non-negative number, got {t_s!r}"
    required, optional = EVENT_SCHEMA[etype]
    missing = [name for name in required if name not in event]
    if missing:
        return f"{etype}: missing required field(s) {missing}"
    allowed = {"type", "t_s", *required, *optional, *RETIRED_FIELDS.get(etype, ())}
    unknown = [name for name in event if name not in allowed]
    if unknown:
        return f"{etype}: unknown field(s) {unknown}"
    if etype == FAULT_INJECTED and event["kind"] not in FAULT_KINDS:
        return f"{etype}: unknown kind {event['kind']!r}"
    if etype == MITIGATION:
        kind = event["kind"]
        if kind not in MITIGATION_KINDS and kind not in RETIRED_MITIGATION_KINDS:
            return f"{etype}: unknown kind {kind!r}"
        if not isinstance(event["cause"], str) or not event["cause"]:
            return f"{etype}: cause must be a non-empty string"
    if etype == MIGRATION and not isinstance(event["cause"], str):
        return f"{etype}: cause must be a string"
    return None


def validate_events(events: Iterable[object]) -> "list[str]":
    """Validate a stream; returns one ``line N: error`` entry per bad
    event (empty list = schema-clean)."""
    errors = []
    for index, event in enumerate(events):
        error = validate_event(event)
        if error is not None:
            errors.append(f"event {index}: {error}")
    return errors


def deterministic_events(events: Iterable[dict]) -> "list[dict]":
    """The sub-stream that must be identical across reruns of a spec."""
    return [e for e in events if e.get("type") in DETERMINISTIC_TYPES]
