"""Trace export: JSONL event streams and Chrome ``trace_event`` files.

Two on-disk forms of one event buffer:

* **JSONL** — one event object per line, the canonical machine-readable
  form.  Round-trips losslessly (:func:`write_jsonl` /
  :func:`read_jsonl`) and validates against the schema of
  :mod:`repro.obs.events`.
* **Chrome trace** — the ``trace_event`` JSON format loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Epochs
  become duration slices on per-core tracks (one named track per core,
  showing that core's instructions/energy for the epoch), balancer
  decisions/anneals/senses become slices on a dedicated balancer track,
  migrations/faults/mitigations become instant events, and the
  whole-chip energy efficiency becomes a counter track.

Timestamps in the Chrome trace are *simulated* microseconds — the
timeline you scrub is the simulation's, not the host's.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from repro.obs import events as ev

#: ``pid`` used for every track (one simulated machine per trace).
TRACE_PID = 0
#: Chrome-trace ``tid`` of the balancer track; core ``i`` maps to
#: ``CORE_TRACK_BASE + i``.
BALANCER_TRACK = 0
CORE_TRACK_BASE = 1


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------


def dumps_jsonl(events: Iterable[dict]) -> str:
    """Serialise events as JSON Lines text (deterministic key order)."""
    return "".join(
        json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        for event in events
    )


def write_jsonl(events: Iterable[dict], path) -> None:
    with open(path, "w") as handle:
        handle.write(dumps_jsonl(events))


def read_jsonl(path) -> "list[dict]":
    """Load a JSONL event stream (blank lines ignored)."""
    loaded = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                loaded.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: invalid JSON: {exc}") from None
    return loaded


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------


def _us(t_s: float) -> float:
    return t_s * 1e6


def _meta(name: str, tid: int, value: str) -> dict:
    return {
        "name": name,
        "ph": "M",
        "pid": TRACE_PID,
        "tid": tid,
        "args": {"name": value},
    }


def _slice(name: str, start_s: float, dur_s: float, tid: int, args: dict) -> dict:
    return {
        "name": name,
        "cat": "sim",
        "ph": "X",
        "ts": _us(start_s),
        "dur": max(_us(dur_s), 0.0),
        "pid": TRACE_PID,
        "tid": tid,
        "args": args,
    }


def _instant(name: str, t_s: float, tid: int, args: dict, cat: str) -> dict:
    return {
        "name": name,
        "cat": cat,
        "ph": "i",
        "s": "t",
        "ts": _us(t_s),
        "pid": TRACE_PID,
        "tid": tid,
        "args": args,
    }


def _counter(name: str, t_s: float, values: dict) -> dict:
    return {
        "name": name,
        "ph": "C",
        "ts": _us(t_s),
        "pid": TRACE_PID,
        "args": values,
    }


def to_chrome_trace(events: Sequence[dict]) -> dict:
    """Convert a JSONL event stream into a Chrome ``trace_event`` doc."""
    trace: "list[dict]" = [
        _meta("process_name", BALANCER_TRACK, "smartbalance simulation"),
        _meta("thread_name", BALANCER_TRACK, "balancer"),
    ]
    # Name per-core tracks from run_start metadata, when present.
    core_types: "list[str]" = []
    for event in events:
        if event.get("type") == ev.RUN_START:
            core_types = list(event.get("core_types") or [])
            break
    for core_id, type_name in enumerate(core_types):
        trace.append(
            _meta(
                "thread_name",
                CORE_TRACK_BASE + core_id,
                f"core {core_id} ({type_name})",
            )
        )

    for event in events:
        etype = event.get("type")
        t_s = float(event.get("t_s", 0.0))
        if etype == ev.EPOCH_END:
            duration = float(event.get("duration_s", 0.0))
            start = t_s - duration
            label = f"epoch {event.get('epoch')}"
            per_core = event.get("per_core") or []
            for row in per_core:
                core_id = int(row.get("core", 0))
                trace.append(
                    _slice(
                        label,
                        start,
                        duration,
                        CORE_TRACK_BASE + core_id,
                        {k: v for k, v in row.items() if k != "core"},
                    )
                )
            if not per_core:
                # No per-core detail (foreign trace): one chip-wide slice.
                trace.append(
                    _slice(
                        label,
                        start,
                        duration,
                        BALANCER_TRACK,
                        {
                            "instructions": event.get("instructions"),
                            "energy_j": event.get("energy_j"),
                        },
                    )
                )
            if not event.get("degenerate"):
                trace.append(
                    _counter(
                        "ips_per_watt", t_s, {"J_E": event.get("ips_per_watt", 0.0)}
                    )
                )
            trace.append(
                _counter("migrations", t_s, {"epoch": event.get("migrations", 0)})
            )
        elif etype == ev.SENSE:
            trace.append(
                _instant(
                    "sense",
                    t_s,
                    BALANCER_TRACK,
                    {
                        "measured": event.get("measured"),
                        "healthy": event.get("healthy"),
                        "rejected": event.get("rejected"),
                    },
                    "balancer",
                )
            )
        elif etype == ev.ANNEAL:
            trace.append(
                _instant(
                    "anneal",
                    t_s,
                    BALANCER_TRACK,
                    {
                        "iterations": event.get("iterations"),
                        "accepted": event.get("accepted"),
                        "uphill": event.get("uphill"),
                        "improvement_pct": event.get("improvement_pct"),
                    },
                    "balancer",
                )
            )
        elif etype == ev.DECISION:
            trace.append(
                _instant(
                    "decision",
                    t_s,
                    BALANCER_TRACK,
                    {
                        "migrations": event.get("migrations"),
                        "fallback": event.get("fallback"),
                    },
                    "balancer",
                )
            )
        elif etype == ev.MIGRATION:
            trace.append(
                _instant(
                    f"migrate tid {event.get('tid')}",
                    t_s,
                    CORE_TRACK_BASE + int(event.get("to_core", 0)),
                    {
                        "from": event.get("from_core"),
                        "to": event.get("to_core"),
                        "cause": event.get("cause"),
                    },
                    "migration",
                )
            )
        elif etype == ev.FAULT_INJECTED:
            trace.append(
                _instant(
                    f"fault: {event.get('kind')}",
                    t_s,
                    BALANCER_TRACK,
                    {k: v for k, v in event.items() if k not in ("type", "t_s")},
                    "fault",
                )
            )
        elif etype in (ev.MITIGATION, ev.DEGRADATION, ev.DEGENERATE_EPOCH):
            trace.append(
                _instant(
                    f"{etype}: {event.get('kind') or event.get('state') or 'epoch'}",
                    t_s,
                    BALANCER_TRACK,
                    {k: v for k, v in event.items() if k not in ("type", "t_s")},
                    "defence",
                )
            )
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Sequence[dict], path) -> None:
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(events), handle)
