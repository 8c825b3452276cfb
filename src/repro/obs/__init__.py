"""``repro.obs`` — opt-in observability for the sense→predict→balance loop.

One :class:`ObsContext` bundles the three instruments:

* a :class:`~repro.obs.tracer.Tracer` of typed, simulation-timestamped
  events (:mod:`repro.obs.events`),
* a :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges,
  histograms and wall-clock timings,
* :meth:`ObsContext.span` context managers timing each phase.

Everything is off by default: simulation code takes ``obs=NULL_OBS``
and guards every emission with ``obs.enabled``, so a disabled context
costs one attribute check per call site and the simulated results are
byte-identical with tracing on or off (pinned by the no-op test suite).

Typical use::

    from repro.obs import ObsContext
    obs = ObsContext()
    result = execute_spec(spec, obs=obs)
    write_jsonl(obs.tracer.events, "trace.jsonl")
    print(obs.metrics.render_text())
"""

from __future__ import annotations

import importlib
from typing import Optional

from repro.obs.events import (
    DETERMINISTIC_TYPES,
    EVENT_SCHEMA,
    EVENT_TYPES,
    FAULT_KINDS,
    MIGRATION_CAUSES,
    MITIGATION_KINDS,
    deterministic_events,
    validate_event,
    validate_events,
)
from repro.obs.log import LOG_LEVELS, configure_logging, get_logger, user_output
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import Span
from repro.obs.tracer import NULL_TRACER, Tracer


class ObsContext:
    """The bundle threaded through simulator, balancer and runner."""

    __slots__ = ("enabled", "tracer", "metrics")

    def __init__(
        self,
        enabled: bool = True,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.enabled = enabled
        self.tracer = tracer if tracer is not None else Tracer(enabled=enabled)
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def __bool__(self) -> bool:
        return self.enabled

    def span(self, name: str) -> Span:
        """A timed span recorded into the registry when enabled."""
        return Span(name, self.metrics if self.enabled else None)


#: Shared disabled context — the default everywhere observability is
#: optional.  It never buffers or records, so one instance is safe to
#: share across systems, balancers and runs.
NULL_OBS = ObsContext(enabled=False, tracer=NULL_TRACER)

#: Names this package re-exports from a submodule that a run never
#: needs; each submodule is imported when one of its names is first
#: read (``from repro.obs import build_report`` included).
_LAZY = {
    "read_jsonl": "repro.obs.export",
    "write_jsonl": "repro.obs.export",
    "to_chrome_trace": "repro.obs.export",
    "write_chrome_trace": "repro.obs.export",
    "build_report": "repro.obs.report",
    "render_report": "repro.obs.report",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value
    return value

__all__ = [
    "ObsContext",
    "NULL_OBS",
    "Tracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "EVENT_TYPES",
    "EVENT_SCHEMA",
    "DETERMINISTIC_TYPES",
    "FAULT_KINDS",
    "MITIGATION_KINDS",
    "MIGRATION_CAUSES",
    "validate_event",
    "validate_events",
    "deterministic_events",
    "read_jsonl",
    "write_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "build_report",
    "render_report",
    "configure_logging",
    "get_logger",
    "user_output",
    "LOG_LEVELS",
]
