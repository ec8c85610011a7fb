"""repro.obs — the observability layer (metrics, recorded streams, exporters).

"Turning Cluster Management into Data Management" (Robinson & DeWitt)
argues Condor-style pool state should itself be queryable data; this
package applies that to the reproduction.  Every negotiation cycle,
claim, eviction, and ad-store transition is counted or traced here and
exported as machine-readable JSON (the ``repro-obs/2`` schema; see
docs/OBSERVABILITY.md for the metric catalogue).

Four process-wide singletons carry all instrumentation:

* :data:`metrics` — the global :class:`MetricsRegistry`; instrumented
  modules declare their counters against it at import time;
* :data:`event_log` — the global :class:`EventLog`, the structured
  negotiation-forensics stream (``repro-events/1``; read back with the
  ``repro obs`` CLI family);
* :data:`causal_log` — the global :class:`CausalTracer`, the
  cross-daemon causal trace stream (``repro-trace/1``): spans are
  propagated through every protocol message, so "why did job J take
  400 ticks" is answerable across daemon boundaries;
* :data:`series` — the global :class:`SeriesStore`, the pool-health
  time series (``repro-series/1``) sampled each negotiation cycle.

The last three are recorded streams (:mod:`repro.obs.stream`): one
ring, clock and schema-headed JSONL sink each, read back by one reader
whose errors are all :class:`StreamError`.

All are **disabled by default**: every mutating call bails on one
boolean check, so an uninstrumented run pays (nearly) nothing.  Turn
them on programmatically::

    from repro import obs
    obs.enable()                  # metrics only
    obs.enable(events=True)       # metrics + the forensic event log
    obs.event_log.open_file("events.jsonl")   # optional JSONL sink
    ... run ...
    print(obs.export.snapshot())  # or obs.export.write_json(path)
    obs.disable(); obs.reset()

:func:`enable` is the only way on: no environment variable turns
collection on, so a run's instruments are stated in the code that runs
it.

This package must stay import-cycle free: it is imported by the lowest
layers (classads, sim), so it imports nothing from them.
"""

from __future__ import annotations

from . import export
from .causal import (
    TRACE_SCHEMA,
    CausalTracer,
    SpanRecord,
    TraceContext,
    TraceError,
    causal_log,
    job_trace_id,
)
from .events import EVENTS_SCHEMA, Event, EventLog, EventLogError, event_log
from .invariants import InvariantReport, Violation, check_events
from .registry import Counter, Gauge, Histogram, MetricsRegistry, RunningStats
from .stream import RecordStream, StreamError
from .timeseries import SERIES_SCHEMA, Sample, SeriesError, SeriesStore, series

#: The process-wide metrics registry.  Modules register metrics against
#: it at import time; the registry survives enable/disable/reset cycles
#: so those references never go stale.
metrics = MetricsRegistry(enabled=False)


def enable(
    events: bool = False,
    causal: bool = False,
    timeseries: bool = False,
) -> None:
    """Turn on global metrics collection (and optionally the event log,
    the causal trace stream and the pool time series)."""
    metrics.enable()
    if events:
        event_log.enable()
    if causal:
        causal_log.enable()
    if timeseries:
        series.enable()


def disable() -> None:
    """Turn off all global collection (recorded data is kept)."""
    metrics.disable()
    event_log.disable()
    causal_log.disable()
    series.disable()


def is_enabled() -> bool:
    return metrics.enabled


def reset() -> None:
    """Zero all global metrics and drop all recorded streams."""
    metrics.reset()
    event_log.reset()
    causal_log.reset()
    series.reset()


__all__ = [
    "CausalTracer",
    "Counter",
    "EVENTS_SCHEMA",
    "Event",
    "EventLog",
    "EventLogError",
    "Gauge",
    "Histogram",
    "InvariantReport",
    "MetricsRegistry",
    "RecordStream",
    "RunningStats",
    "SERIES_SCHEMA",
    "Sample",
    "SeriesError",
    "SeriesStore",
    "SpanRecord",
    "StreamError",
    "TRACE_SCHEMA",
    "TraceContext",
    "TraceError",
    "Violation",
    "causal_log",
    "check_events",
    "disable",
    "enable",
    "event_log",
    "export",
    "is_enabled",
    "job_trace_id",
    "metrics",
    "reset",
    "series",
]
