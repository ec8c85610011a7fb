"""Cross-daemon causal tracing — the ``repro-trace/1`` stream.

This module answers "*what chain of messages* got job 17 from submit
to completion" — causality across daemon boundaries, in the style of
Dapper/X-Trace but deterministic.

Mechanics:

* a :class:`TraceContext` is an immutable ``(trace_id, span_id,
  parent_id)`` triple.  Trace ids are **derived, never random**: a
  job's whole lifecycle shares ``job.<owner>.<job-id>``, so a run at a
  fixed seed produces a bitwise-identical trace stream;
* the process-wide :data:`causal_log` is a recorded stream
  (:mod:`repro.obs.stream`) of spans, written as ``repro-trace/1``;
* the simulated network injects a ``send`` span into every outbound
  message that doesn't already carry one (retransmitted or
  chaos-duplicated messages re-send the *same* frozen message object,
  so all copies share the originating span), and activates a ``recv``
  span around the recipient's handler — any message the handler sends
  in turn becomes a causal child, which is how the DAG crosses daemon
  boundaries;
* daemons stitch the gaps the network cannot see: the collector
  remembers the delivery context of each admitted ad, the negotiator
  parents its match notifications on the matched job ad's context, and
  the machine parents its completion/eviction notices on the claim
  that started the job.

Span ids come from the stream's sequence counter (reset with the log),
so they are deterministic too.  Activation state is a module-level stack:
the simulator is single-threaded, so dynamic extent *is* causal extent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .stream import FIELDS, INTEGER, NAME, NUMBER, RecordStream, StreamError, read_stream, validate

TRACE_SCHEMA = "repro-trace/1"


@dataclass(frozen=True)
class TraceContext:
    """An immutable causal coordinate carried by protocol messages."""

    trace_id: str
    span_id: int
    parent_id: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"trace": self.trace_id, "span": self.span_id, "parent": self.parent_id}


@dataclass(frozen=True)
class SpanRecord:
    """One recorded span: a point on the causal DAG of a trace."""

    span: int
    t: float
    trace: str
    name: str
    parent: Optional[int]
    fields: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span": self.span,
            "t": self.t,
            "trace": self.trace,
            "name": self.name,
            "parent": self.parent,
            "fields": dict(self.fields),
        }

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in self.fields.items())
        parent = "-" if self.parent is None else str(self.parent)
        return (
            f"[{self.t:12.3f}] span={self.span:<6d} parent={parent:<6s} "
            f"{self.trace:<24} {self.name:<28} {details}".rstrip()
        )


class TraceError(StreamError):
    """A recorded span stream failed ``repro-trace/1`` validation."""


class _Activation:
    """Context manager deactivating a pushed context on exit."""

    __slots__ = ("_log",)

    def __init__(self, log: "CausalTracer"):
        self._log = log

    def __enter__(self) -> "_Activation":
        return self

    def __exit__(self, *exc) -> None:
        self._log._stack.pop()


class _NullActivation:
    """No-op stand-in returned while the tracer is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullActivation":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_ACTIVATION = _NullActivation()


class CausalTracer(RecordStream):
    """The process-wide causal span log (ring + optional file sink), plus
    the stack of active contexts; span ids count from ``_seq``."""

    __slots__ = ("_stack",)

    SCHEMA = TRACE_SCHEMA

    def __init__(self, enabled: bool = False, capacity: Optional[int] = 65536):
        super().__init__(enabled, capacity)
        self._stack: List[TraceContext] = []

    def reset(self) -> None:
        """Drop recorded spans, active contexts and span numbering."""
        super().reset()
        self._stack.clear()

    # -- context ----------------------------------------------------------

    def current(self) -> Optional[TraceContext]:
        """The active context, or ``None`` outside any activation."""
        return self._stack[-1] if self._stack else None

    def activate(self, ctx: Optional[TraceContext]):
        """Make *ctx* the active context for a ``with`` block.

        ``None`` contexts (message predates tracing, or tracing is off)
        activate nothing — the null manager costs one attribute check.
        """
        if not self.enabled or ctx is None:
            return _NULL_ACTIVATION
        self._stack.append(ctx)
        return _Activation(self)

    # -- recording --------------------------------------------------------

    def start_trace(self, trace_id: str, name: str, **fields: Any) -> Optional[TraceContext]:
        """Open a new root span for *trace_id*; returns its context
        (``None`` while disabled)."""
        if not self.enabled:
            return None
        return self.span(name, parent=TraceContext(trace_id, 0, None), root=True, **fields)

    def span(
        self,
        name: str,
        parent: Optional[TraceContext] = None,
        root: bool = False,
        **fields: Any,
    ) -> Optional[TraceContext]:
        """Record one span and return its context (``None`` while disabled).

        *parent* supplies the trace id; a root span records no parent
        link.  With no parent and no active context the span is dropped
        — orphan spans are a bug, not data.
        """
        if not self.enabled:
            return None
        if parent is None:
            parent = self.current()
            if parent is None:
                return None
        self._seq += 1
        ctx = TraceContext(parent.trace_id, self._seq, None if root else parent.span_id)
        self._record(
            SpanRecord(ctx.span_id, self.clock(), ctx.trace_id, name, ctx.parent_id, fields)
        )
        return ctx

    # -- queries (over the in-memory ring) --------------------------------

    def spans(self) -> List[SpanRecord]:
        return list(self._ring)

    def of_trace(self, trace_id: str) -> List[SpanRecord]:
        return [s for s in self._ring if s.trace == trace_id]


#: The process-wide causal tracer.  Stays disabled (and therefore free)
#: until someone turns it on — see :func:`repro.obs.enable`.
causal_log = CausalTracer(enabled=False)


def job_trace_id(owner: str, job_id: Any) -> str:
    """The deterministic trace id grouping one job's whole lifecycle."""
    return f"job.{owner}.{job_id}"


# ---------------------------------------------------------------------------
# serialization: repro-trace/1 JSONL


#: The required keys of a serialized span and their types.
SPAN_CHECKS = (
    ("span", INTEGER),
    ("t", NUMBER),
    ("trace", NAME),
    ("name", NAME),
    ("parent", (lambda v: v is None or isinstance(v, int), "an integer or null", False)),
    ("fields", FIELDS),
)


def validate_record(record: Dict[str, Any]) -> None:
    """Raise :class:`TraceError` unless *record* is a valid span row."""
    validate(record, SPAN_CHECKS, TraceError)


def read_jsonl(path: str) -> List[SpanRecord]:
    """Load and validate a ``repro-trace/1`` JSONL file."""
    return read_stream(
        path,
        TRACE_SCHEMA,
        TraceError,
        SPAN_CHECKS,
        lambda r: SpanRecord(
            r["span"], r["t"], r["trace"], r["name"], r.get("parent"), r.get("fields", {})
        ),
    )


def check_dag(spans: List[SpanRecord]) -> Dict[str, List[SpanRecord]]:
    """Group *spans* by trace and verify each trace is one connected DAG.

    Raises :class:`TraceError` on an orphan span (a non-root parent link
    pointing outside the trace) or a trace with no root.  Returns the
    per-trace grouping for further analysis.
    """
    by_trace: Dict[str, List[SpanRecord]] = {}
    for span in spans:
        by_trace.setdefault(span.trace, []).append(span)
    for trace_id, members in by_trace.items():
        ids = {s.span for s in members}
        roots = [s for s in members if s.parent is None]
        if not roots:
            raise TraceError(f"trace {trace_id!r} has no root span")
        for span in members:
            if span.parent is not None and span.parent not in ids:
                raise TraceError(
                    f"trace {trace_id!r}: span {span.span} ({span.name}) has "
                    f"orphan parent {span.parent}"
                )
    return by_trace
