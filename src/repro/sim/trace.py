"""Event tracing — part of S23 in DESIGN.md.

A trace is an append-only list of (time, kind, fields) records emitted
by agents; the F3 benchmark renders one into the paper's Figure 3
sequence (advertise → match → notify → claim), and integration tests
assert protocol ordering on it.

Since the negotiation-forensics work this module is a **thin consumer
of the unified event model** in :mod:`repro.obs.events`:

* :class:`TraceEvent` *is* an :class:`repro.obs.events.Event` (plus the
  legacy ``.time`` accessor), so trace records and forensic records are
  the same shape, queried by the same kind lookups;
* every :meth:`Trace.emit` is mirrored into the global
  :data:`repro.obs.event_log` — even when this particular trace is
  disabled — so an enabled event log sees the whole simulated protocol
  (advertisements, matches, claims, evictions) alongside the
  matchmaker's own ``cycle.*``/``match.*`` forensics, stamped with
  simulated time.  While the global log is off the mirror is one
  boolean check: the fields are not even handed on.

New code should emit through :data:`repro.obs.event_log` directly;
``Trace`` remains the sim-local, always-unbounded view the experiments
query.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional

from ..obs.events import Event, KindQueries
from ..obs import event_log as _global_log


class TraceEvent(Event):
    """One trace record: the unified event shape, addressed by sim time."""

    __slots__ = ()

    @property
    def time(self) -> float:
        return self.t

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.time:10.3f}] {self.kind:<22} {details}"


class Trace(KindQueries):
    """Collects :class:`TraceEvent` records during a simulation run; the
    kind queries (``of_kind``, ``count``, ``first``, ...) are the event
    log's."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: List[TraceEvent] = []

    def emit(self, time: float, kind: str, **fields: Any) -> None:
        if self.enabled:
            self.events.append(TraceEvent(len(self.events) + 1, time, kind, fields))
        # Mirror into the forensic event log while it is on, so the repo
        # has one queryable event stream, not two.
        if _global_log.enabled:
            _global_log.emit(kind, t=time, **fields)

    def between(self, start: float, end: float) -> List[TraceEvent]:
        return [e for e in self.events if start <= e.time <= end]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __reversed__(self) -> Iterator[TraceEvent]:
        return reversed(self.events)

    def render(self, limit: Optional[int] = None) -> str:
        """Human-readable transcript (the Figure 3 walk-through)."""
        events = self.events if limit is None else self.events[:limit]
        return "\n".join(str(e) for e in events)
