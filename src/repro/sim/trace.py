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

**Storage.**  Periodic ad renewals make a traced run emit one record per
renewal, so a record is stored as what it records and no more: one flat
tuple ``(time, kind, names, *values)``, where ``names`` is the
field-name tuple shared by every record of that shape.  A tuple of
atomic values leaves the garbage collector's lists at its first
collection once its shape's name tuple has left them, which an event
object never does.  Reads build the :class:`TraceEvent` — ``seq`` is the
position plus one, and ``fields`` maps the names to the very value
objects emitted, in emit order — and the kind queries (and
:meth:`Trace.between`) test the stored kind or time first, so they build
events only for what they return.

New code should emit through :data:`repro.obs.event_log` directly;
``Trace`` remains the sim-local, always-unbounded view the experiments
query.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..obs.events import Event
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


def _event(index: int, record: tuple) -> TraceEvent:
    """The event stored as *record* at position *index*."""
    return TraceEvent(index + 1, record[0], record[1], dict(zip(record[2], record[3:])))


class Trace:
    """Collects trace records during a simulation run and answers the
    event log's kind queries (``of_kind``, ``count``, ``first``, ...)
    over them."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._records: List[tuple] = []
        self._shapes: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    def emit(self, time: float, kind: str, **fields: Any) -> None:
        if self.enabled:
            names = tuple(fields)
            names = self._shapes.setdefault(names, names)
            self._records.append((time, kind, names, *fields.values()))
        # Mirror into the forensic event log while it is on, so the repo
        # has one queryable event stream, not two.
        if _global_log.enabled:
            _global_log.emit(kind, t=time, **fields)

    def of_kind(self, *kinds: str) -> List[TraceEvent]:
        wanted = set(kinds)
        return [_event(i, r) for i, r in enumerate(self._records) if r[1] in wanted]

    def count(self, kind: str) -> int:
        return sum(1 for r in self._records if r[1] == kind)

    def first(self, kind: str) -> Optional[TraceEvent]:
        return next((_event(i, r) for i, r in enumerate(self._records) if r[1] == kind), None)

    def last(self, kind: str) -> Optional[TraceEvent]:
        records = self._records
        for i in range(len(records) - 1, -1, -1):
            if records[i][1] == kind:
                return _event(i, records[i])
        return None

    def kinds(self) -> List[str]:
        """Distinct kinds in first-appearance order."""
        return list(dict.fromkeys(r[1] for r in self._records))

    def between(self, start: float, end: float) -> List[TraceEvent]:
        return [_event(i, r) for i, r in enumerate(self._records) if start <= r[0] <= end]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceEvent]:
        return (_event(i, r) for i, r in enumerate(self._records))

    def __reversed__(self) -> Iterator[TraceEvent]:
        records = self._records
        return (_event(i, records[i]) for i in range(len(records) - 1, -1, -1))

    def render(self, limit: Optional[int] = None) -> str:
        """Human-readable transcript (the Figure 3 walk-through)."""
        records = self._records if limit is None else self._records[:limit]
        return "\n".join(str(_event(i, r)) for i, r in enumerate(records))
