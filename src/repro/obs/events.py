"""Structured negotiation event log — the forensic half of the layer.

Where :mod:`repro.obs.registry` answers "how many rejections?", this
module answers "*why* did job 17 not match in cycle 42?" — the Section 5
diagnostic question, captured live instead of reconstructed offline.

The log is an append-only sequence of :class:`Event` records (the
``repro-events/1`` schema; see docs/OBSERVABILITY.md) flowing through
one process-wide :data:`~repro.obs.event_log`, a recorded stream
(:mod:`repro.obs.stream`): a bounded ring for in-process queries and an
optional JSONL file that ``repro obs report/why/tail/export`` replay
long after the process exited.

Event taxonomy — canonical kinds emitted directly:

===================  ====================================================
kind                 emitted by / meaning
===================  ====================================================
``cycle.begin``      matchmaker — a negotiation cycle starts
``cycle.end``        matchmaker — cycle done (matched/rejected totals)
``fairshare.quota``  matchmaker — a submitter's pie slice + serving order
``match.made``       matchmaker — an assignment (ranks, preemption)
``match.reject``     matchmaker/match — one candidate pair failed, with
                     clause-level attribution (side, conjunct, value,
                     undefined attributes) for constraint failures
``job.unmatched``    matchmaker — a request found no provider this cycle
``preemption``       matchmaker — a match that evicts a running customer
``ad.arrived``       collector — an advertisement or refresh arrived
                     (admitted, dropped as stale, or answered with a
                     resend request)
``claim.verdict``    claiming protocol — the RA's accept/reject decision
``sim.started``      sim engine — a simulator was constructed (its clock
                     becomes the log's timestamp source)
===================  ====================================================

Every sim-side ``Trace`` additionally mirrors its protocol events into
this log verbatim — even when that particular trace is disabled — so
there is **one** event model: ad expiry/rejection (``ad-expired``,
``ad-rejected``), advertising, match notification, and the whole
claiming conversation (``claim-request``, ``claim-accepted``, …) are
queryable here under their traditional dashed kinds.

The log is off by default; the matchmaking hot loop hoists its one
``enabled`` check so a disabled log costs nothing per candidate pair.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from .stream import FIELDS, INTEGER, NAME, NUMBER, RecordStream, StreamError, read_stream, validate

EVENTS_SCHEMA = "repro-events/1"


@dataclass(frozen=True, slots=True)
class Event:
    """One recorded occurrence: a sequence number, a timestamp (simulated
    or wall-clock, whichever clock the log is on), a kind, and free-form
    fields."""

    seq: int
    t: float
    kind: str
    fields: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "t": self.t, "kind": self.kind, "fields": dict(self.fields)}

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.t:12.3f}] #{self.seq:<6d} {self.kind:<22} {details}".rstrip()


class EventLogError(StreamError):
    """A recorded event stream failed ``repro-events/1`` validation."""


class KindQueries:
    """Lookups by ``kind`` over an iterable of events (the event log's
    ring; a simulation :class:`~repro.sim.trace.Trace` answers the same
    queries over its stored records)."""

    __slots__ = ()

    def of_kind(self, *kinds: str) -> List[Event]:
        wanted = set(kinds)
        return [e for e in self if e.kind in wanted]

    def count(self, kind: str) -> int:
        return sum(1 for e in self if e.kind == kind)

    def first(self, kind: str) -> Optional[Event]:
        return next((e for e in self if e.kind == kind), None)

    def last(self, kind: str) -> Optional[Event]:
        return next((e for e in reversed(self) if e.kind == kind), None)

    def kinds(self) -> List[str]:
        """Distinct kinds in first-appearance order."""
        return list(dict.fromkeys(e.kind for e in self))


class EventLog(KindQueries, RecordStream):
    """The append-only structured event log (ring + optional file sink)."""

    __slots__ = ()

    SCHEMA = EVENTS_SCHEMA

    def emit(self, kind: str, t: Optional[float] = None, **fields: Any) -> None:
        """Record one event (no-op while disabled)."""
        if not self.enabled:
            return
        self._seq += 1
        self._record(Event(self._seq, self.clock() if t is None else t, kind, fields))

    def events(self) -> List[Event]:
        return list(self._ring)


#: The process-wide event log.  Producers import this and emit; it stays
#: disabled (and therefore free) until someone turns it on — see
#: :func:`repro.obs.enable`.
event_log = EventLog(enabled=False)


# ---------------------------------------------------------------------------
# serialization: repro-events/1 JSONL

#: The required keys of a serialized event and their types (the rest
#: live under ``fields``).
RECORD_CHECKS = (("seq", INTEGER), ("t", NUMBER), ("kind", NAME), ("fields", FIELDS))


def validate_record(record: Dict[str, Any]) -> None:
    """Raise :class:`EventLogError` unless *record* is a valid event row."""
    validate(record, RECORD_CHECKS, EventLogError)


def read_jsonl(path: str) -> List[Event]:
    """Load and validate a ``repro-events/1`` JSONL file."""
    return read_stream(
        path,
        EVENTS_SCHEMA,
        EventLogError,
        RECORD_CHECKS,
        lambda r: Event(r["seq"], r["t"], r["kind"], r.get("fields", {})),
    )


def summarize(events: Iterable[Event]) -> Dict[str, Any]:
    """Collapse an event stream into the CI-facing JSON summary.

    The output (``repro-events-summary/1``) is what ``repro obs export``
    prints: per-kind counts, per-cycle rows, and the rejection reasons
    ranked by frequency — small enough to diff between runs.
    """
    events = list(events)
    by_kind: Counter = Counter(e.kind for e in events)
    cycles: List[Dict[str, Any]] = []
    for end in events:
        if end.kind != "cycle.end":
            continue
        cycles.append(
            {
                "cycle": end.fields.get("cycle"),
                "requests": end.fields.get("requests"),
                "matched": end.fields.get("matched"),
                "rejected": end.fields.get("rejected"),
                "preemptions": end.fields.get("preemptions"),
            }
        )
    reasons: Counter = Counter()
    for e in events:
        if e.kind == "match.reject":
            conjunct = e.fields.get("conjunct")
            if conjunct:
                key = f"{e.fields.get('side', '?')}: {conjunct}"
            else:
                key = str(e.fields.get("reason", "?"))
            reasons[key] += 1
    # Robustness accounting (PR 5 counters): recorded runs close with a
    # ``run.stats`` event carrying the network and retry/lease totals.
    robustness: Optional[Dict[str, Any]] = None
    for e in reversed(events):
        if e.kind == "run.stats":
            robustness = dict(e.fields)
            break
    return {
        "schema": "repro-events-summary/1",
        "events": len(events),
        "by_kind": dict(sorted(by_kind.items())),
        "cycles": cycles,
        "top_rejections": [
            {"reason": reason, "count": count} for reason, count in reasons.most_common(20)
        ],
        "robustness": robustness,
    }
