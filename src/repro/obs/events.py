"""Structured negotiation event log — the forensic half of the layer.

Where :mod:`repro.obs.registry` answers "how many rejections?" and
:mod:`repro.obs.tracer` answers "where did the wall-clock go?", this
module answers "*why* did job 17 not match in cycle 42?" — the Section 5
diagnostic question, captured live instead of reconstructed offline.

The log is an append-only sequence of :class:`Event` records (the
``repro-events/1`` schema; see docs/OBSERVABILITY.md) flowing through
one process-wide :data:`~repro.obs.event_log`:

* a **ring sink** (bounded ``deque``) keeps the most recent events in
  memory for programmatic queries and ``repro obs`` post-mortems —
  million-event runs never grow without bound;
* an optional **file sink** streams every event as one JSON line, so a
  recorded run can be replayed by ``repro obs report/why/tail/export``
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

Like the registry, the log is **off by default** and every ``emit``
bails on one boolean attribute check — the matchmaking hot loop hoists
that check so a disabled log costs nothing per candidate pair.
"""

from __future__ import annotations

import json
import time as _time
from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, TextIO

EVENTS_SCHEMA = "repro-events/1"

#: Keys every serialized record carries (the rest live under ``fields``).
RECORD_KEYS = ("seq", "t", "kind")


@dataclass(frozen=True)
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


class EventLogError(Exception):
    """A recorded event stream failed ``repro-events/1`` validation."""


class EventLog:
    """The append-only structured event log (ring + optional file sink)."""

    __slots__ = ("enabled", "capacity", "_ring", "_seq", "_sink", "_sink_path", "clock")

    def __init__(self, enabled: bool = False, capacity: Optional[int] = 65536):
        self.enabled = enabled
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self._seq = 0
        self._sink: Optional[TextIO] = None
        self._sink_path: Optional[str] = None
        #: Timestamp source for ``emit(t=None)``.  Defaults to wall clock;
        #: a :class:`repro.sim.Simulator` installs its simulated clock at
        #: construction so recorded runs carry simulated time.
        self.clock: Callable[[], float] = _time.time

    # -- switches ---------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop recorded events and restart numbering; sinks stay open."""
        self._ring.clear()
        self._seq = 0
        self.clock = _time.time

    def set_clock(self, clock: Callable[[], float]) -> None:
        self.clock = clock

    # -- sinks ------------------------------------------------------------

    def open_file(self, path: str) -> str:
        """Stream every subsequent event to *path* as JSON lines.

        The first line is the schema header record; re-opening closes
        any previous sink.  Returns the path.
        """
        self.close_file()
        self._sink = open(path, "w")
        self._sink_path = path
        json.dump({"schema": EVENTS_SCHEMA}, self._sink)
        self._sink.write("\n")
        return path

    def close_file(self) -> Optional[str]:
        """Flush and detach the file sink; returns the closed path."""
        path = self._sink_path
        if self._sink is not None:
            self._sink.close()
        self._sink = None
        self._sink_path = None
        return path

    @property
    def sink_path(self) -> Optional[str]:
        return self._sink_path

    # -- recording --------------------------------------------------------

    def emit(self, kind: str, t: Optional[float] = None, **fields: Any) -> None:
        """Record one event (no-op while disabled)."""
        if not self.enabled:
            return
        self._seq += 1
        event = Event(self._seq, self.clock() if t is None else t, kind, fields)
        self._ring.append(event)
        if self._sink is not None:
            json.dump(event.to_dict(), self._sink, default=str)
            self._sink.write("\n")

    # -- queries (over the in-memory ring) --------------------------------

    def events(self) -> List[Event]:
        return list(self._ring)

    def of_kind(self, *kinds: str) -> List[Event]:
        wanted = set(kinds)
        return [e for e in self._ring if e.kind in wanted]

    def count(self, kind: str) -> int:
        return sum(1 for e in self._ring if e.kind == kind)

    def first(self, kind: str) -> Optional[Event]:
        for e in self._ring:
            if e.kind == kind:
                return e
        return None

    def last(self, kind: str) -> Optional[Event]:
        for e in reversed(self._ring):
            if e.kind == kind:
                return e
        return None

    def kinds(self) -> List[str]:
        """Distinct kinds in first-appearance order."""
        seen: Dict[str, None] = {}
        for e in self._ring:
            seen.setdefault(e.kind, None)
        return list(seen)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._ring)

    def render(self, limit: Optional[int] = None) -> str:
        events = self.events()
        if limit is not None:
            events = events[-limit:]
        return "\n".join(str(e) for e in events)


#: The process-wide event log.  Producers import this and emit; it stays
#: disabled (and therefore free) until someone turns it on — see
#: :func:`repro.obs.enable`.
event_log = EventLog(enabled=False)


# ---------------------------------------------------------------------------
# serialization: repro-events/1 JSONL


def validate_record(record: Dict[str, Any]) -> None:
    """Raise :class:`EventLogError` unless *record* is a valid event row."""
    if not isinstance(record, dict):
        raise EventLogError(f"event record must be an object, got {type(record).__name__}")
    for key in RECORD_KEYS:
        if key not in record:
            raise EventLogError(f"event record missing {key!r}: {record}")
    if not isinstance(record["seq"], int):
        raise EventLogError(f"seq must be an integer: {record}")
    if not isinstance(record["t"], (int, float)) or isinstance(record["t"], bool):
        raise EventLogError(f"t must be a number: {record}")
    if not isinstance(record["kind"], str) or not record["kind"]:
        raise EventLogError(f"kind must be a non-empty string: {record}")
    if not isinstance(record.get("fields", {}), dict):
        raise EventLogError(f"fields must be an object: {record}")


def read_jsonl(path: str) -> List[Event]:
    """Load and validate a ``repro-events/1`` JSONL file.

    The header record (``{"schema": "repro-events/1"}``) is required on
    the first line; every other line must validate as an event row.
    """
    events: List[Event] = []
    with open(path) as handle:
        first = handle.readline()
        if not first.strip():
            raise EventLogError(f"{path}: empty event log")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise EventLogError(f"{path}:1: not JSON: {exc}") from exc
        if not isinstance(header, dict) or header.get("schema") != EVENTS_SCHEMA:
            raise EventLogError(
                f"{path}:1: expected {{'schema': '{EVENTS_SCHEMA}'}} header, got {first.strip()!r}"
            )
        for number, line in enumerate(handle, 2):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise EventLogError(f"{path}:{number}: not JSON: {exc}") from exc
            try:
                validate_record(record)
            except EventLogError as exc:
                raise EventLogError(f"{path}:{number}: {exc}") from exc
            events.append(
                Event(record["seq"], record["t"], record["kind"], record.get("fields", {}))
            )
    return events


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
