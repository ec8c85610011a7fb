"""Recorded streams — how every obs JSONL stream is buffered, clocked,
written and read back.

The event log (``repro-events/1``), the causal trace (``repro-trace/1``)
and the pool series (``repro-series/1``) differ only in their records.
Each is a :class:`RecordStream`: off by default, its recording call
bails on one plain attribute read (``if not self.enabled``), it keeps
the most recent records in a bounded ring, stamps them from a swappable
clock, and can stream every record as one JSON line to a file whose
first line is the ``{"schema": ...}`` header.  :func:`read_stream`
reads such a file back, checking the header and each line against the
schema's table of required keys.
"""

from __future__ import annotations

import json
import time as _time
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, TextIO, Tuple, Type


class StreamError(Exception):
    """A recorded stream failed its schema's validation."""


class RecordStream:
    """A bounded ring of records plus an optional schema-headed JSONL sink.

    Subclasses name their ``SCHEMA`` and define the recording call, which
    tests ``self.enabled`` first, numbers the record from ``_seq`` and
    hands it to :meth:`_record`.  Records provide ``to_dict()``.
    """

    __slots__ = ("enabled", "capacity", "_ring", "_seq", "_sink", "_sink_path", "clock")

    #: The schema named by the sink's header line.
    SCHEMA = ""
    #: Flush the sink after every record, so a reader can follow it live.
    FLUSH = False

    def __init__(self, enabled: bool = False, capacity: Optional[int] = 65536):
        self.enabled = enabled
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self._seq = 0
        self._sink: Optional[TextIO] = None
        self._sink_path: Optional[str] = None
        #: Timestamp source for records given no time.  Defaults to wall
        #: clock; a :class:`repro.sim.Simulator` installs its simulated
        #: clock at construction so recorded runs carry simulated time.
        self.clock: Callable[[], float] = _time.time

    # -- switches ---------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop recorded records and restart numbering; sinks stay open."""
        self._ring.clear()
        self._seq = 0
        self.clock = _time.time

    def set_clock(self, clock: Callable[[], float]) -> None:
        self.clock = clock

    # -- sinks ------------------------------------------------------------

    def open_file(self, path: str) -> str:
        """Stream every subsequent record to *path* as JSON lines.

        The first line is the schema header record; re-opening closes
        any previous sink.  Returns the path.
        """
        self.close_file()
        self._sink = open(path, "w")
        self._sink_path = path
        json.dump({"schema": self.SCHEMA}, self._sink)
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

    # -- recording and queries --------------------------------------------

    def _record(self, record: Any) -> None:
        self._ring.append(record)
        if self._sink is not None:
            json.dump(record.to_dict(), self._sink, default=str)
            self._sink.write("\n")
            if self.FLUSH:
                self._sink.flush()

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._ring)

    def __reversed__(self) -> Iterator[Any]:
        return reversed(self._ring)

    def render(self, limit: Optional[int] = None) -> str:
        """The last *limit* records (all by default), one per line."""
        records = list(self._ring)
        if limit is not None:
            records = records[-limit:]
        return "\n".join(str(r) for r in records)


# ---------------------------------------------------------------------------
# reading a stream back
#
# A schema's checks are a table of ``(key, kind)`` rows; a kind is
# ``(test, description, required)``.  A required key must be present; a
# present key's value must pass the test.

Kind = Tuple[Callable[[Any], bool], str, bool]
Checks = Sequence[Tuple[str, Kind]]

INTEGER: Kind = (lambda v: isinstance(v, int), "an integer", True)
NUMBER: Kind = (
    lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number", True
)
NAME: Kind = (lambda v: isinstance(v, str) and v != "", "a non-empty string", True)
#: The free-form ``fields`` object, which a record may omit.
FIELDS: Kind = (lambda v: isinstance(v, dict), "an object", False)


def validate(record: Any, checks: Checks, error: Type[StreamError]) -> None:
    """Raise *error* unless *record* is an object passing *checks*."""
    if not isinstance(record, dict):
        raise error(f"record must be an object, got {type(record).__name__}")
    for key, (test, description, required) in checks:
        if key not in record:
            if required:
                raise error(f"record missing {key!r}: {record}")
        elif not test(record[key]):
            raise error(f"{key} must be {description}: {record}")


def check_header(line: str, path: str, schema: str, error: Type[StreamError]) -> None:
    """Raise *error* unless *line* is the ``{"schema": schema}`` header."""
    if not line.strip():
        raise error(f"{path}: empty {schema} stream")
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise error(f"{path}:1: not JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") != schema:
        raise error(f"{path}:1: expected {{'schema': '{schema}'}} header, got {line.strip()!r}")


def parse_line(line: str, where: str, checks: Checks, error: Type[StreamError]) -> Dict[str, Any]:
    """One stream line as a validated record; errors are prefixed *where*."""
    try:
        record = json.loads(line)
        validate(record, checks, error)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: not JSON: {exc}") from exc
    except StreamError as exc:
        raise error(f"{where}: {exc}") from exc
    return record


def read_stream(
    path: str,
    schema: str,
    error: Type[StreamError],
    checks: Checks,
    make: Callable[[Dict[str, Any]], Any],
) -> List[Any]:
    """Load a schema-headed JSONL file as ``make(record)`` per line.

    The header is required on the first line; every other non-blank line
    must validate against *checks*.  Failures raise *error* naming
    ``path:line``.
    """
    records: List[Any] = []
    with open(path) as handle:
        check_header(handle.readline(), path, schema, error)
        for number, line in enumerate(handle, 2):
            line = line.strip()
            if line:
                records.append(make(parse_line(line, f"{path}:{number}", checks, error)))
    return records
