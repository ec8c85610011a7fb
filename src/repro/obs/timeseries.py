"""Pool-health time series — the ``repro-series/1`` stream.

``condor_status`` answers "what does the pool look like *now*"; this
module keeps the history: one :class:`Sample` per negotiation cycle
(machines by state, idle jobs, claims, match rate, preemptions), taken
by the collector — the daemon that already holds the pool's soft state
— and stored in a bounded ring with an optional JSONL sink.  ``repro
obs pool`` renders the recorded series as a table (or follows a live
file with ``--watch``), the ``condor_status``-history analogue.

The store is a recorded stream (:mod:`repro.obs.stream`) that flushes
its file after every sample, so ``--watch`` sees each row as it lands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .stream import FIELDS, INTEGER, NUMBER, RecordStream, StreamError, read_stream, validate

SERIES_SCHEMA = "repro-series/1"


@dataclass(frozen=True)
class Sample:
    """One pool-health observation at simulated time ``t``."""

    seq: int
    t: float
    fields: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "t": self.t, "fields": dict(self.fields)}

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.t:12.3f}] #{self.seq:<6d} {details}".rstrip()


class SeriesError(StreamError):
    """A recorded series stream failed ``repro-series/1`` validation."""


class SeriesStore(RecordStream):
    """The process-wide pool time-series store (ring + optional sink)."""

    __slots__ = ()

    SCHEMA = SERIES_SCHEMA
    #: ``repro obs pool --watch`` follows the file while the run is live.
    FLUSH = True

    def __init__(self, enabled: bool = False, capacity: Optional[int] = 16384):
        super().__init__(enabled, capacity)

    def sample(self, t: Optional[float] = None, **fields: Any) -> None:
        """Record one observation (no-op while disabled)."""
        if not self.enabled:
            return
        self._seq += 1
        self._record(Sample(self._seq, self.clock() if t is None else t, fields))

    def samples(self) -> List[Sample]:
        return list(self._ring)

    def last(self) -> Optional[Sample]:
        return self._ring[-1] if self._ring else None


#: The process-wide pool time-series store.
series = SeriesStore(enabled=False)


# ---------------------------------------------------------------------------
# serialization: repro-series/1 JSONL

#: The required keys of a serialized sample and their types (pool gauges
#: live under ``fields``).
SAMPLE_CHECKS = (("seq", INTEGER), ("t", NUMBER), ("fields", FIELDS))


def sample_of(record: Dict[str, Any]) -> Sample:
    """The :class:`Sample` a validated ``repro-series/1`` row describes."""
    return Sample(record["seq"], record["t"], record.get("fields", {}))


def validate_record(record: Dict[str, Any]) -> None:
    """Raise :class:`SeriesError` unless *record* is a valid sample row."""
    validate(record, SAMPLE_CHECKS, SeriesError)


def read_jsonl(path: str) -> List[Sample]:
    """Load and validate a ``repro-series/1`` JSONL file."""
    return read_stream(path, SERIES_SCHEMA, SeriesError, SAMPLE_CHECKS, sample_of)


#: Column order for the ``repro obs pool`` table (missing fields show "-").
POOL_COLUMNS = (
    ("cycle", 5),
    ("machines", 8),
    ("owner", 5),
    ("unclaimed", 9),
    ("claimed", 7),
    ("jobs_idle", 9),
    ("matched", 7),
    ("requests", 8),
    ("match_rate", 10),
    ("preemptions", 11),
)


def render_header() -> str:
    return f"{'t':>12}  " + "  ".join(f"{name:>{width}}" for name, width in POOL_COLUMNS)


def render_row(sample: Sample) -> str:
    cells = [f"{sample.t:12.1f}"]
    for name, width in POOL_COLUMNS:
        value = sample.fields.get(name)
        if value is None:
            cells.append(f"{'-':>{width}}")
        elif name == "match_rate" and isinstance(value, float):
            cells.append(f"{value:>{width}.2f}")
        else:
            cells.append(f"{value!s:>{width}}")
    return "  ".join(cells)


def render_table(samples: List[Sample], limit: Optional[int] = None) -> str:
    """The ``repro obs pool`` view: one row per recorded cycle."""
    if limit is not None:
        samples = samples[-limit:]
    return "\n".join([render_header()] + [render_row(sample) for sample in samples])
