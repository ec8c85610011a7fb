"""Metrics registry — the quantitative half of the observability layer.

Three metric kinds, all label-aware:

* :class:`Counter` — monotonically increasing totals (matches made,
  claims rejected, ads expired);
* :class:`Gauge` — last-written values (pool size, queue depth);
* :class:`Histogram` — distribution summaries built on
  :class:`RunningStats` (cycle duration, evaluation steps), so
  million-sample runs never hold per-sample lists.

Design constraints, in order of importance:

1. **Near-zero overhead when disabled.**  Every mutating call first
   checks one boolean attribute on the owning registry and returns —
   no allocation, no dict lookup, no label hashing.  The pool simulator
   dispatches millions of events; instrumentation must be free until
   someone turns it on.
2. **Machine readable.**  :meth:`MetricsRegistry.snapshot` renders the
   whole registry as plain JSON-compatible data (the ``repro-obs/2``
   schema, see docs/OBSERVABILITY.md); exporters only serialize.
3. **Import-cycle free.**  This module sits below every other package
   (classads, sim, condor all import it), so it imports nothing from
   them.  :class:`RunningStats` therefore lives *here* and is
   re-exported by :mod:`repro.sim.metrics` for compatibility.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, Any], ...]


class RunningStats:
    """Numerically stable online mean/variance/min/max (Welford)."""

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum")

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def total(self) -> float:
        return self._mean * self.count

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }

    def __repr__(self) -> str:
        if not self.count:
            return "RunningStats(empty)"
        return (
            f"RunningStats(n={self.count}, mean={self.mean:.3f}, "
            f"sd={self.stdev:.3f}, min={self.minimum:.3f}, max={self.maximum:.3f})"
        )


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


class _Metric:
    """Common shape: a named family of samples keyed by label sets."""

    kind = "metric"
    __slots__ = ("name", "description", "_registry", "_values")

    def __init__(self, name: str, description: str, registry: "MetricsRegistry"):
        self.name = name
        self.description = description
        self._registry = registry
        self._values: Dict[LabelKey, Any] = {}

    def samples(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._values.items())
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "samples": self.samples(),
        }

    def clear(self) -> None:
        self._values.clear()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, samples={len(self._values)})"


class Counter(_Metric):
    """A monotonically increasing total, optionally split by labels."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(labels) if labels else ()
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        """Current total for one label set (0 when never incremented)."""
        return self._values.get(_label_key(labels) if labels else (), 0)

    @property
    def total(self) -> float:
        """Sum across every label set."""
        return sum(self._values.values())


class Gauge(_Metric):
    """A last-written value, optionally split by labels."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        self._values[_label_key(labels) if labels else ()] = value

    def add(self, delta: float, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(labels) if labels else ()
        self._values[key] = self._values.get(key, 0) + delta

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels) if labels else (), 0)


class Histogram(_Metric):
    """A distribution summary (count/sum/mean/stdev/min/max) per label set."""

    kind = "histogram"
    __slots__ = ()

    def observe(self, value: float, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(labels) if labels else ()
        stats = self._values.get(key)
        if stats is None:
            stats = self._values[key] = RunningStats()
        stats.add(value)

    def stats(self, **labels: Any) -> Optional[RunningStats]:
        return self._values.get(_label_key(labels) if labels else ())

    def samples(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(key), "value": stats.to_dict()}
            for key, stats in sorted(self._values.items())
        ]


class MetricsRegistry:
    """A named collection of metrics with one master enable switch.

    Metric construction is idempotent — asking for an existing name
    returns the existing instance (so every module can declare its
    metrics at import time against the shared global registry) — but
    re-registering a name as a different kind is a programming error.
    """

    __slots__ = ("enabled", "_metrics", "_collectors")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[str, _Metric] = {}
        # Flush hooks for hot paths that accumulate in local variables
        # instead of paying a dict update per event (see
        # classads.evaluator); run before any snapshot/reset.
        self._collectors: List[Any] = []

    # -- switches ---------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every metric; registrations (names/kinds) survive."""
        self.collect()
        for metric in self._metrics.values():
            metric.clear()

    # -- deferred accumulation --------------------------------------------

    def register_collector(self, flush) -> None:
        """Register *flush*, called before every snapshot/totals/reset.

        Lets the hottest call sites batch into module-level variables
        and settle them into real counters only when someone looks.
        """
        self._collectors.append(flush)

    def collect(self) -> None:
        for flush in self._collectors:
            flush()

    # -- registration -----------------------------------------------------

    def _register(self, cls, name: str, description: str):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, description, self)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, description: str = "") -> Counter:
        return self._register(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._register(Gauge, name, description)

    def histogram(self, name: str, description: str = "") -> Histogram:
        return self._register(Histogram, name, description)

    # -- access -----------------------------------------------------------

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self, prefix: Optional[str] = None) -> List[Dict[str, Any]]:
        """Every metric (optionally name-filtered) as JSON-ready dicts.

        Metrics with no samples are included with an empty ``samples``
        list so the catalogue is discoverable from one snapshot.
        """
        self.collect()
        return [
            metric.to_dict()
            for name, metric in sorted(self._metrics.items())
            if prefix is None or name.startswith(prefix)
        ]

    def totals(self, prefix: Optional[str] = None) -> Dict[str, float]:
        """Collapsed counter totals — the quick-look view."""
        self.collect()
        out: Dict[str, float] = {}
        for name, metric in sorted(self._metrics.items()):
            if prefix is not None and not name.startswith(prefix):
                continue
            if isinstance(metric, Counter) and metric._values:
                out[name] = metric.total
        return out
