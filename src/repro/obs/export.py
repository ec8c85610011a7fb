"""Exporters: render a metrics registry as JSON or human text.

The wire format is the ``repro-obs/2`` schema (docs/OBSERVABILITY.md)::

    {
      "schema": "repro-obs/2",
      "metrics": [ {"name", "kind", "description", "samples": [...]}, ... ]
    }

Counters/gauges sample ``value`` as a number; histogram samples carry a
``{count, sum, mean, stdev, min, max}`` summary.  Exporters never
mutate the registry, so snapshots can be taken mid-run.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, Optional, TextIO

from .registry import MetricsRegistry

OBS_SCHEMA = "repro-obs/2"


def snapshot(
    registry: Optional[MetricsRegistry] = None,
    prefix: Optional[str] = None,
) -> Dict[str, Any]:
    """The full metrics state as one JSON-compatible dict."""
    from . import metrics as global_metrics

    registry = registry if registry is not None else global_metrics
    return {"schema": OBS_SCHEMA, "metrics": registry.snapshot(prefix)}


def write_json(
    path: str,
    registry: Optional[MetricsRegistry] = None,
    indent: int = 2,
) -> str:
    """Persist :func:`snapshot` to *path*; returns the path."""
    with open(path, "w") as handle:
        json.dump(snapshot(registry), handle, indent=indent, sort_keys=True)
        handle.write("\n")
    return path


def dump(
    registry: Optional[MetricsRegistry] = None,
    stream: Optional[TextIO] = None,
    prefix: Optional[str] = None,
) -> None:
    """Human-readable dump to *stream* (default stderr)."""
    stream = stream if stream is not None else sys.stderr
    stream.write("== metrics ==\n")
    for metric in snapshot(registry, prefix)["metrics"]:
        for sample in metric["samples"]:
            labels = ",".join(f"{k}={v}" for k, v in sample["labels"].items())
            suffix = f"{{{labels}}}" if labels else ""
            value = sample["value"]
            if isinstance(value, dict):  # histogram summary
                rendered = (
                    f"count={value['count']} mean={value['mean']:.6g}"
                    f" min={value['min']:.6g} max={value['max']:.6g}"
                )
            else:
                rendered = f"{value:g}" if isinstance(value, float) else str(value)
            stream.write(f"{metric['name']}{suffix} {rendered}\n")
