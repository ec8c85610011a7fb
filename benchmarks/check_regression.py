"""Benchmark regression gate: fresh smoke results vs committed baselines.

Compares ``BENCH_*.json`` records from a fresh run (``--fresh DIR``)
against the reference records in ``benchmarks/baselines/`` on the
hardware-portable *shape* figures — speedup ratios, not absolute
times.  A gated figure may not fall more than ``--tolerance`` (default
20%) below its baseline value; anything else in the records is
informational.

Exits non-zero when a gated figure regresses, or when no comparison was
possible at all (that means the wiring broke — a gate that silently
compares nothing is no gate).

Usage::

    python benchmarks/check_regression.py --fresh bench-artifacts
"""

import argparse
import glob
import json
import os
import sys

BASELINES_DIR = os.path.join(os.path.dirname(__file__), "baselines")

#: throughput keys gated per benchmark name; everything else is FYI.
GATED = {
    "E6_scalability": ("batch_cycle_speedup", "compile_cycle_speedup"),
    "EVAL_compile": ("warm_speedup",),
    # A period of Refreshes must keep beating a period of full ads (the
    # collector's ingest of a content change) on steady-state collector
    # ingest (baseline seeded at 2.5 so the default 20% tolerance floor
    # equals the 2x acceptance bar).
    "ADV_advertising": ("advertising_ingest_speedup",),
}


def load_records(directory):
    records = {}
    for path in glob.glob(os.path.join(directory, "BENCH_*.json")):
        with open(path) as handle:
            record = json.load(handle)
        if record.get("schema") != "repro-bench/1":
            raise SystemExit(f"{path}: not a repro-bench/1 record")
        records[record["name"]] = record
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", required=True, help="directory of fresh BENCH_*.json")
    parser.add_argument(
        "--baselines", default=BASELINES_DIR, help="reference records directory"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional drop below baseline (default: 0.20)",
    )
    args = parser.parse_args(argv)

    fresh = load_records(args.fresh)
    baselines = load_records(args.baselines)

    compared = 0
    failures = []
    for name, keys in sorted(GATED.items()):
        base = baselines.get(name)
        new = fresh.get(name)
        if base is None or new is None:
            print(f"{name}: skipped ({'no baseline' if base is None else 'no fresh run'})")
            continue
        for key in keys:
            base_value = base["throughput"].get(key)
            new_value = new["throughput"].get(key)
            if base_value is None or new_value is None:
                print(f"{name}.{key}: skipped (figure missing)")
                continue
            compared += 1
            floor = base_value * (1.0 - args.tolerance)
            verdict = "ok" if new_value >= floor else "REGRESSED"
            print(
                f"{name}.{key}: fresh {new_value:.3f} vs baseline {base_value:.3f} "
                f"(floor {floor:.3f}) — {verdict}"
            )
            if new_value < floor:
                failures.append(f"{name}.{key}")

    if compared == 0:
        print("error: no gated figures were compared — gate wiring is broken")
        return 1
    if failures:
        print(f"error: regression in {', '.join(failures)}")
        return 1
    print(f"{compared} gated figure(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
