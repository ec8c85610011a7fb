#!/usr/bin/env python3
"""End-to-end pool benchmark: four seeded ``CondorPool`` workloads.

    python3 benchmarks/pool/run.py [--workload W] [--seed N] [--traced]

runs each workload in fresh child processes (``child.py``), checks the
run's outputs, and prints every metric by name with its unit, direction
and bound.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  This is a
simulator: host time is the performance being measured; simulated
statistics are exact for a seed and are the correctness check.

Other modes: ``--check`` (recompute the committed outcome digests, no
timing), ``--compare A.json B.json`` (two sets of runs against the
bounds), ``--selftest`` (the harness's own tests).  README.md explains
the workloads, the metrics and the layer table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence

import spans
import workloads
from workloads import STEP_S, STEPS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

DEFAULT_SEED = 7
EXPECTED_SEEDS = (7, 11)  # 11 is held out for later claims
#: Set-up is short and noisy, so every run times it this many times
#: (extra children that stop after set-up) and reports the median.
SETUP_SAMPLES = 4
CHILD_TIMEOUT_S = 150
MIN_COVERAGE = 0.80
MAX_OVERHEAD = 0.20

#: Per-layer metrics that are counts, in the order they are printed.
COUNTERS = (
    "sim.engine.events",
    "sim.network.delivered",
    "sim.network.dropped_loss",
    "sim.network.duplicated",
    "condor.machine.full_ads",
    "condor.machine.refreshes",
    "condor.collector.resend_requests",
    "condor.negotiator.cycles",
    "condor.negotiator.matches",
    "matchmaking.matchmaker.requests_considered",
    "matchmaking.matchmaker.request_classes",
    "matchmaking.matchmaker.pairings_saved",
    "matchmaking.matchmaker.evals_saved_by_index",
    "matchmaking.index.rebuilds",
    "protocols.retry.retransmits",
    "sim.trace.events",
    "condor.pool.jobs_completed",
    "condor.pool.claims_attempted",
    "condor.pool.claims_rejected",
    "condor.pool.evictions",
    "condor.pool.goodput_share",
    "condor.pool.wait_mean_s",
    "condor.pool.turnaround_mean_s",
)
TRACE_SHARES = ("trace.coverage_share", "trace.overhead_share")


def per_layer_names() -> List[str]:
    names = []
    for layer in spans.LAYERS:
        names += [f"{layer}_self_s", f"{layer}_calls"]
    return names + list(COUNTERS) + list(TRACE_SHARES)


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


# -- children ---------------------------------------------------------------


def child_env(environ: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The child's environment: no ``REPRO_*`` switch, hash seed pinned.

    Hash randomisation alone spreads ``backlog-drain``'s wall time by
    +-12% from run to run; pinned it is the box's own noise.
    """
    source = os.environ if environ is None else environ
    env = {k: v for k, v in source.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    return env


def run_child(
    workload: str,
    seed: int,
    steps: int = STEPS,
    machines: int = 0,
    traced: bool = False,
    trace_out: str = "",
    setup_only: bool = False,
) -> dict:
    """One fresh process running ``child.py``; its last line, parsed."""
    command = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--steps", str(steps),
        "--machines", str(machines),
        "--traced", str(int(traced)),
        "--trace-out", trace_out,
        "--setup-only", str(int(setup_only)),
    ]  # fmt: skip
    done = subprocess.run(
        command,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child failed ({done.returncode}):\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.splitlines()[-1])


# -- statistics -------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q* quantile, refused unless ten samples lie beyond it."""
    rank = math.ceil(q * len(samples))
    if len(samples) - rank < 10:
        raise ValueError(
            f"p{round(q * 100)} of {len(samples)} samples has only "
            f"{len(samples) - rank} beyond it; ten are needed"
        )
    return sorted(samples)[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end_metrics(full: List[dict], setups: List[float]) -> Dict[str, float]:
    """Median over the window runs; set-up over every set-up sample."""
    median = statistics.median
    hours = full[0]["steps"] * STEP_S / 3600.0
    metrics = {
        "setup_s": median(setups),
        "wall_s_per_sim_hour": median(c["window_wall_s"] for c in full) / hours,
        "cpu_s_per_sim_hour": median(c["window_cpu_s"] for c in full) / hours,
        "step_wall_p50_ms": median(median(c["step_ms"]) for c in full),
        "peak_rss_mb": median(c["peak_rss_mb"] for c in full),
    }
    try:
        metrics["step_wall_p90_ms"] = median(percentile(c["step_ms"], 0.90) for c in full)
    except ValueError:
        pass  # a window too short for a p90 (the smoke run) reports none
    return metrics


def tracing_overhead(child: dict) -> float:
    """Share of a traced window that the spans themselves took.

    Spans in the window times the cost of one span, which the child
    measures itself right after the window.  The plain difference between
    a traced and an untraced window is printed too, but from one pair on a
    shared box it carries +-10% or more of noise, several times the
    overhead it is meant to show.
    """
    in_window = sum(calls for _, calls in child["layers"].values())
    spent = in_window * child["span_cost_s"]
    return spent / (child["window_wall_s"] - spent)


def per_layer_metrics(traced: List[dict]) -> Dict[str, float]:
    median = statistics.median
    metrics: Dict[str, float] = {}
    for layer in spans.LAYERS:
        rows = [c["layers"].get(layer, (0.0, 0)) for c in traced]
        metrics[f"{layer}_self_s"] = median(row[0] for row in rows)
        metrics[f"{layer}_calls"] = median(row[1] for row in rows)
    for name in COUNTERS:
        metrics[name] = median(c["counts"][name] for c in traced)
    metrics["trace.coverage_share"] = median(
        1.0 - c["layers"]["sim.engine.dispatch"][0] / c["window_wall_s"] for c in traced
    )
    metrics["trace.overhead_share"] = median(tracing_overhead(c) for c in traced)
    return metrics


# -- one run ----------------------------------------------------------------


def expected_outcome(workload: str, seed: int) -> Optional[dict]:
    try:
        with open(EXPECTED_PATH) as handle:
            expected = json.load(handle)
    except FileNotFoundError:
        return None
    return expected["seeds"].get(str(seed), {}).get(workload)


def commit_id() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One run: window runs until ``seconds`` are filled, set-up samples,
    output checks; returns the result record.

    A window has a fixed length in simulated time, so ``seconds`` sets how
    many are run: the whole number nearest to ``seconds`` over the time
    the first took, and at least one.  A traced run pairs every traced
    child with an untraced one, whose outcome digest must be the same.
    """
    os.makedirs(OUT, exist_ok=True)
    trace_out = os.path.join(OUT, f"trace-{workload}.json") if traced else ""
    untraced: List[dict] = []
    traced_runs: List[dict] = []
    started = time.perf_counter()
    rounds = 1
    while len(untraced) < rounds:
        untraced.append(run_child(workload, seed))
        if traced:
            traced_runs.append(run_child(workload, seed, traced=True, trace_out=trace_out))
        if len(untraced) == 1:
            rounds = max(1, round(seconds / (time.perf_counter() - started)))
    full = untraced + traced_runs
    setups = [c["setup_s"] for c in untraced]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, seed, setup_only=True)["setup_s"])

    problems: List[str] = []
    for child in full:
        problems += child["violations"]
    digests = sorted({c["digest"] for c in full})
    if len(digests) > 1:
        problems.append(f"outcome digest differs between runs of one commit: {digests}")
    if traced:
        values = per_layer_metrics(traced_runs)
        if values["trace.coverage_share"] < MIN_COVERAGE:
            problems.append(
                f"trace.coverage_share {values['trace.coverage_share']:.3f} < {MIN_COVERAGE}"
            )
        if values["trace.overhead_share"] > MAX_OVERHEAD:
            problems.append(
                f"trace.overhead_share {values['trace.overhead_share']:.3f} > {MAX_OVERHEAD}"
            )
    else:
        values = end_to_end_metrics(untraced, setups)

    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    failed = sum(c["failed"] for c in full) + len(problems)
    expected = expected_outcome(workload, seed)
    if expected is None:
        expectation = "no committed expectation for this seed"
    elif expected["digest"] == digests[0]:
        expectation = "matches expected.json"
    else:
        expectation = "outcome_changed: differs from expected.json"
    wall = statistics.median(c["window_wall_s"] for c in untraced)
    first = untraced[0]
    return {
        "schema": "pool-bench/1",
        "commit": commit_id(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "steps": first["steps"],
        "machines": first["machines"],
        "jobs": first["jobs"],
        "traced": traced,
        "window_runs": len(untraced),
        "setup_samples": len(setups),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
        "attempted": sum(c["attempted"] for c in full),
        "failed": failed,
        "correct": failed == 0,
        "problems": problems,
        "digest": digests[0],
        "expectation": expectation,
        # ROADMAP's two figures; both are wall_s_per_sim_hour restated.
        "sim_s_per_wall_s": first["steps"] * STEP_S / wall,
        "matches_per_wall_s": first["counts"]["condor.negotiator.matches"] / wall,
        "step_samples": len(first["step_ms"]),
        "layers": traced_runs[0]["layers"] if traced else None,
        "untraced_wall_s": wall,
        "traced_wall_s": (
            statistics.median(c["window_wall_s"] for c in traced_runs) if traced else None
        ),
    }


# -- printing ---------------------------------------------------------------


def print_record(record: dict, spec: dict) -> None:
    kind = "traced" if record["traced"] else "untraced"
    print(
        f"\n== {record['workload']}  seed {record['seed']}  {kind}  "
        f"({record['machines']} machines, {record['jobs']} jobs, {record['steps']} steps; "
        f"{record['window_runs']} window run(s), {record['setup_samples']} set-ups) =="
    )
    if record["traced"]:
        print_layer_table(record)
        plain, traced = record["untraced_wall_s"], record["traced_wall_s"]
        print(
            f"window: traced {traced:.3f} s, untraced {plain:.3f} s "
            f"({traced / plain - 1.0:+.1%}; one pair, so mostly the box's noise)"
        )
    definitions = spec["per_layer" if record["traced"] else "end_to_end"]
    print(f"{'metric':<52} {'value':>14}  {'unit':<6} {'better':<7} bound")
    for definition in definitions:
        metric = record["metrics"].get(definition["name"])
        if metric is None:
            continue
        bound = f"{definition['bound']:.0%}" if "bound" in definition else "-"
        print(
            f"{definition['name']:<52} {metric['value']:>14.6g}  {metric['unit']:<6} "
            f"{definition['better']:<7} {bound}"
        )
    if not record["traced"]:
        print(
            f"step percentiles over n={record['step_samples']} steps; also "
            f"{record['sim_s_per_wall_s']:.1f} simulated s per wall s, "
            f"{record['matches_per_wall_s']:.2f} jobs matched per wall s"
        )
    print(
        f"operations: {record['attempted']} attempted, {record['failed']} failed; "
        f"digest {record['digest'][:16]} ({record['expectation']})"
    )
    for problem in record["problems"]:
        print(f"PROBLEM: {problem}")


def print_layer_table(record: dict) -> None:
    """Layers by self time, with share of the window and running total."""
    rows = sorted(
        ((name, row[0], row[1]) for name, row in record["layers"].items()),
        key=lambda row: -row[1],
    )
    window = sum(row[1] for row in rows)
    print(f"{'layer':<46} {'self_s':>9} {'share':>7} {'cum':>7} {'calls':>9}")
    running = 0.0
    for name, self_s, calls in rows:
        running += self_s
        print(f"{name:<46} {self_s:>9.4f} {self_s / window:>7.1%} {running / window:>7.1%} {calls:>9}")


def result_line(record: dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({key: record[key] for key in keys})


def save_record(record: dict) -> str:
    kind = "traced" if record["traced"] else "untraced"
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(OUT, f"{record['workload']}-seed{record['seed']}-{kind}-{stamp}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    return path


# -- compare ----------------------------------------------------------------


def load_runs(path: str) -> List[dict]:
    """Records from a set file (``--save``), one record file, or a
    directory of record files."""
    if os.path.isdir(path):
        files = sorted(f for f in os.listdir(path) if f.endswith(".json"))
        return [run for f in files for run in load_runs(os.path.join(path, f))]
    with open(path) as handle:
        data = json.load(handle)
    if "runs" in data:
        return data["runs"]
    return [data] if data.get("schema") == "pool-bench/1" else []


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Every workload x end-to-end metric of two sets of runs against its
    bound.  ``unresolved`` means a set's own quartile spread exceeds the
    bound, so the medians cannot be told apart at that resolution."""
    sets = []
    for path in (path_a, path_b):
        runs = [r for r in load_runs(path) if not r["traced"]]
        sets.append(runs)
        bad = sum(1 for r in runs if not r["correct"])
        print(f"{path}: {len(runs)} untraced runs, {bad} with failed operations or checks")
    worse = 0
    print(
        f"{'workload':<14} {'metric':<20} {'A q1/median/q3':>32} {'B q1/median/q3':>32} "
        f"{'B/A':>7} {'bound':>6}  verdict"
    )
    for workload in WORKLOADS:
        digests = [
            {(r["seed"], r["digest"]) for r in runs if r["workload"] == workload}
            for runs in sets
        ]
        for definition in spec["end_to_end"]:
            name, bound = definition["name"], definition["bound"]
            columns = []
            for runs in sets:
                values = [
                    r["metrics"][name]["value"]
                    for r in runs
                    if r["workload"] == workload and name in r["metrics"]
                ]
                columns.append(values)
            if min(len(values) for values in columns) < 2:
                continue
            quartiles = [statistics.quantiles(values, n=4) for values in columns]
            medians = [statistics.median(values) for values in columns]
            ratio = medians[1] / medians[0]
            change = ratio - 1.0 if definition["better"] == "lower" else 1.0 - ratio
            if max(spread(values) for values in columns) > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "within"
            cells = [
                f"{q[0]:.5g} / {m:.5g} / {q[2]:.5g}" for q, m in zip(quartiles, medians)
            ]
            print(
                f"{workload:<14} {name:<20} {cells[0]:>32} {cells[1]:>32} "
                f"{ratio:>7.3f} {bound:>6.0%}  {verdict}"
            )
        seeds = {seed for seed, _ in digests[0]} & {seed for seed, _ in digests[1]}
        same = all(
            {d for s, d in digests[0] if s == seed} == {d for s, d in digests[1] if s == seed}
            for seed in seeds
        )
        print(
            f"{workload:<14} outcome digests "
            f"{'identical' if same else 'DIFFER'} on {len(seeds)} shared seed(s)"
        )
        worse += 0 if same else 1
    return 1 if worse else 0


# -- check ------------------------------------------------------------------


def check(rebase: bool) -> int:
    """Recompute digest and modelled counts for the committed seeds and
    diff them against expected.json; nothing is timed, so children run
    side by side."""
    jobs = [(w, seed) for seed in EXPECTED_SEEDS for w in WORKLOADS]
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        children = list(pool.map(lambda job: run_child(*job), jobs))
    seeds: Dict[str, dict] = {}
    for (workload, seed), child in zip(jobs, children):
        seeds.setdefault(str(seed), {})[workload] = {
            "digest": child["digest"],
            "attempted": child["attempted"],
            "failed": child["failed"],
            "counts": child["counts"],
        }
    fresh = {
        "steps": STEPS,
        "sizes": {
            w.name: {"machines": w.machines, "jobs": w.jobs_per_owner * len(workloads.OWNERS)}
            for w in WORKLOADS.values()
        },
        "seeds": seeds,
    }
    if rebase:
        with open(EXPECTED_PATH, "w") as handle:
            json.dump(fresh, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {EXPECTED_PATH}")
        return 0
    with open(EXPECTED_PATH) as handle:
        committed = json.load(handle)
    differences = 0
    for workload, seed in jobs:
        new = fresh["seeds"][str(seed)][workload]
        old = committed["seeds"].get(str(seed), {}).get(workload, {})
        changed = [
            f"{key}: {old.get('counts', {}).get(key)} -> {value}"
            for key, value in new["counts"].items()
            if old.get("counts", {}).get(key) != value
        ]
        for key in ("digest", "attempted", "failed"):
            if old.get(key) != new[key]:
                changed.append(f"{key}: {old.get(key)} -> {new[key]}")
        print(f"{workload:<14} seed {seed:<3} {'outcome_changed' if changed else 'ok'}")
        for line in changed:
            print(f"    {line}")
        differences += bool(changed)
    return 1 if differences else 0


# -- command line -------------------------------------------------------------


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--runs", type=int, default=1, help="repeat with seed, seed+1, ...")
    parser.add_argument("--save", metavar="SET.json", help="write every record of this call")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--rebase-expected", action="store_true", help="with --check: rewrite it")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if args.selftest:
        import unittest

        import test_harness

        suite = unittest.defaultTestLoader.loadTestsFromModule(test_harness)
        return 0 if unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful() else 1
    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    if args.check:
        return check(args.rebase_expected)

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    traced = bool(args.trace or args.traced)
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    for run in range(args.runs):
        for name in names:
            record = measure(name, args.seed + run, seconds, traced)
            records.append(record)
            print_record(record, spec)
            print(f"record: {os.path.relpath(save_record(record))}")
            if traced:
                print(f"trace:  {os.path.relpath(os.path.join(OUT, f'trace-{name}.json'))}")
            print(result_line(record), flush=True)
    if args.save:
        with open(args.save, "w") as handle:
            json.dump({"runs": records}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
