"""One run of one workload in a fresh process; ``run.py`` starts it.

Set-up runs from this file's first statement through ``import repro``, pool
generation, ``CondorPool(...)``, ``submit_all``, ``start()`` and a warm-up
to ``WARMUP_S`` (full ads sent, policies parsed and compiled, the store
populated).  The measured window is then ``--steps`` consecutive
``pool.run_until(t + 300)`` calls, each timed on its own; the output
checks run between steps, outside the timed part.  The last line of
standard output is one JSON object with everything measured and checked.
``--setup-only 1`` stops after set-up and reports only its time.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any other import

import argparse
import gc
import json
import resource
import sys
from time import perf_counter


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children.

    ``getrusage`` counts in microseconds; ``os.times`` counts the same
    quantity in 10 ms ticks, too coarse for one step.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


#: Per-cycle matchmaker statistics summed over the window's cycles.
CYCLE_STATS = {
    "matchmaking.matchmaker.requests_considered": "requests_considered",
    "matchmaking.matchmaker.request_classes": "request_classes",
    "matchmaking.matchmaker.pairings_saved": "pairings_saved",
    "matchmaking.matchmaker.evals_saved_by_index": "constraint_evaluations_saved",
}

#: Modelled statistics that are not counts, so not differenced over the window.
RATIOS = (
    "condor.pool.goodput_share",
    "condor.pool.wait_mean_s",
    "condor.pool.turnaround_mean_s",
)


def index_rebuilds(pool) -> int:
    if not pool.config.use_index:
        return 0  # asking for the index would build one
    return pool.collector.provider_index().index.rebuilds


def run(args) -> dict:
    import workloads
    from workloads import STEP_S, WARMUP_S

    workload = workloads.WORKLOADS[args.workload]
    if args.machines:
        workload = workload.scaled(args.machines)

    import repro.condor  # noqa: F401  (loads every layer the pool uses)

    recorder = None
    if args.traced:
        from spans import SETUP, STEP, Recorder

        recorder = Recorder()
        recorder.install()
        setup_span = recorder.open(SETUP)
    try:
        pool = workloads.build(workload, args.seed, args.steps)
        pool.run_until(WARMUP_S)
        if recorder is not None:
            recorder.close(setup_span)
        setup_s = perf_counter() - _T0
        if args.setup_only:
            return {"workload": workload.name, "seed": args.seed, "setup_s": setup_s}

        checker = workloads.Checker(workload, pool, args.steps)
        counts_before = workloads.modelled_counts(pool)
        rebuilds_before = index_rebuilds(pool)
        if recorder is not None:
            sends_before = dict(recorder.first_sends)
            retransmits_before = recorder.retransmits
        cycle_stats = dict.fromkeys(CYCLE_STATS, 0)
        cycles_seen = pool.negotiator.cycles_run
        step_ms, step_spans = [], []
        cpu_s = 0.0
        now = WARMUP_S
        gc.collect()
        for step in range(args.steps):
            now += STEP_S
            if recorder is not None:
                step_spans.append(recorder.open(STEP))
            cpu0 = cpu_seconds()
            t0 = perf_counter()
            pool.run_until(now)
            t1 = perf_counter()
            cpu_s += cpu_seconds() - cpu0
            if recorder is not None:
                recorder.close(step_spans[-1])
            step_ms.append((t1 - t0) * 1000.0)
            if pool.negotiator.cycles_run != cycles_seen:
                cycles_seen = pool.negotiator.cycles_run
                stats = pool.negotiator.last_cycle_stats
                for metric, field in CYCLE_STATS.items():
                    cycle_stats[metric] += getattr(stats, field)
            checker.at_step(step)
    finally:
        if recorder is not None:
            recorder.restore()

    operations = checker.finish()
    counts = workloads.modelled_counts(pool)
    for key, before in counts_before.items():
        if key not in RATIOS:
            counts[key] -= before
    counts.update(cycle_stats)
    counts["matchmaking.index.rebuilds"] = index_rebuilds(pool) - rebuilds_before
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "machines": workload.machines,
        "jobs": workload.jobs_per_owner * len(workloads.OWNERS),
        "steps": args.steps,
        "traced": bool(args.traced),
        "setup_s": setup_s,
        "window_wall_s": sum(step_ms) / 1000.0,
        "window_cpu_s": cpu_s,
        "step_ms": step_ms,
        "attempted": operations["attempted"],
        "failed": operations["failed"],
        "violations": checker.violations,
        "digest": workloads.outcome_digest(pool),
        "counts": counts,
    }
    if recorder is not None:
        report, per_step = layer_report(recorder, step_spans, sends_before, retransmits_before)
        counts.update(report.pop("send_counts"))
        result.update(report)
        if args.trace_out:
            write_trace(args.trace_out, result, per_step, recorder, step_spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def layer_report(recorder, step_spans, sends_before, retransmits_before):
    """Self time and calls per layer over the window and the counts the
    recorder took at ``Network.send``; and the self times step by step."""
    per_step = [recorder.self_times(index) for index in step_spans]
    layers: dict = {}
    for row in per_step:
        for name, (self_s, calls) in row.items():
            total = layers.setdefault(name, [0.0, 0])
            total[0] += self_s
            total[1] += calls

    def sent(cls: str, role: str) -> int:
        key = (cls, role)
        return recorder.first_sends.get(key, 0) - sends_before.get(key, 0)

    report = {
        "layers": layers,
        "send_counts": {
            "condor.machine.full_ads": sent("Advertisement", "startd"),
            "condor.machine.refreshes": sent("Refresh", "startd"),
            "condor.collector.resend_requests": sent("ResendRequest", "collector"),
            "protocols.retry.retransmits": recorder.retransmits - retransmits_before,
        },
        "spans": len(recorder),
        "span_cost_s": recorder.span_cost(),
    }
    return report, [{name: row[name][0] for name in row} for row in per_step]


def write_trace(path: str, result: dict, per_step, recorder, step_spans) -> None:
    """The trace file: layer totals, the per-step breakdown, and every span
    of the slowest step (all spans of all steps would be ~10^6 rows)."""
    slowest = max(range(len(step_spans)), key=result["step_ms"].__getitem__)
    trace = {
        "workload": result["workload"],
        "seed": result["seed"],
        "machines": result["machines"],
        "steps": result["steps"],
        "window_wall_s": result["window_wall_s"],
        "spans_recorded": result["spans"],
        "layers": {
            name: {"self_s": self_s, "calls": calls}
            for name, (self_s, calls) in sorted(result["layers"].items())
        },
        "step_ms": result["step_ms"],
        "per_step_self_s": per_step,
        "slowest_step": slowest,
        "slowest_step_spans": {
            "columns": ["name", "start_s", "end_s", "parent"],
            "rows": recorder.spans_under(step_spans[slowest]),
        },
    }
    with open(path, "w") as handle:
        json.dump(trace, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--steps", type=int, required=True)
    parser.add_argument("--machines", type=int, default=0, help="0 = the workload's own size")
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--setup-only", type=int, default=0)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)
    result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
