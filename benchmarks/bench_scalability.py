"""E6 — matchmaker scalability: negotiation-cycle cost vs. pool size.

Regenerates the scaling series for one negotiation cycle over pools of
100–2,000 machines with 100 queued requests, in two variants:

* naive O(N·M) constraint evaluation;
* with the attribute index (S7) pre-filtering candidates.

The shape to reproduce: naive cost grows linearly in pool size, the
indexed matcher grows far slower (most providers are pruned before any
full constraint evaluation), and both return identical assignments.

Run as a script for the CI smoke benchmark::

    python benchmarks/bench_scalability.py --smoke [--out DIR]

which executes a reduced sweep without pytest, measures the overhead of
the observability layer (metrics enabled vs. disabled on the same
indexed cycle), and writes ``BENCH_E6_scalability.json``.
"""

import argparse
import os
import sys
import time

if __name__ == "__main__":
    # Allow `python benchmarks/bench_scalability.py` from a bare checkout.
    _src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    if os.path.isdir(_src) and os.path.abspath(_src) not in map(os.path.abspath, sys.path):
        sys.path.insert(0, os.path.abspath(_src))

from repro import obs
from repro.classads import ClassAd
from repro.matchmaking import (
    CycleStats,
    Matchmaker,
    ProviderIndex,
    negotiation_cycle,
)
from repro.sim import RngStream

from _report import rows_to_dicts, table, write_bench_json, write_report

ARCHS = ["INTEL", "SPARC", "ALPHA"]
OPSYSES = ["SOLARIS251", "LINUX", "OSF1"]
MEMORIES = [32, 64, 128, 256]


def build_pool(n, rng):
    ads = []
    for i in range(n):
        ad = ClassAd(
            {
                "Type": "Machine",
                "Name": f"m{i}",
                "Arch": rng.choice(ARCHS),
                "OpSys": rng.choice(OPSYSES),
                "Memory": rng.choice(MEMORIES),
                "Disk": rng.randint(50_000, 500_000),
                "KFlops": rng.randint(5_000, 50_000),
                "State": "Unclaimed",
                "ContactAddress": f"startd@m{i}",
            }
        )
        ad.set_expr("Constraint", 'other.Type == "Job"')
        ad.set_expr("Rank", "0")
        ads.append(ad)
    return ads


def build_requests(n, rng, distinct=None):
    """Queued job ads for 4 submitters.

    *distinct* bounds the number of distinct (Memory, ReqArch, ReqOpSys)
    combinations — the paper's Section 5 regularity: a real queue is
    thousands of jobs carrying a handful of Requirements variants.  None
    keeps the unconstrained draw used by the scaling series.
    """
    combos = None
    if distinct is not None:
        combos = [
            (rng.choice([16, 31, 64]), rng.choice(ARCHS), rng.choice(OPSYSES))
            for _ in range(distinct)
        ]
    requests = {}
    for s in range(4):
        jobs = []
        for i in range(n // 4):
            memory, arch, opsys = (
                rng.choice(combos)
                if combos is not None
                else (rng.choice([16, 31, 64]), rng.choice(ARCHS), rng.choice(OPSYSES))
            )
            ad = ClassAd(
                {
                    "Type": "Job",
                    "JobId": s * 1000 + i,
                    "Owner": f"user{s}",
                    "Memory": memory,
                    "ReqArch": arch,
                    "ReqOpSys": opsys,
                    "ContactAddress": f"schedd@user{s}",
                }
            )
            ad.set_expr(
                "Constraint",
                'other.Type == "Machine" && other.Arch == self.ReqArch '
                "&& other.OpSys == self.ReqOpSys && other.Memory >= self.Memory",
            )
            ad.set_expr("Rank", "other.KFlops / 1E3")
            jobs.append(ad)
        requests[f"user{s}"] = jobs
    return requests


def run_cycle(providers, requests, use_index, batch=True):
    stats = CycleStats()
    index = ProviderIndex(providers) if use_index else None
    start = time.perf_counter()
    assignments = negotiation_cycle(
        requests, providers, index=index, stats=stats, batch=batch
    )
    elapsed = time.perf_counter() - start
    return assignments, elapsed, stats


def scaling_sweep(sizes, request_count=100):
    """The scaling series shared by the pytest benchmark and --smoke."""
    rows = []
    for n in sizes:
        rng = RngStream(n, "pool")
        providers = build_pool(n, rng.fork("machines"))
        requests = build_requests(request_count, rng.fork("jobs"))
        naive_assignments, naive_time, _ = run_cycle(providers, requests, False)
        indexed_assignments, indexed_time, stats = run_cycle(
            providers, requests, True
        )
        # Same outcome, cheaper search.
        assert [
            (a.submitter, a.provider.evaluate("Name"))
            for a in naive_assignments
        ] == [
            (a.submitter, a.provider.evaluate("Name"))
            for a in indexed_assignments
        ]
        rows.append(
            (
                n,
                len(naive_assignments),
                f"{1000 * naive_time:.0f}ms",
                f"{1000 * indexed_time:.0f}ms",
                f"{naive_time / indexed_time:.1f}x",
                stats.constraint_evaluations_saved,
            )
        )
    return rows


HEADERS = ["machines", "matched", "naive cycle", "indexed cycle", "speedup", "evals pruned"]


def test_scaling_series(benchmark):
    sizes = [100, 250, 500, 1_000, 2_000]
    start = time.perf_counter()
    rows = benchmark.pedantic(scaling_sweep, args=(sizes,), rounds=1, iterations=1)
    wall = time.perf_counter() - start
    write_report("E6_scalability", table(HEADERS, rows))
    write_bench_json(
        "E6_scalability",
        wall_time_s=wall,
        throughput={"matched_last_cycle": rows[-1][1]},
        data=rows_to_dicts(HEADERS, rows),
    )

    # Shape: index never loses, and wins clearly at scale.
    big = rows[-1]
    speedup = float(big[4].rstrip("x"))
    assert speedup > 2.0


def test_single_cycle_1000_machines(benchmark):
    rng = RngStream(1, "bench")
    providers = build_pool(1_000, rng.fork("m"))
    requests = build_requests(50, rng.fork("j"))
    index = ProviderIndex(providers)

    def cycle():
        return negotiation_cycle(requests, providers, index=index)

    assignments = benchmark.pedantic(cycle, rounds=3, iterations=1)
    assert len(assignments) > 0


def test_index_build_cost(benchmark):
    rng = RngStream(2, "bench")
    providers = build_pool(1_000, rng.fork("m"))
    index = benchmark.pedantic(ProviderIndex, args=(providers,), rounds=3, iterations=1)
    assert len(index) == 1_000


# ---------------------------------------------------------------------------
# CI smoke mode (no pytest, no pytest-benchmark)


def _measure_indexed_cycle(n_machines, n_requests, repeats):
    """Best-of-*repeats* wall time for one indexed negotiation cycle."""
    rng = RngStream(n_machines, "pool")
    providers = build_pool(n_machines, rng.fork("machines"))
    requests = build_requests(n_requests, rng.fork("jobs"))
    best = float("inf")
    matched = 0
    for _ in range(repeats):
        _assignments, elapsed, _stats = run_cycle(providers, requests, True)
        matched = len(_assignments)
        best = min(best, elapsed)
    return best, matched


def _measure_overhead(n_machines, n_requests, repeats):
    """Best-of-*repeats* cycle times: all-off vs metrics-on vs events-on.

    The three configurations are interleaved within each repeat so that
    machine drift (CI neighbours, thermal throttling) biases them
    equally instead of penalising whichever ran last.

    Measured on the *unbatched* cycle: the <= 5% instrumentation bar was
    set against the PR 2 per-pairing engine, and request batching would
    flatter the baseline (fewer evaluations) while the event log still
    replays every per-pairing rejection — the ratio would measure
    batching, not instrumentation.
    """
    rng = RngStream(n_machines, "pool")
    providers = build_pool(n_machines, rng.fork("machines"))
    requests = build_requests(n_requests, rng.fork("jobs"))
    run_cycle(providers, requests, True, batch=False)  # warm-up
    best = {
        "off": float("inf"),
        "metrics": float("inf"),
        "events": float("inf"),
        "tracing": float("inf"),
    }
    ratios = {
        "metrics": float("inf"),
        "events": float("inf"),
        "tracing": float("inf"),
    }
    matched = 0
    events_recorded = 0
    for _ in range(repeats):
        obs.disable()
        obs.event_log.disable()
        assignments, off_elapsed, _ = run_cycle(providers, requests, True, batch=False)
        matched = len(assignments)
        best["off"] = min(best["off"], off_elapsed)

        obs.enable()  # metrics on, the recorded streams off
        _, elapsed, _ = run_cycle(providers, requests, True, batch=False)
        best["metrics"] = min(best["metrics"], elapsed)
        # Overhead is judged per repeat against the adjacent baseline
        # run, then the minimum ratio wins: adjacent runs share the
        # same machine conditions, so drift cancels instead of
        # masquerading as instrumentation cost.
        ratios["metrics"] = min(ratios["metrics"], elapsed / off_elapsed)
        obs.disable()

        obs.event_log.enable()
        seq_before = obs.event_log._seq
        _, elapsed, _ = run_cycle(providers, requests, True, batch=False)
        best["events"] = min(best["events"], elapsed)
        ratios["events"] = min(ratios["events"], elapsed / off_elapsed)
        events_recorded = obs.event_log._seq - seq_before
        obs.event_log.reset()
        obs.event_log.disable()

        # Tracing-enabled config: the full recorded-chaos stack —
        # forensic events AND the causal tracer — plus the tracer's
        # actual per-match work in a traced negotiation: one
        # negotiate.match span per assignment (the Negotiator's
        # stitch; send/recv spans are per-message, not per-cycle,
        # so they belong to the network layer's budget).
        obs.event_log.enable()
        obs.causal_log.enable()
        root = obs.causal_log.start_trace("bench.cycle", "cycle")
        traced_assignments, cycle_elapsed, _ = run_cycle(
            providers, requests, True, batch=False
        )
        t0 = time.perf_counter()
        for assignment in traced_assignments:
            obs.causal_log.span(
                "negotiate.match",
                parent=root,
                submitter=assignment.submitter,
            )
        # run_cycle times the cycle alone (index build excluded), so
        # add the span loop on the same basis as off_elapsed.
        elapsed = cycle_elapsed + (time.perf_counter() - t0)
        best["tracing"] = min(best["tracing"], elapsed)
        ratios["tracing"] = min(ratios["tracing"], elapsed / off_elapsed)
        obs.causal_log.reset()
        obs.causal_log.disable()
        obs.event_log.reset()
        obs.event_log.disable()
    return best, ratios, matched, events_recorded


def _measure_compile_speedup(n_machines, n_requests, repeats):
    """Best-of-*repeats* indexed cycle: compiled closures vs interpreter.

    Interleaved like :func:`_measure_overhead`.  The compiled runs use a
    warm cache (the steady state of a long-lived matchmaker); the
    interpreter runs are the ``REPRO_NO_COMPILE=1`` behaviour.
    """
    from repro.classads import compile as compiled_path

    rng = RngStream(n_machines, "pool")
    providers = build_pool(n_machines, rng.fork("machines"))
    requests = build_requests(n_requests, rng.fork("jobs"))
    enabled_before = compiled_path.compilation_enabled()
    best = {"compiled": float("inf"), "interpreted": float("inf")}
    # Unbatched cycles isolate the evaluator, as the PR 3 bar did.
    try:
        compiled_path.set_compilation(True)
        run_cycle(providers, requests, True, batch=False)  # warm-up + cache fill
        for _ in range(repeats):
            compiled_path.set_compilation(True)
            _, elapsed, _ = run_cycle(providers, requests, True, batch=False)
            best["compiled"] = min(best["compiled"], elapsed)
            compiled_path.set_compilation(False)
            _, elapsed, _ = run_cycle(providers, requests, True, batch=False)
            best["interpreted"] = min(best["interpreted"], elapsed)
    finally:
        compiled_path.set_compilation(enabled_before)
    return best


def _measure_batch_speedup(n_machines, n_requests, repeats, distinct=12):
    """Best-of-*repeats* end-to-end cycle: PR 4 vs the PR 3 baseline.

    The baseline is exactly what ``negotiate(use_index=True)`` cost
    before this PR: a fresh ``ProviderIndex`` built from the provider
    list, then an unbatched cycle.  The batched run reuses a persistent
    index (steady state of a maintained pool) and the equivalence-class
    engine.  The request mix is the regular one (*distinct* Requirements
    variants) that the batching lever targets.  Both variants are
    interleaved per repeat and must produce identical assignments.
    """
    rng = RngStream(n_machines, "batch")
    providers = build_pool(n_machines, rng.fork("machines"))
    requests = build_requests(n_requests, rng.fork("jobs"), distinct=distinct)
    persistent = ProviderIndex(providers)
    best = {"unbatched": float("inf"), "batched": float("inf")}
    classes = 0
    negotiation_cycle(requests, providers, index=persistent)  # warm-up
    for _ in range(repeats):
        start = time.perf_counter()
        index = ProviderIndex(providers)  # PR 3 rebuilt this per cycle
        baseline = negotiation_cycle(requests, providers, index=index, batch=False)
        best["unbatched"] = min(best["unbatched"], time.perf_counter() - start)

        stats = CycleStats()
        start = time.perf_counter()
        batched = negotiation_cycle(requests, providers, index=persistent, stats=stats)
        best["batched"] = min(best["batched"], time.perf_counter() - start)
        classes = stats.request_classes
        assert [
            (a.submitter, a.provider.evaluate("Name")) for a in baseline
        ] == [(a.submitter, a.provider.evaluate("Name")) for a in batched]
    return best, classes


def _steady_state_rebuilds(n_machines, n_requests, cycles=3):
    """Full index rebuilds observed across *cycles* steady-state
    negotiations on a live matchmaker (periodic re-advertisement of
    every machine between cycles).  The delta-maintained index must
    absorb all of it: only the initial build may appear."""
    rng = RngStream(n_machines, "steady")
    requests = build_requests(n_requests, rng.fork("jobs"), distinct=12)
    mm = Matchmaker()
    ad_rng = rng.fork("machines")
    for ad in build_pool(n_machines, ad_rng):
        mm.advertise(str(ad.evaluate("Name")), ad)
    mm.negotiate(requests, use_index=True)  # builds the persistent index
    mindex = mm.provider_index()
    build_count = mindex.index.rebuilds
    for _ in range(cycles):
        for ad in build_pool(n_machines, ad_rng):  # soft-state refresh
            mm.advertise(str(ad.evaluate("Name")), ad)
        mm.negotiate(requests, use_index=True)
    assert mm.provider_index() is mindex, "persistent index was dropped"
    return mindex.index.rebuilds - build_count


def run_smoke(out_dir=None, machines=500, requests=100, repeats=5):
    """The CI smoke benchmark: a reduced sweep + instrumentation overhead.

    Returns the written BENCH_*.json path.  Two overhead figures compare
    the same indexed negotiation cycle against the all-off baseline:

    * metrics enabled (the recorded streams stay off, as in a production pool);
    * the forensic event log enabled, ring sink only.

    The acceptance bar for each is <= 5%.  A recorded ``events.jsonl``
    (one cycle, file sink on) is left next to the bench JSON so CI can
    validate the ``repro-events/1`` stream and run ``repro obs report``.
    """
    from _report import results_dir

    sizes = [100, 250, machines]
    start = time.perf_counter()
    rows = scaling_sweep(sizes, request_count=requests)
    sweep_wall = time.perf_counter() - start

    obs.disable()
    obs.reset()
    best, ratios, matched, events_recorded = _measure_overhead(
        machines, requests, repeats
    )
    disabled_s = best["off"]
    enabled_s = best["metrics"]
    events_s = best["events"]
    tracing_s = best["tracing"]
    compile_best = _measure_compile_speedup(machines, requests, repeats)
    compile_speedup = compile_best["interpreted"] / compile_best["compiled"]
    snapshot_matched = obs.metrics.get("matchmaker.matched").total
    obs.disable()
    batch_best, batch_classes = _measure_batch_speedup(
        machines, 2 * requests, repeats
    )
    batch_speedup = batch_best["unbatched"] / batch_best["batched"]
    steady_rebuilds = _steady_state_rebuilds(machines, requests)

    # One recorded cycle with the file sink on — the CI artifact that
    # `repro obs report` and the JSONL validation step consume.
    events_path = os.path.join(results_dir(out_dir), "events.jsonl")
    obs.event_log.enable()
    obs.event_log.open_file(events_path)
    _measure_indexed_cycle(machines, requests, 1)
    obs.event_log.close_file()
    obs.event_log.reset()
    obs.event_log.disable()

    # A ratio below 1.0 means the instrumented run beat its adjacent
    # baseline — overhead indistinguishable from zero, so clamp there
    # rather than reporting a negative cost.
    overhead_pct = max(0.0, 100.0 * (ratios["metrics"] - 1.0))
    events_overhead_pct = max(0.0, 100.0 * (ratios["events"] - 1.0))
    tracing_overhead_pct = max(0.0, 100.0 * (ratios["tracing"] - 1.0))
    throughput = {
        "matches_per_s_metrics_off": matched / disabled_s,
        "matches_per_s_metrics_on": matched / enabled_s,
        "matches_per_s_events_on": matched / events_s,
        "matches_per_s_tracing_on": matched / tracing_s,
        "obs_overhead_pct": overhead_pct,
        "events_overhead_pct": events_overhead_pct,
        "tracing_overhead_pct": tracing_overhead_pct,
        "cycle_s_compiled": compile_best["compiled"],
        "cycle_s_interpreted": compile_best["interpreted"],
        "compile_cycle_speedup": compile_speedup,
        "cycle_s_unbatched": batch_best["unbatched"],
        "cycle_s_batched": batch_best["batched"],
        "batch_cycle_speedup": batch_speedup,
        "batch_request_classes": batch_classes,
        "steady_state_index_rebuilds": steady_rebuilds,
    }
    report = table(HEADERS, rows) + (
        f"\n\nindexed cycle ({machines} machines, {requests} requests,"
        f" best of {repeats}):"
        f"\n  all off     : {1000 * disabled_s:.1f}ms"
        f"\n  metrics on  : {1000 * enabled_s:.1f}ms"
        f" (overhead {overhead_pct:+.1f}%)"
        f"\n  events on   : {1000 * events_s:.1f}ms"
        f" (overhead {events_overhead_pct:+.1f}%,"
        f" {events_recorded} events/cycle)"
        f"\n  tracing on  : {1000 * tracing_s:.1f}ms"
        f" (overhead {tracing_overhead_pct:+.1f}%, events + causal spans)"
        f"\n  interpreter : {1000 * compile_best['interpreted']:.1f}ms"
        f" (compiled closures are {compile_speedup:.2f}x faster)"
        f"\n\nbatched engine ({machines} machines, {2 * requests} requests,"
        f" 12 Requirements variants, best of {repeats}):"
        f"\n  PR 3 baseline (rebuild + unbatched): {1000 * batch_best['unbatched']:.1f}ms"
        f"\n  PR 4 (persistent index + batched)  : {1000 * batch_best['batched']:.1f}ms"
        f" ({batch_speedup:.2f}x, {batch_classes} request classes)"
        f"\n  steady-state full index rebuilds   : {steady_rebuilds}"
    )
    write_report("E6_scalability_smoke", report, out_dir=out_dir)
    path = write_bench_json(
        "E6_scalability",
        wall_time_s=sweep_wall,
        throughput=throughput,
        data=rows_to_dicts(HEADERS, rows),
        extra={"mode": "smoke", "repeats": repeats},
        out_dir=out_dir,
    )
    # The enabled run must actually have measured something.
    assert snapshot_matched >= matched * repeats, "metrics did not record the run"
    assert events_recorded > 0, "the event log did not record the run"
    # The 5% bar is calibrated to the CI workload: per-event cost is
    # fixed (~2us) while the cycle shrinks with the pool, so a toy-sized
    # --machines run measures the ratio of two small numbers, not the
    # instrumentation.  Only hold the bar at (or above) CI scale.
    if machines >= 250:
        assert events_overhead_pct <= 5.0, (
            f"forensic event log costs {events_overhead_pct:.1f}% on the smoke"
            " cycle; the acceptance bar is 5%"
        )
        assert tracing_overhead_pct <= 5.0, (
            f"tracing-enabled negotiation (events + causal spans) costs"
            f" {tracing_overhead_pct:.1f}% on the smoke cycle; the"
            " acceptance bar is 5%"
        )
    assert compile_speedup >= 1.2, (
        f"compiled-closure cycle is only {compile_speedup:.2f}x the"
        " interpreter on the smoke cycle; expected a clear win (>= 1.2x)"
    )
    assert batch_speedup >= 1.5, (
        f"batched negotiation is only {batch_speedup:.2f}x the PR 3"
        " compiled baseline on the regular pool; the acceptance bar is 1.5x"
    )
    assert steady_rebuilds == 0, (
        f"{steady_rebuilds} full index rebuilds during steady-state cycles;"
        " the delta-maintained index must absorb refresh traffic"
    )
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="run the reduced CI smoke sweep"
    )
    parser.add_argument(
        "--out", default=None, help="results directory (default: benchmarks/results)"
    )
    parser.add_argument("--machines", type=int, default=500)
    parser.add_argument("--requests", type=int, default=100)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("only --smoke mode is supported as a script; use pytest otherwise")
    run_smoke(
        out_dir=args.out,
        machines=args.machines,
        requests=args.requests,
        repeats=args.repeats,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
