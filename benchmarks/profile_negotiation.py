#!/usr/bin/env python3
"""Profile a negotiation cycle — the measure-before-optimizing workflow.

Not a test: run it directly to see where cycle time goes.

    python benchmarks/profile_negotiation.py [pool_size] [--indexed]
    python benchmarks/profile_negotiation.py 5000 --workers 4
    python benchmarks/profile_negotiation.py 5000 --workers 4 --no-parallel

With ``--workers N`` the run reports the parallel tier's per-stage
breakdown (serialize / IPC / score / merge / commit) so the
``REPRO_PARALLEL_THRESHOLD`` fallback bar can be tuned from data: the
threshold should sit where (serialize + IPC) stops paying for itself
against the in-process scoring time it displaces.

Findings that shaped the code (recorded here so future optimization
starts from data, not theory — "no optimization without measuring"):

* >90 % of a naive cycle is classad evaluation (`_eval` and the operator
  helpers), not the matching loop itself — so the wins come from
  *evaluating less* (the S7 index, S21 grouping), not from micro-tuning
  the evaluator.
* Within evaluation, attribute resolution (`_eval_ref`) dominates; its
  lexical-scope walk is already a flat loop over a tiny list.
* `ProviderIndex` construction is linear and amortizes over one cycle's
  requests; rebuild-per-cycle is fine at 10^3 machines (see E6).
* In a 4-worker cycle the parent's residual cost is serialize + IPC +
  commit; the first two are per-cycle-constant once the chunk-signature
  skip warms up, which is why the pool must persist across cycles.
"""

import argparse
import cProfile
import pstats
import sys
import time

sys.path.insert(0, "benchmarks")

from bench_scalability import MIN_DISK, build_pool, build_requests, run_cycle  # noqa: E402

from repro.matchmaking import parallel as par  # noqa: E402
from repro.sim import RngStream  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description="profile one negotiation cycle")
    parser.add_argument("size", nargs="?", type=int, default=1_000)
    parser.add_argument("--indexed", action="store_true")
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="fan candidate scoring out to N worker processes",
    )
    parser.add_argument(
        "--no-parallel", action="store_true",
        help="force the kill-switch even when --workers is set",
    )
    parser.add_argument(
        "--threshold", type=int, default=None, metavar="N",
        help="override the serial-fallback threshold (distinct provider views per class)",
    )
    args = parser.parse_args()

    rng = RngStream(1, "profile")
    providers = build_pool(args.size, rng.fork("machines"))
    # The tier fans a class out only when its providers show the request
    # many distinct views, so profiling it takes a pool with a
    # per-machine bound; without --workers, the plain regular pool.
    requests = build_requests(
        100, rng.fork("jobs"), min_disk=MIN_DISK if args.workers else None
    )

    if args.workers:
        par.set_scoring_workers(args.workers)
    if args.threshold is not None:
        par.set_pair_threshold(args.threshold)
    if args.no_parallel:
        par.set_parallelism(False)

    pool = None
    if args.workers and not args.no_parallel:
        # Warm cycle: spawn the pool, upload the chunks, fill the
        # per-worker compile caches — then profile the steady state.
        run_cycle(providers, requests, args.indexed)
        pool = par.scoring_pool()
        if pool is not None:
            pool.reset_stage_seconds()

    profiler = cProfile.Profile()
    profiler.enable()
    started = time.perf_counter()
    assignments, elapsed, stats = run_cycle(providers, requests, args.indexed)
    wall = time.perf_counter() - started
    profiler.disable()

    print(
        f"pool={args.size} indexed={args.indexed} workers={args.workers}"
        f"{' (kill-switch)' if args.no_parallel else ''}:"
        f" {len(assignments)} matches in {elapsed * 1000:.0f}ms"
    )
    if pool is not None:
        # Commit is everything the parent did that was not the parallel
        # tier: sorting, the taken-set walk, preemption, fair share.
        stages = dict(pool.stage_seconds)
        parent_stages = stages["serialize"] + stages["ipc"] + stages["merge"]
        commit = max(0.0, wall - parent_stages - stages["score"])
        print(
            f"  stage breakdown: serialize {1000 * stages['serialize']:.1f}ms"
            f" | ipc {1000 * stages['ipc']:.1f}ms"
            f" | score {1000 * stages['score']:.1f}ms (in-worker)"
            f" | merge {1000 * stages['merge']:.1f}ms"
            f" | commit {1000 * commit:.1f}ms"
        )
        print(
            f"  engaged: {stats.parallel_chunks} chunks,"
            f" {stats.parallel_pairs_scored} pairs scored,"
            f" {stats.parallel_fallbacks} serial fallbacks"
            f" (threshold {par.pair_threshold()} distinct provider views)"
        )
    report = pstats.Stats(profiler)
    report.sort_stats("cumulative")
    report.print_stats(18)
    par.shutdown_scoring_pool()


if __name__ == "__main__":
    main()
