#!/usr/bin/env python3
"""Profile a negotiation cycle — the measure-before-optimizing workflow.

Not a test: run it directly to see where cycle time goes.

    python benchmarks/profile_negotiation.py [pool_size] [--indexed]

Two views of one warm cycle (a first cycle fills the compile caches and
the per-ad memos, as every cycle after a pool's first finds them):

* **Stage anatomy.**  The cycle's three stages — ``_scan``, ``_score``,
  ``_commit`` in ``repro.matchmaking.matchmaker`` — are wrapped by module
  attribute with wall-clock timers, and so are the two evaluation entry
  points ``_score`` calls (``constraint_holds``, ``evaluate_rank``), which
  splits the score row into *evaluate* and the per-provider *loop* around
  it.  "other" is the rest of the cycle: request signatures, the
  pool-observed attribute set, fair-share order, the serving loop.
* **cProfile top-18** by cumulative time, on a separate cycle (the
  profiler's per-call cost would distort the stage timers).

What it measures at this commit (E6 pool, 100 requests in 4 queues that
fall into 27 request classes, this 2-vCPU box; milliseconds drift ±15%
between runs, the shares stay within a point or two):

* ``5000``: a warm cycle is ~250 ms with the timers on (~210 ms without)
  and ``_score`` is 95% of it.  Evaluation is 37% of the cycle — 24.7k
  calls: each provider's Constraint and Rank once (10k), the
  representative's Constraint once per distinct provider view (~1k), and
  ``evaluate_rank(rep, provider)`` on the 13.8k viable pairs, which no
  memo serves because ``KFlops`` differs per machine.  The per-provider
  loop around them is 58%: 135k pairings walked at ~1.1 us each to find
  those 13.8k.  ``_scan`` is free (the whole pool), ``_commit`` 0.2%,
  other 5%.  On a value-regular pool it is the loop, not the evaluation —
  the measurement ROADMAP item 4 ("scan views, not providers") asks for
  first.
* ``5000 --indexed``: ~190 ms with the timers on.  ``_scan`` is now 22%
  (``candidates_for``, ~1.5 ms per class), the loop falls to 21% because
  ``_score`` is handed 13.8k candidates — here exactly the viable ones —
  instead of 135k, and evaluation (23.9k calls, nearly the same work)
  becomes 51%.  The index does not remove the loop's cost so much as
  move it into the scan: scan + loop is 43% of a shorter cycle, against
  58% unindexed.
* The serial commit is noise either way; "other" (signatures, fair
  share, the serving loop) stays at ~5%.
"""

import argparse
import cProfile
import pstats
import sys
import time

sys.path.insert(0, "benchmarks")

from bench_scalability import build_pool, build_requests, run_cycle  # noqa: E402

from repro.matchmaking import matchmaker  # noqa: E402
from repro.sim import RngStream  # noqa: E402

STAGES = ("_scan", "_score", "_commit")
EVALUATORS = ("constraint_holds", "evaluate_rank")


def timed_cycle(providers, requests, indexed):
    """One cycle with the stage functions wrapped by module attribute.

    Returns ``(assignments, elapsed, {name: [calls, seconds]})``.  The
    stages never nest in one another, so each row is self-time with
    respect to the others; the evaluators run inside ``_score``.
    """
    rows = {name: [0, 0.0] for name in STAGES + EVALUATORS}
    originals = {name: getattr(matchmaker, name) for name in rows}

    def wrap(name):
        original, row = originals[name], rows[name]

        def timed(*args):
            started = time.perf_counter()
            try:
                return original(*args)
            finally:
                row[0] += 1
                row[1] += time.perf_counter() - started

        return timed

    for name in rows:
        setattr(matchmaker, name, wrap(name))
    try:
        assignments, elapsed, _stats = run_cycle(providers, requests, indexed)
    finally:
        for name, original in originals.items():
            setattr(matchmaker, name, original)
    return assignments, elapsed, rows


def main() -> None:
    parser = argparse.ArgumentParser(description="profile one negotiation cycle")
    parser.add_argument("size", nargs="?", type=int, default=1_000)
    parser.add_argument("--indexed", action="store_true")
    args = parser.parse_args()

    rng = RngStream(1, "profile")
    providers = build_pool(args.size, rng.fork("machines"))
    requests = build_requests(100, rng.fork("jobs"))

    run_cycle(providers, requests, args.indexed)  # warm-up
    assignments, elapsed, rows = timed_cycle(providers, requests, args.indexed)
    print(
        f"pool={args.size} indexed={args.indexed}:"
        f" {len(assignments)} matches in {elapsed * 1000:.1f}ms (stage timers on)"
    )
    evaluate_calls = sum(rows[name][0] for name in EVALUATORS)
    evaluate_s = sum(rows[name][1] for name in EVALUATORS)
    score_s = rows["_score"][1]
    other_s = elapsed - sum(rows[name][1] for name in STAGES)
    print("  stage         calls   wall ms   share of cycle")
    for label, calls, seconds in (
        ("scan", rows["_scan"][0], rows["_scan"][1]),
        ("score", rows["_score"][0], score_s),
        ("  evaluate", evaluate_calls, evaluate_s),
        ("  loop", "", score_s - evaluate_s),
        ("commit", rows["_commit"][0], rows["_commit"][1]),
        ("other", "", other_s),
    ):
        print(f"  {label:<11} {calls:>7} {1000 * seconds:>9.1f} {seconds / elapsed:>9.1%}")

    profiler = cProfile.Profile()
    profiler.enable()
    run_cycle(providers, requests, args.indexed)
    profiler.disable()
    report = pstats.Stats(profiler)
    report.sort_stats("cumulative")
    report.print_stats(18)


if __name__ == "__main__":
    main()
