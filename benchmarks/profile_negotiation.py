#!/usr/bin/env python3
"""Profile a negotiation cycle — the measure-before-optimizing workflow.

Not a test: run it directly to see where cycle time goes.

    python benchmarks/profile_negotiation.py [pool_size] [--indexed]

Three views of one warm cycle (a first cycle fills the compile caches and
the per-ad memos, as every cycle after a pool's first finds them):

* **Stage anatomy.**  The cycle's three stages — ``_scan``, ``_score``,
  ``_commit`` in ``repro.matchmaking.matchmaker`` — are wrapped by module
  attribute with wall-clock timers, and so are the two evaluation entry
  points ``_score`` calls (``constraint_holds``, ``evaluate_rank``), which
  splits the score row into *evaluate* — by direction: which side's
  expression was evaluated (request or provider) and which root
  (Constraint or Rank) — and the per-provider *loop* around it.  "other"
  is the rest of the cycle: the once-per-cycle survey of the pool
  (provider self keys, the pool-observed attribute set), request
  signatures, fair-share order, the serving loop.
* **Distinct self keys per root** among the providers and among the
  requests: how many evaluators the scorer actually has on each side
  (``_self_keys``).  Evaluations are bounded by distinct (self key,
  view), so these two lines say how far the calls above can fall.
* **cProfile top-18** by cumulative time, on a separate cycle (the
  profiler's per-call cost would distort the stage timers).

What it measures at this commit (E6 pool, 100 requests in 4 queues that
fall into 27 request classes, this 2-vCPU box; milliseconds drift by half
as much again between the box's fast and slow spells, the call counts are
exact):

* ``5000``: a warm cycle is ~115 ms with the timers on (the parent
  commit: ~210 ms in the same spell) and ``_score`` is 88% of it.  Every
  E6 provider carries the same policy and reads nothing of its own, so
  the 5000 providers are 1 Constraint and 1 Rank self key and the 100
  requests 27 Constraint and 1 Rank self key.  Evaluation is 5 704 calls,
  37% of the cycle, where the parent made 24 730: provider Constraint and
  Rank **once each** (were 5 000 each — one per provider), the
  representatives' Constraint 972 times (27 classes x 36 provider views),
  and ``evaluate_rank(rep, provider)`` 4 730 times — once per distinct
  ``KFlops`` in the pool, shared by all 27 classes because their Rank
  self key is one; it was 13 758, once per viable pair, with no memo at
  all.  The per-provider loop around them is 51%: 135k pairings walked,
  one row lookup each — what ROADMAP item 4's maintained partition is
  for.  ``_scan`` is free (the whole pool), ``_commit`` 0.3%, other 12%
  (the survey validates 5 000 per-ad memos and re-reads their keys).
* ``5000 --indexed``: ~150 ms with the timers on (parent: ~225 ms).
  ``_scan`` is 28% (``candidates_for``, ~1.5 ms per class), the loop 50%
  over the 13 758 candidates the index hands over, evaluation 4 831 calls
  and 11% (99 representative Constraints — the index pre-filtered the
  rest — plus the same 4 730 Ranks and 2 provider-side evaluations).  On
  this pool the index no longer pays for its scan: what it used to save
  was evaluations, and those are shared now.
* The serial commit is noise either way.
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
#: The two evaluation entry points ``_score`` calls, and the root each evaluates.
EVALUATORS = {"constraint_holds": "Constraint", "evaluate_rank": "Rank"}
DIRECTIONS = [(side, root) for side in ("request", "provider") for root in EVALUATORS.values()]


def timed_cycle(providers, requests, indexed):
    """One cycle with the stage functions wrapped by module attribute.

    Returns ``(assignments, elapsed, {name: [calls, seconds]})``.  The
    stages never nest in one another, so each row is self-time with
    respect to the others; the evaluators run inside ``_score`` and their
    rows are keyed ``(evaluating side, root)``.
    """
    rows = {name: [0, 0.0] for name in STAGES + tuple(DIRECTIONS)}
    originals = {name: getattr(matchmaker, name) for name in STAGES + tuple(EVALUATORS)}
    request_ids = {id(ad) for queue in requests.values() for ad in queue}

    def wrap(name):
        original = originals[name]
        root = EVALUATORS.get(name)

        def timed(*args):
            started = time.perf_counter()
            try:
                return original(*args)
            finally:
                if root is None:
                    row = rows[name]
                else:
                    row = rows["request" if id(args[0]) in request_ids else "provider", root]
                row[0] += 1
                row[1] += time.perf_counter() - started

        return timed

    for name in originals:
        setattr(matchmaker, name, wrap(name))
    try:
        assignments, elapsed, _stats = run_cycle(providers, requests, indexed)
    finally:
        for name, original in originals.items():
            setattr(matchmaker, name, original)
    return assignments, elapsed, rows


def distinct_self_keys(ads):
    """How many evaluators the scorer sees in *ads*, per root."""
    keys = [matchmaker._self_keys(ad, matchmaker.DEFAULT_POLICY) for ad in ads]
    return len({key[0] for key in keys}), len({key[1] for key in keys})


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
    evaluate_calls = sum(rows[direction][0] for direction in DIRECTIONS)
    evaluate_s = sum(rows[direction][1] for direction in DIRECTIONS)
    score_s = rows["_score"][1]
    other_s = elapsed - sum(rows[name][1] for name in STAGES)
    print("  stage                  calls   wall ms   share of cycle")
    for label, calls, seconds in (
        ("scan", rows["_scan"][0], rows["_scan"][1]),
        ("score", rows["_score"][0], score_s),
        ("  evaluate", evaluate_calls, evaluate_s),
        *((f"    {side} {root}", *rows[side, root]) for side, root in DIRECTIONS),
        ("  loop", "", score_s - evaluate_s),
        ("commit", rows["_commit"][0], rows["_commit"][1]),
        ("other", "", other_s),
    ):
        print(f"  {label:<20} {calls:>7} {1000 * seconds:>9.1f} {seconds / elapsed:>9.1%}")
    for side, ads in (
        ("providers", providers),
        ("requests", [ad for queue in requests.values() for ad in queue]),
    ):
        constraints, ranks = distinct_self_keys(ads)
        print(
            f"  distinct self keys among {len(ads)} {side}:"
            f" {constraints} Constraint, {ranks} Rank"
        )

    profiler = cProfile.Profile()
    profiler.enable()
    run_cycle(providers, requests, args.indexed)
    profiler.disable()
    report = pstats.Stats(profiler)
    report.sort_stats("cumulative")
    report.print_stats(18)


if __name__ == "__main__":
    main()
