#!/usr/bin/env python3
"""Profile a negotiation cycle — the measure-before-optimizing workflow.

Not a test: run it directly to see where cycle time goes.

    python benchmarks/profile_negotiation.py [pool_size] [--indexed] [--figure1]

The pool is E6's (``bench_scalability``: one policy that reads nothing of
its own ad, 100 requests in 4 queues) or, with ``--figure1``, Figure-1
workstations as a collector holds them at 10:00 (``build_figure1_pool``):
the four-tier owner policy over two research groups, a quarter of the
owners at the keyboard, the rest gone for up to four hours, every ad's
``DayTime`` read somewhere in the last advertising period — so no two
machines advertise the same ``KeyboardIdle`` — and 96 default jobs from
the pool benchmark's eight owners.

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
  (provider self keys, what the pool reads of requests), request
  signatures, fair-share order, the serving loop.
* **Distinct self keys per root** among the providers and among the
  requests: how many evaluators the scorer actually has on each side
  (``groups._self_keys``), beside how many Constraint evaluators there
  would be if every literal were keyed by its value rather than by the
  outcomes of the comparisons that read it.  Evaluations are bounded by distinct
  (self key, view), so these lines say how far the calls above can fall.
* **cProfile top-18** by cumulative time, on a separate cycle (the
  profiler's per-call cost would distort the stage timers).

What it measures at this commit (a 2-vCPU box; milliseconds drift by
half as much again between the box's fast and slow spells, the call
counts are exact):

* ``400 --figure1``: a warm cycle is ~14 ms with the timers on.  The 400
  providers are **5** Constraint self keys — 316 if their literals were
  keyed by value, every available machine its own evaluator — and 2 Rank;
  the 96 requests fall into 61 classes over 12 Constraint self keys and 1
  Rank.  Evaluation is 547 calls, 25% of the cycle: provider Constraint
  32, provider Rank 8, request Constraint 192, request Rank 315.  (Keyed
  by value the same cycle took 64–103 ms: 2 963 evaluations, 2 448 of
  them provider Constraints, 74% of the cycle.)  The per-provider loop is
  now the largest row at 59%; other 14%.
* ``5000``: ~105 ms, ``_score`` ~88% of it.  E6 providers read none of
  their own attributes, so the 5000 are 1 Constraint and 1 Rank self key
  however literals are keyed; the 100 requests are 27 Constraint and 1
  Rank.  Evaluation is 5 704 calls, ~33% of the cycle — provider
  Constraint and Rank once each, the representatives' Constraint 972
  times (27 classes x 36 provider views), ``evaluate_rank(rep, provider)``
  4 730 times, once per distinct ``KFlops`` — and the loop around them
  ~55%: 135k pairings walked, one row lookup each, which is what ROADMAP
  item 6's maintained partition is for.  ``_scan`` is free (the whole
  pool), ``_commit`` 0.2%, other ~10%.
* ``5000 --indexed``: ~105 ms.  ``_scan`` is ~30% (``candidates_for``,
  ~1.2 ms per class), the loop ~40% over the 13 758 candidates the index
  hands over, evaluation 4 831 calls and ~16% (99 representative
  Constraints — the index pre-filtered the rest — plus the same 4 730
  Ranks and 2 provider-side evaluations).  On this pool the index does not
  pay for its scan: what it used to save was evaluations, and those are
  shared.
* The serial commit is noise either way.
"""

import argparse
import cProfile
import pstats
import sys
import time

sys.path.insert(0, "benchmarks")

from bench_scalability import build_pool, build_requests, run_cycle  # noqa: E402

from repro.classads import ClassAd  # noqa: E402
from repro.condor.jobs import DEFAULT_JOB_CONSTRAINT, DEFAULT_JOB_RANK, parsed_policy  # noqa: E402
from repro.condor.workload import DEFAULT_PLATFORMS, generate_policy_pool  # noqa: E402
from repro.matchmaking import groups, matchmaker  # noqa: E402
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


#: The pool benchmark's Figure-1 owners: two research groups, a friend of
#: both, strangers, and one untrusted user.
GROUPS = (("u0", "u1"), ("u2", "u3"))
FRIENDS = ("u4", "u5")
UNTRUSTED = ("u7",)
OWNERS = tuple(f"u{i}" for i in range(8))


def build_figure1_pool(n, rng, daytime=36_000.0, period=300.0, owner_share=0.25):
    """*n* Figure-1 workstations as a collector holds them at *daytime*.

    What ``MachineAgent.build_ad`` advertises: an owner at the keyboard
    (probability *owner_share*) means state Owner, a ``false``
    Constraint, ``LoadAvg`` 1.25 and ``KeyboardIdle`` 0; an owner gone
    since some time in the last four hours means ``LoadAvg`` 0.05 and
    that many seconds of ``KeyboardIdle``.  Each ad read ``DayTime`` when
    it was built, somewhere in the last advertising *period*.
    """
    specs = generate_policy_pool(
        rng.fork("specs"), n, GROUPS, friends=FRIENDS, untrusted=UNTRUSTED
    )
    ads = []
    for spec in specs:
        present = rng.random() < owner_share
        ad = ClassAd({
            "Type": "Machine", "Name": spec.name,
            "State": "Owner" if present else "Unclaimed",
            "Arch": spec.arch, "OpSys": spec.opsys, "Memory": spec.memory,
            "Disk": spec.disk, "Mips": spec.mips, "KFlops": spec.kflops,
            "LoadAvg": 1.25 if present else 0.05,
            "KeyboardIdle": 0.0 if present else rng.uniform(0.0, 4 * 3600.0),
            "DayTime": daytime - rng.uniform(0.0, period),
            **spec.extra_attrs,
        })
        ad["Constraint"] = parsed_policy("false" if present else spec.constraint)
        ad["Rank"] = parsed_policy(spec.rank)
        ads.append(ad)
    return ads


def build_figure1_requests(n, rng):
    """*n* default jobs spread over the eight Figure-1 owners."""
    requests = {}
    for o, owner in enumerate(OWNERS):
        jobs = []
        for i in range(n // len(OWNERS)):
            arch, opsys, _ = rng.choice(DEFAULT_PLATFORMS)
            ad = ClassAd({
                "Type": "Job", "JobId": o * 1000 + i, "Owner": owner,
                "Memory": rng.choice([16, 31, 64]), "ReqArch": arch, "ReqOpSys": opsys,
            })
            ad["Constraint"] = parsed_policy(DEFAULT_JOB_CONSTRAINT)
            ad["Rank"] = parsed_policy(DEFAULT_JOB_RANK)
            jobs.append(ad)
        requests[owner] = jobs
    return requests


def distinct_self_keys(ads):
    """How many evaluators the scorer sees in *ads*, per root — and how
    many Constraint evaluators there would be with every literal keyed by
    its value instead of its atoms' outcomes."""
    constraints, by_value, ranks = set(), set(), set()
    for ad in ads:
        constraint, rank, _, shape = groups._self_keys(ad, matchmaker.DEFAULT_POLICY)
        constraints.add(constraint)
        ranks.add(rank)
        names = tuple(name for name, _ in shape.constraint.literals)
        by_value.add((constraint[0], groups._view_key(ad, names)))
    return len(constraints), len(by_value), len(ranks)


def main() -> None:
    parser = argparse.ArgumentParser(description="profile one negotiation cycle")
    parser.add_argument("size", nargs="?", type=int, default=1_000)
    parser.add_argument("--indexed", action="store_true")
    parser.add_argument(
        "--figure1", action="store_true",
        help="Figure-1 owner policies with owner-driven LoadAvg/KeyboardIdle/DayTime",
    )
    args = parser.parse_args()

    rng = RngStream(1, "profile")
    if args.figure1:
        providers = build_figure1_pool(args.size, rng.fork("machines"))
        requests = build_figure1_requests(96, rng.fork("jobs"))
    else:
        providers = build_pool(args.size, rng.fork("machines"))
        requests = build_requests(100, rng.fork("jobs"))

    run_cycle(providers, requests, args.indexed)  # warm-up
    assignments, elapsed, rows = timed_cycle(providers, requests, args.indexed)
    print(
        f"pool={args.size} figure1={args.figure1} indexed={args.indexed}:"
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
        constraints, by_value, ranks = distinct_self_keys(ads)
        print(
            f"  distinct self keys among {len(ads)} {side}:"
            f" {constraints} Constraint ({by_value} with literals keyed by value),"
            f" {ranks} Rank"
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
