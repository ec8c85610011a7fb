"""E7 — group matching (Section 5 future work) in the production cycle.

Section 5 proposes "automatically aggregating classads so that matches
may be performed in groups".  The negotiation cycle does exactly that:
requests with equal self keys are one class, and every Constraint or Rank
evaluation is made once per distinct (evaluator's self key, other ad's
view) — see ``repro.matchmaking.groups``.  This benchmark regenerates the
regularity sweep against the cycle's own per-pair oracle
(``negotiation_cycle(batch=False)``): 20 queries against 2,000-ad pools
built from 4, 16, 64 and 256 distinct machine *classes* (high regularity
= few classes).

Shape to reproduce: identical assignments at every regularity, and
evaluations made bounded by the distinct views the requests' Constraints
can tell apart — not by pool size — while the oracle pays per pair.
"""

import time
from collections import Counter

from repro.classads import ClassAd
from repro.matchmaking import CycleStats, match, matchmaker, negotiation_cycle
from repro.sim import RngStream

from _report import rows_to_dicts, table, write_bench_json, write_report

POOL_SIZE = 2_000
N_QUERIES = 20
CLASS_COUNTS = (4, 16, 64, 256)


def build_pool(n_classes, rng):
    """*n_classes* distinct machine configurations, POOL_SIZE ads total."""
    classes = []
    for c in range(n_classes):
        classes.append(
            {
                "Arch": rng.choice(["INTEL", "SPARC", "ALPHA"]),
                "OpSys": rng.choice(["SOLARIS251", "LINUX"]),
                "Memory": rng.choice([32, 64, 128, 256]),
                "KFlops": rng.randint(5, 50) * 1_000,
            }
        )
    ads = []
    for i in range(POOL_SIZE):
        cls = classes[i % n_classes]
        ad = ClassAd(
            {
                "Type": "Machine",
                "Name": f"m{i}",
                "ContactAddress": f"startd@m{i}",
                **cls,
            }
        )
        ad.set_expr("Constraint", 'other.Type == "Job"')
        ads.append(ad)
    return ads


def customer(rng, job_id):
    ad = ClassAd(
        {"Type": "Job", "JobId": job_id, "Owner": "alice",
         "Memory": rng.choice([16, 31, 64])}
    )
    ad.set_expr(
        "Constraint",
        'other.Type == "Machine" && other.Memory >= self.Memory '
        f'&& other.Arch == "{rng.choice(["INTEL", "SPARC"])}"',
    )
    return ad


def regularity_case(n_classes):
    """The pool and the queue for one point of the sweep."""
    rng = RngStream(n_classes, "group")
    pool = build_pool(n_classes, rng.fork("pool"))
    queries = [customer(rng.fork(f"q{i}"), i) for i in range(N_QUERIES)]
    return pool, {"alice": queries}


def assignment_key(assignments):
    return [
        (a.request.evaluate("JobId"), a.provider.evaluate("Name"),
         a.customer_rank, a.provider_rank, a.preempts)
        for a in assignments
    ]


def counted_cycle(pool, requests, batch):
    """One cycle with every Constraint/Rank evaluation counted: the scorer
    calls ``constraint_holds``/``evaluate_rank`` through the matchmaker's
    globals, the oracle's ``constraints_satisfied`` reaches
    ``constraint_holds`` through ``match``'s."""
    made = Counter()
    patched = [(matchmaker, "constraint_holds"), (matchmaker, "evaluate_rank"),
               (match, "constraint_holds")]
    originals = [getattr(module, name) for module, name in patched]

    def counting(original):
        def call(*args):
            made["evaluations"] += 1
            return original(*args)
        return call

    for (module, name), original in zip(patched, originals):
        setattr(module, name, counting(original))
    try:
        stats = CycleStats()
        assignments = negotiation_cycle(requests, pool, stats=stats, batch=batch)
    finally:
        for (module, name), original in zip(patched, originals):
            setattr(module, name, original)
    return assignments, stats, made["evaluations"]


def timed_cycle(pool, requests, batch, rounds=3):
    """Best-of-*rounds* wall time of one cycle, nothing wrapped."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        negotiation_cycle(requests, pool, batch=batch)
        best = min(best, time.perf_counter() - start)
    return best


def provider_views(pool):
    """What the queries' Constraints can tell apart of a machine."""
    return len({(ad.evaluate("Type"), ad.evaluate("Memory"), ad.evaluate("Arch"))
                for ad in pool})


def test_regularity_sweep(benchmark):
    def sweep():
        rows = []
        for n_classes in CLASS_COUNTS:
            pool, requests = regularity_case(n_classes)
            oracle, _, oracle_made = counted_cycle(pool, requests, batch=False)
            batched, stats, made = counted_cycle(pool, requests, batch=True)
            assert assignment_key(batched) == assignment_key(oracle), n_classes
            # One class build evaluates each representative's Constraint
            # once per distinct view and its (absent) Rank once; the
            # providers share one Constraint and one Rank self key.
            views = provider_views(pool)
            assert made <= stats.request_classes * (views + 1) + 2, (n_classes, made)
            oracle_time = timed_cycle(pool, requests, batch=False)
            batched_time = timed_cycle(pool, requests, batch=True)
            rows.append(
                (
                    n_classes,
                    len(oracle),
                    stats.request_classes,
                    views,
                    oracle_made,
                    made,
                    f"{1000 * oracle_time:.0f}ms",
                    f"{1000 * batched_time:.0f}ms",
                    f"{oracle_time / batched_time:.1f}x",
                )
            )
        return rows

    start = time.perf_counter()
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    wall = time.perf_counter() - start
    headers = [
        "machine classes",
        "matched",
        "request classes",
        "provider views",
        "oracle evals",
        "batched evals",
        "oracle cycle",
        "batched cycle",
        "speedup",
    ]
    write_report("E7_group_matching", table(headers, rows))
    write_bench_json(
        "E7_group_matching",
        wall_time_s=wall,
        throughput={"speedup_at_4_classes": float(rows[0][8].rstrip("x"))},
        data=rows_to_dicts(headers, rows),
        extra={"pool_size": POOL_SIZE, "queries": N_QUERIES},
    )
    # Evaluations follow distinct views, never the 2,000 providers.
    assert all(row[5] < row[4] // 10 for row in rows)
