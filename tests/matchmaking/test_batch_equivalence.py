"""Differential tests for the batched negotiation engine (PR 4).

The contract under test: a batched cycle (request equivalence classes +
shared per-class candidate lists + per-cycle provider memos) is
*assignment-identical* to the naive reference scan — same matches, same
preemptions, same tie-breaks — and, with the event log on, replays the
identical forensic event stream.  The persistent index must likewise be
indistinguishable from a fresh rebuild after any advertise/withdraw
sequence.
"""

import importlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classads import ClassAd
from repro.matchmaking import (
    Accountant,
    CycleStats,
    Matchmaker,
    ProviderIndex,
    negotiation_cycle,
)
from repro.matchmaking import matchmaker as mm_module
from repro.obs import event_log
from repro.sim import RngStream


def machine(
    name,
    arch="INTEL",
    memory=64,
    state="Unclaimed",
    current_rank=0.0,
    remote_owner=None,
    constraint='other.Type == "Job"',
    rank='other.Owner == "vip" ? 5 : 0',
):
    ad = ClassAd(
        {"Type": "Machine", "Name": name, "Arch": arch, "Memory": memory, "State": state}
    )
    ad.set_expr("Constraint", constraint)
    ad.set_expr("Rank", rank)
    if state == "Claimed":
        ad["CurrentRank"] = current_rank
        ad["RemoteOwner"] = remote_owner or "someone"
    return ad


def request(owner, job_id, arch="INTEL", memory=32):
    ad = ClassAd(
        {"Type": "Job", "JobId": job_id, "Owner": owner, "Memory": memory, "ReqArch": arch}
    )
    ad.set_expr(
        "Constraint",
        'other.Type == "Machine" && other.Arch == self.ReqArch '
        "&& other.Memory >= self.Memory",
    )
    ad.set_expr("Rank", "other.Memory")
    return ad


def assignment_key(assignments):
    return [
        (
            a.submitter,
            a.request.evaluate("JobId"),
            a.provider.evaluate("Name"),
            a.customer_rank,
            a.provider_rank,
            a.preempts,
        )
        for a in assignments
    ]


def run_cycle(providers, grouped, batch, use_index, accountant=None, allow_preemption=True):
    stats = CycleStats()
    index = ProviderIndex(providers) if use_index else None
    assignments = negotiation_cycle(
        grouped,
        providers,
        accountant=accountant,
        allow_preemption=allow_preemption,
        index=index,
        stats=stats,
        batch=batch,
    )
    return assignments, stats


archs = st.sampled_from(["INTEL", "SPARC"])
memories = st.sampled_from([32, 64, 128])
states = st.sampled_from(["Unclaimed", "Claimed", "Owner"])
owners = st.sampled_from(["alice", "bob", "vip"])

machines_strategy = st.lists(
    st.tuples(archs, memories, states, st.floats(min_value=0, max_value=10)),
    max_size=12,
)
requests_strategy = st.lists(st.tuples(owners, archs, memories), max_size=16)


def build(machine_params, request_params):
    providers = [
        machine(f"m{i}", a, m, state=s, current_rank=r)
        for i, (a, m, s, r) in enumerate(machine_params)
    ]
    grouped = {}
    for i, (owner, arch, memory) in enumerate(request_params):
        grouped.setdefault(owner, []).append(request(owner, i, arch, memory))
    return providers, grouped


class TestBatchedEqualsNaive:
    """The hypothesis differential suite the ISSUE asks for."""

    @given(machines_strategy, requests_strategy, st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_assignments_identical(
        self, machine_params, request_params, use_index, allow_preemption
    ):
        """Assignments and the full event stream, constraint attributions
        included."""
        providers, grouped = build(machine_params, request_params)
        stats = assert_batched_equals_naive(providers, grouped, use_index, allow_preemption)
        total = sum(len(reqs) for reqs in grouped.values())
        assert stats.requests_considered == total

    @given(machines_strategy, requests_strategy, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_assignments_identical_under_fair_share(
        self, machine_params, request_params, use_index
    ):
        """Quota corners: uneven usage histories give the submitters
        different pie slices, exercising the quota cutoff + spin-pie
        interaction on both paths."""
        providers, grouped = build(machine_params, request_params)

        def accountant():
            acc = Accountant(half_life=100.0)
            for i, owner in enumerate(sorted(grouped)):
                acc.record(owner)
                for _ in range(i * 2):
                    acc.resource_claimed(owner)
            acc.advance_to(50.0)
            return acc

        naive, _ = run_cycle(
            providers, grouped, batch=False, use_index=use_index, accountant=accountant()
        )
        batched, _ = run_cycle(
            providers, grouped, batch=True, use_index=use_index, accountant=accountant()
        )
        assert assignment_key(naive) == assignment_key(batched)

    @given(machines_strategy, requests_strategy)
    @settings(max_examples=75, deadline=None)
    def test_provider_side_request_reads_split_classes(
        self, machine_params, request_params
    ):
        """Providers that read request attributes the requests never
        mention (here: Owner, via Rank and a Constraint) must still
        match identically — the signature closes over pool-observed
        attributes."""
        providers, grouped = build(machine_params, request_params)
        providers.append(
            machine("picky", memory=256, constraint='other.Owner == "vip"')
        )
        naive, _ = run_cycle(providers, grouped, batch=False, use_index=False)
        batched, _ = run_cycle(providers, grouped, batch=True, use_index=False)
        assert assignment_key(naive) == assignment_key(batched)

    def test_e7_regularity_pools(self, monkeypatch):
        """E7's controlled-regularity pools (``bench_group_matching``):
        2,000 machines drawn from 4 and from 256 configurations, 20 jobs.
        Assignments equal the oracle's, and the evaluations the class
        engine makes are bounded by the machine views the jobs'
        Constraints can tell apart, not by the pool."""
        for n_classes in (4, 256):
            providers, grouped = e7_pool(n_classes)
            for use_index in (False, True):
                naive, _ = run_cycle(providers, grouped, batch=False, use_index=use_index)
                made = count_evaluations(monkeypatch)
                batched, stats = run_cycle(providers, grouped, batch=True, use_index=use_index)
                monkeypatch.undo()
                assert assignment_key(naive) == assignment_key(batched)
                views = len({(p.evaluate("Memory"), p.evaluate("Arch")) for p in providers})
                assert views <= 12
                assert made["request", "Constraint"] <= stats.request_classes * views
                assert made["request", "Rank"] <= stats.request_classes
                assert made["provider", "Constraint"] + made["provider", "Rank"] <= 2


def e7_pool(n_classes, size=2_000, jobs=20):
    """E7's pool: *size* machines cycling through *n_classes* random
    (Arch, OpSys, Memory, KFlops) configurations, and *jobs* requests of
    one owner, each with its own ``JobId``."""
    rng = RngStream(n_classes, "group")
    draw = rng.fork("pool")
    classes = [
        {"Arch": draw.choice(["INTEL", "SPARC", "ALPHA"]),
         "OpSys": draw.choice(["SOLARIS251", "LINUX"]),
         "Memory": draw.choice([32, 64, 128, 256]),
         "KFlops": draw.randint(5, 50) * 1_000}
        for _ in range(n_classes)
    ]
    providers = []
    for i in range(size):
        ad = ClassAd({"Type": "Machine", "Name": f"m{i}", "ContactAddress": f"startd@m{i}",
                      **classes[i % n_classes]})
        ad.set_expr("Constraint", 'other.Type == "Job"')
        providers.append(ad)
    queue = []
    for i in range(jobs):
        q = rng.fork(f"q{i}")
        ad = ClassAd({"Type": "Job", "JobId": i, "Owner": "alice",
                      "Memory": q.choice([16, 31, 64])})
        ad.set_expr("Constraint", 'other.Type == "Machine" && other.Memory >= self.Memory '
                    f'&& other.Arch == "{q.choice(["INTEL", "SPARC"])}"')
        queue.append(ad)
    return providers, {"alice": queue}


#: ``cycle.*`` fields that say *how* a cycle computed, not what it decided.
VARIABLE_FIELDS = {
    "cycle", "batched", "duration_s", "evals_saved", "request_classes",
    "pairings_saved",
}


def events_of(providers, grouped, batch, use_index, accountant=None,
              allow_preemption=True):
    """(assignments, stats, normalized event stream) of one logged cycle."""
    event_log.reset()
    event_log.enable()
    try:
        assignments, stats = run_cycle(
            providers, grouped, batch=batch, use_index=use_index,
            accountant=accountant, allow_preemption=allow_preemption,
        )
        stream = [
            (
                e.kind,
                tuple(sorted(
                    (k, v) for k, v in e.fields.items() if k not in VARIABLE_FIELDS
                )),
            )
            for e in event_log.events()
        ]
        return assignments, stats, stream
    finally:
        event_log.disable()
        event_log.reset()


class TestEventStreamParity:
    def test_replayed_stream_matches_naive(self):
        """Every rejection (taken / unavailable / preemption-disabled /
        constraint attribution / rank-not-above-current), every match,
        every preemption and unmatched-job event — in the same order
        with the same fields."""
        providers = [
            machine("m1", memory=128),
            machine(
                "m2", memory=64, state="Claimed", current_rank=5.0,
                remote_owner="alice",
                rank='other.Owner == "bob" ? 10 : 0',
            ),
            machine("m3", memory=256, state="Claimed", current_rank=100.0,
                    remote_owner="bob"),
            machine("m4", memory=32),
            machine("m5", memory=512, state="Owner"),
            machine("picky", memory=96, constraint='other.Owner == "vip"'),
        ]
        grouped = {
            "alice": [request("alice", 1), request("alice", 2),
                      request("alice", 3, memory=48)],
            "bob": [request("bob", 4), request("bob", 5, memory=200)],
            "vip": [request("vip", 6, memory=48), request("vip", 7, memory=48)],
        }
        acc = Accountant(half_life=100.0)
        for owner in ("alice", "bob", "vip"):
            acc.record(owner)
        for _ in range(4):
            acc.resource_claimed("alice")
        acc.advance_to(10.0)
        for use_index in (False, True):
            for allow_preemption in (True, False):
                naive = events_of(providers, grouped, False, use_index, acc,
                                  allow_preemption)[2]
                batched = events_of(providers, grouped, True, use_index, acc,
                                    allow_preemption)[2]
                assert naive == batched
                reasons = {dict(fields).get("reason") for _, fields in naive}
                assert ("preemption-disabled" in reasons) is (not allow_preemption)

    def test_cycle_end_reports_batching_yield(self):
        providers = [machine(f"m{i}") for i in range(4)]
        grouped = {"alice": [request("alice", i) for i in range(6)]}
        event_log.reset()
        event_log.enable()
        try:
            run_cycle(providers, grouped, batch=True, use_index=False)
            (end,) = [e for e in event_log.events() if e.kind == "cycle.end"]
        finally:
            event_log.disable()
            event_log.reset()
        assert end.fields["request_classes"] == 1
        # 5 repeat members × a 4-provider pool evaluated once
        assert end.fields["pairings_saved"] == 5 * len(providers)


class TestAttributionPerVerdict:
    """With the event log on, a constraint rejection is attributed once
    per verdict key — (self key, view) — not once per pair."""

    def test_one_attribution_per_verdict_key(self, monkeypatch):
        machine_ad = view_machine("m", {"Memory": 64},
                                  constraint='other.Type == "Job" && other.Owner != "bob"')
        providers = [machine_ad.copy([("Name", f"m{i}")]) for i in range(50)]
        too_big = view_request("alice", 0, "other.Memory >= 128")
        refused = view_request("bob", 0, "other.Memory >= 32")
        grouped = {
            "alice": [too_big.copy([("JobId", i)]) for i in range(20)],  # customer side
            "bob": [refused.copy([("JobId", 20 + i)]) for i in range(20)],  # provider side
        }
        naive = events_of(providers, grouped, False, use_index=False)[2]

        made = []
        for module in (mm_module, importlib.import_module("repro.matchmaking.diagnose")):
            original = getattr(module, "_attribute_side", None)
            if original is None:
                continue

            def counting(side, *args, _original=original):
                made.append(side)
                return _original(side, *args)

            monkeypatch.setattr(module, "_attribute_side", counting)
        batched = events_of(providers, grouped, True, use_index=False)[2]

        assert made == ["customer", "provider"]
        assert batched == naive
        rejects = [dict(fields) for kind, fields in batched if kind == "match.reject"]
        assert len(rejects) == 40 * 50
        assert {(r["reason"], r["side"], r["conjunct"], r["value"]) for r in rejects} == {
            ("constraint", "customer", "other.Memory >= 128", "false"),
            ("constraint", "provider", 'other.Owner != "bob"', "false"),
        }


class TestQuotaRounding:
    def test_quota_sum_capped_at_matchable_capacity(self):
        """Regression: max(1, round(share * matchable)) across many
        low-share submitters used to overshoot the pie; quotas must now
        sum to at most the matchable capacity."""
        providers = [machine(f"m{i}") for i in range(3)]
        grouped = {
            f"user{i}": [request(f"user{i}", i)] for i in range(8)
        }
        acc = Accountant(half_life=100.0)
        for owner in grouped:
            acc.record(owner)
        event_log.reset()
        event_log.enable()
        try:
            run_cycle(providers, grouped, batch=False, use_index=False, accountant=acc)
            quotas = [e.fields["quota"] for e in event_log.events()
                      if e.kind == "fairshare.quota"]
        finally:
            event_log.disable()
            event_log.reset()
        assert len(quotas) == 8
        assert sum(quotas) <= len(providers)

    def test_capacity_still_fully_served(self):
        """Zero-quota submitters are back-filled by the spin-pie round,
        so the cap never strands machines."""
        providers = [machine(f"m{i}") for i in range(3)]
        grouped = {f"user{i}": [request(f"user{i}", i)] for i in range(8)}
        acc = Accountant(half_life=100.0)
        for owner in grouped:
            acc.record(owner)
        assignments, _ = run_cycle(
            providers, grouped, batch=True, use_index=False, accountant=acc
        )
        assert len(assignments) == len(providers)


class TestOracleSeam:
    def test_batch_false_routes_through_the_oracle(self, monkeypatch):
        from repro.matchmaking import matchmaker

        providers = [machine(f"m{i}") for i in range(3)]
        grouped = {"alice": [request("alice", i) for i in range(4)]}
        served = []
        oracle = matchmaker._naive_try_match

        def counting_oracle(cycle, submitter, req):
            served.append(req.evaluate("JobId"))
            return oracle(cycle, submitter, req)

        monkeypatch.setattr(matchmaker, "_naive_try_match", counting_oracle)
        _, stats_off = run_cycle(providers, grouped, batch=False, use_index=False)
        assert served == [0, 1, 2, 3]
        _, stats_on = run_cycle(providers, grouped, batch=True, use_index=False)
        assert served == [0, 1, 2, 3]
        assert (stats_off.request_classes, stats_off.pairings_saved) == (0, 0)
        assert stats_on.request_classes == 1
        assert stats_on.pairings_saved > 0


# -- view memo --------------------------------------------------------------
#
# The serial scorer evaluates each side's Constraint/Rank once per distinct
# *view* of the other side.  Every case below is a way a view key could
# conflate two ads an expression tells apart (or read an attribute the key
# left out); each is run against the per-pair naive scan, comparing
# assignments and the full event stream, with the index on and off.


def ad(attrs, **exprs):
    """A ClassAd from literal *attrs* plus parsed expression attributes."""
    result = ClassAd(attrs)
    for name, source in exprs.items():
        result.set_expr(name, source)
    return result


def view_machine(name, attrs=None, constraint='other.Type == "Job"',
                 rank='other.Owner == "vip" ? 5 : 0', **exprs):
    fields = {"Type": "Machine", "Name": name, "Arch": "INTEL", "State": "Unclaimed"}
    fields.update(attrs or {})
    return ad(fields, Constraint=constraint, Rank=rank, **exprs)


def view_request(owner, job_id, constraint, attrs=None, rank="other.Memory", **exprs):
    fields = {"Type": "Job", "JobId": job_id, "Owner": owner}
    fields.update(attrs or {})
    return ad(fields, Constraint=constraint, Rank=rank, **exprs)


def _jobs(constraints, owners=("alice", "bob", "vip"), attrs=None, **exprs):
    """Every owner submits one request per constraint, twice over (so
    classes have members as well as representatives)."""
    grouped, job_id = {}, 0
    for _ in range(2):
        for constraint in constraints:
            for owner in owners:
                grouped.setdefault(owner, []).append(
                    view_request(owner, job_id, constraint, attrs, **exprs)
                )
                job_id += 1
    return grouped


def _type_coarse():
    # 64 == 64.0 == True-ish under Python equality; `is`, isInteger,
    # isBoolean and string() tell them apart.
    values = [64, 64.0, True, 1, 1.0, "64", 0.0, -0.0, 0]
    providers = [view_machine(f"m{i}", {"Memory": v}) for i, v in enumerate(values)]
    providers += [view_machine(f"n{i}", {"Memory": v}) for i, v in enumerate(values)]
    return providers, _jobs([
        "other.Memory is 64",
        "other.Memory is 1",
        "isInteger(other.Memory)",
        "isBoolean(other.Memory) || isReal(other.Memory)",
        "other.Memory == 64",
        'string(other.Memory) == "0.0"',
    ])


def _request_side_type_coarse():
    # The same values on the request, read by the providers: a class
    # signature that conflated them would hand one request's verdicts to
    # another (0.0 / -0.0 did, while signatures were structural keys).
    values = [64, 64.0, True, 1, 1.0, "64", 0.0, -0.0, 0]
    providers = [
        view_machine(f"m{i}.{j}", {"Memory": 64}, constraint=constraint)
        for i in range(4)
        for j, constraint in enumerate([
            'string(other.Bias) == "0.0"',
            "other.Bias is 1",
            "isInteger(other.Bias)",
        ])
    ]
    grouped, job_id = {}, 0
    for order in (values, values[::-1]):
        for owner in ("alice", "bob"):
            for value in order:
                grouped.setdefault(owner, []).append(
                    view_request(owner, job_id, "other.Memory >= 64", {"Bias": value})
                )
                job_id += 1
    return providers, grouped


def _absent_vs_undefined():
    providers = [
        view_machine("absent"),
        view_machine("undef", Memory="undefined"),
        view_machine("err", Memory="error"),
        view_machine("num", {"Memory": 64}),
        view_machine("absent2"),
        view_machine("undef2", Memory="undefined"),
    ]
    return providers, _jobs([
        "other.Memory is undefined",
        "isUndefined(other.Memory)",
        "isError(other.Memory)",
        "other.Memory > 0",
        "!(other.Memory > 0)",
    ])


def _case_variant_names():
    providers = [
        view_machine("m0", {"Memory": 64}),
        view_machine("m1", {"MEMORY": 64}),
        view_machine("m2", {"memory": 32}),
        view_machine("m3", {"MeMoRy": 128}, constraint='OTHER.owner != "bob"'),
    ]
    grouped = _jobs(["other.mEmOrY >= 64", "MEMORY < 128"])
    grouped["carol"] = [
        view_request("x", 100, "other.memory >= 32", {"OWNER": "bob"}),
        view_request("x", 101, "other.memory >= 32", {"owner": "vip"}),
    ]
    return providers, grouped


def _observed_attribute_is_an_expression():
    # Memory is computed in the provider's own environment — from
    # attributes no request names, and (m4) from the request itself.
    providers = [
        view_machine(f"m{i}", {"Total": total, "Reserved": 16},
                     Memory="Total - Reserved")
        for i, total in enumerate([48, 80, 80, 144])
    ]
    providers.append(view_machine("m4", Memory="other.Need * 2"))
    providers.append(view_machine("m5", {"Memory": 64}))
    providers.append(view_machine("m6", {"Memory": 64}))
    return providers, _jobs(
        ["other.Memory >= self.Need", "other.Memory is 64"], attrs={"Need": 48}
    )


def _request_attribute_is_an_expression():
    # The providers' Constraint and Rank read other.Memory, which each
    # request computes from attributes no provider names — and (ping)
    # from the provider's own ad.
    providers = [
        view_machine(f"m{i}", {"Memory": memory},
                     constraint="other.Memory <= Memory", rank="other.Memory")
        for i, memory in enumerate([32, 64, 64, 128])
    ]
    grouped = {}
    for i, image in enumerate([40, 100, 100, 300]):
        grouped.setdefault("alice", []).append(view_request(
            "alice", i, "other.Memory >= 32", {"ImageSize": image},
            Memory="ImageSize / 2",
        ))
    grouped["bob"] = [
        view_request("bob", 10 + i, "other.Memory >= 32", Memory="other.Memory / 2")
        for i in range(2)
    ]
    return providers, grouped


def _bare_names_fall_through():
    # Providers without Owner read the request's; m2 defines its own.
    # Requests without Arch/Memory read the provider's; "self" ones don't.
    providers = [
        view_machine("m0", {"Memory": 64}, constraint='Owner != "bob"', rank="JobPrio"),
        view_machine("m1", {"Memory": 64, "Arch": "SPARC"}, constraint='Owner != "bob"'),
        view_machine("m2", {"Memory": 32, "Owner": "bob"}, constraint='Owner != "bob"'),
        view_machine("m3", {"Memory": 32}, constraint="Nonesuch is undefined"),
    ]
    grouped = _jobs(['Arch == "INTEL" && Memory >= 64', "Memory >= Need"],
                    attrs={"Need": 48, "JobPrio": 3})
    grouped["dave"] = [
        view_request("dave", 200 + i, "Memory >= 48", {"Memory": 16}) for i in range(2)
    ]
    return providers, grouped


def _preemptable_current_rank():
    # Equal views, different CurrentRank: the provider Rank is shared,
    # the strictly-above-current test is not.
    providers = [
        view_machine(f"m{i}", {"Memory": 64, "State": "Claimed",
                                "CurrentRank": current, "RemoteOwner": "someone"})
        for i, current in enumerate([0.0, 4.0, 5.0, 9.0, 0.0])
    ]
    providers.append(view_machine("idle", {"Memory": 64}))
    providers.append(view_machine("gone", {"Memory": 64, "State": "Owner"}))
    return providers, _jobs(["other.Memory >= 64", "other.Memory >= 32"])


# Providers are grouped too: one evaluation of a provider's Constraint or
# Rank serves every provider with the same *self key* — the attributes of
# its own that root can transitively read.  Every case below is a way a
# self key could conflate two providers their own expressions tell apart,
# or a sharing that must fall back to per-provider evaluation.


def _one_read_attribute_apart():
    # Equal in everything but Limit, which the Constraint reads.
    providers = [
        view_machine(f"m{i}", {"Memory": 64, "Limit": limit},
                     constraint="other.JobPrio < Limit")
        for i, limit in enumerate([2, 4, 2, 4, 4, 3])
    ]
    return providers, _jobs(["other.Memory >= 64"], attrs={"JobPrio": 3})


def _only_unread_attributes_differ():
    # Name, Disk and KFlops differ; no Constraint or Rank reads them.
    providers = [
        view_machine(f"m{i}", {"Memory": 64, "Limit": 4, "Disk": 100 * i, "KFlops": 7 * i},
                     constraint="other.JobPrio < Limit")
        for i in range(6)
    ]
    return providers, _jobs(["other.Memory >= 64"], attrs={"JobPrio": 3})


def _self_type_coarse():
    values = [64, 64.0, True, 1, 1.0, "64", 0.0, -0.0, 0]
    providers = [
        view_machine(f"m{i}.{j}", {"Memory": 64, "Quota": value}, constraint=constraint,
                     rank="Quota is 1 ? 3 : isReal(Quota) ? 2 : 0")
        for i, value in enumerate(values)
        for j, constraint in enumerate([
            "Quota is 64",
            "isInteger(Quota) || isBoolean(Quota)",
            'string(Quota) == "0.0"',
            "Quota == 1",
        ])
    ]
    return providers, _jobs(["other.Memory >= 64"], owners=("alice", "bob"))


def _closure_attribute_is_an_expression():
    # Memory is in the Constraint's closure and bound to the same
    # expression everywhere; what *it* reads differs.
    providers = [
        view_machine(f"m{i}", {"Total": total, "Reserved": 16},
                     constraint="other.Need <= Memory", Memory="Total - Reserved")
        for i, total in enumerate([48, 80, 80, 144, 48])
    ]
    return providers, _jobs(["other.Memory >= 32"], attrs={"Need": 48})


def _closure_expression_signed_zero():
    # Equal as ASTs ({0.0} == {-0.0}), told apart by string().
    providers = [
        view_machine(f"m{i}", {"Memory": 64, "Bias": [bias]},
                     constraint='string(Bias[0]) == "0.0"')
        for i, bias in enumerate([-0.0, 0.0, -0.0, 0.0])
    ]
    return providers, _jobs(["other.Memory >= 64"])


def _absent_bare_name_reads_the_request():
    # JobPrio is the request's where the provider has none, else its own.
    providers = [
        view_machine(f"m{i}", attrs, constraint="JobPrio > 2", rank="JobPrio")
        for i, attrs in enumerate([
            {"Memory": 64}, {"Memory": 64}, {"Memory": 64, "JobPrio": 5},
            {"Memory": 64, "JobPrio": 1}, {"Memory": 64, "JOBPRIO": 5},
        ])
    ]
    grouped = _jobs(["other.Memory >= 64"], attrs={"JobPrio": 3})
    for owner, requests in _jobs(["other.Memory >= 64"], attrs={"JobPrio": 1}).items():
        grouped[owner] += requests
    return providers, grouped


def _request_reads_the_provider_back():
    # The providers' self keys are equal — neither root reads their own
    # Memory — but what the request shows them is computed from it.
    providers = [
        view_machine(f"m{i}", {"Memory": memory},
                     constraint="other.Memory <= 40", rank="other.Memory")
        for i, memory in enumerate([64, 128, 64, 128, 32])
    ]
    grouped = {
        "alice": [
            view_request("alice", i, "other.Memory >= 32", Memory="other.Memory / 2")
            for i in range(3)
        ],
        "bob": [view_request("bob", 10 + i, "other.Memory >= 32", {"Memory": 40})
                for i in range(2)],
    }
    return providers, grouped


def _owner_state_constraint_false():
    # What an Owner-state startd advertises — a literal root — beside
    # idle machines whose Constraint is a literal too.
    providers = [
        view_machine("gone0", {"Memory": 64, "State": "Owner"}, constraint="false"),
        view_machine("no0", {"Memory": 64}, constraint="false"),
        view_machine("yes0", {"Memory": 64}, constraint="true"),
        view_machine("gone1", {"Memory": 64, "State": "Owner"}, constraint="false"),
        view_machine("no1", {"Memory": 64}, constraint="false"),
        view_machine("yes1", {"Memory": 64}, constraint="true"),
        view_machine("maybe", {"Memory": 64}),
    ]
    return providers, _jobs(["other.Memory >= 64"])


def _claimed_alike_but_for_current_rank():
    # Equal self keys, so one Rank evaluation; the strictly-above-current
    # test is each provider's own.
    providers = [
        view_machine(f"m{i}", {"Memory": 64, "Bonus": bonus, "State": "Claimed",
                                "CurrentRank": current, "RemoteOwner": "someone"},
                     rank='other.Owner == "vip" ? Bonus : 0')
        for i, (bonus, current) in enumerate(
            [(5, 0.0), (5, 4.0), (5, 5.0), (5, 9.0), (6, 5.0), (6, 6.0)]
        )
    ]
    providers.append(view_machine("idle", {"Memory": 64, "Bonus": 5},
                                  rank='other.Owner == "vip" ? Bonus : 0'))
    return providers, _jobs(["other.Memory >= 64"])


def _constraint_spelled_two_ways():
    # Names are case-insensitive, so each pair of spellings is one self key
    # and one verdict; a rejection still reports the conjunct as its own
    # ad spells it.
    providers = [
        view_machine(f"m{i}", {"Memory": 32}, constraint=text)
        for i, text in enumerate(['other.Owner != "bob"', 'other.OWNER != "bob"'] * 2)
    ]
    return providers, _jobs(["other.Memory >= 64", "other.MEMORY >= 64", "other.Memory >= 16"])


SELF_KEY_CASES = {
    "one-read-attribute-apart": _one_read_attribute_apart,
    "only-unread-attributes-differ": _only_unread_attributes_differ,
    "self-type-coarse": _self_type_coarse,
    "closure-attribute-is-an-expression": _closure_attribute_is_an_expression,
    "closure-expression-signed-zero": _closure_expression_signed_zero,
    "absent-bare-name-reads-the-request": _absent_bare_name_reads_the_request,
    "request-reads-the-provider-back": _request_reads_the_provider_back,
    "owner-state-constraint-false": _owner_state_constraint_false,
    "claimed-alike-but-for-current-rank": _claimed_alike_but_for_current_rank,
    "constraint-spelled-two-ways": _constraint_spelled_two_ways,
}


def count_evaluations(monkeypatch):
    """Count the scorer's evaluations as ``(evaluating side, root)``; the
    scorer calls both entry points through its module's globals."""
    made = Counter()
    for root, name in (("Constraint", "constraint_holds"), ("Rank", "evaluate_rank")):
        def counting(ad, other, policy, _root=root, _original=getattr(mm_module, name)):
            made["provider" if ad.evaluate("Type") == "Machine" else "request", _root] += 1
            return _original(ad, other, policy)

        monkeypatch.setattr(mm_module, name, counting)
    return made


VIEW_CASES = {
    "type-coarse": _type_coarse,
    "request-side-type-coarse": _request_side_type_coarse,
    "absent-vs-undefined": _absent_vs_undefined,
    "case-variant-names": _case_variant_names,
    "observed-attribute-is-an-expression": _observed_attribute_is_an_expression,
    "request-attribute-is-an-expression": _request_attribute_is_an_expression,
    "bare-names-fall-through": _bare_names_fall_through,
    "preemptable-current-rank": _preemptable_current_rank,
}


def assert_batched_equals_naive(providers, grouped, use_index, allow_preemption=True):
    """Assignments and the full event stream; returns the batched stats."""
    naive, _, naive_events = events_of(
        providers, grouped, False, use_index, allow_preemption=allow_preemption
    )
    batched, stats, batched_events = events_of(
        providers, grouped, True, use_index, allow_preemption=allow_preemption
    )
    assert assignment_key(naive) == assignment_key(batched)
    assert naive_events == batched_events
    return stats


class TestViewMemo:
    @pytest.mark.parametrize("use_index", [False, True])
    @pytest.mark.parametrize("case", sorted(VIEW_CASES))
    def test_view_key_corner_matches_naive(self, case, use_index):
        providers, grouped = VIEW_CASES[case]()
        assert_batched_equals_naive(providers, grouped, use_index)
        assert_batched_equals_naive(providers, grouped, use_index, allow_preemption=False)

    @pytest.mark.parametrize("use_index", [False, True])
    @pytest.mark.parametrize("case", sorted(SELF_KEY_CASES))
    def test_self_key_corner_matches_naive(self, case, use_index):
        providers, grouped = SELF_KEY_CASES[case]()
        assert_batched_equals_naive(providers, grouped, use_index)
        assert_batched_equals_naive(providers, grouped, use_index, allow_preemption=False)

    @pytest.mark.parametrize("order, served", [((0.0, -0.0), 0), ((-0.0, 0.0), 1)])
    def test_signed_zero_requests_are_not_one_class(self, order, served):
        """Regression: class signatures were structural keys, under which
        ``0.0 == -0.0``; views kept the sign.  The second request rode on
        the first one's verdicts."""
        providers = [
            view_machine(f"m{i}", constraint='string(other.Bias) == "0.0"') for i in range(2)
        ]
        grouped = {"alice": [
            view_request("alice", i, "true", {"Bias": bias}) for i, bias in enumerate(order)
        ]}
        stats = assert_batched_equals_naive(providers, grouped, use_index=False)
        assert stats.request_classes == 2
        assignments, _ = run_cycle(providers, grouped, batch=True, use_index=False)
        assert [a.request.evaluate("JobId") for a in assignments] == [served]

    def test_providers_share_by_what_their_roots_read_and_nothing_else(self, monkeypatch):
        made = count_evaluations(monkeypatch)
        owners = 3  # alice, bob, vip: the pool reads Owner and JobPrio
        providers, grouped = _only_unread_attributes_differ()
        run_cycle(providers, grouped, batch=True, use_index=False)
        assert made["provider", "Constraint"] == owners
        assert made["provider", "Rank"] == owners
        made.clear()
        providers, grouped = _one_read_attribute_apart()
        run_cycle(providers, grouped, batch=True, use_index=False)
        assert made["provider", "Constraint"] == owners * len({2, 4, 3})
        assert made["provider", "Rank"] == owners  # of the Limit-4 group, the only one accepting
        made.clear()
        # Opaque on the request side: alice's class (its three members are
        # still one class) is put to every provider on its own, though the
        # providers are one group; bob's literal Memory is put to the group.
        providers, grouped = _request_reads_the_provider_back()
        _, stats = run_cycle(providers, grouped, batch=True, use_index=False)
        assert stats.request_classes == 2
        assert made["provider", "Constraint"] == len(providers) + 1
        assert stats.view_opaque_evals >= len(providers)

    def test_expression_valued_observed_attributes_go_opaque(self):
        """A view is only as good as the literals it is made of."""
        for case in ("observed-attribute-is-an-expression",
                     "request-attribute-is-an-expression"):
            providers, grouped = VIEW_CASES[case]()
            _, stats = run_cycle(providers, grouped, batch=True, use_index=False)
            assert stats.view_opaque_evals > 0
        providers, grouped = _type_coarse()
        _, stats = run_cycle(providers, grouped, batch=True, use_index=False)
        assert stats.view_opaque_evals == 0

    def test_evaluations_bounded_by_distinct_views_not_pool_size(self):
        """Figure-1 pool, one untrusted submitter: its requests fail every
        provider's Constraint, so nothing matches and every class scans
        the whole pool — yet a class build costs one request-side
        evaluation per distinct (Type, Arch, OpSys, Memory), however many
        providers there are, and the cycle one provider-side evaluation
        per (atom-outcome group, Owner), however many providers and
        classes there are."""
        from repro.condor.jobs import DEFAULT_JOB_CONSTRAINT, DEFAULT_JOB_RANK
        from repro.condor.workload import (
            FIGURE1_POLICY_CONSTRAINT,
            FIGURE1_POLICY_RANK,
        )

        platforms = [("INTEL", "SOLARIS251", 64), ("INTEL", "SOLARIS251", 128),
                     ("SPARC", "SOLARIS251", 64)]
        job_memories = [31, 100]

        def pool(size):
            return [
                ad({"Type": "Machine", "Name": f"ws{i}", "State": "Unclaimed",
                    "Arch": arch, "OpSys": opsys, "Memory": memory,
                    "KFlops": 20000 + i, "LoadAvg": 0.05 * (i % 7),
                    "KeyboardIdle": 60 * i, "DayTime": 36000,
                    "ResearchGroup": ["u0", "u1"], "Friends": ["u4"],
                    "Untrusted": ["u7"]},
                   Constraint=FIGURE1_POLICY_CONSTRAINT, Rank=FIGURE1_POLICY_RANK)
                for i in range(size)
                for arch, opsys, memory in [platforms[i % len(platforms)]]
            ]

        def queue():
            return {"u7": [
                ad({"Type": "Job", "JobId": i, "Owner": "u7", "Memory": memory,
                    "ReqArch": "INTEL", "ReqOpSys": "SOLARIS251"},
                   Constraint=DEFAULT_JOB_CONSTRAINT, Rank=DEFAULT_JOB_RANK)
                for i, memory in enumerate(job_memories * 5)
            ]}

        for size in (30, 300):
            providers, grouped = pool(size), queue()
            assignments, stats = run_cycle(providers, grouped, batch=True, use_index=False)
            assert assignments == []
            assert stats.request_classes == len(job_memories)
            assert stats.view_opaque_evals == 0
            # The per-pair scorer evaluates the request's Constraint for
            # every (class, provider) and the provider's wherever that holds.
            request_side = stats.request_classes * size
            provider_side = sum(
                1 for p in providers for memory in job_memories
                if p.evaluate("Arch") == "INTEL" and p.evaluate("Memory") >= memory
            )
            assert request_side - stats.view_request_evals_saved == (
                stats.request_classes * len(platforms)
            )
            # One request view (Owner "u7").  The Constraint reads a
            # machine's own LoadAvg, KeyboardIdle and DayTime only through
            # four comparisons with constants, so machines on which all
            # four come out alike are one evaluator: once per group, not
            # per provider and not per class.
            atoms = ("LoadAvg < 0.3", "KeyboardIdle > 15*60",
                     "DayTime < 8*60*60", "DayTime > 18*60*60")
            groups = {tuple(p.eval_expr(atom) for atom in atoms)
                      for p in providers if p.evaluate("Arch") == "INTEL"}
            assert len(groups) == 4  # loaded or not x idle or not, all by day
            assert provider_side - stats.view_provider_evals_saved == len(groups)


    def test_evaluations_bounded_by_distinct_self_keys_not_pool_size(self, monkeypatch):
        """Figure-1 pool at one instant — every machine shows the same
        LoadAvg, KeyboardIdle and DayTime — so a provider's Constraint is
        told from another's by its ResearchGroup alone.  Five owners, two
        job sizes each: the cycle costs one provider-side evaluation per
        (distinct self key, Owner) reached and one customer-Rank
        evaluation per distinct (KFlops, Memory), however many machines
        carry them and however many classes ask."""
        from repro.condor.jobs import DEFAULT_JOB_CONSTRAINT, DEFAULT_JOB_RANK
        from repro.condor.workload import (
            FIGURE1_POLICY_CONSTRAINT,
            FIGURE1_POLICY_RANK,
        )

        made = count_evaluations(monkeypatch)
        platforms = [("INTEL", 64), ("INTEL", 128), ("SPARC", 64)]
        research_groups = [["u0", "u1"], ["u2", "u3"]]
        kflops = [20000, 21000, 22000, 23000, 24000]
        owners = ["u0", "u2", "u4", "u5", "u7"]  # two members, a friend, a stranger, a pest
        job_memories = [31, 100]

        def pool(size):
            return [
                ad({"Type": "Machine", "Name": f"ws{i}", "State": "Unclaimed",
                    "Arch": arch, "OpSys": "SOLARIS251", "Memory": memory,
                    "KFlops": kflops[i % len(kflops)], "LoadAvg": 0.05,
                    "KeyboardIdle": 3600, "DayTime": 36000,
                    "ResearchGroup": research_groups[i % 2], "Friends": ["u4"],
                    "Untrusted": ["u7"]},
                   Constraint=FIGURE1_POLICY_CONSTRAINT, Rank=FIGURE1_POLICY_RANK)
                for i in range(size)
                for arch, memory in [platforms[i % len(platforms)]]
            ]

        def queue():
            return {owner: [
                ad({"Type": "Job", "JobId": 100 * o + i, "Owner": owner, "Memory": memory,
                    "ReqArch": "INTEL", "ReqOpSys": "SOLARIS251"},
                   Constraint=DEFAULT_JOB_CONSTRAINT, Rank=DEFAULT_JOB_RANK)
                for i, memory in enumerate(job_memories * 3)
            ] for o, owner in enumerate(owners)}

        for size in (30, 300):
            made.clear()
            providers, grouped = pool(size), queue()
            _, stats = run_cycle(providers, grouped, batch=True, use_index=False)
            assert stats.request_classes == len(owners) * len(job_memories)
            assert stats.view_opaque_evals == 0
            # A job's Constraint does not read its Owner: one evaluation
            # per (job size, platform), shared by the five owners' classes.
            assert made["request", "Constraint"] == len(job_memories) * len(platforms)
            # Both research groups hold INTEL machines big enough for
            # every job, so every (group, Owner) is reached.
            assert made["provider", "Constraint"] == len(research_groups) * len(owners)
            # By day a machine takes its own group's member and the friend.
            assert made["provider", "Rank"] == len(research_groups) * 2
            # One Rank expression for every class; ten INTEL (KFlops,
            # Memory) pairs, each viable for some class.
            assert made["request", "Rank"] == len(kflops) * 2


class TestDerivedFactsFollowMutation:
    """Reference closures and request signatures are memoized on the ads
    and validated against the bindings they were read off: editing an ad
    in place between cycles must never serve a stale one."""

    def _cycle_edit_cycle(self, providers, grouped, edit):
        assert_batched_equals_naive(providers, grouped, use_index=False)
        edit()
        return assert_batched_equals_naive(providers, grouped, use_index=False)

    @staticmethod
    def _two_kinds_of_job(**differing):
        """Requests alike in everything but the *differing* attributes."""
        grouped = {}
        for attrs in ({k: v[0] for k, v in differing.items()},
                      {k: v[1] for k, v in differing.items()}):
            for owner, requests in _jobs(["other.Memory >= 64"], attrs=attrs).items():
                grouped.setdefault(owner, []).extend(requests)
        return grouped

    def test_policy_attribute_rebound_behind_an_unchanged_constraint(self):
        providers = [
            view_machine(f"m{i}", {"Memory": 64}, constraint="MyPolicy",
                         MyPolicy='other.Type == "Job"')
            for i in range(6)
        ]
        grouped = self._two_kinds_of_job(JobPrio=(1, 5))
        self._cycle_edit_cycle(
            providers, grouped,
            lambda: providers[1].set_expr("MyPolicy", "other.JobPrio > 2"),
        )

    def test_literal_turned_expression_and_defined_name_deleted(self):
        providers = [
            view_machine(f"m{i}", {"Memory": 64, "Limit": 4, "Site": "here"},
                         constraint='Site != "away" && other.JobPrio < Limit')
            for i in range(6)
        ]
        grouped = self._two_kinds_of_job(Need=(100, 500), Site=("away", "home"))
        for requests in grouped.values():
            for request in requests:
                request["JobPrio"] = 3

        def edit():
            providers[0].set_expr("Limit", "other.Need / 100")  # now reads the request
            del providers[2]["Site"]  # the bare name now falls through to it

        self._cycle_edit_cycle(providers, grouped, edit)

    def test_request_rebound_out_of_its_class(self):
        providers = [view_machine(f"m{i}", {"Memory": 64}) for i in range(4)]
        grouped = _jobs(["other.Memory >= self.Need"], attrs={"Need": 32})

        def edit():
            grouped["alice"][0]["Need"] = 256
            grouped["bob"][1].set_expr("Constraint", "other.Memory >= 128")

        before = assert_batched_equals_naive(providers, grouped, use_index=False)
        stats = self._cycle_edit_cycle(providers, grouped, edit)
        assert stats.request_classes == before.request_classes + 2

    def test_refresh_and_list_edit_regroup_a_provider(self):
        """A ``Refresh`` rebinds volatile literals in place
        (``AdStore.touch``); an owner edits a policy list.  Both move the
        provider out of the group it was evaluated in last cycle."""
        from repro.condor.workload import (
            FIGURE1_POLICY_CONSTRAINT,
            FIGURE1_POLICY_RANK,
        )

        providers = [
            view_machine(f"m{i}", {"Memory": 64, "LoadAvg": 0.05, "KeyboardIdle": 3600,
                                    "DayTime": 36000, "ResearchGroup": ["alice"],
                                    "Friends": ["bob"], "Untrusted": ["mallory"]},
                         constraint=FIGURE1_POLICY_CONSTRAINT, rank=FIGURE1_POLICY_RANK)
            for i in range(6)
        ]
        grouped = _jobs(["other.Memory >= 64"], owners=("alice", "bob", "carol"))

        def matched(owner):
            assignments, _ = run_cycle(providers, grouped, batch=True, use_index=False)
            return sorted(a.provider.evaluate("Name") for a in assignments
                          if a.submitter == owner)

        assert len(matched("bob")) == 2  # a friend, and every keyboard is idle

        def edit():
            for provider in providers[:5]:
                provider["LoadAvg"] = 0.9  # busy: friends must wait
            providers[0]["ResearchGroup"] = ["bob"]  # except where bob now belongs

        self._cycle_edit_cycle(providers, grouped, edit)
        assert matched("bob") == ["m0", "m5"]

    def test_volatile_literals_leave_the_closure_standing(self):
        """What a refresh does — rebinding literals in place — keeps the
        memoized shape (and the sharing it buys) valid, while the self
        key follows the new value."""
        from repro.matchmaking.match import DEFAULT_POLICY
        from repro.matchmaking.groups import _self_keys, _shape

        provider = view_machine(
            "m0", {"LoadAvg": 0.1},
            constraint='LoadAvg < 0.3 && other.Owner != "bob"',
        )
        first = _shape(provider, DEFAULT_POLICY)
        constraint_key, rank_key = _self_keys(provider, DEFAULT_POLICY)[:2]
        provider["LoadAvg"] = 0.7
        assert (first.constraint.literals, first.constraint.reads) == (
            (("loadavg", (("<", 0.3),)),), ("owner",)
        )
        assert _shape(provider, DEFAULT_POLICY) is first
        moved = _self_keys(provider, DEFAULT_POLICY)
        assert moved[0] != constraint_key and moved[1] == rank_key
        provider.set_expr("LoadAvg", "other.Load")
        rebound = _shape(provider, DEFAULT_POLICY).constraint
        assert (rebound.literals, rebound.reads) == ((), ("load", "owner"))


# -- persistent index -----------------------------------------------------


def typed_machine(name, typ, memory):
    ad = machine(name, memory=memory)
    ad["Type"] = typ
    return ad


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["advertise", "withdraw"]),
        st.integers(min_value=0, max_value=9),  # name index
        st.sampled_from(["Machine", "Other"]),
        memories,
    ),
    max_size=40,
)


class TestMaintainedIndexEquivalence:
    @given(ops_strategy, st.integers(min_value=0, max_value=2))
    @settings(max_examples=150, deadline=None)
    def test_delta_maintained_equals_rebuilt(self, ops, probe_memory_i):
        """After any advertise/withdraw sequence the persistent index
        yields the same providers, in the same order, and the same
        candidate sets as an index rebuilt from scratch."""
        mm = Matchmaker()
        mm.provider_index()  # force early creation: every op is a delta
        for op, name_i, typ, memory in ops:
            name = f"n{name_i}"
            if op == "advertise":
                mm.advertise(name, typed_machine(name, typ, memory))
            else:
                mm.withdraw(name)
        mindex = mm.provider_index()
        authoritative = mm.ads('Type == "Machine"')
        assert [id(a) for a in mindex.providers()] == [id(a) for a in authoritative]
        probe = request("alice", 0, memory=[32, 64, 128][probe_memory_i])
        fresh = ProviderIndex(authoritative)
        assert [id(a) for a in mindex.index.candidates_for(probe)] == [
            id(a) for a in fresh.candidates_for(probe)
        ]

    def test_steady_state_performs_zero_rebuilds(self):
        """The acceptance criterion: once built, refresh/withdraw/expiry
        traffic is absorbed by deltas — the rebuild counter stays at the
        initial build."""
        mm = Matchmaker()
        for i in range(20):
            mm.advertise(f"m{i}", machine(f"m{i}"))
        grouped = {"alice": [request("alice", 0)]}
        mm.negotiate(grouped, use_index=True)
        mindex = mm.provider_index()
        assert mindex.index.rebuilds == 1
        for _ in range(5):
            for i in range(20):  # periodic re-advertisement, fresh ad objects
                mm.advertise(f"m{i}", machine(f"m{i}"))
            mm.withdraw("m7")
            mm.advertise("m7", machine("m7"))
            mm.negotiate(grouped, use_index=True)
        assert mm.provider_index() is mindex
        assert mindex.index.rebuilds == 1
        assert mindex.index.delta_updates > 0

    def test_member_turned_nonmember_and_back_keeps_naive_order(self):
        """The one delta-unrepresentable case: a stored non-member
        re-advertised as a member must not be appended out of its
        historical dict position — the index is dropped and rebuilt in
        authoritative order instead."""
        mm = Matchmaker()
        mm.advertise("a", typed_machine("a", "Other", 64))
        mm.advertise("b", machine("b"))
        mm.provider_index()
        mm.advertise("a", machine("a"))  # becomes a member mid-stream
        authoritative = mm.ads('Type == "Machine"')
        assert [id(x) for x in mm.provider_index().providers()] == [
            id(x) for x in authoritative
        ]
        names = [x.evaluate("Name") for x in mm.provider_index().providers()]
        assert names == ["a", "b"]

    def test_negotiate_uses_persistent_index(self):
        """use_index=True must produce the same assignments as the naive
        unindexed negotiate, through the maintained index."""
        mm = Matchmaker()
        for i in range(10):
            mm.advertise(f"m{i}", machine(f"m{i}", memory=[32, 64, 128][i % 3]))
        grouped = {"alice": [request("alice", i, memory=64) for i in range(5)]}
        plain = mm.negotiate(grouped)
        indexed = mm.negotiate(grouped, use_index=True)
        assert assignment_key(plain) == assignment_key(indexed)


class TestAdsFastPath:
    def test_unconstrained_ads_returns_fresh_list(self):
        mm = Matchmaker()
        mm.advertise("m1", machine("m1"))
        ads = mm.ads()
        assert len(ads) == 1
        ads.append(machine("mx"))  # caller-owned copy: store unaffected
        assert len(mm.ads()) == 1
