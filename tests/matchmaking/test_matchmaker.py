"""Unit tests for the Matchmaker service and the negotiation cycle (S6)."""

import inspect
from collections import Counter

import pytest

from repro.classads import ClassAd
from repro.matchmaking import (
    Accountant,
    CycleStats,
    Matchmaker,
    ProviderIndex,
    matchmaker as mm_module,
    negotiation_cycle,
)
from repro.paper import figure1_machine_at, job_from


def machine(name, memory=64, state="Unclaimed", **extra):
    ad = ClassAd(
        {
            "Type": "Machine",
            "Name": name,
            "Arch": "INTEL",
            "OpSys": "SOLARIS251",
            "Memory": memory,
            "State": state,
        }
    )
    ad.set_expr("Constraint", 'other.Type == "Job"')
    for key, value in extra.items():
        ad[key] = value
    return ad


def request(owner, memory=32, **extra):
    ad = ClassAd({"Type": "Job", "Owner": owner, "Memory": memory})
    ad.set_expr("Constraint", 'other.Type == "Machine" && other.Memory >= self.Memory')
    for key, value in extra.items():
        ad[key] = value
    return ad


class TestMatchmakerAdStore:
    def test_advertise_and_query(self):
        mm = Matchmaker()
        mm.advertise("m1", machine("m1"))
        mm.advertise("m2", machine("m2", memory=16))
        assert len(mm) == 2
        assert "m1" in mm
        assert len(mm.query("Memory >= 32")) == 1

    def test_readvertise_replaces(self):
        mm = Matchmaker()
        mm.advertise("m1", machine("m1", memory=16))
        mm.advertise("m1", machine("m1", memory=64))
        assert len(mm) == 1
        assert mm.query("Memory == 64")

    def test_withdraw_idempotent(self):
        mm = Matchmaker()
        mm.advertise("m1", machine("m1"))
        mm.withdraw("m1")
        mm.withdraw("m1")
        assert len(mm) == 0

    def test_clear_forgets_everything(self):
        mm = Matchmaker()
        mm.advertise("m1", machine("m1"))
        mm.clear()
        assert len(mm) == 0

    def test_match_single_customer(self):
        mm = Matchmaker()
        mm.advertise("m1", machine("m1", memory=16))
        mm.advertise("m2", machine("m2", memory=64))
        best = mm.match(request("raman"))
        assert best.provider.evaluate("Name") == "m2"

    def test_match_none(self):
        mm = Matchmaker()
        mm.advertise("m1", machine("m1", memory=16))
        assert mm.match(request("raman", memory=512)) is None

    def test_matches_all_sorted(self):
        mm = Matchmaker()
        mm.advertise("m1", machine("m1", memory=64))
        mm.advertise("m2", machine("m2", memory=128))
        customer = request("raman")
        customer.set_expr("Rank", "other.Memory")
        matches = mm.matches(customer)
        assert [m.provider.evaluate("Name") for m in matches] == ["m2", "m1"]


class TestNegotiationCycle:
    def test_each_provider_matched_at_most_once(self):
        providers = [machine("m1")]
        requests = {"alice": [request("alice"), request("alice")]}
        assignments = negotiation_cycle(requests, providers)
        assert len(assignments) == 1

    def test_all_requests_served_when_capacity_allows(self):
        providers = [machine(f"m{i}") for i in range(4)]
        requests = {"alice": [request("alice") for _ in range(3)]}
        assert len(negotiation_cycle(requests, providers)) == 3

    def test_best_rank_wins(self):
        providers = [machine("slow", KFlops=1000), machine("fast", KFlops=9000)]
        req = request("alice")
        req.set_expr("Rank", "other.KFlops")
        [assignment] = negotiation_cycle({"alice": [req]}, providers)
        assert assignment.provider.evaluate("Name") == "fast"

    def test_fair_share_order(self):
        # One machine, two submitters; the light user gets it.
        acc = Accountant(half_life=100)
        acc.resource_claimed("heavy")
        acc.resource_claimed("heavy")
        acc.record("light")
        acc.advance_to(300)
        providers = [machine("m1")]
        requests = {"heavy": [request("heavy")], "light": [request("light")]}
        [assignment] = negotiation_cycle(requests, providers, accountant=acc)
        assert assignment.submitter == "light"

    def test_without_accountant_order_is_alphabetical(self):
        providers = [machine("m1")]
        requests = {"zoe": [request("zoe")], "amy": [request("amy")]}
        [assignment] = negotiation_cycle(requests, providers)
        assert assignment.submitter == "amy"

    def test_machine_constraint_respected(self):
        fussy = machine("fussy")
        fussy.set_expr("Constraint", 'other.Owner == "miron"')
        requests = {"raman": [request("raman")], "miron": [request("miron")]}
        assignments = negotiation_cycle(requests, [fussy])
        assert len(assignments) == 1
        assert assignments[0].submitter == "miron"

    def test_stats_collected(self):
        stats = CycleStats()
        providers = [machine("m1"), machine("m2", memory=8)]
        negotiation_cycle({"a": [request("a")]}, providers, stats=stats)
        assert stats.requests_considered == 1
        assert stats.matched == 1


class TestPreemption:
    def claimed_machine(self, name, current_rank, owner="bob"):
        ad = machine(name, state="Claimed")
        ad["CurrentRank"] = current_rank
        ad["RemoteOwner"] = owner
        ad.set_expr("Rank", 'member(other.Owner, { "raman", "miron" }) * 10')
        return ad

    def test_higher_rank_customer_preempts(self):
        provider = self.claimed_machine("m1", current_rank=0)
        [assignment] = negotiation_cycle({"raman": [request("raman")]}, [provider])
        assert assignment.preempts == "bob"

    def test_equal_rank_does_not_preempt(self):
        provider = self.claimed_machine("m1", current_rank=10)
        assignments = negotiation_cycle({"raman": [request("raman")]}, [provider])
        assert assignments == []

    def test_lower_rank_does_not_preempt(self):
        provider = self.claimed_machine("m1", current_rank=5)
        assignments = negotiation_cycle({"stranger": [request("stranger")]}, [provider])
        assert assignments == []

    def test_preemption_disabled(self):
        provider = self.claimed_machine("m1", current_rank=0)
        assignments = negotiation_cycle(
            {"raman": [request("raman")]}, [provider], allow_preemption=False
        )
        assert assignments == []

    def test_unclaimed_machine_preferred_over_preemption(self):
        claimed = self.claimed_machine("claimed", current_rank=0)
        idle = machine("idle")
        idle.set_expr("Rank", 'member(other.Owner, { "raman", "miron" }) * 10')
        [assignment] = negotiation_cycle(
            {"raman": [request("raman")]}, [claimed, idle]
        )
        # Equal ranks: input-order tie-break must not matter here because
        # both rank the job 10; the claimed one requires strict preference
        # but both pass. Input order gives the claimed machine — unless we
        # prefer idle. The paper does not mandate a preference, so we only
        # assert a single match happened.
        assert assignment.preempts in (None, "bob")

    def test_stats_count_preemptions(self):
        stats = CycleStats()
        provider = self.claimed_machine("m1", current_rank=0)
        negotiation_cycle({"raman": [request("raman")]}, [provider], stats=stats)
        assert stats.preemptions == 1


class TestNegotiateWithIndex:
    def test_index_gives_same_assignments(self):
        providers = [machine(f"m{i}", memory=16 * (i + 1)) for i in range(8)]
        requests = {
            "alice": [request("alice", memory=64)],
            "bob": [request("bob", memory=16)],
        }
        plain = negotiation_cycle(requests, providers)
        stats = CycleStats()
        indexed = negotiation_cycle(
            requests, providers, index=ProviderIndex(providers), stats=stats
        )
        assert [(a.submitter, a.provider.evaluate("Name")) for a in plain] == [
            (a.submitter, a.provider.evaluate("Name")) for a in indexed
        ]
        assert stats.constraint_evaluations_saved > 0

    def test_matchmaker_negotiate_wrapper(self):
        mm = Matchmaker()
        for i in range(3):
            mm.advertise(f"m{i}", machine(f"m{i}"))
        mm.advertise("q", ClassAd({"Type": "Query"}))  # non-machine ignored
        assignments = mm.negotiate({"alice": [request("alice")]}, use_index=True)
        assert len(assignments) == 1


class TestStageSeams:
    """scan -> score -> commit are module-level functions, looked up in
    the module's globals at every call: that is what lets an outside-in
    span recorder (or ROADMAP items 4 and 5) wrap one stage by name."""

    @staticmethod
    def figure1_pool():
        providers = []
        for i in range(4):
            ad = figure1_machine_at(daytime=20 * 3600)  # night: strangers welcome
            ad["Name"] = f"leonardo{i}.cs.wisc.edu"
            providers.append(ad)
        grouped = {
            "raman": [job_from("raman") for _ in range(3)],
            "tannenba": [job_from("tannenba") for _ in range(2)],
            "rival": [job_from("rival")],  # untrusted: never served
        }
        return providers, grouped

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        for stage in ("_scan", "_score", "_commit"):
            def counting(*args, _stage=stage, _original=getattr(mm_module, stage)):
                calls[_stage] += 1
                return _original(*args)

            monkeypatch.setattr(mm_module, stage, counting)
        return calls

    @pytest.mark.parametrize("use_index", [False, True])
    def test_scan_and_score_once_per_class_commit_once_per_assignment(self, calls, use_index):
        providers, grouped = self.figure1_pool()
        stats = CycleStats()
        assignments = negotiation_cycle(
            grouped, providers, stats=stats, batch=True,
            index=ProviderIndex(providers) if use_index else None,
        )
        assert stats.request_classes == 3  # one per owner: the machines read Owner
        assert len(assignments) == 4  # rival is refused, one friend finds the pool full
        assert calls == {"_scan": 3, "_score": 3, "_commit": 4}

    def test_oracle_scans_per_request_and_never_scores(self, calls):
        providers, grouped = self.figure1_pool()
        assignments = negotiation_cycle(grouped, providers, batch=False)
        assert calls == {"_scan": 6, "_commit": len(assignments)}

    def test_oracle_cannot_reach_the_class_table(self):
        assert list(inspect.signature(mm_module._naive_try_match).parameters) == [
            "cycle", "submitter", "request",
        ]
        hidden = set(mm_module._ClassTable.__slots__)
        assert hidden >= {"classes", "groups", "rows", "verdicts"}
        # One table of evaluations: nothing keyed per provider sits beside it.
        assert not {"rep_accepts", "provider_verdicts"} & hidden
        assert not hidden & set(mm_module._Cycle.__slots__)

    def test_parallel_parameter_is_gone(self):
        providers, grouped = self.figure1_pool()
        with pytest.raises(TypeError):
            negotiation_cycle(grouped, providers, parallel=False)
        with pytest.raises(TypeError):
            Matchmaker().negotiate(grouped, parallel=False)
