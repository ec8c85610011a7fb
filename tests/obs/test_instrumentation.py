"""Integration: the instrumented subsystems actually report through obs.

Each test enables the global registry, drives a real code path
(matchmaking cycle, claim verification, ad store, simulator), and
checks the counters it should have produced.
"""

import pytest

from repro import obs
from repro.classads import ClassAd
from repro.matchmaking import ProviderIndex, negotiation_cycle
from repro.protocols import AdStore, TicketAuthority, verify_claim


@pytest.fixture(autouse=True)
def obs_enabled():
    obs.enable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def machine(name, arch="INTEL", memory=64):
    ad = ClassAd(
        {
            "Type": "Machine",
            "Name": name,
            "Arch": arch,
            "Memory": memory,
            "State": "Unclaimed",
            "ContactAddress": f"startd@{name}",
        }
    )
    ad.set_expr("Constraint", 'other.Type == "Job"')
    ad.set_expr("Rank", "0")
    return ad


def job(owner, arch="INTEL", memory=32):
    ad = ClassAd(
        {
            "Type": "Job",
            "Owner": owner,
            "Memory": memory,
            "ReqArch": arch,
            "ContactAddress": f"schedd@{owner}",
        }
    )
    ad.set_expr(
        "Constraint",
        'other.Type == "Machine" && other.Arch == self.ReqArch '
        "&& other.Memory >= self.Memory",
    )
    ad.set_expr("Rank", "0")
    return ad


class TestMatchmakerInstrumentation:
    def test_cycle_counts_matches_and_evaluations(self):
        providers = [machine(f"m{i}") for i in range(4)]
        requests = {"alice": [job("alice")], "bob": [job("bob")]}
        assignments = negotiation_cycle(requests, providers)

        totals = obs.metrics.totals()
        assert totals["matchmaker.cycles"] == 1
        assert totals["matchmaker.matched"] == len(assignments) == 2
        assert totals["matchmaker.requests"] == 2
        assert totals["classads.evaluations"] > 0
        assert totals["classads.eval_steps"] >= totals["classads.evaluations"]

        cycle_stats = obs.metrics.get("matchmaker.cycle_seconds").stats()
        assert cycle_stats is not None and cycle_stats.count == 1

    def test_index_hits_counted(self):
        providers = [machine(f"m{i}", arch="SPARC" if i % 2 else "INTEL") for i in range(6)]
        index = ProviderIndex(providers)
        negotiation_cycle({"alice": [job("alice")]}, providers, index=index)
        totals = obs.metrics.totals()
        assert totals.get("index.hits", 0) + totals.get("index.misses", 0) > 0
        assert totals.get("index.pruned", 0) > 0  # SPARC machines pre-filtered


class TestClaimInstrumentation:
    def test_claim_verdicts_labeled(self):
        authority = TicketAuthority("mm", b"secret")
        provider = machine("m0")
        request = job("alice")
        decision = verify_claim(request, provider, authority.mint(), authority)
        assert decision.accepted
        bogus = verify_claim(request, provider, authority.mint(), TicketAuthority("mm", b"other"))
        assert not bogus.accepted

        verdicts = obs.metrics.get("claims.verified")
        assert verdicts.value(verdict="accepted") == 1
        assert verdicts.total == 2
        assert verdicts.value(verdict="bad-ticket") == 1


class TestAdStoreInstrumentation:
    def test_stale_and_refresh_counted(self):
        store = AdStore()
        ad = machine("m0")
        store.insert("m0", ad, now=0.0, lifetime=10.0, sequence=2)
        store.insert("m0", ad, now=1.0, lifetime=10.0, sequence=1)  # stale
        store.insert("m0", ad, now=2.0, lifetime=10.0, sequence=3)  # refresh
        store.expire(now=100.0)
        totals = obs.metrics.totals()
        assert totals["adstore.stale_dropped"] == 1
        assert totals["adstore.refreshed"] == 2  # first insert + refresh
        assert totals["adstore.expired"] == 1


class TestSimInstrumentation:
    def test_engine_counts_events(self):
        from repro.sim import Simulator

        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda now=t: fired.append(now))
        sim.run()
        assert len(fired) == 3
        assert obs.metrics.totals()["sim.events"] == 3


class TestDisabledIsInert:
    def test_nothing_recorded_when_disabled(self):
        from repro.condor import CondorPool, Job, MachineSpec, PoolConfig

        obs.enable(events=True, causal=True, timeseries=True)
        obs.disable()
        obs.reset()
        providers = [machine("m0")]
        negotiation_cycle({"alice": [job("alice")]}, providers)
        authority = TicketAuthority("mm", b"secret")
        assert verify_claim(job("alice"), providers[0], authority.mint(), authority).accepted
        pool = CondorPool([MachineSpec(name="m0")], PoolConfig(seed=7))
        pool.submit(Job(owner="alice", total_work=100.0))
        pool.run_until(1_000.0)
        assert pool.schedds["alice"].metrics.jobs_completed == 1
        assert obs.metrics.totals() == {}
        for stream in (obs.event_log, obs.causal_log, obs.series):
            assert len(stream) == 0
