"""Unit tests for the collector and negotiator (S16)."""

import pytest

from repro.classads import ClassAd
from repro.condor import Collector, Job, MachineSpec, Negotiator
from repro.condor.machine import MachineAgent
from repro.matchmaking import Accountant, select
from repro.classads import fingerprint
from repro.protocols import (
    VOLATILE_MACHINE_ATTRS,
    Advertisement,
    MatchNotification,
    Refresh,
    ResendRequest,
    Withdrawal,
)
from repro.sim import Network, RngStream, Simulator, Trace


def machine_ad(name, memory=64, state="Unclaimed"):
    ad = ClassAd(
        {
            "Type": "Machine",
            "Name": name,
            "Arch": "INTEL",
            "OpSys": "SOLARIS251",
            "Memory": memory,
            "State": state,
            "ContactAddress": f"startd@{name}",
        }
    )
    ad.set_expr("Constraint", 'other.Type == "Job"')
    return ad


def job_ad(owner, job_id, memory=32, qdate=0):
    ad = ClassAd(
        {
            "Type": "Job",
            "JobId": job_id,
            "Owner": owner,
            "Memory": memory,
            "QDate": qdate,
            "ContactAddress": f"schedd@{owner}",
        }
    )
    ad.set_expr("Constraint", 'other.Type == "Machine" && other.Memory >= self.Memory')
    return ad


def advertise(net, name, ad, lifetime=900.0, sequence=1):
    net.send(
        Advertisement(
            sender="x",
            recipient="collector@cm",
            name=name,
            ad=ad,
            lifetime=lifetime,
            sequence=sequence,
        )
    )


class TestCollector:
    def setup_method(self):
        self.sim = Simulator()
        self.net = Network(self.sim, rng=RngStream(1), latency=0.01)
        self.collector = Collector(self.sim, self.net, trace=Trace())

    def test_admits_conforming_ads(self):
        advertise(self.net, "machine.m0", machine_ad("m0"))
        self.sim.run_until(1.0)
        assert self.collector.ads_admitted == 1
        assert len(self.collector.machine_ads()) == 1

    def test_rejects_nonconforming_ads(self):
        advertise(self.net, "bad", ClassAd({"Memory": 4}))
        self.sim.run_until(1.0)
        assert self.collector.ads_rejected == 1
        assert len(self.collector.store) == 0

    def test_withdrawal(self):
        advertise(self.net, "machine.m0", machine_ad("m0"))
        self.sim.run_until(1.0)
        self.net.send(Withdrawal(sender="x", recipient="collector@cm", name="machine.m0"))
        self.sim.run_until(2.0)
        assert len(self.collector.store) == 0

    def test_expiry_reaps_unrefreshed_ads(self):
        advertise(self.net, "machine.m0", machine_ad("m0"), lifetime=100.0)
        self.sim.run_until(1.0)
        assert len(self.collector.store) == 1
        self.sim.run_until(200.0)  # expire task runs every 60s
        assert len(self.collector.store) == 0
        assert self.collector.trace.count("ad-expired") == 1

    def test_job_ads_grouped_and_ordered(self):
        advertise(self.net, "job.b.2", job_ad("bob", 2, qdate=50), sequence=1)
        advertise(self.net, "job.a.1", job_ad("alice", 1, qdate=10), sequence=2)
        advertise(self.net, "job.a.3", job_ad("alice", 3, qdate=5), sequence=3)
        self.sim.run_until(1.0)
        grouped = self.collector.job_ads_by_owner()
        assert set(grouped) == {"alice", "bob"}
        assert [ad.evaluate("JobId") for ad in grouped["alice"]] == [3, 1]

    def test_an_ad_inserted_around_the_collector_is_classified_and_grouped(self):
        advertise(self.net, "job.a.1", job_ad("alice", 1, qdate=10))
        self.sim.run_until(1.0)
        assert [ad.evaluate("JobId") for ad in self.collector.job_ads_by_owner()["alice"]] == [1]
        # Straight into the store, past the message handler: the record
        # is classified on admission and the cached grouping notices.
        self.collector.store.insert("job.a.3", job_ad("alice", 3, qdate=5), now=1.0)
        self.collector.store.insert("machine.m0", machine_ad("m0", state="Owner"), now=1.0)
        assert self.collector.store.record("machine.m0").state == "owner"
        grouped = self.collector.job_ads_by_owner()
        assert [ad.evaluate("JobId") for ad in grouped["alice"]] == [3, 1]
        self.collector.store.remove("job.a.1")
        assert [ad.evaluate("JobId") for ad in self.collector.job_ads_by_owner()["alice"]] == [3]

    def test_query(self):
        advertise(self.net, "machine.m0", machine_ad("m0", memory=64))
        advertise(self.net, "machine.m1", machine_ad("m1", memory=16), sequence=2)
        self.sim.run_until(1.0)
        assert len(self.collector.query("Memory >= 32")) == 1

    def test_crash_loses_soft_state(self):
        advertise(self.net, "machine.m0", machine_ad("m0"))
        self.sim.run_until(1.0)
        self.collector.crash()
        assert len(self.collector.store) == 0
        advertise(self.net, "machine.m0", machine_ad("m0"), sequence=2)
        self.sim.run_until(2.0)
        assert len(self.collector.store) == 0  # still down: message lost
        self.collector.recover()
        advertise(self.net, "machine.m0", machine_ad("m0"), sequence=3)
        self.sim.run_until(3.0)
        assert len(self.collector.store) == 1


class TestViewsFromTheStoredKind:
    """``machine_ads()`` and ``job_ads()`` read each record's kind; they
    must list what the ``Type`` selections list, in the same order."""

    def assert_views_are_the_selections(self, collector):
        for view, kind in ((collector.machine_ads, "Machine"), (collector.job_ads, "Job")):
            want = select(collector.store.ads(), f'Type == "{kind}"')
            got = view()
            assert len(got) == len(want) and all(g is w for g, w in zip(got, want))

    def test_views_follow_refresh_expiry_and_crash(self):
        sim = Simulator()
        net = Network(sim, rng=RngStream(1), latency=0.01)
        collector = Collector(sim, net, trace=Trace())
        net.register("x", lambda message: None)
        shouting = machine_ad("m1")
        shouting["Type"] = "MACHINE"
        numbered = machine_ad("m2")
        numbered["Type"] = 3
        advertise(net, "machine.m0", machine_ad("m0"), sequence=1)
        advertise(net, "job.a.1", job_ad("alice", 1), sequence=2)
        advertise(net, "machine.m1", shouting, lifetime=100.0, sequence=3)
        advertise(net, "machine.m2", numbered, sequence=4)
        sim.run_until(1.0)
        untyped = machine_ad("m3")
        del untyped["Type"]
        collector.store.insert("machine.m3", untyped, now=1.0)
        collector.store.insert("machine.m4", machine_ad("m4"), now=1.0)
        assert len(collector.store) == 6
        self.assert_views_are_the_selections(collector)
        assert len(collector.machine_ads()) == 3 and len(collector.job_ads()) == 1

        net.send(
            Refresh(
                sender="x", recipient="collector@cm", name="machine.m0", fingerprint=None,
                lifetime=900.0, sequence=5, volatile=(("LoadAvg", 0.5),),
            )
        )
        sim.run_until(2.0)
        assert collector.store.get("machine.m0").evaluate("LoadAvg") == 0.5
        self.assert_views_are_the_selections(collector)

        sim.run_until(200.0)  # machine.m1's lease has run out
        assert "machine.m1" not in collector.store
        self.assert_views_are_the_selections(collector)
        assert len(collector.machine_ads()) == 2

        collector.crash()
        self.assert_views_are_the_selections(collector)
        assert collector.machine_ads() == [] and collector.job_ads() == []


class TestRefreshCopies:
    """A Refresh is idempotent per sequence number: the sender's blind
    retransmit (same object, same number) renews the lease again but has
    nothing new to write; a newer Refresh always writes; an older one is
    stale."""

    def setup_method(self):
        self.sim = Simulator()
        self.net = Network(self.sim, rng=RngStream(1), latency=0.01)
        self.collector = Collector(self.sim, self.net, trace=Trace())
        self.nacks = []
        self.net.register("startd@m0", self.nacks.append)
        self.ad = machine_ad("m0")
        self.ad["LoadAvg"] = 0.05
        self.ad["KeyboardIdle"] = 10.0
        self.fp = fingerprint(self.ad, exclude=VOLATILE_MACHINE_ATTRS)
        self.net.send(
            Advertisement(
                sender="startd@m0",
                recipient="collector@cm",
                name="machine.m0",
                ad=self.ad,
                lifetime=900.0,
                sequence=1,
                fingerprint=self.fp,
            )
        )
        self.sim.run_until(1.0)

    def refresh(self, sequence, load, idle):
        return Refresh(
            sender="startd@m0",
            recipient="collector@cm",
            name="machine.m0",
            fingerprint=self.fp,
            lifetime=900.0,
            sequence=sequence,
            volatile=(("LoadAvg", load), ("KeyboardIdle", idle)),
        )

    def deliver(self, t, message):
        """Send *message* at time *t*; returns (arrival time, lease end)."""
        self.sim.run_until(t)
        self.net.send(message)
        self.sim.run_until(t + 1.0)
        return t + 0.01, t + 0.01 + 900.0

    def lease(self):
        rec = self.collector.store.record("machine.m0")
        return rec.received_at, rec.expires_at, rec.sequence

    def test_same_sequence_copy_renews_the_lease_and_writes_nothing(self):
        message = self.refresh(2, 0.25, 310.0)
        assert (*self.deliver(300.0, message), 2) == self.lease()
        assert self.ad.evaluate("LoadAvg") == 0.25
        bound = dict(self.ad.bindings())
        derived = fingerprint(self.ad)  # fills the ad's derived-form cache

        # The blind copy, 37.5 s later: the lease moves exactly as before.
        assert (*self.deliver(337.5, message), 2) == self.lease()
        after = self.ad.bindings()
        assert after.keys() == bound.keys()
        assert all(after[key] is bound[key] for key in bound)  # not even rebound
        assert self.ad._fpcache is not None and fingerprint(self.ad) == derived
        assert not self.nacks

    def test_higher_sequence_always_rewrites(self):
        self.deliver(300.0, self.refresh(2, 0.25, 310.0))
        load = self.ad["LoadAvg"]
        # LoadAvg happens to repeat; it is written all the same.
        assert (*self.deliver(600.0, self.refresh(3, 0.25, 610.0)), 3) == self.lease()
        assert self.ad.evaluate("KeyboardIdle") == 610.0
        assert self.ad.evaluate("LoadAvg") == 0.25 and self.ad["LoadAvg"] is not load

    def test_lower_sequence_is_dropped_as_stale(self):
        lease = (*self.deliver(600.0, self.refresh(3, 0.25, 610.0)), 3)
        self.deliver(602.0, self.refresh(2, 0.99, 310.0))  # overtaken in flight
        assert self.lease() == lease
        assert self.ad.evaluate("LoadAvg") == 0.25
        assert not self.nacks

    def content_change(self, t, sequence):
        """A full ad with new stable content (fingerprint B) at *sequence*;
        returns the stored record's (sequence, fingerprint, lease end,
        volatile values, ad) after delivery."""
        ad = machine_ad("m0", memory=128)
        ad["LoadAvg"] = 0.5
        ad["KeyboardIdle"] = 20.0
        fp = fingerprint(ad, exclude=VOLATILE_MACHINE_ATTRS)
        assert fp != self.fp
        self.deliver(
            t,
            Advertisement(
                sender="startd@m0",
                recipient="collector@cm",
                name="machine.m0",
                ad=ad,
                lifetime=900.0,
                sequence=sequence,
                fingerprint=fp,
            ),
        )
        return self.stored()

    def stored(self):
        rec = self.collector.store.record("machine.m0")
        volatile = (rec.ad.evaluate("LoadAvg"), rec.ad.evaluate("KeyboardIdle"))
        return rec.sequence, rec.fingerprint, rec.expires_at, volatile, rec.ad

    def test_older_refresh_after_a_content_change_leaves_the_record_alone(self):
        stored = self.content_change(300.0, 3)
        # A late blind copy of the Refresh sent before the change:
        # sequence 2 and the old fingerprint A.
        self.deliver(302.0, self.refresh(2, 0.99, 999.0))
        after = self.stored()
        assert after == stored and after[-1] is stored[-1]

    @pytest.mark.xfail(
        strict=True,
        reason="the collector compares the fingerprint before the sequence, "
        "so an older Refresh naming a replaced fingerprint draws a resend; "
        "checking the sequence first is ROADMAP item 1(c)",
    )
    def test_older_refresh_after_a_content_change_draws_no_resend(self):
        self.content_change(300.0, 3)
        self.deliver(302.0, self.refresh(2, 0.99, 999.0))
        assert not self.nacks

    def test_copy_after_a_crash_is_still_nacked(self):
        message = self.refresh(2, 0.25, 310.0)
        self.deliver(300.0, message)
        self.collector.crash()
        self.collector.recover()
        self.deliver(337.5, message)
        assert [type(m) for m in self.nacks] == [ResendRequest]


class TestNegotiator:
    def setup_method(self):
        self.sim = Simulator()
        self.net = Network(self.sim, rng=RngStream(1), latency=0.01)
        self.trace = Trace()
        self.collector = Collector(self.sim, self.net, trace=self.trace)
        self.accountant = Accountant(half_life=3600.0)
        self.negotiator = Negotiator(
            self.sim,
            self.net,
            self.collector,
            trace=self.trace,
            cycle_interval=300.0,
            accountant=self.accountant,
        )
        self.customer_inbox = []
        self.provider_inbox = []
        self.net.register("schedd@alice", self.customer_inbox.append)
        self.net.register("startd@m0", self.provider_inbox.append)

    def test_cycle_matches_and_notifies_both_parties(self):
        advertise(self.net, "machine.m0", machine_ad("m0"))
        advertise(self.net, "job.alice.1", job_ad("alice", 1), sequence=2)
        self.sim.run_until(301.0)
        customer_notes = [
            m for m in self.customer_inbox if isinstance(m, MatchNotification)
        ]
        provider_notes = [
            m for m in self.provider_inbox if isinstance(m, MatchNotification)
        ]
        assert len(customer_notes) == 1
        assert len(provider_notes) == 1
        assert customer_notes[0].match_id == provider_notes[0].match_id
        assert customer_notes[0].peer_address == "startd@m0"

    def test_no_requests_no_matches(self):
        advertise(self.net, "machine.m0", machine_ad("m0"))
        self.sim.run_until(301.0)
        assert self.negotiator.cycles_run == 1
        assert self.negotiator.total_matches == 0

    def test_crashed_negotiator_skips_cycles(self):
        advertise(self.net, "machine.m0", machine_ad("m0"))
        advertise(self.net, "job.alice.1", job_ad("alice", 1), sequence=2)
        self.negotiator.crash()
        self.sim.run_until(301.0)
        assert self.negotiator.total_matches == 0
        self.negotiator.recover()
        self.sim.run_until(601.0)
        assert self.negotiator.total_matches == 1

    def test_owner_state_machines_never_matched(self):
        advertise(self.net, "machine.m0", machine_ad("m0", state="Owner"))
        advertise(self.net, "job.alice.1", job_ad("alice", 1), sequence=2)
        self.sim.run_until(301.0)
        assert self.negotiator.total_matches == 0

    def test_notification_carries_both_ads(self):
        advertise(self.net, "machine.m0", machine_ad("m0"))
        advertise(self.net, "job.alice.1", job_ad("alice", 1), sequence=2)
        self.sim.run_until(301.0)
        note = self.customer_inbox[0]
        assert note.peer_ad.evaluate("Name") == "m0"
        assert note.my_ad.evaluate("JobId") == 1
