"""Unit tests for the advertising protocol (S9)."""

import dataclasses

import pytest

from repro import obs
from repro.classads import ClassAd
from repro.protocols import (
    VOLATILE_MACHINE_ATTRS,
    AdStore,
    Advertisement,
    Advertiser,
    Refresh,
    Withdrawal,
    validate_ad,
)
from repro.protocols.advertising import classify
from repro.sim import Network, RngStream, Simulator


def valid_ad(**extra):
    ad = ClassAd(
        {
            "Type": "Machine",
            "ContactAddress": "startd@leonardo",
        }
    )
    ad.set_expr("Constraint", "true")
    for key, value in extra.items():
        ad[key] = value
    return ad


class TestValidation:
    def test_conforming_ad_passes(self):
        assert validate_ad(valid_ad()).ok

    def test_requirements_alias_accepted(self):
        ad = valid_ad()
        del ad["Constraint"]
        ad.set_expr("Requirements", "true")
        assert validate_ad(ad).ok

    def test_missing_constraint_flagged(self):
        ad = valid_ad()
        del ad["Constraint"]
        result = validate_ad(ad)
        assert not result.ok
        assert any("Constraint" in p for p in result.problems)

    def test_missing_contact_flagged(self):
        ad = valid_ad()
        del ad["ContactAddress"]
        assert not validate_ad(ad).ok

    def test_missing_type_flagged(self):
        ad = valid_ad()
        del ad["Type"]
        assert not validate_ad(ad).ok

    def test_requirements_may_be_relaxed(self):
        bare = ClassAd({"Type": "Query"})
        assert validate_ad(bare, require_constraint=False, require_contact=False).ok

    def test_multiple_problems_reported(self):
        result = validate_ad(ClassAd({}))
        assert len(result.problems) == 3


class TestAdStore:
    def test_insert_and_get(self):
        store = AdStore()
        ad = valid_ad()
        store.insert("leonardo", ad, now=0.0)
        assert store.get("leonardo") is ad
        assert "leonardo" in store
        assert len(store) == 1

    def test_refresh_replaces_and_renews(self):
        store = AdStore()
        store.insert("m", valid_ad(Memory=16), now=0.0, lifetime=100, sequence=1)
        store.insert("m", valid_ad(Memory=64), now=50.0, lifetime=100, sequence=2)
        assert store.get("m").evaluate("Memory") == 64
        assert store.expire(now=120.0) == []  # renewed at t=50, lives to 150
        assert store.expire(now=151.0) == ["m"]

    def test_out_of_order_advertisement_dropped(self):
        store = AdStore()
        assert store.insert("m", valid_ad(Memory=64), now=10.0, sequence=5)
        assert not store.insert("m", valid_ad(Memory=16), now=11.0, sequence=3)
        assert store.get("m").evaluate("Memory") == 64

    def test_expiry_reaps_only_stale(self):
        store = AdStore()
        store.insert("old", valid_ad(), now=0.0, lifetime=10)
        store.insert("fresh", valid_ad(), now=0.0, lifetime=1000)
        assert store.expire(now=20.0) == ["old"]
        assert len(store) == 1

    def test_age_of(self):
        store = AdStore()
        store.insert("m", valid_ad(), now=100.0)
        assert store.age_of("m", now=130.0) == 30.0
        assert store.age_of("missing", now=130.0) is None

    def test_remove(self):
        store = AdStore()
        store.insert("m", valid_ad(), now=0.0)
        assert store.remove("m")
        assert not store.remove("m")

    def test_clear_models_crash(self):
        # A matchmaker crash loses all soft state; re-advertisement
        # rebuilds it (experiment E1 exercises the full loop).
        store = AdStore()
        store.insert("m", valid_ad(), now=0.0)
        store.clear()
        assert len(store) == 0
        store.insert("m", valid_ad(), now=300.0)
        assert len(store) == 1

    def test_ads_and_records(self):
        store = AdStore()
        store.insert("a", valid_ad(), now=0.0)
        store.insert("b", valid_ad(), now=1.0)
        assert len(store.ads()) == 2
        assert sorted(r.name for r in store.records()) == ["a", "b"]
        assert sorted(store) == ["a", "b"]


class TestAdvertiser:
    """One agent's sending side: numbering, full-or-Refresh, the blind
    copy, forgetting and withdrawal."""

    def setup_method(self):
        from repro.sim import Network, RngStream, Simulator

        self.sim = Simulator()
        self.net = Network(self.sim, rng=RngStream(1), latency=0.01)
        self.sent = []
        self.net.register("collector@cm", self.sent.append)
        self.adv = Advertiser(
            self.sim, self.net, "startd@m0", 60.0, 180.0, VOLATILE_MACHINE_ATTRS
        )
        self.slot = self.adv.slot("machine.m0", "collector@cm")

    def advertise(self, basis="k"):
        """The agent's part: refresh while the basis is unchanged."""
        ad = valid_ad(LoadAvg=0.5)
        if self.adv.refreshable(self.slot) == basis:
            message = self.adv.refresh(self.slot, (("LoadAvg", 0.5),))
        else:
            message = self.adv.full(self.slot, ad, basis)
        self.adv.send(message, lambda: False)
        return message

    def test_first_ad_is_full_then_refreshes_name_its_fingerprint(self):
        first = self.advertise()
        self.sim.run_until(60.0)
        second = self.advertise()
        assert isinstance(first, Advertisement) and isinstance(second, Refresh)
        assert second.fingerprint == first.fingerprint == self.slot.fingerprint
        assert (first.sequence, second.sequence) == (1, 2)
        assert self.slot.sent_at == 0.0

    def test_an_ad_at_the_instant_of_its_full_ad_goes_out_in_full(self):
        first = self.advertise()
        again = self.advertise()  # same instant, same basis
        assert isinstance(again, Advertisement)
        assert again.sequence == first.sequence + 1
        self.sim.run_until(1.0)
        assert isinstance(self.advertise(), Refresh)

    def test_after_forget_the_next_ad_is_full(self):
        self.advertise()
        self.sim.run_until(60.0)
        self.adv.forget("machine.m0", "collector@cm")
        assert self.adv.refreshable(self.slot) is None
        assert isinstance(self.advertise(), Advertisement)
        self.adv.forget("machine.m0", "collector@far")  # never advertised there: no-op
        self.sim.run_until(120.0)
        assert isinstance(self.advertise(), Refresh)

    def test_a_changed_basis_goes_out_in_full(self):
        self.advertise(basis="k")
        self.sim.run_until(60.0)
        assert isinstance(self.advertise(basis="k2"), Advertisement)
        assert self.slot.basis == "k2"

    def test_every_ad_gets_one_blind_copy(self):
        first = self.advertise()
        self.sim.run_until(59.0)
        assert [m for m in self.sent if m is first] == [first, first]

    def test_withdraw_outnumbers_every_ad_and_the_name_is_never_refreshed(self):
        ads = [self.advertise()]
        for t in (60.0, 120.0):
            self.sim.run_until(t)
            ads.append(self.advertise())
        self.adv.withdraw("machine.m0", "collector@cm")
        self.sim.run_until(121.0)
        (withdrawal,) = [m for m in self.sent if isinstance(m, Withdrawal)]
        assert withdrawal.sequence >= max(m.sequence for m in ads)
        # The next ad under the name starts a fresh slot: in full.
        self.slot = self.adv.slot("machine.m0", "collector@cm")
        self.sim.run_until(180.0)
        after = self.advertise()
        assert isinstance(after, Advertisement) and after.sequence > withdrawal.sequence

    def test_withdraw_reaches_every_collector_or_the_default(self):
        self.net.register("collector@far", self.sent.append)
        self.advertise()
        self.slot = self.adv.slot("machine.m0", "collector@far")
        self.advertise()
        self.adv.withdraw("machine.m0", "collector@cm")
        self.adv.withdraw("machine.never", "collector@cm")
        self.sim.run_until(1.0)
        withdrawn = [(m.name, m.recipient) for m in self.sent if isinstance(m, Withdrawal)]
        assert sorted(withdrawn) == [
            ("machine.m0", "collector@cm"),
            ("machine.m0", "collector@far"),
            ("machine.never", "collector@cm"),
        ]


class TestRefreshMessage:
    """``Refresh`` writes its instance dict in one go instead of through
    the generated frozen ``__init__``; it must behave as before."""

    FIELDS = dict(
        sender="startd@m0", recipient="collector@cm", name="machine.m0", fingerprint="fp",
        lifetime=180.0, sequence=7, volatile=(("LoadAvg", 0.5),),
    )

    def make(self, **changes):
        return Refresh(**{**self.FIELDS, **changes})

    def test_equality_hash_and_repr(self):
        a = self.make()
        assert a == self.make() and hash(a) == hash(self.make())
        assert a == Refresh(*self.FIELDS.values())
        assert a != self.make(sequence=8) and a != self.make(volatile=())
        assert Refresh("s", "r", "n", "fp", 1.0, 1).volatile == ()
        assert repr(a) == (
            "Refresh(sender='startd@m0', recipient='collector@cm', ctx=None, "
            "name='machine.m0', fingerprint='fp', lifetime=180.0, sequence=7, "
            "volatile=(('LoadAvg', 0.5),))"
        )

    def test_frozen_replaceable_and_ctx_keyword_only(self):
        a = self.make()
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.sequence = 8
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.ctx = None
        b = dataclasses.replace(a, sequence=8)
        assert type(b) is Refresh and b == self.make(sequence=8) and a.sequence == 7
        with pytest.raises(TypeError):
            Refresh(*self.FIELDS.values(), None)
        assert vars(a) == {**self.FIELDS, "ctx": None}

    def test_the_network_injects_one_causal_context_per_object(self):
        obs.reset()
        obs.enable(causal=True)
        try:
            sim = Simulator()
            net = Network(sim, rng=RngStream(1), latency=0.01)
            got = []
            net.register("collector@cm", got.append)
            message = self.make()
            with obs.causal_log.activate(obs.causal_log.start_trace("job.a.1", "job.submit")):
                net.send(message)
                net.send(message)  # a blind copy re-sends the same object
            sim.run_until(1.0)
            spans = list(obs.causal_log.spans())
        finally:
            obs.disable()
            obs.reset()
        assert got == [message, message]
        (send,) = [s for s in spans if s.name == "send.Refresh"]
        assert message.ctx.trace_id == "job.a.1" and message.ctx.span_id == send.span
        recvs = [s for s in spans if s.name == "recv.Refresh"]
        assert len(recvs) == 2 and all(r.parent == send.span for r in recvs)


class TestStoredDerivedState:
    def test_admission_classifies_and_replacement_reclassifies(self):
        store = AdStore()
        store.insert("m", valid_ad(State="Owner"), now=0.0, sequence=1)
        rec = store.record("m")
        assert (rec.kind, rec.state) == ("machine", "owner")
        store.insert("m", valid_ad(State="Claimed"), now=1.0, sequence=2)
        assert store.record("m").state == "claimed"
        assert classify(ClassAd({"Type": "JOB"})) == ("job", "")
        assert classify(ClassAd({"Memory": 4})) == ("", "")

    def test_jobs_version_moves_only_with_job_ads(self):
        store = AdStore()
        job = ClassAd({"Type": "Job", "Owner": "alice"})
        store.insert("m", valid_ad(), now=0.0)
        before = store.jobs_version
        store.touch("m", now=1.0)
        assert store.jobs_version == before
        store.insert("j", job, now=1.0, lifetime=10.0)
        assert store.jobs_version > before
        before = store.jobs_version
        store.touch("j", now=2.0, lifetime=10.0)
        assert store.jobs_version == before
        assert store.expire(now=100.0) == ["j"]
        assert store.jobs_version > before
