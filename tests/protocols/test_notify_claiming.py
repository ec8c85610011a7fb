"""Unit tests for match notification (S10) and claiming (S11)."""

import pytest

from repro.classads import ClassAd, RecordExpr
from repro.classads import compile as compile_mod
from repro.classads import evaluator
from repro.obs import event_log
from repro.protocols import (
    ClaimRequest,
    ClaimVerdict,
    TicketAuthority,
    build_notifications,
    contact_address,
    embed_ticket,
    respond_to_claim,
    ticket_from_ad,
    verify_claim,
)


def provider_ad(**extra):
    ad = ClassAd(
        {
            "Type": "Machine",
            "Name": "leonardo",
            "Memory": 64,
            "ContactAddress": "startd@leonardo",
        }
    )
    ad.set_expr("Constraint", 'other.Type == "Job" && other.Memory <= self.Memory')
    for key, value in extra.items():
        ad[key] = value
    return ad


def customer_ad(**extra):
    ad = ClassAd(
        {
            "Type": "Job",
            "Owner": "raman",
            "Memory": 31,
            "ContactAddress": "schedd@beak",
        }
    )
    ad.set_expr("Constraint", 'other.Type == "Machine"')
    for key, value in extra.items():
        ad[key] = value
    return ad


class TestTicketEmbedding:
    def test_embed_and_extract_round_trip(self):
        authority = TicketAuthority("leonardo", b"secret")
        ticket = authority.mint()
        ad = provider_ad()
        embed_ticket(ad, ticket)
        assert ticket_from_ad(ad) == ticket

    def test_missing_ticket_is_none(self):
        assert ticket_from_ad(provider_ad()) is None

    def test_malformed_ticket_is_none(self):
        ad = provider_ad()
        ad["AuthTicket"] = {"Issuer": "x"}  # missing fields
        assert ticket_from_ad(ad) is None

    def test_ticket_record_reads_as_the_interpreter_reads_it(self):
        ad = provider_ad()
        embed_ticket(ad, TicketAuthority("leonardo", b"secret").mint())
        record = ad.evaluate("AuthTicket")
        assert isinstance(record, ClassAd)
        assert record == evaluator.evaluate_attribute(ad, "AuthTicket")
        # A record constructor yields a fresh ad on every read.
        assert ad.evaluate("AuthTicket") is not record

    def test_claims_leave_no_ticket_in_the_compile_memo(self, monkeypatch):
        from repro.condor import CondorPool, Job, MachineSpec, PoolConfig

        monkeypatch.setattr(compile_mod, "_MEMO", {})
        pool = CondorPool(
            [MachineSpec(name=f"m{i}") for i in range(4)],
            PoolConfig(seed=7, advertise_interval=120.0, negotiation_interval=120.0),
        )
        for _ in range(6):
            pool.submit(Job(owner="alice", total_work=500.0))
        pool.run_until(5_000.0)
        assert pool.metrics.jobs_completed == 6
        assert not [key for key in compile_mod._MEMO if isinstance(key[0], RecordExpr)]


class TestNotifications:
    def test_both_parties_notified_with_each_others_ads(self):
        cust, prov = customer_ad(), provider_ad()
        to_customer, to_provider = build_notifications("mm@cm", cust, prov)
        assert to_customer.recipient == "schedd@beak"
        assert to_provider.recipient == "startd@leonardo"
        assert to_customer.peer_ad is prov
        assert to_provider.peer_ad is cust
        assert to_customer.peer_address == "startd@leonardo"
        assert to_customer.match_id == to_provider.match_id

    def test_ticket_forwarded_to_customer_only(self):
        authority = TicketAuthority("leonardo", b"secret")
        prov = provider_ad()
        embed_ticket(prov, authority.mint())
        to_customer, to_provider = build_notifications("mm@cm", customer_ad(), prov)
        assert to_customer.ticket is not None
        assert to_provider.ticket is None
        assert authority.validate(to_customer.ticket)

    def test_session_key_shared_when_requested(self):
        to_customer, to_provider = build_notifications(
            "mm@cm", customer_ad(), provider_ad(), with_session_key=True
        )
        assert to_customer.session_key == to_provider.session_key
        assert to_customer.session_key is not None

    def test_missing_contact_address_rejected(self):
        prov = provider_ad()
        del prov["ContactAddress"]
        with pytest.raises(ValueError):
            build_notifications("mm@cm", customer_ad(), prov)

    def test_contact_address_helper(self):
        assert contact_address(provider_ad()) == "startd@leonardo"
        assert contact_address(ClassAd({})) is None
        assert contact_address(ClassAd({"ContactAddress": 5})) is None


class TestVerifyClaim:
    def setup_method(self):
        self.authority = TicketAuthority("leonardo", b"secret")
        self.ticket = self.authority.mint()

    def test_valid_claim_accepted(self):
        decision = verify_claim(
            customer_ad(), provider_ad(), self.ticket, self.authority
        )
        assert decision.accepted
        assert decision.verdict is ClaimVerdict.ACCEPTED

    def test_bad_ticket_rejected(self):
        stale = self.ticket
        self.authority.mint()  # rotate: stale ticket no longer valid
        decision = verify_claim(customer_ad(), provider_ad(), stale, self.authority)
        assert decision.verdict is ClaimVerdict.BAD_TICKET

    def test_missing_ticket_rejected_when_required(self):
        decision = verify_claim(customer_ad(), provider_ad(), None, self.authority)
        assert decision.verdict is ClaimVerdict.BAD_TICKET

    def test_ticketless_pool_skips_ticket_check(self):
        decision = verify_claim(customer_ad(), provider_ad(), None, authority=None)
        assert decision.accepted

    def test_stale_state_caught_at_claim_time(self):
        # The match was made when the machine advertised Memory = 64; by
        # claim time the job grew past it.  Claim-time re-verification
        # against *current* state must reject (Section 3.2/4).
        grown_job = customer_ad(Memory=128)
        decision = verify_claim(grown_job, provider_ad(), self.ticket, self.authority)
        assert decision.verdict is ClaimVerdict.CONSTRAINT_VIOLATED

    def test_resource_state_change_caught(self):
        # Owner came back: the RA's current ad now rejects everyone.
        busy = provider_ad()
        busy.set_expr("Constraint", "false")
        decision = verify_claim(customer_ad(), busy, self.ticket, self.authority)
        assert decision.verdict is ClaimVerdict.CONSTRAINT_VIOLATED

    def test_violation_event_carries_every_attribution_field(self):
        """A claim-time violation is attributed like a match-time reject,
        with the Constraint's name and the references that were undefined."""
        wants_gpu = customer_ad()
        wants_gpu.set_expr("Constraint", 'other.Type == "Machine" && other.GPUs >= 1')
        event_log.reset()
        event_log.enable()
        try:
            decision = verify_claim(wants_gpu, provider_ad(), self.ticket, self.authority)
            (event,) = event_log.of_kind("claim.verdict")
        finally:
            event_log.disable()
            event_log.reset()
        assert decision.verdict is ClaimVerdict.CONSTRAINT_VIOLATED
        assert event.fields == {
            "verdict": "constraint-violated", "job": None, "owner": "raman",
            "provider": "leonardo", "side": "customer", "constraint": "Constraint",
            "conjunct": "other.GPUs >= 1", "value": "undefined", "undefined": ["other.GPUs"],
        }

    def test_already_claimed_rejected_first(self):
        decision = verify_claim(
            customer_ad(),
            provider_ad(),
            self.ticket,
            self.authority,
            already_claimed=True,
        )
        assert decision.verdict is ClaimVerdict.ALREADY_CLAIMED


class TestRespondToClaim:
    def test_wire_response(self):
        authority = TicketAuthority("leonardo", b"secret")
        ticket = authority.mint()
        request = ClaimRequest(
            sender="schedd@beak",
            recipient="startd@leonardo",
            customer_ad=customer_ad(),
            ticket=ticket,
            match_id=7,
        )
        response = respond_to_claim(request, "startd@leonardo", provider_ad(), authority)
        assert response.accepted
        assert response.match_id == 7
        assert response.recipient == "schedd@beak"
        assert response.reason == "accepted"

    def test_rejection_reason_on_wire(self):
        request = ClaimRequest(
            sender="schedd@beak",
            recipient="startd@leonardo",
            customer_ad=customer_ad(Memory=9999),
            ticket=None,
            match_id=8,
        )
        response = respond_to_claim(request, "startd@leonardo", provider_ad(), None)
        assert not response.accepted
        assert response.reason == "constraint-violated"
