"""The claiming protocol — S11 in DESIGN.md.

Section 4: "The RA accepts the resource request only if the ticket
matches the one that it gave the pool manager, and the request matches
the RA's constraints with respect to the updated state of the request
and resource, which may have changed since the last advertisement."

This is the heart of the weak-consistency argument (Section 3.2):
matches are made against possibly-stale ads, and correctness is restored
end-to-end at claim time, by the principals themselves.  The functions
here are pure decision procedures used by both the in-memory examples
and the simulated agents.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..classads import ClassAd
from ..matchmaking.match import DEFAULT_POLICY, MatchPolicy, constraints_satisfied
from ..obs import event_log as _events, metrics as _metrics
from .messages import ClaimRequest, ClaimResponse
from .tickets import Ticket, TicketAuthority

_CLAIM_VERDICTS = _metrics.counter(
    "claims.verified", "RA-side claim verifications, by verdict"
)


class ClaimVerdict(Enum):
    """Why a claim was accepted or rejected (E2 aggregates rejections)."""

    ACCEPTED = "accepted"
    BAD_TICKET = "bad-ticket"
    CONSTRAINT_VIOLATED = "constraint-violated"
    ALREADY_CLAIMED = "already-claimed"
    BAD_HANDSHAKE = "bad-handshake"


@dataclass(frozen=True)
class ClaimDecision:
    verdict: ClaimVerdict

    @property
    def accepted(self) -> bool:
        return self.verdict is ClaimVerdict.ACCEPTED


def verify_claim(
    request_ad: ClassAd,
    current_resource_ad: ClassAd,
    presented_ticket: Optional[Ticket],
    authority: Optional[TicketAuthority],
    already_claimed: bool = False,
    policy: MatchPolicy = DEFAULT_POLICY,
) -> ClaimDecision:
    """The RA's claim check, exactly in the paper's order.

    1. The ticket must match the one handed to the pool manager (skipped
       when the RA never issued one — ticketless pools are legal).
    2. Both parties' constraints must hold against *current* state: the
       RA re-evaluates with its up-to-date resource ad and the customer's
       up-to-date request ad, catching anything that changed since the
       stale advertisements matched.

    The re-check runs through the compiled-constraint path
    (:mod:`repro.classads.compile`): when the ads are unchanged since
    match time the closures are already cached, and a state update
    invalidates exactly the rebound attribute's code.
    """
    if already_claimed:
        verdict = ClaimVerdict.ALREADY_CLAIMED
    elif authority is not None and not authority.validate(presented_ticket):
        verdict = ClaimVerdict.BAD_TICKET
    elif not constraints_satisfied(request_ad, current_resource_ad, policy):
        verdict = ClaimVerdict.CONSTRAINT_VIOLATED
    else:
        verdict = ClaimVerdict.ACCEPTED
    _CLAIM_VERDICTS.inc(verdict=verdict.value)
    if _events.enabled:
        job_id = request_ad.evaluate("JobId")
        owner = request_ad.evaluate("Owner")
        resource = current_resource_ad.evaluate("Name")
        fields = {
            "verdict": verdict.value,
            "job": job_id if isinstance(job_id, int) else None,
            "owner": owner if isinstance(owner, str) else None,
            "provider": resource if isinstance(resource, str) else None,
        }
        if verdict is ClaimVerdict.CONSTRAINT_VIOLATED:
            # The claim-time re-check failed against *current* state:
            # attribute it exactly like a match-time rejection.
            from ..matchmaking.diagnose import attribute_failure

            attribution = attribute_failure(request_ad, current_resource_ad, policy)
            if attribution is not None:
                fields.update(attribution.event_fields())
        _events.emit("claim.verdict", **fields)
    return ClaimDecision(verdict)


def respond_to_claim(
    request: ClaimRequest,
    provider_address: str,
    current_resource_ad: ClassAd,
    authority: Optional[TicketAuthority],
    already_claimed: bool = False,
    policy: MatchPolicy = DEFAULT_POLICY,
) -> ClaimResponse:
    """Build the wire response for *request* (sim-agent convenience)."""
    decision = verify_claim(
        request_ad=request.customer_ad,
        current_resource_ad=current_resource_ad,
        presented_ticket=request.ticket,
        authority=authority,
        already_claimed=already_claimed,
        policy=policy,
    )
    return ClaimResponse(
        sender=provider_address,
        recipient=request.sender,
        match_id=request.match_id,
        accepted=decision.accepted,
        reason=decision.verdict.value,
    )
