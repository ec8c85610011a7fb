"""The matchmaking framework's protocols — S9–S11 in DESIGN.md.

Section 3 decomposes the framework into five components; three of them
are protocols and live here:

* :mod:`repro.protocols.advertising` — component 2, what a classad must
  contain to be admitted and how the matchmaker retains it (soft state);
* :mod:`repro.protocols.notify` — component 4, how matched parties are
  notified and what they are given (each other's ads, contact addresses,
  the authorization ticket, optionally a session key);
* :mod:`repro.protocols.claiming` — component 5, how the matched parties
  establish the working relationship end-to-end (ticket check +
  constraint re-verification against current state).

:mod:`repro.protocols.messages` defines the wire messages of Figure 3,
and :mod:`repro.protocols.tickets` the authorization-ticket machinery.
"""

from .advertising import (
    DEFAULT_AD_LIFETIME,
    DEFAULT_ADVERTISING_INTERVAL,
    VOLATILE_JOB_ATTRS,
    VOLATILE_MACHINE_ATTRS,
    AdStore,
    Advertiser,
    StoredAd,
    ValidationResult,
    stable_equal,
    validate_ad,
    volatile_values,
)
from .claiming import ClaimDecision, ClaimVerdict, respond_to_claim, verify_claim
from .messages import (
    Advertisement,
    ClaimRequest,
    ClaimResponse,
    EvictionNotice,
    MatchNotification,
    Message,
    Refresh,
    ReleaseNotice,
    ResendRequest,
    Withdrawal,
    next_message_id,
    reset_message_ids,
)
from .notify import (
    build_notifications,
    contact_address,
    embed_ticket,
    make_session_key,
    ticket_from_ad,
)
from .retry import (
    BackoffPolicy,
    Retransmitter,
    retries_enabled,
    set_retries,
)
from .tickets import ChallengeResponse, Ticket, TicketAuthority

__all__ = [
    "BackoffPolicy",
    "Retransmitter",
    "retries_enabled",
    "set_retries",
    "AdStore",
    "Advertiser",
    "Advertisement",
    "ChallengeResponse",
    "ClaimDecision",
    "ClaimRequest",
    "ClaimResponse",
    "ClaimVerdict",
    "DEFAULT_AD_LIFETIME",
    "DEFAULT_ADVERTISING_INTERVAL",
    "EvictionNotice",
    "MatchNotification",
    "Message",
    "Refresh",
    "ReleaseNotice",
    "ResendRequest",
    "StoredAd",
    "Ticket",
    "TicketAuthority",
    "VOLATILE_JOB_ATTRS",
    "VOLATILE_MACHINE_ATTRS",
    "ValidationResult",
    "Withdrawal",
    "build_notifications",
    "contact_address",
    "embed_ticket",
    "make_session_key",
    "next_message_id",
    "reset_message_ids",
    "respond_to_claim",
    "stable_equal",
    "ticket_from_ad",
    "validate_ad",
    "verify_claim",
    "volatile_values",
]
