"""Message types exchanged by the matchmaking protocols — S9–S11.

Every wire interaction in Figure 3 has a message type here:

* step 1 — :class:`Advertisement` (entity → matchmaker),
* step 3 — :class:`MatchNotification` (matchmaker → both entities),
* step 4 — :class:`ClaimRequest` / :class:`ClaimResponse` and
  :class:`ReleaseNotice` (customer ↔ provider, *not* via the matchmaker).

Messages are plain frozen dataclasses; the simulated network
(:mod:`repro.sim.network`) delivers them with latency/jitter/loss, which
is all the "distribution" the protocols are claimed robust against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..classads import ClassAd
from ..classads.fingerprint import ad_wire_size
from ..obs.causal import TraceContext
from .tickets import Ticket

_sequence = itertools.count(1)


def next_message_id() -> int:
    """Monotone message ids, for tracing and duplicate suppression."""
    return next(_sequence)


def reset_message_ids() -> None:
    """Restart the id sequence at 1.

    Only for fresh, isolated runs (``repro chaos`` resets before each
    recording so same-seed runs are bitwise identical); never call this
    while a pool is live — duplicate suppression relies on uniqueness.
    """
    global _sequence
    _sequence = itertools.count(1)


@dataclass(frozen=True)
class Message:
    """Base class: sender/recipient are contact addresses (strings).

    ``ctx`` is the optional causal trace context (see
    :mod:`repro.obs.causal`): the network injects it on first send —
    retransmitted and chaos-duplicated copies re-send the same frozen
    object, so every copy shares the originating span — and activates
    it around delivery.  ``None`` whenever causal tracing is off.
    """

    sender: str
    recipient: str
    ctx: Optional[TraceContext] = field(default=None, kw_only=True)

    def wire_size(self) -> int:
        """Estimated bytes this message occupies on the wire (header +
        addresses); subclasses add their payloads.  Feeds the network's
        ``net.bytes_sent`` accounting — an estimate with stable shape,
        not a byte-exact encoding."""
        return 48 + len(self.sender) + len(self.recipient)


@dataclass(frozen=True)
class Advertisement(Message):
    """Step 1: a classad sent to the matchmaker.

    ``name`` is the advertising key (re-advertisement under the same name
    refreshes the stored ad); ``lifetime`` is how long the matchmaker
    should retain the ad without refresh (soft state).

    ``fingerprint`` is the sender's content hash over the ad's stable
    (non-volatile) attributes — see :mod:`repro.classads.fingerprint`
    and :class:`Refresh`.  ``None`` means no Refresh can renew the ad.
    """

    name: str
    ad: ClassAd
    lifetime: float
    sequence: int = field(default_factory=next_message_id)
    fingerprint: Optional[str] = None

    def wire_size(self) -> int:
        size = super().wire_size() + len(self.name) + 24 + ad_wire_size(self.ad)
        if self.fingerprint is not None:
            size += len(self.fingerprint)
        return size


@dataclass(frozen=True, init=False)
class Refresh(Message):
    """A compact re-advertisement of an *unchanged* ad (the fast path).

    In steady state the soft-state protocol's dominant traffic is
    re-advertisements of ads that have not changed; a Refresh carries
    only the advertising key, the sender's sequence number, the content
    fingerprint of the stable attributes, and the current values of the
    declared-volatile attributes (clock-derived fields like
    ``KeyboardIdle`` that change every period by construction).  A
    collector holding an ad under ``name`` whose stored fingerprint
    matches renews the lease and applies the volatile values in place —
    producing exactly the stored state a full advertisement would have —
    and answers anything else with a :class:`ResendRequest`.
    """

    name: str
    fingerprint: str
    lifetime: float
    sequence: int
    #: ``(attribute name, scalar value)`` pairs, in ad insertion order.
    volatile: Tuple[Tuple[str, object], ...] = ()

    def __init__(self, sender, recipient, name, fingerprint, lifetime, sequence, volatile=(),
                 *, ctx=None):
        # One write of the instance dict: half the cost of the generated
        # frozen __init__, which binds field by field via object.__setattr__.
        self.__dict__.update(
            sender=sender, recipient=recipient, ctx=ctx, name=name, fingerprint=fingerprint,
            lifetime=lifetime, sequence=sequence, volatile=volatile,
        )

    def wire_size(self) -> int:
        return (
            super().wire_size()
            + len(self.name)
            + len(self.fingerprint)
            + 24
            + sum(len(name) + 12 for name, _ in self.volatile)
        )


@dataclass(frozen=True)
class ResendRequest(Message):
    """The collector's NACK to a :class:`Refresh` it cannot honour
    (unknown name, expired ad, or fingerprint mismatch): one round trip
    restores full state — the explicit resync handshake that preserves
    crash-recovery-by-doing-nothing (experiment E1) under the fast
    path."""

    name: str

    def wire_size(self) -> int:
        return super().wire_size() + len(self.name)


@dataclass(frozen=True)
class Withdrawal(Message):
    """Graceful removal of an advertisement (e.g. agent shutting down).

    ``sequence`` is the sender's advertising sequence counter *at
    withdrawal time*: every Advertisement/Refresh already in flight
    carries a smaller-or-equal number, so the collector can tombstone
    the name and drop late-arriving copies instead of resurrecting a
    withdrawn ad (or NACKing a stale refresh of one)."""

    name: str
    sequence: Optional[int] = None

    def wire_size(self) -> int:
        return super().wire_size() + len(self.name) + 8


@dataclass(frozen=True)
class MatchNotification(Message):
    """Step 3: "the matchmaker ... sends them the matching ads".

    Both parties receive the *other* party's ad and the other party's
    contact address; the customer additionally receives the provider's
    authorization ticket (Section 4) and an optional session key for the
    challenge-response handshake (Section 3.2).
    """

    peer_address: str
    peer_ad: ClassAd
    my_ad: ClassAd  # the ad the matchmaker matched for *this* recipient
    ticket: Optional[Ticket] = None
    session_key: Optional[bytes] = None
    match_id: int = field(default_factory=next_message_id)

    def wire_size(self) -> int:
        return (
            super().wire_size()
            + len(self.peer_address)
            + ad_wire_size(self.peer_ad)
            + ad_wire_size(self.my_ad)
            + (64 if self.ticket is not None else 0)
            + (len(self.session_key) if self.session_key is not None else 0)
            + 8
        )


@dataclass(frozen=True)
class ClaimRequest(Message):
    """Step 4: the customer contacts the provider directly.

    Carries the customer's *current* ad (which may be newer than the one
    that matched) and the ticket from the notification.
    """

    customer_ad: ClassAd
    ticket: Optional[Ticket]
    match_id: int
    challenge_response: Optional[str] = None

    def wire_size(self) -> int:
        return (
            super().wire_size()
            + ad_wire_size(self.customer_ad)
            + (64 if self.ticket is not None else 0)
            + 8
        )


@dataclass(frozen=True)
class ClaimResponse(Message):
    """The provider's verdict on a claim request.

    An accepted response carries the provider's claim-lease duration:
    the customer must renew (KeepAlive) within that window or the
    provider reaps the claim.  ``None`` means the provider runs without
    leases (legacy blind keep-alives).
    """

    match_id: int
    accepted: bool
    reason: str = ""
    challenge: Optional[bytes] = None  # set when demanding a handshake
    lease_duration: Optional[float] = None


@dataclass(frozen=True)
class ReleaseNotice(Message):
    """The customer relinquishes a claim ("relinquishes the claim, and
    the RA advertises itself as unclaimed" — Section 4)."""

    match_id: int


@dataclass(frozen=True)
class EvictionNotice(Message):
    """The provider terminates a running claim (owner returned, or a
    higher-Rank customer preempted this one)."""

    match_id: int
    reason: str
    checkpointed: bool = False
