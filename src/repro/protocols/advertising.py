"""The advertising protocol — S9 in DESIGN.md.

Section 3: the advertising protocol "defines basic conventions regarding
what a matchmaker expects to find in a classad if the ad is to be
included in the matchmaking process, and how the matchmaker expects to
receive the ad".  Section 4 gives Condor's conventions: "every classad
should include expressions named Constraint and Rank ... the advertising
parties [must] include contact addresses with their ads", and an RA may
include an authorization ticket.

This module provides:

* :func:`validate_ad` — the convention check a matchmaker applies before
  admitting an ad;
* :class:`AdStore` — the soft-state ad collection: ads carry lifetimes
  and expire unless refreshed, which is precisely why a crashed
  matchmaker recovers by doing nothing (experiment E1) and why stale ads
  are bounded by the advertising period (experiment E2);
* the **refresh** conventions: which attributes are *volatile*
  (clock-derived, changing every period by construction, so they ride
  the compact :class:`~repro.protocols.messages.Refresh` instead of
  defeating the fingerprint) and the sender-side change detector
  (:func:`stable_equal` / :func:`volatile_values`).  An ad goes out in
  full, with its stable-content fingerprint, when it is new or changed,
  and as a ``Refresh`` naming that fingerprint in any other period;
* :class:`Advertiser` — one agent's sending side of all that; the
  agent keeps only its own test of "unchanged since the last full ad".

Expiry is served by a lazy heap holding one ``(time, name)`` entry per
record, queued at or before its expiry: a renewal that moves the expiry
later pushes nothing, and :meth:`AdStore.expire` re-queues a record it
finds renewed at its real expiry, and discards entries whose record has
since been removed or re-queued sooner — O(k log n) per sweep, and one
push per record per lifetime in steady state.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..classads import ClassAd
from ..classads.ast import Literal
from ..classads.fingerprint import fingerprint, payload_equal
from ..obs import metrics as _metrics
from ..obs.causal import TraceContext
from .messages import Advertisement, Refresh, Withdrawal
from .retry import BackoffPolicy, Retransmitter

_ADS_STALE_DROPPED = _metrics.counter(
    "adstore.stale_dropped", "out-of-order advertisements dropped by sequence"
)
_ADS_EXPIRED = _metrics.counter(
    "adstore.expired", "ads reaped past their advertised lifetime"
)
_ADS_REFRESHED = _metrics.counter(
    "adstore.refreshed", "advertisements admitted (insert or refresh)"
)

#: Sender-side fast-path accounting (the Advertiser counts both).
_ADV_REFRESHES = _metrics.counter(
    "advertising.refreshes", "compact Refresh messages sent in place of full ads"
)
_ADV_FULL_ADS = _metrics.counter(
    "advertising.full_ads",
    "full advertisements sent (first ad, content change, or resync)",
)

#: Condor's default advertising interval (seconds): RAs/CAs re-send their
#: ads on this period, and the matchmaker keeps them ~3 periods.
DEFAULT_ADVERTISING_INTERVAL = 300.0
DEFAULT_AD_LIFETIME = 3 * DEFAULT_ADVERTISING_INTERVAL

#: Volatile attributes of a machine ad: derived from the clock or the
#: owner's activity, they change every advertising period by
#: construction, so the fingerprint excludes their values and the
#: Refresh message carries them explicitly.
VOLATILE_MACHINE_ATTRS: FrozenSet[str] = frozenset(
    {"loadavg", "keyboardidle", "daytime"}
)
#: Volatile attributes of a job request ad (the advertisement stamp).
VOLATILE_JOB_ATTRS: FrozenSet[str] = frozenset({"advertisedat"})


# -- sender-side change detection ----------------------------------------


def volatile_values(
    ad: ClassAd, volatile: FrozenSet[str]
) -> Optional[Tuple[Tuple[str, object], ...]]:
    """The ``(name, value)`` pairs a Refresh must carry for *ad*.

    Returns the volatile attributes present in *ad*, in insertion order
    with original spelling, or ``None`` when any of them is bound to
    something other than a plain scalar literal — in which case the
    sender must fall back to a full advertisement (the Refresh wire
    format only carries scalars).
    """
    out = []
    for key, name in ad._names.items():
        if key in volatile:
            expr = ad._fields[key]
            if not isinstance(expr, Literal) or not isinstance(
                expr.value, (bool, int, float, str)
            ):
                return None
            out.append((name, expr.value))
    return tuple(out)


def stable_equal(ad: ClassAd, last: ClassAd, volatile: FrozenSet[str]) -> bool:
    """Whether *ad* matches *last* on every non-volatile attribute.

    The comparison is exactly as fine as the fingerprint (payload-level,
    so literal types count); attribute *presence* still matters for
    volatile names — an ad gaining or losing a volatile attribute is a
    change.  True means the previously sent fingerprint still describes
    *ad*'s stable part, so a Refresh suffices.  An ad built from the
    last one shares its stable expressions, so they answer by identity.
    """
    fields, last_fields = ad._fields, last._fields
    if fields.keys() != last_fields.keys():
        return False
    for key, expr in fields.items():
        if key in volatile:
            continue
        if expr is not last_fields[key] and not payload_equal(expr, last_fields[key]):
            return False
    return True


@lru_cache(maxsize=None)
def blind_copy_policy(interval: float) -> BackoffPolicy:
    """Every ad's one blind copy: an eighth of a period later, plus up
    to a quarter of that in jitter (one policy per interval)."""
    return BackoffPolicy(base=interval / 8, factor=2.0, cap=interval / 2, jitter=0.25, max_tries=1)


@dataclass(slots=True)
class AdSlot:
    """What a sender keeps of one name at one collector: the ``basis``
    its last full ad was built from (what the agent's sameness test
    compares against), that ad's stable fingerprint and its send time."""

    name: str
    recipient: str
    basis: object = None
    fingerprint: Optional[str] = None
    sent_at: float = -1.0


class Advertiser:
    """One agent's sending side of the advertising protocol.

    The agent builds its ad and decides whether it is unchanged since
    the slot's last full ad (:meth:`refreshable` hands it the basis);
    the advertiser numbers, records, counts and builds the message, and
    :meth:`send` puts it on the wire with one blind copy (same sequence
    number, so the copy is idempotent at the collector).
    """

    __slots__ = ("sim", "net", "sender", "lifetime", "volatile", "sequence", "_slots", "_retx")

    def __init__(self, sim, net, sender: str, interval: float, lifetime: float,
                 volatile: FrozenSet[str], rng=None):
        self.sim = sim
        self.net = net
        self.sender = sender
        self.lifetime = lifetime
        self.volatile = volatile
        #: Agent-wide: every ad, under any name, takes the next number.
        self.sequence = 0
        #: name -> recipient -> slot, in first-advertised order.
        self._slots: Dict[str, Dict[str, AdSlot]] = {}
        self._retx = Retransmitter(
            sim, net, rng=rng, kind="advertisement", policy=blind_copy_policy(interval)
        )

    def slot(self, name: str, recipient: str) -> AdSlot:
        """The slot of *name* at *recipient*, empty on first use."""
        slots = self._slots.setdefault(name, {})
        slot = slots.get(recipient)
        if slot is None:
            slot = slots[recipient] = AdSlot(name, recipient)
        return slot

    def refreshable(self, slot: AdSlot):
        """The basis of *slot*'s last full ad, or None when the next ad
        must go out in full: there is none (never sent, or forgotten),
        or it was sent this very instant — latency jitter could deliver
        a Refresh first and force a needless resync round trip."""
        if slot.fingerprint is not None and self.sim.now > slot.sent_at:
            return slot.basis
        return None

    def refresh(self, slot: AdSlot, volatile: Tuple[Tuple[str, object], ...]) -> Refresh:
        """The next ad under *slot* as a Refresh carrying *volatile*."""
        self.sequence += 1
        if _metrics.enabled:
            _ADV_REFRESHES.inc()
        return Refresh(
            sender=self.sender, recipient=slot.recipient, name=slot.name,
            fingerprint=slot.fingerprint, lifetime=self.lifetime, sequence=self.sequence,
            volatile=volatile,
        )

    def full(self, slot: AdSlot, ad: ClassAd, basis) -> Advertisement:
        """The next ad under *slot* in full; *basis* is what *ad* was
        built from, which :meth:`refreshable` hands back from now on."""
        self.sequence += 1
        slot.basis = basis
        slot.fingerprint = fingerprint(ad, exclude=self.volatile)
        slot.sent_at = self.sim.now
        _ADV_FULL_ADS.inc()
        return Advertisement(
            sender=self.sender, recipient=slot.recipient, name=slot.name, ad=ad,
            lifetime=self.lifetime, sequence=self.sequence, fingerprint=slot.fingerprint,
        )

    def send(self, message, stop_when: Callable[[], bool]) -> None:
        """Send *message*, and its blind copy unless ``stop_when()``."""
        self._retx.send(message, stop_when=stop_when)

    def forget(self, name: str, recipient: str) -> None:
        """The collector cannot vouch for *name* (it NACKed a Refresh, or
        we crashed): the next ad there goes out in full."""
        slot = self._slots.get(name, {}).get(recipient)
        if slot is not None:
            slot.basis = slot.fingerprint = None

    def withdraw(self, name: str, default: str) -> None:
        """Withdraw *name* from every collector it went to (*default* if
        none) and drop its slots, so it is never refreshed again.  The
        current sequence is at or above every ad sent under *name*: the
        collector keeps it as a tombstone against late copies."""
        for recipient in self._slots.pop(name, None) or (default,):
            self.net.send(
                Withdrawal(
                    sender=self.sender, recipient=recipient, name=name, sequence=self.sequence
                )
            )


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    problems: Tuple[str, ...] = ()


def validate_ad(
    ad: ClassAd,
    require_constraint: bool = True,
    require_contact: bool = True,
) -> ValidationResult:
    """Check *ad* against the advertising protocol conventions.

    The check is deliberately shallow — the semi-structured model means
    the matchmaker imposes *conventions*, not a schema.  Missing Rank is
    tolerated (it defaults to 0 in ranking); a missing Constraint or
    contact address makes the ad unusable for two-way matchmaking.
    """
    problems: List[str] = []
    if require_constraint and ("Constraint" not in ad and "Requirements" not in ad):
        problems.append("no Constraint (or Requirements) attribute")
    if require_contact and "ContactAddress" not in ad:
        problems.append("no ContactAddress attribute")
    if "Type" not in ad:
        problems.append("no Type attribute")
    return ValidationResult(ok=not problems, problems=tuple(problems))


def classify(ad: ClassAd) -> Tuple[str, str]:
    """(kind, state) of *ad*: ``"machine"`` with its State lower-cased
    (``"unknown"`` if not a string), ``"job"``, or ``""`` — the
    semantics of the ``Type == "Machine"`` / ``Type == "Job"``
    selections (classad string equality is case-insensitive)."""
    kind = ad.evaluate("Type")
    kind = kind.lower() if isinstance(kind, str) else ""
    if kind == "machine":
        state = ad.evaluate("State")
        return "machine", state.lower() if isinstance(state, str) else "unknown"
    if kind == "job":
        return "job", ""
    return "", ""


@dataclass(slots=True)
class StoredAd:
    """An admitted advertisement plus its soft-state bookkeeping.

    ``fingerprint`` is the sender-computed stable-content hash carried
    by the full advertisement (``None`` for an ad sent without one); a
    later Refresh is honoured only when it presents the same hash.

    The rest is what a matchmaker derives from the ad, kept here so it
    drops with the record: ``kind``/``state`` (:func:`classify`, at
    admission), the causal context the ad arrived under, and a job's
    (owner, queue-order key), filled in by whoever groups the jobs.
    """

    name: str
    ad: ClassAd
    received_at: float
    expires_at: float
    sequence: int
    fingerprint: Optional[str] = None
    kind: str = ""
    state: str = ""
    ctx: Optional[TraceContext] = None
    job_key: Optional[tuple] = None
    #: The time of the record's one entry in the store's expiry heap
    #: (inf: none yet); never later than ``expires_at``.
    queued_at: float = math.inf


class AdStore:
    """Soft-state advertisement store keyed by advertised name.

    Semantics:

    * re-advertisement under the same name replaces the stored ad and
      renews its lifetime;
    * a :meth:`touch` (refresh fast path) renews the lifetime of the
      stored ad *in place* without replacing it;
    * out-of-order delivery is tolerated: an advertisement with a
      sequence number older than the stored one is ignored (the network
      substrate can reorder messages);
    * a withdrawal may carry the sender's sequence counter, which is
      kept as a *tombstone*: late-arriving copies sent before the
      withdrawal (sequence <= tombstone) are dropped as stale instead of
      resurrecting the withdrawn ad, whether they are full ads or
      refreshes;
    * ads past their lifetime are reaped by :meth:`expire`, which pops a
      lazily-invalidated expiry heap instead of scanning the store;
    * every admitted ad is classified (:attr:`StoredAd.kind`), and
      :attr:`jobs_version` moves whenever a job ad comes or goes, so a
      view over the job ads knows when to rebuild.
    """

    def __init__(self):
        self._store: Dict[str, StoredAd] = {}
        self.jobs_version = 0
        #: (queued_at, name) entries; an entry is live iff the stored
        #: record under *name* is still queued at exactly that time.
        self._expiry_heap: List[Tuple[float, str]] = []
        #: name -> withdrawing sender's sequence counter at removal time.
        self._tombstones: Dict[str, int] = {}

    def _queue(self, rec: StoredAd) -> None:
        """Queue *rec* at its expiry, which comes before its queued entry."""
        rec.queued_at = rec.expires_at
        heap = self._expiry_heap
        heapq.heappush(heap, (rec.expires_at, rec.name))
        if len(heap) > 4 * len(self._store) + 64:
            # Too many dead entries (removals, or leases shortened, with
            # no expiry sweeps): rebuild from the live records.
            for live in self._store.values():
                live.queued_at = live.expires_at
            self._expiry_heap = heap = [(r.expires_at, r.name) for r in self._store.values()]
            heapq.heapify(heap)

    def insert(
        self,
        name: str,
        ad: ClassAd,
        now: float,
        lifetime: float = DEFAULT_AD_LIFETIME,
        sequence: int = 0,
        fingerprint: Optional[str] = None,
    ) -> bool:
        """Admit/refresh an ad; False when dropped as out-of-order."""
        existing = self._store.get(name)
        if existing is not None and sequence < existing.sequence:
            _ADS_STALE_DROPPED.inc()
            return False
        if self.withdrawn_after(name, sequence):
            _ADS_STALE_DROPPED.inc()
            return False
        self._tombstones.pop(name, None)
        _ADS_REFRESHED.inc()
        rec = self._store[name] = StoredAd(
            name, ad, now, now + lifetime, sequence, fingerprint, *classify(ad)
        )
        if existing is not None:
            rec.queued_at = existing.queued_at  # the replaced record's heap entry
        if rec.kind == "job" or (existing is not None and existing.kind == "job"):
            self.jobs_version += 1
        if rec.expires_at < rec.queued_at:
            self._queue(rec)
        return True

    def touch(
        self,
        name: str,
        now: float,
        lifetime: float = DEFAULT_AD_LIFETIME,
        sequence: int = 0,
    ) -> Optional[bool]:
        """Renew the lease of the stored ad *name* without replacing it.

        Returns True on renewal, False when dropped as out-of-order
        (mirroring :meth:`insert`'s sequence rule), and None when no ad
        is stored under *name* (the caller should request a resend).
        """
        rec = self._store.get(name)
        if rec is None:
            # A stored name is never withdrawn: only a missing one can be.
            if self.withdrawn_after(name, sequence):
                _ADS_STALE_DROPPED.inc()
                return False
            return None
        if sequence < rec.sequence:
            _ADS_STALE_DROPPED.inc()
            return False
        if _metrics.enabled:
            _ADS_REFRESHED.inc()
        rec.received_at = now
        rec.expires_at = now + lifetime
        rec.sequence = sequence
        if rec.expires_at < rec.queued_at:
            self._queue(rec)  # a shorter lease than the queued one
        return True

    def withdrawn_after(self, name: str, sequence: int) -> bool:
        """True when *name* was withdrawn by a message that postdates
        *sequence* — i.e. this is a late copy of a dead ad."""
        tombstone = self._tombstones.get(name)
        return tombstone is not None and sequence <= tombstone

    def remove(self, name: str, tombstone: Optional[int] = None) -> bool:
        """Drop *name*; remember *tombstone* (the withdrawing sender's
        sequence counter) even when nothing was stored, so an ad still in
        flight cannot resurrect after its own withdrawal."""
        if tombstone is not None:
            prior = self._tombstones.get(name)
            if prior is None or tombstone > prior:
                self._tombstones[name] = tombstone
        rec = self._store.pop(name, None)
        if rec is not None and rec.kind == "job":
            self.jobs_version += 1
        return rec is not None

    def clear(self) -> None:
        self._store.clear()
        self._expiry_heap.clear()
        self._tombstones.clear()
        self.jobs_version += 1

    def expire(self, now: float) -> List[str]:
        """Reap expired ads; returns the reaped names (expiry order)."""
        dead: List[str] = []
        heap = self._expiry_heap
        store = self._store
        while heap and heap[0][0] <= now:
            queued_at, name = heapq.heappop(heap)
            rec = store.get(name)
            if rec is None or rec.queued_at != queued_at:
                continue  # removed, or queued sooner since: a dead entry
            if rec.expires_at != queued_at:
                # Renewed since it was queued: its real expiry is later,
                # so the order of the names reaped stays (expires_at, name).
                self._queue(rec)
                continue
            del store[name]
            dead.append(name)
            if rec.kind == "job":
                self.jobs_version += 1
        if dead:
            _ADS_EXPIRED.inc(len(dead))
        return dead

    def get(self, name: str) -> Optional[ClassAd]:
        rec = self._store.get(name)
        return rec.ad if rec is not None else None

    def record(self, name: str) -> Optional[StoredAd]:
        """The full stored record for *name* (refresh path bookkeeping)."""
        return self._store.get(name)

    def age_of(self, name: str, now: float) -> Optional[float]:
        """Seconds since the stored ad was received (its staleness)."""
        rec = self._store.get(name)
        return (now - rec.received_at) if rec is not None else None

    def ads(self) -> List[ClassAd]:
        return [rec.ad for rec in self._store.values()]

    def records(self) -> List[StoredAd]:
        return list(self._store.values())

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, name: str) -> bool:
        return name in self._store

    def __iter__(self) -> Iterator[str]:
        return iter(self._store)
