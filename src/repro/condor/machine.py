"""The Resource-owner Agent (RA / startd) — S14 in DESIGN.md.

Section 4: "Resources in the Condor system are represented by
Resource-owner Agents (RAs), which are responsible for enforcing the
policies stipulated by resource owners.  An RA periodically probes the
resource to determine its current state, and encapsulates this
information in a classad along with the owner's usage policy."

Behaviour implemented here:

* periodic advertisement of a Figure-1-shaped classad, plus an immediate
  ad on every state change (Condor's behaviour; bounds staleness);
* owner arrival/departure dynamics driven by a pluggable activity model
  (keyboard idle time and load average follow the owner);
* an authorization ticket embedded in each ad, validated at claim time;
* claim verification exactly per the paper: ticket first, then both
  constraints against *current* state;
* eviction on owner return, and Rank-based preemption: a claimed RA
  still accepts claims from customers it ranks *strictly above* the
  current one ("it is still interested in hearing from higher priority
  customers ... completely under the control of the RA");
* job execution: wall time scales with the machine's Mips rating, and
  evicted jobs keep their progress only if they checkpoint.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from operator import is_
from typing import Callable, Dict, Optional

from ..classads import ClassAd, parse, rank_value, values_equal
from ..matchmaking.match import DEFAULT_POLICY, MatchPolicy, constraints_satisfied
from ..obs import event_log as _events, metrics as _metrics
from ..obs.causal import TraceContext, causal_log as _causal
from ..protocols import (
    VOLATILE_MACHINE_ATTRS,
    Advertiser,
    BackoffPolicy,
    ClaimRequest,
    ClaimResponse,
    MatchNotification,
    ReleaseNotice,
    ResendRequest,
    Retransmitter,
    Ticket,
    TicketAuthority,
    embed_ticket,
    stable_equal,
    verify_claim,
    volatile_values,
)
from ..protocols.claiming import ClaimVerdict
from ..sim import Network, Simulator, Trace
from .jobs import REFERENCE_MIPS, parsed_policy
from .messages import JobCompleted, JobEvicted, KeepAlive, LeaseAck, NoticeAck
from .states import Activity, MachineState, check_machine_transition

_RA_LEASES_RENEWED = _metrics.counter(
    "leases.renewed", "claim-lease renewals granted by RAs"
)
_RA_LEASES_EXPIRED = _metrics.counter(
    "leases.expired", "claims reaped because their lease lapsed"
)
_RA_DUP_CLAIMS = _metrics.counter(
    "machine.duplicate_claims",
    "retransmitted claim requests answered from the replay cache",
)

#: Replay-cache and notification-dedup bound: old entries are evicted
#: FIFO once this many are held (retransmit windows are far shorter
#: than the lifetime of 512 claims).
_REPLAY_CAP = 512

#: Teardown notices are resent every 30 s until acked, 50 times at most
#: (the peer is almost certainly gone by then; 50 tries beat 10% loss
#: by 10^-50, and leases handle truly dead peers).
NOTICE_POLICY = BackoffPolicy(base=30.0, factor=1.0, cap=30.0, jitter=0.0, max_tries=50)

#: Default owner policy: accept anyone whenever the machine is not in
#: Owner state (the state machine handles owner presence; pools built
#: from Figure-1-style policies pass their own constraint).
DEFAULT_MACHINE_CONSTRAINT = 'other.Type == "Job"'
DEFAULT_MACHINE_RANK = "0"

#: The Owner-state START policy, parsed once and shared by every ad
#: build (shared Expr objects hit the change detector's identity check).
_FALSE_EXPR = parse("false")

#: A machine ad's first attributes, in ad order (extra attributes,
#: policy, claim and ticket follow); the stable key holds all but the
#: volatile three, then the extras, then its last ``_TAIL`` values.
_AD_NAMES = (
    "Type", "Name", "State", "Activity", "Arch", "OpSys", "Memory", "Disk",
    "Mips", "KFlops", "LoadAvg", "KeyboardIdle", "DayTime", "ContactAddress",
)
_HEAD, _TAIL = len(_AD_NAMES) - 3, 8

#: Value types the stable key holds as they are, and its list marker
#: (the list's length and items follow it).
_PLAIN = frozenset({bool, int, float, str, type(None)})
_LIST = object()
#: The key's Activity strings, and whether an extra attribute's name is
#: volatile, each worked out once.
_BUSY, _IDLE = Activity.BUSY.value, Activity.IDLE.value
_is_volatile = lru_cache(maxsize=1024)(lambda name: name.lower() in VOLATILE_MACHINE_ATTRS)


class _Unkeyed:
    """An extra attribute value the key cannot compare by content (an
    expression, a record, a list of anything but plain scalars, or a
    value for a volatile name): it equals nothing, so the ad is built
    afresh."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


@dataclass
class MachineSpec:
    """Static description of one workstation."""

    name: str
    arch: str = "INTEL"
    opsys: str = "SOLARIS251"
    memory: int = 64
    disk: int = 300_000
    mips: float = 100.0
    kflops: float = 20_000.0
    constraint: str = DEFAULT_MACHINE_CONSTRAINT
    rank: str = DEFAULT_MACHINE_RANK
    extra_attrs: Dict[str, object] = field(default_factory=dict)


class OwnerModel:
    """Owner presence model: when does the owner (de)occupy the machine?

    ``first_event`` returns (initially_active, seconds-until-change);
    afterwards the agent alternates, asking :meth:`active_duration` /
    :meth:`idle_duration` for each phase.  The default owner never shows
    up (a dedicated compute node).
    """

    def first_event(self, rng):
        return False, float("inf")

    def active_duration(self, rng) -> float:  # pragma: no cover - abstract-ish
        return 0.0

    def idle_duration(self, rng) -> float:  # pragma: no cover
        return float("inf")


@dataclass
class _Claim:
    """The RA's record of its current working relationship."""

    match_id: int
    customer_address: str
    job_ad: ClassAd
    job_id: int
    #: The job ad's Owner, evaluated once at accept.
    owner: str
    rank: float
    started_at: float
    wants_checkpoint: bool
    completion_handle: object = None
    last_alive: float = 0.0
    lease_expires: float = float("inf")
    #: Causal context of the accepted claim request; timer-fired
    #: completion/eviction notices parent on it so the teardown stays
    #: inside the job's trace.
    ctx: Optional[TraceContext] = None


class MachineAgent:
    """One simulated workstation and its resource-owner agent."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        spec: MachineSpec,
        collector_address: str,
        trace: Optional[Trace] = None,
        rng=None,
        owner_model: Optional[OwnerModel] = None,
        advertise_interval: float = 300.0,
        ad_lifetime: Optional[float] = None,
        policy: MatchPolicy = DEFAULT_POLICY,
        advertise_on_state_change: bool = True,
        on_claim_started: Optional[Callable[[str, str], None]] = None,
        on_claim_ended: Optional[Callable[[str, str], None]] = None,
    ):
        self.sim = sim
        self.net = net
        self.spec = spec
        self.collector_address = collector_address
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.rng = rng
        self.owner_model = owner_model or OwnerModel()
        self.advertise_interval = advertise_interval
        self.ad_lifetime = ad_lifetime if ad_lifetime is not None else 3 * advertise_interval
        self.policy = policy
        self.advertise_on_state_change = advertise_on_state_change
        self.on_claim_started = on_claim_started
        self.on_claim_ended = on_claim_ended

        self.address = f"startd@{spec.name}"
        self.authority = TicketAuthority(spec.name, spec.name.encode())
        self.state = MachineState.UNCLAIMED
        self.claim: Optional[_Claim] = None
        self.owner_active = False
        self.crashed = False
        self._owner_last_departure = sim.now
        retry_rng = rng.fork("retry") if rng is not None else None
        self._advertiser = Advertiser(
            sim, net, self.address, advertise_interval, self.ad_lifetime,
            VOLATILE_MACHINE_ATTRS, rng=retry_rng,
        )
        # The one slot: its basis is (last full ad, its stable key, whether
        # the key holds a NaN), which build_ad copies while the key is
        # unchanged.  _key is the key of the ad build_ad returned last, and
        # _refresh its volatile (name, value) pairs if it was such a copy.
        self._slot = self._advertiser.slot(f"machine.{spec.name}", collector_address)
        self._key: tuple = ()
        self._refresh: Optional[tuple] = None
        #: Teardown notices not yet acked, by match id.
        self._pending_notices: Dict[int, object] = {}
        self._notice_retx = Retransmitter(sim, net, kind="notice", policy=NOTICE_POLICY)
        # Receiver-side duplicate suppression (retransmits are blind, so
        # the RA must answer repeats idempotently): verdicts by
        # (match_id, sender, job_id), and match notifications seen.
        self._claim_verdicts: OrderedDict = OrderedDict()
        self._seen_notifications: OrderedDict = OrderedDict()
        #: Claim lease: evict if no KeepAlive arrives for this long.
        #: None disables leases (ablation knob; see E-ablation bench).
        self.claim_lease: float | None = 180.0
        #: Vacate grace: seconds the owner tolerates between arrival and
        #: the job being gone.  Writing a checkpoint takes
        #: memory / checkpoint_rate seconds; if that exceeds the grace,
        #: the checkpoint is abandoned and the work is lost.  None means
        #: the owner always waits out the checkpoint (the default, and
        #: the behaviour of a well-configured pool).
        self.vacate_grace: float | None = None
        self.checkpoint_rate_mb_s: float = 10.0

        # outcome counters (tests and E5 read these)
        self.jobs_completed = 0
        self.evictions_owner = 0
        self.evictions_preempted = 0
        self.evictions_lease = 0
        self.claims_accepted = 0
        self.claims_rejected = 0

        net.register(self.address, self._on_message)

    def start(self) -> None:
        """Arm the periodic advertiser and the owner-activity process."""
        self.authority.mint()
        self.sim.every(self.advertise_interval, self.advertise, start_delay=0.0)
        active, until_change = self.owner_model.first_event(self.rng)
        if active:
            # Owner present from t=0: enter Owner state before anything runs.
            self.owner_active = True
            self._set_state(MachineState.OWNER)
        if until_change != float("inf"):
            self.sim.schedule(until_change, self._owner_flip)

    # -- dynamic state -------------------------------------------------------

    @property
    def speed(self) -> float:
        return self.spec.mips / REFERENCE_MIPS

    @property
    def keyboard_idle(self) -> float:
        """Seconds since the owner last touched the machine."""
        if self.owner_active:
            return 0.0
        return self.sim.now - self._owner_last_departure

    @property
    def load_avg(self) -> float:
        """Owner-induced load (job load is excluded, as Condor's owner
        policies consult the non-Condor load average)."""
        return 1.25 if self.owner_active else 0.05

    @property
    def day_time(self) -> float:
        return self.sim.now % 86_400.0

    def _owner_flip(self) -> None:
        if self.owner_active:
            self.owner_active = False
            self._owner_last_departure = self.sim.now
            if self.state is MachineState.OWNER:
                self._set_state(MachineState.UNCLAIMED)
            self.trace.emit(self.sim.now, "owner-departed", machine=self.spec.name)
            next_in = self.owner_model.idle_duration(self.rng)
        else:
            self.owner_active = True
            self.trace.emit(self.sim.now, "owner-arrived", machine=self.spec.name)
            if self.claim is not None:
                self._evict("owner-returned")
                self.evictions_owner += 1
            self._set_state(MachineState.OWNER)
            next_in = self.owner_model.active_duration(self.rng)
        if next_in != float("inf"):
            self.sim.schedule(next_in, self._owner_flip)

    def _set_state(self, new: MachineState) -> None:
        if new is self.state and new is not MachineState.CLAIMED:
            return
        check_machine_transition(self.state, new)
        self.state = new
        if new is MachineState.UNCLAIMED:
            self.authority.mint()  # fresh ticket for the next customer
        elif new is MachineState.OWNER:
            self.authority.revoke()
        if self.advertise_on_state_change:
            # The immediate ad on state change is what bounds staleness in
            # deployed Condor; E2 disables it to sweep pure-periodic pools.
            self.advertise()

    # -- advertising (Figure 3, step 1) ---------------------------------------

    def stable_key(self) -> tuple:
        """The plain values behind every non-volatile attribute, flat and
        in ad order: the ``_AD_NAMES`` values but the volatile three;
        each extra attribute's name and value (a list as ``_LIST``, its
        length and its items, copied); whether the Owner-state ``false``
        is the Constraint; the Constraint and Rank text; the claim's
        RemoteOwner and CurrentRank; the ticket's issuer, serial, token.

        :meth:`build_ad` builds from this tuple and nothing else, so keys
        that are ``values_equal`` describe ads with the same stable
        fingerprint.  Flat, so the comparison is one pass of identity
        hits and list items still compare type-exactly.
        """
        spec, claim, ticket = self.spec, self.claim, self.authority.current
        key = [
            "Machine", spec.name, self.state._value_,
            _BUSY if claim is not None or self.owner_active else _IDLE,
            spec.arch, spec.opsys, spec.memory, spec.disk, spec.mips, spec.kflops,
            self.address,
        ]
        for name, value in spec.extra_attrs.items():
            kind = type(value)
            if _is_volatile(name):
                key += (name, _Unkeyed(value))
            elif kind in _PLAIN:
                key += (name, value)
            elif kind in (list, tuple) and _PLAIN.issuperset(map(type, value)):
                key += (name, _LIST, len(value), *value)
            else:
                key += (name, _Unkeyed(value))
        key += (
            self.state is MachineState.OWNER,
            spec.constraint,
            spec.rank,
            *((None, None) if claim is None else (claim.owner, claim.rank)),
            *((None,) * 3 if ticket is None else (ticket.issuer, ticket.serial, ticket.token)),
        )
        return tuple(key)

    def build_ad(self) -> ClassAd:
        """The RA's current classad — the Figure 1 shape.

        While :meth:`stable_key` equals the key of the last full ad sent
        (the advertising slot's basis), the ad is a copy of that one with
        the volatile literals rebound, and :meth:`advertise` sends those
        values as a Refresh without comparing the ads.  Every call
        returns a new ad, and no ad is mutated once built — the
        collector stores the very object an advertisement carries.
        """
        key = self.stable_key()
        basis = self._slot.basis
        refresh = (
            ("LoadAvg", self.load_avg),
            ("KeyboardIdle", self.keyboard_idle),
            ("DayTime", self.day_time),
        )
        # Identical values are equal ones, but for a NaN (values_equal).
        if basis is not None and len(key) == len(last := basis[1]) and (
            not basis[2] and all(map(is_, key, last)) or values_equal(key, last)
        ):
            self._key, self._refresh = last, refresh
            return basis[0].copy(refresh)
        self._key, self._refresh = key, None
        ad = ClassAd(
            (*zip(_AD_NAMES, key[: _HEAD - 1]), *refresh, ("ContactAddress", key[_HEAD - 1]))
        )
        i, end = _HEAD, len(key) - _TAIL
        while i < end:
            name, value = key[i], key[i + 1]
            i += 2
            if value is _LIST:
                value = key[i + 1 : i + 1 + key[i]]
                i += 1 + key[i]
            elif type(value) is _Unkeyed:
                value = value.value
            ad[name] = value
        closed, constraint, rank, remote_owner, current_rank, *ticket = key[end:]
        # Owner present: the START policy is unsatisfiable, full stop.
        ad["Constraint"] = _FALSE_EXPR if closed else parsed_policy(constraint)
        ad["Rank"] = parsed_policy(rank)
        if remote_owner is not None:
            ad["RemoteOwner"] = remote_owner
            ad["CurrentRank"] = current_rank
        if ticket[0] is not None:
            embed_ticket(ad, Ticket(*ticket))
        return ad

    def advertise(self) -> None:
        if self.crashed:
            # A dead process sends nothing; restart() re-advertises.
            return
        adv, slot = self._advertiser, self._slot
        ad = self.build_ad()
        basis, volatile = adv.refreshable(slot), None
        if basis is not None:
            # A copy of the basis (equal keys: an equal stable fingerprint)
            # refreshes with the values build_ad bound; any other is compared.
            volatile = self._refresh
            if volatile is None and stable_equal(ad, basis[0], VOLATILE_MACHINE_ATTRS):
                volatile = volatile_values(ad, VOLATILE_MACHINE_ATTRS)
        if volatile is not None:
            message = adv.refresh(slot, volatile)
        else:
            message = adv.full(slot, ad, (ad, self._key, any(v != v for v in self._key)))
        # Retransmit unless a newer ad has superseded this one (the
        # collector would drop the stale sequence anyway) or we died.
        seq = message.sequence
        adv.send(message, lambda: adv.sequence != seq or self.crashed)
        if self.trace.enabled or _events.enabled:
            self.trace.emit(
                self.sim.now, "advertise-machine", machine=self.spec.name, state=self.state.value
            )

    # -- message handling ------------------------------------------------------

    def _on_message(self, message) -> None:
        if isinstance(message, ClaimRequest):
            self._on_claim_request(message)
        elif isinstance(message, MatchNotification):
            # Step 3 arrives here too; the RA just awaits the claim.
            # Notifications may be retransmitted — record each once.
            if message.match_id in self._seen_notifications:
                return
            self._remember(self._seen_notifications, message.match_id, True)
            self.trace.emit(
                self.sim.now, "match-notified-provider", machine=self.spec.name,
                match=message.match_id,
            )
        elif isinstance(message, ReleaseNotice):
            self._on_release(message)
        elif isinstance(message, ResendRequest):
            self._on_resend_request(message)
        elif isinstance(message, NoticeAck):
            self._pending_notices.pop(message.match_id, None)
        elif isinstance(message, KeepAlive):
            self._on_keepalive(message)

    def _on_resend_request(self, message: ResendRequest) -> None:
        """The collector cannot honour our Refresh (it crashed, expired
        the ad, or saw a different fingerprint): forget the cached state
        and re-advertise in full immediately — the one-round-trip resync
        that keeps crash recovery within an advertising period."""
        if message.name != self._slot.name or self.crashed:
            return
        self._advertiser.forget(self._slot.name, self._slot.recipient)
        self.advertise()

    def _on_keepalive(self, message: KeepAlive) -> None:
        claim = self.claim
        if claim is not None and claim.match_id == message.match_id:
            claim.last_alive = self.sim.now
            if self.claim_lease is not None:
                claim.lease_expires = self.sim.now + self.claim_lease
                _RA_LEASES_RENEWED.inc()
                if _events.enabled:
                    _events.emit(
                        "claim.lease.renewed",
                        t=self.sim.now,
                        machine=self.spec.name,
                        match=claim.match_id,
                        expires=claim.lease_expires,
                    )
                self.net.send(
                    LeaseAck(
                        sender=self.address,
                        recipient=message.sender,
                        match_id=message.match_id,
                        ok=True,
                        lease=self.claim_lease,
                    )
                )
        elif self.claim_lease is not None:
            # No such claim here: NACK so the customer stops renewing a
            # dead claim and recovers the job (e.g. after we crashed).
            self.net.send(
                LeaseAck(
                    sender=self.address,
                    recipient=message.sender,
                    match_id=message.match_id,
                    ok=False,
                )
            )

    @staticmethod
    def _remember(cache: OrderedDict, key, value) -> None:
        cache[key] = value
        while len(cache) > _REPLAY_CAP:
            cache.popitem(last=False)

    def _on_claim_request(self, request: ClaimRequest) -> None:
        # (match id, customer, job id) names the request: the replay
        # cache's key, built once and handed down with the request.
        job_id = request.customer_ad.evaluate("JobId")
        key = (request.match_id, request.sender, job_id if isinstance(job_id, int) else -1)
        # Duplicate suppression: a retransmitted request replays the
        # original verdict instead of colliding with the claim it itself
        # created (which would wrongly answer ALREADY_CLAIMED).  The
        # accept is only replayed while that exact claim is still live;
        # afterwards the honest answer is "that claim is gone".
        cached = self._claim_verdicts.get(key)
        if cached is not None:
            _RA_DUP_CLAIMS.inc()
            accepted, reason = cached
            claim = self.claim
            if accepted and (claim is None or claim.match_id != request.match_id):
                accepted, reason = False, "stale-claim"
            self.net.send(
                ClaimResponse(
                    sender=self.address,
                    recipient=request.sender,
                    match_id=request.match_id,
                    accepted=accepted,
                    reason=reason,
                    lease_duration=self.claim_lease if accepted else None,
                )
            )
            return
        # One ad of the current state serves the preemption Rank, the
        # claim check and the accepted claim's Rank.
        current_ad = self.build_ad()
        preempting = False
        if self.claim is not None:
            # Rank preemption: only a strictly better customer may displace
            # the current one; otherwise the claim is refused outright.
            new_rank = rank_value(current_ad.evaluate("Rank", other=request.customer_ad))
            if new_rank > self.claim.rank:
                preempting = True
            else:
                self._respond(key, False, ClaimVerdict.ALREADY_CLAIMED.value)
                return
        decision = verify_claim(
            request_ad=request.customer_ad,
            current_resource_ad=current_ad,
            presented_ticket=request.ticket,
            authority=self.authority,
            already_claimed=False,
            policy=self.policy,
        )
        if not decision.accepted:
            self._respond(key, False, decision.verdict.value)
            return
        if preempting:
            self._evict("preempted-by-higher-rank")
            self.evictions_preempted += 1
            current_ad = self.build_ad()  # the eviction changed it
        self._accept_claim(request, key, current_ad)

    def _respond(self, key: tuple, accepted: bool, reason: str) -> None:
        """Record and send the verdict on the claim request *key* names."""
        match_id, customer_address, job_id = key
        if accepted:
            self.claims_accepted += 1
        else:
            self.claims_rejected += 1
        self._remember(self._claim_verdicts, key, (accepted, reason))
        self.trace.emit(
            self.sim.now,
            "claim-response",
            machine=self.spec.name,
            accepted=accepted,
            reason=reason,
            match=match_id,
            job=job_id,
        )
        self.net.send(
            ClaimResponse(
                sender=self.address,
                recipient=customer_address,
                match_id=match_id,
                accepted=accepted,
                reason=reason,
                lease_duration=self.claim_lease if accepted else None,
            )
        )

    def _accept_claim(self, request: ClaimRequest, key: tuple, current_ad: ClassAd) -> None:
        job_ad = request.customer_ad
        rank = rank_value(current_ad.evaluate("Rank", other=job_ad))
        remaining = job_ad.evaluate("RemainingWork")
        remaining = float(remaining) if isinstance(remaining, (int, float)) else 0.0
        wants_checkpoint = job_ad.evaluate("WantCheckpoint") in (1, True)
        claim = _Claim(
            match_id=request.match_id,
            customer_address=request.sender,
            job_ad=job_ad,
            job_id=key[2],
            owner=str(job_ad.evaluate("Owner")),
            rank=rank,
            started_at=self.sim.now,
            wants_checkpoint=wants_checkpoint,
            ctx=_causal.current(),
        )
        wall_time = remaining * REFERENCE_MIPS / self.spec.mips
        claim.completion_handle = self.sim.schedule(wall_time, self._complete)
        claim.last_alive = self.sim.now
        self.claim = claim
        if self.claim_lease is not None:
            claim.lease_expires = self.sim.now + self.claim_lease
            self._arm_lease_reaper(claim)
            if _events.enabled:
                _events.emit(
                    "claim.lease.granted",
                    t=self.sim.now,
                    machine=self.spec.name,
                    match=claim.match_id,
                    job=claim.job_id,
                    lease=self.claim_lease,
                )
        # Rotate the ticket: the consumed one must not authorize a second
        # claim, and subsequent (Claimed-state) ads carry a fresh ticket
        # for potential preemptors.
        self.authority.mint()
        self._set_state(MachineState.CLAIMED)
        if self.on_claim_started is not None:
            self.on_claim_started(claim.owner, self.spec.name)
        self._respond(key, True, ClaimVerdict.ACCEPTED.value)

    def _arm_lease_reaper(self, claim: _Claim) -> None:
        """Fire exactly when the lease would lapse; each renewal pushes
        ``lease_expires`` forward, so the reaper just re-arms itself
        until the deadline is real (Condor's ALIVE protocol, with a
        reaper instead of the old half-lease poll).  The claim itself
        rides the kernel's argument slot — no closure per re-arm."""
        delay = max(claim.lease_expires - self.sim.now, 0.0)
        self.sim.schedule(delay + 1e-9, self._lease_reap, claim)

    def _lease_reap(self, claim: _Claim) -> None:
        if self.claim is not claim:
            return  # claim already ended
        if self.sim.now >= claim.lease_expires:
            self.evictions_lease += 1
            _RA_LEASES_EXPIRED.inc()
            if _events.enabled:
                _events.emit(
                    "claim.lease.expired",
                    t=self.sim.now,
                    machine=self.spec.name,
                    match=claim.match_id,
                    job=claim.job_id,
                )
            self._evict("claim-lease-expired")
            if not self.owner_active:
                self._set_state(MachineState.UNCLAIMED)
        else:
            self._arm_lease_reaper(claim)

    def _work_done(self, claim: _Claim) -> float:
        """Reference CPU-seconds executed so far under *claim*."""
        return (self.sim.now - claim.started_at) * self.spec.mips / REFERENCE_MIPS

    def _end_claim(self, claim: _Claim, notice_type=None, **fields) -> None:
        """Tear *claim* down: forget it, cancel its completion, send the
        customer a *notice_type* notice (inside the job's trace) and tell
        the accountant.  The caller picks the next state.

        A lost JobCompleted/JobEvicted would strand the job at the CA, so
        the notice is resent until the CA acks (Condor relies on TCP
        here; our network is datagram-like); the CA de-duplicates by
        match id.  A notice whose resends ran out stays pending, unsent,
        until a crash clears it: its customer is gone.
        """
        self.claim = None
        if claim.completion_handle is not None:
            self.sim.cancel(claim.completion_handle)
        if notice_type is not None:
            match_id = claim.match_id
            notice = self._pending_notices[match_id] = notice_type(
                sender=self.address,
                recipient=claim.customer_address,
                match_id=match_id,
                job_id=claim.job_id,
                work_done=self._work_done(claim),
                **fields,
            )
            with _causal.activate(claim.ctx if _causal.enabled else None):
                self._notice_retx.send(
                    notice, stop_when=lambda: match_id not in self._pending_notices
                )
        if self.on_claim_ended is not None:
            self.on_claim_ended(claim.owner, self.spec.name)

    def _complete(self) -> None:
        claim = self.claim
        if claim is None:
            return
        self.jobs_completed += 1
        self.trace.emit(
            self.sim.now, "job-completed", machine=self.spec.name, job=claim.job_id
        )
        self._end_claim(claim, JobCompleted)
        if not self.owner_active:
            self._set_state(MachineState.UNCLAIMED)

    def _evict(self, reason: str) -> None:
        claim = self.claim
        if claim is None:
            return
        checkpointed = claim.wants_checkpoint
        if checkpointed and self.vacate_grace is not None:
            memory = claim.job_ad.evaluate("Memory")
            memory = float(memory) if isinstance(memory, (int, float)) else 64.0
            checkpoint_time = memory / self.checkpoint_rate_mb_s
            checkpointed = checkpoint_time <= self.vacate_grace
        self.trace.emit(
            self.sim.now,
            "job-evicted",
            machine=self.spec.name,
            job=claim.job_id,
            reason=reason,
            checkpointed=checkpointed,
        )
        self._end_claim(claim, JobEvicted, reason=reason, checkpointed=checkpointed)

    # -- failure injection (chaos crash schedules) -------------------------

    def crash(self) -> None:
        """The RA process dies: it stops transmitting, loses its claim
        and any pending teardown notices, and its ads go stale.  The
        customer learns of the loss only through the lease protocol."""
        if self.crashed:
            return
        self.crashed = True
        self.net.set_down(self.address)
        if self.claim is not None:
            self._end_claim(self.claim)
        self._pending_notices.clear()
        self._claim_verdicts.clear()
        self._seen_notifications.clear()
        # The collector may expire our ad while we are down: the first
        # post-restart advertisement must be a full one.
        self._advertiser.forget(self._slot.name, self._slot.recipient)
        self.trace.emit(self.sim.now, "machine-crash", machine=self.spec.name)

    def restart(self) -> None:
        """Reboot after :meth:`crash`: fresh ticket, fresh ads, no
        memory of the old claim."""
        if not self.crashed:
            return
        self.crashed = False
        self.net.set_down(self.address, down=False)
        target = MachineState.OWNER if self.owner_active else MachineState.UNCLAIMED
        if self.state is not target:
            self._set_state(target)  # mints/revokes the ticket, re-advertises
        else:
            if target is MachineState.UNCLAIMED:
                self.authority.mint()
            self.advertise()
        self.trace.emit(self.sim.now, "machine-restart", machine=self.spec.name)

    def _on_release(self, notice: ReleaseNotice) -> None:
        """Customer relinquished the claim (Section 4)."""
        claim = self.claim
        if claim is not None and claim.match_id == notice.match_id:
            self.trace.emit(
                self.sim.now, "claim-released", machine=self.spec.name, job=claim.job_id
            )
            self._end_claim(claim)
            if not self.owner_active:
                self._set_state(MachineState.UNCLAIMED)
