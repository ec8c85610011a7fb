"""The Customer Agent (CA / schedd) — S15 in DESIGN.md.

Section 4: "Customers of Condor are represented by Customer Agents
(CAs), which maintain per-customer queues of submitted jobs, represented
as lists of classads."

Behaviour implemented here:

* a per-customer job queue; idle jobs are advertised (and periodically
  refreshed) as request classads;
* on a match notification the CA performs the claiming protocol: it
  contacts the RA directly with its *current* request ad and the
  forwarded authorization ticket (Figure 3, step 4);
* rejected or timed-out claims return the job to the idle queue — the
  match was only ever a hint;
* evictions return the job to idle, retaining progress only when the
  job checkpoints (E5's goodput/badput accounting happens here);
* completed jobs are recorded and withdrawn from the matchmaker.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..classads import values_equal
from ..obs import metrics as _metrics
from ..obs.causal import TraceContext, causal_log as _causal, job_trace_id
from ..protocols import (
    VOLATILE_JOB_ATTRS,
    Advertiser,
    BackoffPolicy,
    ClaimRequest,
    ClaimResponse,
    MatchNotification,
    ReleaseNotice,
    ResendRequest,
    Retransmitter,
    retries_enabled,
)
from ..sim import Network, PoolMetrics, Simulator, Trace
from .jobs import Job
from .messages import JobCompleted, JobEvicted, KeepAlive, LeaseAck, NoticeAck
from .states import JobState

_CA_SUBMITTED = _metrics.counter("schedd.jobs_submitted", "jobs enqueued at CAs")
_CA_COMPLETED = _metrics.counter("schedd.jobs_completed", "jobs finished at CAs")
_CA_CLAIMS = _metrics.counter("schedd.claims_attempted", "claim requests sent")
_CA_CLAIMS_GRANTED = _metrics.counter(
    "schedd.claims_granted", "claim requests the RA accepted"
)
_CA_CLAIMS_DENIED = _metrics.counter(
    "schedd.claims_denied", "claim requests denied, by reason (incl. timeout)"
)
_CA_MATCHES_IGNORED = _metrics.counter(
    "schedd.matches_ignored", "stale match notifications declined by the CA"
)
_CA_EVICTIONS = _metrics.counter(
    "schedd.evictions", "running jobs evicted, by checkpoint outcome"
)
_CA_LEASES_LOST = _metrics.counter(
    "schedd.leases_lost", "running claims declared dead by the lease protocol"
)
_CA_DUP_MATCHES = _metrics.counter(
    "schedd.duplicate_matches", "retransmitted match notifications suppressed"
)

#: Match-notification dedup bound (FIFO eviction; see machine.py's
#: replay cache for the same reasoning).
_SEEN_MATCH_CAP = 512


@dataclass
class _PendingClaim:
    job: Job
    provider_address: str
    provider_name: str
    sent_at: float
    timeout_handle: object


@dataclass
class _ActiveClaim:
    """CA-side record of one running claim: where to renew the lease,
    and when the provider last confirmed it."""

    job: Job
    provider_address: str
    lease_duration: Optional[float]
    last_ack: float
    #: Causal context of the claim acceptance; timer-fired lease
    #: renewals parent on it so they stay inside the job's trace.
    ctx: Optional[TraceContext] = None


class CustomerAgent:
    """One customer's schedd: queue, advertising, claiming, bookkeeping."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        owner: str,
        collector_address: str,
        trace: Optional[Trace] = None,
        metrics: Optional[PoolMetrics] = None,
        advertise_interval: float = 300.0,
        ad_lifetime: Optional[float] = None,
        claim_timeout: float = 30.0,
        alive_interval: float = 60.0,
        flock_collectors: Sequence[str] = (),
        flock_threshold: float = 600.0,
        rng=None,
    ):
        self.sim = sim
        self.net = net
        self.owner = owner
        self.collector_address = collector_address
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.metrics = metrics or PoolMetrics()
        self.advertise_interval = advertise_interval
        self.ad_lifetime = ad_lifetime if ad_lifetime is not None else 3 * advertise_interval
        self.claim_timeout = claim_timeout
        self.alive_interval = alive_interval
        #: Flocking (Epema et al., the paper's ref [3]): collectors of
        #: *remote* pools to advertise starving jobs to.
        self.flock_collectors = list(flock_collectors)
        #: A job idle this long starts flocking to remote pools.
        self.flock_threshold = flock_threshold

        self.address = f"schedd@{owner}"
        self.jobs: Dict[int, Job] = {}
        self._pending: Dict[int, _PendingClaim] = {}  # by match_id
        self._pending_jobs: set = set()  # job ids with a claim in flight
        # active claims by match_id: lease bookkeeping + ALIVE targets
        self._active: Dict[int, _ActiveClaim] = {}
        # match notifications already acted on (retransmit suppression)
        self._seen_matches: OrderedDict = OrderedDict()
        # per-job causal root contexts (timer-fired sends re-enter here)
        self._job_ctx: Dict[int, TraceContext] = {}
        retry_rng = rng.fork("retry") if rng is not None else None
        # One slot per (job ad, collector), its basis the job's stable
        # key: flocked collectors are courted separately, so each needs
        # its own full ad first.  The claim retransmitter below draws its
        # jitter from the same retry stream.
        self._advertiser = Advertiser(
            sim, net, self.address, advertise_interval, self.ad_lifetime,
            VOLATILE_JOB_ATTRS, rng=retry_rng,
        )
        #: Claim requests are retransmitted inside the claim-timeout
        #: window; the RA's replay cache makes the repeats idempotent.
        self._claim_retx = Retransmitter(
            sim,
            net,
            rng=retry_rng,
            kind="claim-request",
            policy=BackoffPolicy(
                base=max(claim_timeout / 6.0, 1.0),
                factor=2.0,
                cap=max(claim_timeout / 2.0, 2.0),
                jitter=0.2,
                max_tries=2,
            ),
        )

        net.register(self.address, self._on_message)

    def start(self) -> None:
        """Arm the periodic queue advertiser and the ALIVE sender."""
        self.sim.every(self.advertise_interval, self.advertise_queue, start_delay=0.0)
        self.sim.every(self.alive_interval, self._send_keepalives)

    def _send_keepalives(self) -> None:
        """Renew the lease of every running claim (Condor's ALIVE
        messages); an RA that stops hearing these reclaims its machine.

        The renewal is bidirectional since the lease work: the RA acks
        each renewal (:class:`LeaseAck`), and a claim whose acks stop
        for longer than the granted lease is declared dead here — the
        only way the CA ever learns a machine crashed mid-job."""
        now = self.sim.now
        for match_id, active in list(self._active.items()):
            if (
                active.lease_duration is not None
                and retries_enabled()
                and now - active.last_ack > active.lease_duration
            ):
                self._lease_lost(match_id)
                continue
            with _causal.activate(active.ctx if _causal.enabled else None):
                self.net.send(
                    KeepAlive(
                        sender=self.address,
                        recipient=active.provider_address,
                        match_id=match_id,
                    )
                )

    def _lease_lost(self, match_id: int) -> None:
        """The provider is gone (lease acks stopped or were NACKed):
        recover the job instead of renewing into the void.  Work done
        under the dead claim is unknown, so none is credited."""
        active = self._active.pop(match_id, None)
        if active is None:
            return
        _CA_LEASES_LOST.inc()
        job = active.job
        if job.state is not JobState.RUNNING or job.running_match_id != match_id:
            return
        job.state = JobState.IDLE
        job.running_on = None
        job.running_match_id = None
        job.restarts += 1
        self.trace.emit(
            self.sim.now, "claim.lease.lost", owner=self.owner, job=job.job_id,
            match=match_id,
        )
        self._advertise_job(job)  # back in the hunt immediately

    # -- queue management ------------------------------------------------

    def _job_causal(self, job_id: int) -> Optional[TraceContext]:
        """Fallback causal context for timer-fired sends about *job_id*:
        the job's root span, unless a recv span is already active (in
        which case activating nothing keeps the tighter parent)."""
        if _causal.enabled and _causal.current() is None:
            return self._job_ctx.get(job_id)
        return None

    def submit(self, job: Job) -> None:
        """Enqueue *job* and advertise it immediately."""
        job.submit_time = self.sim.now
        job.state = JobState.IDLE
        self.jobs[job.job_id] = job
        self.metrics.jobs_submitted += 1
        _CA_SUBMITTED.inc()
        extra = {}
        if _causal.enabled:
            # The whole lifecycle of this job shares one deterministic
            # trace id; every message it causes descends from this root.
            trace_id = job_trace_id(self.owner, job.job_id)
            self._job_ctx[job.job_id] = _causal.start_trace(
                trace_id, "job.submit", owner=self.owner, job=job.job_id
            )
            extra["trace"] = trace_id
        self.trace.emit(
            self.sim.now, "job-submitted", owner=self.owner, job=job.job_id, **extra
        )
        self._advertise_job(job)

    def idle_jobs(self) -> List[Job]:
        return [
            job
            for job in self.jobs.values()
            if job.state is JobState.IDLE and job.job_id not in self._pending_jobs
        ]

    def unfinished(self) -> int:
        return sum(
            1
            for job in self.jobs.values()
            if job.state not in (JobState.COMPLETED, JobState.REMOVED)
        )

    def remove(self, job_id: int) -> bool:
        """condor_rm: withdraw a job from the system.

        Idle jobs are withdrawn from the matchmaker; running jobs
        relinquish their claim directly with the RA ("When the CA
        finishes using the resource, it relinquishes the claim" —
        Section 4 — removal is just finishing early).  Returns False for
        unknown or already-terminal jobs.
        """
        job = self.jobs.get(job_id)
        if job is None or job.state in (JobState.COMPLETED, JobState.REMOVED):
            return False
        if job.state is JobState.RUNNING and job.running_match_id is not None:
            active = self._active.pop(job.running_match_id, None)
            if active is not None:
                with _causal.activate(self._job_causal(job.job_id)):
                    self.net.send(
                        ReleaseNotice(
                            sender=self.address,
                            recipient=active.provider_address,
                            match_id=job.running_match_id,
                        )
                    )
        else:
            self._withdraw_job(job)
        self._pending_jobs.discard(job.job_id)
        self._job_ctx.pop(job.job_id, None)
        job.state = JobState.REMOVED
        job.running_on = None
        job.running_match_id = None
        self.trace.emit(self.sim.now, "job-removed", owner=self.owner, job=job.job_id)
        return True

    # -- advertising (Figure 3, step 1) ------------------------------------

    def _ad_name(self, job: Job) -> str:
        return f"job.{self.owner}.{job.job_id}"

    def _advertise_job(self, job: Job, collector: Optional[str] = None) -> None:
        collector = collector if collector is not None else self.collector_address
        adv = self._advertiser
        now = self.sim.now
        key = job.stable_key(self.address)
        slot = adv.slot(self._ad_name(job), collector)
        basis = adv.refreshable(slot)
        if basis is not None and values_equal(key, basis):
            # Unchanged key, unchanged stable content: the fingerprint
            # sent with the full ad still describes the job, and the
            # stamp is the only volatile attribute (VOLATILE_JOB_ATTRS).
            message = adv.refresh(slot, (("AdvertisedAt", now),))
        else:
            message = adv.full(slot, job.to_classad(self.address, now), key)
        # One blind extra copy, abandoned once the job stops being idle
        # (stale copies of older ads are dropped by the collector's
        # sequence check anyway).
        with _causal.activate(self._job_causal(job.job_id)):
            adv.send(
                message, lambda: job.state is not JobState.IDLE or job.job_id in self._pending_jobs
            )
        self.trace.emit(
            self.sim.now,
            "advertise-job" if collector == self.collector_address else "advertise-job-flock",
            owner=self.owner,
            job=job.job_id,
            collector=collector,
        )

    def _withdraw_job(self, job: Job) -> None:
        """Withdraw the job's ad from every collector that received it."""
        with _causal.activate(self._job_causal(job.job_id)):
            self._advertiser.withdraw(self._ad_name(job), self.collector_address)

    def advertise_queue(self) -> None:
        """Refresh the request ads of every idle job.

        Jobs that have starved past the flock threshold are additionally
        advertised to the remote pools' collectors — the local pool gets
        right of first refusal, then the flock shares the load.
        """
        for job in self.idle_jobs():
            self._advertise_job(job)
            if (
                self.flock_collectors
                and self.sim.now - job.submit_time >= self.flock_threshold
            ):
                for collector in self.flock_collectors:
                    self._advertise_job(job, collector=collector)

    # -- message handling -----------------------------------------------------

    def _on_message(self, message) -> None:
        if isinstance(message, MatchNotification):
            self._on_match(message)
        elif isinstance(message, ClaimResponse):
            self._on_claim_response(message)
        elif isinstance(message, JobCompleted):
            self._on_completed(message)
        elif isinstance(message, JobEvicted):
            self._on_evicted(message)
        elif isinstance(message, ResendRequest):
            self._on_resend_request(message)
        elif isinstance(message, LeaseAck):
            self._on_lease_ack(message)

    def _on_resend_request(self, message: ResendRequest) -> None:
        """A collector NACKed our Refresh (it crashed, expired the ad,
        or saw another fingerprint): drop the cache for that collector
        and, if the job is still in the hunt, re-advertise in full to
        that collector immediately."""
        prefix = f"job.{self.owner}."
        if not message.name.startswith(prefix):
            return
        try:
            job_id = int(message.name[len(prefix):])
        except ValueError:
            return
        self._advertiser.forget(message.name, message.sender)
        job = self.jobs.get(job_id)
        if (
            job is None
            or job.state is not JobState.IDLE
            or job_id in self._pending_jobs
        ):
            return  # no longer advertising; let the stale ad stay dead
        self._advertise_job(job, collector=message.sender)

    def _on_lease_ack(self, message: LeaseAck) -> None:
        active = self._active.get(message.match_id)
        if active is None:
            return
        if message.ok:
            active.last_ack = self.sim.now
            if message.lease is not None:
                active.lease_duration = message.lease
        elif retries_enabled():
            # The RA disowned the claim (it crashed or reaped the lease
            # and the teardown notice never reached us): recover now.
            self._lease_lost(message.match_id)

    def _on_match(self, notification: MatchNotification) -> None:
        """Figure 3, step 3→4: a match is a *hint*; try to claim."""
        if notification.match_id in self._seen_matches:
            # Retransmitted notification: the first copy already decided.
            _CA_DUP_MATCHES.inc()
            return
        self._seen_matches[notification.match_id] = True
        while len(self._seen_matches) > _SEEN_MATCH_CAP:
            self._seen_matches.popitem(last=False)
        job_id = notification.my_ad.evaluate("JobId")
        job = self.jobs.get(job_id) if isinstance(job_id, int) else None
        if job is None or job.state is not JobState.IDLE or job.job_id in self._pending_jobs:
            # Stale match (job finished, running, or already being claimed):
            # the CA simply declines to proceed — "Either entity may choose
            # to not proceed further and reject the introduction."
            _CA_MATCHES_IGNORED.inc()
            self.trace.emit(
                self.sim.now, "match-ignored", owner=self.owner, job=job_id
            )
            return
        job.matches += 1
        provider_name = str(notification.peer_ad.evaluate("Name"))
        advertised_at = notification.my_ad.evaluate("AdvertisedAt")
        if isinstance(advertised_at, (int, float)):
            self.metrics.match_latency.add(self.sim.now - float(advertised_at))
        self.trace.emit(
            self.sim.now,
            "match-notified-customer",
            owner=self.owner,
            job=job.job_id,
            machine=provider_name,
            match=notification.match_id,
        )
        # Claim with the *current* request ad (it may differ from the ad
        # the matchmaker used — that is the point of claim-time checks).
        request = ClaimRequest(
            sender=self.address,
            recipient=notification.peer_address,
            customer_ad=job.to_classad(self.address, self.sim.now),
            ticket=notification.ticket,
            match_id=notification.match_id,
        )
        timeout = self.sim.schedule(
            self.claim_timeout, self._claim_timed_out, notification.match_id
        )
        self._pending[notification.match_id] = _PendingClaim(
            job=job,
            provider_address=notification.peer_address,
            provider_name=provider_name,
            sent_at=self.sim.now,
            timeout_handle=timeout,
        )
        self._pending_jobs.add(job.job_id)
        self.metrics.claims_attempted += 1
        _CA_CLAIMS.inc()
        self.trace.emit(
            self.sim.now, "claim-request", owner=self.owner, job=job.job_id,
            machine=provider_name,
        )
        match_id = notification.match_id
        self._claim_retx.send(
            request, stop_when=lambda: match_id not in self._pending
        )

    def _claim_timed_out(self, match_id: int) -> None:
        pending = self._pending.pop(match_id, None)
        if pending is None:
            return
        self._pending_jobs.discard(pending.job.job_id)
        self.metrics.record_claim_rejection("timeout")
        _CA_CLAIMS_DENIED.inc(reason="timeout")
        self.trace.emit(
            self.sim.now, "claim-timeout", owner=self.owner, job=pending.job.job_id
        )

    def _on_claim_response(self, response: ClaimResponse) -> None:
        pending = self._pending.pop(response.match_id, None)
        if pending is None:
            # Timed out already, or a duplicate.  An accept that is not a
            # copy of the active claim's came after the time-out, and the
            # job may be claimed elsewhere: relinquish this claim.
            match_id = response.match_id
            if response.accepted and match_id not in self._active:
                self.net.send(
                    ReleaseNotice(sender=self.address, recipient=response.sender, match_id=match_id)
                )
            return
        self.sim.cancel(pending.timeout_handle)
        job = pending.job
        self._pending_jobs.discard(job.job_id)
        if not response.accepted:
            job.claim_rejections += 1
            self.metrics.record_claim_rejection(response.reason)
            _CA_CLAIMS_DENIED.inc(reason=response.reason)
            self.trace.emit(
                self.sim.now,
                "claim-rejected",
                owner=self.owner,
                job=job.job_id,
                reason=response.reason,
            )
            return  # job stays idle; next cycle retries
        _CA_CLAIMS_GRANTED.inc()
        job.state = JobState.RUNNING
        job.running_on = pending.provider_name
        job.running_match_id = response.match_id
        self._active[response.match_id] = _ActiveClaim(
            job=job,
            provider_address=pending.provider_address,
            lease_duration=response.lease_duration,
            last_ack=self.sim.now,
            ctx=_causal.current(),
        )
        if job.first_start_time is None:
            job.first_start_time = self.sim.now
            wait = job.wait_time()
            if wait is not None:
                self.metrics.wait_time.add(wait)
        self._withdraw_job(job)
        self.trace.emit(
            self.sim.now,
            "claim-accepted",
            owner=self.owner,
            job=job.job_id,
            machine=pending.provider_name,
            match=response.match_id,
        )

    def _ack_notice(self, message) -> None:
        """Teardown notices are retried by the RA until acked; always ack,
        even for duplicates or stale match ids."""
        self.net.send(
            NoticeAck(
                sender=self.address, recipient=message.sender, match_id=message.match_id
            )
        )

    def _current_claim_notice(self, message) -> Optional[Job]:
        """The job this teardown notice is about, iff it refers to the
        job's *current* claim (stale duplicates from an earlier claim,
        or notices for jobs the user removed, must not disturb it)."""
        job = self.jobs.get(message.job_id)
        if job is None or job.state is not JobState.RUNNING:
            return None
        if job.running_match_id != message.match_id:
            return None
        return job

    def _on_completed(self, message: JobCompleted) -> None:
        self._ack_notice(message)
        job = self._current_claim_notice(message)
        self._active.pop(message.match_id, None)
        if job is None:
            return
        job.state = JobState.COMPLETED
        job.completion_time = self.sim.now
        job.running_on = None
        job.running_match_id = None
        self._job_ctx.pop(job.job_id, None)
        self.metrics.jobs_completed += 1
        self.metrics.goodput += message.work_done
        _CA_COMPLETED.inc()
        turnaround = job.turnaround()
        if turnaround is not None:
            self.metrics.turnaround.add(turnaround)
        self.trace.emit(
            self.sim.now, "job-done", owner=self.owner, job=job.job_id
        )

    def _on_evicted(self, message: JobEvicted) -> None:
        self._ack_notice(message)
        job = self._current_claim_notice(message)
        self._active.pop(message.match_id, None)
        if job is None:
            return
        job.state = JobState.IDLE
        job.running_on = None
        job.running_match_id = None
        job.evictions += 1
        self.metrics.evictions += 1
        _CA_EVICTIONS.inc(checkpointed=message.checkpointed)
        if message.checkpointed:
            job.completed_work += message.work_done
            self.metrics.evictions_checkpointed += 1
            self.metrics.goodput += message.work_done
        else:
            job.restarts += 1
            self.metrics.badput += message.work_done
        self.trace.emit(
            self.sim.now,
            "job-evicted-ca",
            owner=self.owner,
            job=job.job_id,
            checkpointed=message.checkpointed,
            lost=0.0 if message.checkpointed else message.work_done,
        )
        self._advertise_job(job)  # back in the hunt immediately
