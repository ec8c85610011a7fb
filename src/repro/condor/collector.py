"""The collector half of the central manager — S16 in DESIGN.md.

Section 4: "RAs and CAs periodically send classads to a Condor pool
manager, describing the resources and job queues respectively."

The collector is the pool manager's ad store: it admits advertisements
that conform to the advertising protocol, expires stale ones, and
answers the negotiator's (and status tools') queries.  It holds *only
soft state*: crashing it loses nothing that the next round of periodic
advertisements does not rebuild — experiment E1's claim.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional

from ..classads import ClassAd
from ..matchmaking import MaintainedIndex, select
from ..obs import event_log as _events, metrics as _metrics
from ..obs.causal import TraceContext, causal_log as _causal
from ..protocols import (
    AdStore,
    Advertisement,
    Refresh,
    ResendRequest,
    Withdrawal,
    validate_ad,
)
from ..sim import Network, Simulator, Trace

_COL_RECEIVED = _metrics.counter(
    "collector.ads_received", "advertisements arriving at a collector"
)
_COL_ADMITTED = _metrics.counter(
    "collector.ads_admitted", "advertisements admitted to the store"
)
_COL_REJECTED = _metrics.counter(
    "collector.ads_rejected", "advertisements failing protocol validation"
)
_COL_EXPIRED = _metrics.counter(
    "collector.ads_expired", "soft-state ads reaped after their lifetime"
)
_COL_STORE_SIZE = _metrics.gauge(
    "collector.store_size", "ads currently held by the collector"
)
_COL_REFRESH_HITS = _metrics.counter(
    "collector.refresh_hits",
    "compact refreshes honoured in place (lease renewed, no re-validation)",
)
_COL_REFRESH_MISSES = _metrics.counter(
    "collector.refresh_misses",
    "refreshes naming an unknown, expired, or content-changed ad",
)
_COL_RESEND_REQUESTS = _metrics.counter(
    "collector.resend_requests", "resync NACKs sent back to refreshing agents"
)


class Collector:
    """The pool's advertisement store, listening on the network."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        trace: Optional[Trace] = None,
        address: str = "collector@cm",
        expire_interval: float = 60.0,
    ):
        self.sim = sim
        self.net = net
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.address = address
        self.store = AdStore()
        self.ads_rejected = 0
        self.ads_admitted = 0
        # Persistent machine index (PR 4): built lazily on the first
        # negotiator request, then delta-updated by the advertising
        # traffic instead of being rebuilt from the store every cycle.
        self._mindex: Optional[MaintainedIndex] = None
        # Cached per-submitter job grouping, current while the store's
        # jobs_version is the one it was built at.
        self._grouped: Optional[Dict[str, List[ClassAd]]] = None
        self._grouped_at = -1
        net.register(self.address, self._on_message)
        sim.every(expire_interval, self._expire)

    # -- message handling ------------------------------------------------

    def _on_message(self, message) -> None:
        if isinstance(message, Advertisement):
            self._on_advertisement(message)
        elif isinstance(message, Refresh):
            self._on_refresh(message)
        elif isinstance(message, Withdrawal):
            self.store.remove(message.name, tombstone=message.sequence)
            if self._mindex is not None:
                self._mindex.withdraw(message.name)

    def _on_advertisement(self, message: Advertisement) -> None:
        _COL_RECEIVED.inc()
        result = validate_ad(message.ad)
        if not result.ok:
            self.ads_rejected += 1
            _COL_REJECTED.inc()
            self.trace.emit(
                self.sim.now,
                "ad-rejected",
                name=message.name,
                problems="; ".join(result.problems),
            )
            return
        prior = self.store.record(message.name)
        admitted = self.store.insert(
            message.name,
            message.ad,
            now=self.sim.now,
            lifetime=message.lifetime,
            sequence=message.sequence,
            fingerprint=message.fingerprint,
        )
        if admitted:
            self.ads_admitted += 1
            if _causal.enabled:
                # The recv span of the latest advertisement that had one:
                # the negotiator parents its match notifications here,
                # stitching the job's trace across the store.
                self.store.record(message.name).ctx = _causal.current() or (
                    prior.ctx if prior is not None else None
                )
            _COL_ADMITTED.inc()
            _COL_STORE_SIZE.set(len(self.store))
            if self._mindex is not None and not self._mindex.advertise(
                message.name, message.ad, had_prior=prior is not None
            ):
                # Candidate order not preservable by deltas: drop the
                # index; the next negotiator cycle rebuilds it lazily.
                self._mindex = None
        if _events.enabled:
            self._arrived(message, admitted)

    def _arrived(self, message, admitted: bool) -> None:
        """Log an Advertisement or Refresh as received: ``admitted`` is
        False when it was dropped as stale or answered with a resend
        request.  Callers check ``_events.enabled`` first."""
        _events.emit(
            "ad.arrived",
            t=self.sim.now,
            name=message.name,
            admitted=admitted,
            lifetime=message.lifetime,
        )

    def _on_refresh(self, message: Refresh) -> None:
        """A compact re-advertisement claiming the stored ad is current.

        A hit only renews the soft-state lease and applies the carried
        volatile values in place — no validation, no store replacement,
        no index delta, no causal bookkeeping.  Anything the collector
        cannot vouch for (unknown name, expired ad, fingerprint mismatch
        — e.g. after a crash wiped the store) is answered with a
        :class:`ResendRequest`; the sender's next full advertisement
        restores state within one round trip.
        """
        if _metrics.enabled:
            _COL_RECEIVED.inc()
        rec = self.store.record(message.name)
        if rec is None and self.store.withdrawn_after(message.name, message.sequence):
            # Late copy of an ad withdrawn since it was sent (a stored name
            # never is): drop it as stale, as the full-ad path would.
            if _events.enabled:
                self._arrived(message, False)
            return
        # Checked before the sequence: a late Refresh older than a
        # content-changing full ad draws a needless resend instead of
        # being dropped as stale (pinned in test_central_manager.py).
        if rec is None or rec.fingerprint != message.fingerprint:
            _COL_REFRESH_MISSES.inc()
            _COL_RESEND_REQUESTS.inc()
            if _events.enabled:
                self._arrived(message, False)
            self.net.send(
                ResendRequest(
                    sender=self.address,
                    recipient=message.sender,
                    name=message.name,
                )
            )
            return
        # A same-sequence copy of the Refresh applied last (senders number
        # every ad; their blind retransmit re-sends the number): renewing
        # the lease is idempotent and its volatile values are in place.
        duplicate = rec.sequence == message.sequence
        renewed = self.store.touch(
            message.name,
            now=self.sim.now,
            lifetime=message.lifetime,
            sequence=message.sequence,
        )
        if renewed and _metrics.enabled:
            _COL_REFRESH_HITS.inc()
        if renewed and not duplicate:
            ad = rec.ad
            ad.update(message.volatile)
            # The maintained index only needs to hear about the renewal
            # if a volatile attribute participates in it (none of the
            # default equality/range attributes are volatile).
            if self._mindex is not None and message.volatile:
                idx = self._mindex.index
                indexed = idx.equality_attrs | idx.range_attrs
                if any(attr.lower() in indexed for attr, _ in message.volatile):
                    if not self._mindex.advertise(message.name, ad, had_prior=True):
                        self._mindex = None
        if _events.enabled:
            self._arrived(message, bool(renewed))

    def _expire(self) -> None:
        expired = self.store.expire(self.sim.now)
        for name in expired:
            self.trace.emit(self.sim.now, "ad-expired", name=name)
            if self._mindex is not None:
                self._mindex.withdraw(name)
        if expired and _metrics.enabled:
            _COL_EXPIRED.inc(len(expired))
            _COL_STORE_SIZE.set(len(self.store))

    # -- queries ----------------------------------------------------------

    def machine_ads(self) -> List[ClassAd]:
        """The ads ``Type == "Machine"`` selects, by each record's kind."""
        return [rec.ad for rec in self.store.records() if rec.kind == "machine"]

    def provider_index(self) -> MaintainedIndex:
        """The persistent machine index, seeded from the store on first
        use and delta-maintained by advertise/withdraw/expiry after.

        ``provider_index().providers()`` equals :meth:`machine_ads` (same
        ads, same order) without re-selecting and re-indexing the store.
        """
        mindex = self._mindex
        if mindex is None:
            mindex = self._mindex = MaintainedIndex(
                'Type == "Machine"',
                items=[(rec.name, rec.ad) for rec in self.store.records()],
            )
        return mindex

    def job_ads(self) -> List[ClassAd]:
        """The ads ``Type == "Job"`` selects, by each record's kind."""
        return [rec.ad for rec in self.store.records() if rec.kind == "job"]

    def job_ads_by_owner(self) -> Dict[str, List[ClassAd]]:
        """Idle request ads grouped per submitter, queue order preserved.

        The grouped view is cached between calls and rebuilt only when a
        job ad is admitted, withdrawn, or expired — refresh hits leave it
        untouched, so steady-state negotiation cycles reuse it outright.
        Each record's parsed ``Owner``/queue-order key lives on the
        record, so a rebuild reuses it for every ad not replaced since.
        """
        if self._grouped_at != self.store.jobs_version:
            grouped: Dict[str, List[ClassAd]] = defaultdict(list)
            for rec in self.store.records():
                if rec.kind != "job":
                    continue
                if rec.job_key is None:
                    raw = rec.ad.evaluate("Owner")
                    rec.job_key = (raw if isinstance(raw, str) else None, _job_order_key(rec.ad))
                owner, order_key = rec.job_key
                if owner is not None:
                    grouped[owner].append((order_key, rec.ad))
            self._grouped_at = self.store.jobs_version
            self._grouped = {
                owner: [ad for _, ad in sorted(pairs, key=lambda p: p[0])]
                for owner, pairs in grouped.items()
            }
        # Fresh lists so callers cannot corrupt the cached view.
        return {owner: list(ads) for owner, ads in self._grouped.items()}

    def ad_context(self, name: str) -> Optional[TraceContext]:
        """Causal context of the admitted ad *name* (None if untraced)."""
        rec = self.store.record(name)
        return rec.ctx if rec is not None else None

    def sample_pool(self, **cycle_fields) -> None:
        """One pool-health observation into the global time series
        (:mod:`repro.obs.timeseries`); the negotiator calls this after
        every cycle, passing that cycle's match figures."""
        from ..obs.timeseries import series as _series

        if not _series.enabled:
            return
        records = self.store.records()
        kinds = Counter(rec.kind for rec in records)
        by_state = Counter(rec.state for rec in records if rec.kind == "machine")
        _series.sample(
            t=self.sim.now,
            machines=kinds["machine"],
            owner=by_state["owner"],
            unclaimed=by_state["unclaimed"],
            claimed=by_state["claimed"],
            jobs_idle=kinds["job"],
            store_size=len(self.store),
            **cycle_fields,
        )

    def query(self, constraint: str) -> List[ClassAd]:
        """One-way matching over everything stored (status tools)."""
        return select(self.store.ads(), constraint)

    def snapshot(self) -> str:
        """The current ad store as JSON lines (one ad per line) —
        feed it to the CLI's status/q/diagnose commands."""
        from ..classads.serialize import dumps

        return "\n".join(dumps(ad) for ad in self.store.ads())

    # -- failure injection ----------------------------------------------------

    def crash(self) -> None:
        """Lose all soft state and stop receiving (experiment E1)."""
        self.net.set_down(self.address)
        self.store.clear()
        if self._mindex is not None:
            self._mindex.clear()
        self.trace.emit(self.sim.now, "collector-crash")

    def recover(self) -> None:
        self.net.set_down(self.address, down=False)
        self.trace.emit(self.sim.now, "collector-recover")


def _job_order_key(ad: ClassAd):
    """Queue order: user priority first (higher = earlier), then FCFS.

    JobPrio only reorders one submitter's own queue — fair share across
    submitters is the negotiator's business, not the user's.
    """
    prio = ad.evaluate("JobPrio")
    qdate = ad.evaluate("QDate")
    job_id = ad.evaluate("JobId")
    return (
        -(prio if isinstance(prio, (int, float)) and not isinstance(prio, bool) else 0),
        qdate if isinstance(qdate, (int, float)) else 0,
        job_id if isinstance(job_id, int) else 0,
    )
