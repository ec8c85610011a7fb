"""Whole-pool tests of the refresh protocol.

Every ad goes out in full when it is new or changed and as a compact
``Refresh`` otherwise; the collector answers a Refresh it cannot vouch
for with a ``ResendRequest``.  Covered here:

* a clean same-seed run is bitwise reproducible, and every chaos profile
  still delivers all jobs and passes the protocol invariants;
* the E1 crash-recovery story — after a central-manager outage the first
  ``Refresh`` misses, the collector answers with a ``ResendRequest``,
  and one full advertising period later the pool composition is fully
  restored;
* the two ways a Refresh draws a resync on a running pool: a late blind
  copy that is older than the job's content-changing full ad (lossless;
  a known needless round trip), and a lost content change (lossy; the
  resync the protocol exists for);
* every Advertisement or Refresh the collector receives is logged as
  one ``ad.arrived`` event.
"""

import pytest

from repro import obs
from repro.condor import (
    Collector,
    CondorPool,
    Job,
    JobProfile,
    MachineSpec,
    PoissonOwner,
    PoolConfig,
    generate_jobs,
    generate_policy_pool,
    poisson_arrival_times,
)
from repro.condor.collector import _job_order_key
from repro.condor.machine import MachineAgent
from repro.matchmaking.matchmaker import reset_cycle_ids
from repro.obs.invariants import check_events
from repro.protocols import Advertisement, Refresh, ResendRequest, reset_message_ids
from repro.protocols.advertising import classify
from repro.sim import Network, RngStream, Simulator
from repro.sim.chaos import PROFILES, chaos_profile


def _build_pool(seed=7, machines=6, chaos=None, horizon=None):
    specs = [
        MachineSpec(name=f"m{i}", mips=100.0 + 50.0 * (i % 3))
        for i in range(machines)
    ]
    cfg = dict(
        seed=seed,
        advertise_interval=60.0,
        negotiation_interval=60.0,
    )
    if chaos is not None:
        cfg["chaos"] = chaos
        cfg["chaos_horizon"] = horizon
    return CondorPool(specs, config=PoolConfig(**cfg))


def _batch(jobs=10):
    return [
        Job(
            job_id=j,
            owner="alice" if j % 2 == 0 else "bob",
            total_work=600.0 + 60.0 * (j % 5),
        )
        for j in range(jobs)
    ]


def _job_outcome(job):
    return (
        job.job_id,
        job.owner,
        job.state.name,
        job.completion_time,
        job.completed_work,
        job.restarts,
        job.evictions,
        job.matches,
        job.claim_rejections,
    )


def _spy_network(pool, captured):
    """Record every message the pool sends (without perturbing delivery)."""
    original = pool.net.send

    def send(message):
        captured.append(message)
        original(message)

    pool.net.send = send


def run_clean(seed=7):
    """One recorded clean run; returns (events, outcomes, snapshot, sent)."""
    obs.reset()
    reset_message_ids()
    reset_cycle_ids()
    obs.enable(events=True)
    try:
        pool = _build_pool(seed=seed)
        sent = []
        _spy_network(pool, sent)
        pool.submit_all(_batch(), arrival_times=[5.0 * j for j in range(10)])
        pool.run_until_quiescent(check_interval=60.0, max_time=100_000.0)
        # Two cycle.end fields are not protocol outcomes: duration_s is
        # wall-clock, and evals_saved counts compiled-cache hits.
        drop = {"duration_s", "evals_saved"}
        events = [
            (
                e.t,
                e.kind,
                tuple(sorted((k, v) for k, v in e.fields.items() if k not in drop)),
            )
            for e in obs.event_log.events()
        ]
        outcomes = sorted(_job_outcome(j) for j in pool.jobs())
        snapshot = pool.collector.snapshot()
    finally:
        obs.disable()
        obs.reset()
    return events, outcomes, snapshot, sent


class TestCleanRunEquivalence:
    def test_same_mode_same_seed_is_deterministic(self):
        ev_a, out_a, snap_a, sent = run_clean()
        ev_b, out_b, snap_b, _ = run_clean()
        # The comparison is only meaningful if refreshes actually ran.
        assert any(isinstance(m, Refresh) for m in sent)
        assert not any(isinstance(m, ResendRequest) for m in sent)
        assert ev_a == ev_b
        assert out_a == out_b
        assert snap_a == snap_b


class TestCrashResync:
    def test_resend_request_restores_state_within_one_period(self):
        """After a CM outage, a stale Refresh is answered by ResendRequest
        and the sender's full re-advertisement rebuilds the store within
        one advertising period of recovery (the E1 claim, kept)."""
        pool = _build_pool(machines=4)
        sent = []
        _spy_network(pool, sent)
        pool.submit_all(_batch(jobs=4), arrival_times=[5.0, 10.0, 15.0, 20.0])
        pool.crash_central_manager(at=400.0, duration=50.0)
        pool.run_until(399.0)
        # Steady state before the crash: refreshes flowing, store full.
        assert any(isinstance(m, Refresh) for m in sent)
        assert len(pool.collector.machine_ads()) == 4

        # One advertising period (+ delivery slack) after recovery at
        # t=450 every machine must be re-registered.
        pool.run_until(450.0 + 60.0 + 5.0)
        resyncs = [m for m in sent if isinstance(m, ResendRequest)]
        assert resyncs, "collector never asked for a resend"
        assert len(pool.collector.machine_ads()) == 4

        # And the pool still drains normally afterwards.
        pool.run_until_quiescent(check_interval=60.0, max_time=100_000.0)
        assert all(job.done for job in pool.jobs())


class TestChaosProfiles:
    """Every chaos profile completes and keeps the recorded protocol
    invariants (bitwise comparisons are out of reach under chaos: each
    resync handshake is an extra message that takes its own loss and
    jitter draws)."""

    @pytest.mark.parametrize("profile", PROFILES)
    def test_profile_completes_and_invariants_hold(self, profile):
        horizon = 3600.0
        plan = chaos_profile(profile, horizon=horizon)
        obs.reset()
        reset_message_ids()
        reset_cycle_ids()
        obs.enable(events=True)
        try:
            pool = _build_pool(
                seed=plan.seed, machines=5, chaos=plan, horizon=horizon
            )
            batch = _batch(jobs=8)
            pool.submit_all(
                batch, arrival_times=[5.0 * j for j in range(len(batch))]
            )
            pool.run_until_quiescent(check_interval=60.0, max_time=8.0 * horizon)
            events = list(obs.event_log.events())
        finally:
            obs.disable()
            obs.reset()
        assert all(job.done for job in pool.jobs())
        report = check_events(events, require_complete=True)
        assert report.ok, "\n".join(str(v) for v in report.violations)


class TestIncrementalViewsMatchNaive:
    """The collector's pool-composition sample and its cached
    owner-grouped job view must always agree with a from-scratch
    recomputation over the store."""

    def _run_partial(self, until=700.0):
        pool = _build_pool(machines=5)
        pool.submit_all(_batch(jobs=8), arrival_times=[5.0 * j for j in range(8)])
        pool.run_until(until)
        return pool

    @staticmethod
    def _naive_composition(collector):
        machines = jobs = 0
        states = {}
        for ad in collector.store.ads():
            kind, state = classify(ad)
            if kind == "machine":
                machines += 1
                states[state] = states.get(state, 0) + 1
            elif kind == "job":
                jobs += 1
        return machines, states, jobs

    @staticmethod
    def _naive_grouped(collector):
        grouped = {}
        for ad in collector.job_ads():
            owner = ad.evaluate("Owner")
            grouped.setdefault(owner, []).append((_job_order_key(ad), ad))
        return {
            owner: [ad for _, ad in sorted(pairs, key=lambda p: p[0])]
            for owner, pairs in grouped.items()
        }

    @staticmethod
    def _sampled(collector):
        """The composition ``sample_pool`` records, shaped like
        ``_naive_composition``'s (machine states are Owner, Unclaimed or
        Claimed)."""
        obs.reset()
        obs.enable(timeseries=True)
        try:
            collector.sample_pool()
            fields = obs.series.last().fields
        finally:
            obs.disable()
            obs.reset()
        states = {s: fields[s] for s in ("owner", "unclaimed", "claimed") if fields[s]}
        return fields["machines"], states, fields["jobs_idle"]

    def test_composition_counts_match_store_scan(self):
        pool = self._run_partial(until=30.0)  # jobs queued, none matched yet
        for until in (30.0, 700.0):
            pool.run_until(until)
            machines, states, jobs = self._naive_composition(pool.collector)
            assert machines == 5 and (jobs > 0) == (until < 60.0)
            assert self._sampled(pool.collector) == (machines, states, jobs)

    def test_job_grouping_matches_store_scan(self):
        collector = self._run_partial().collector
        grouped = collector.job_ads_by_owner()
        naive = self._naive_grouped(collector)
        assert set(grouped) == set(naive)
        for owner in naive:
            assert len(grouped[owner]) == len(naive[owner])
            for got, want in zip(grouped[owner], naive[owner]):
                assert got is want

    def test_counts_survive_expiry_and_crash(self):
        pool = self._run_partial()
        pool.machines["m0"].crash()
        pool.run_until(700.0 + 4 * 60.0 + 60.0)  # past its lifetime and a sweep
        collector = pool.collector
        assert "machine.m0" not in collector.store
        assert self._sampled(collector) == self._naive_composition(collector)
        collector.crash()
        assert self._sampled(collector) == (0, {}, 0)
        assert self._naive_composition(collector) == (0, {}, 0)


# -- where a Refresh draws a resync on a running pool ------------------------


def _churn_pool(seed=7, machines=40, jobs_per_owner=12, steps=40, loss=0.0):
    """A small Figure-1 policy pool whose owners come and go, so ads
    change; jobs arrive as a Poisson stream after a 30-minute warm-up."""
    mix = RngStream(1998)
    specs = generate_policy_pool(
        mix.fork("pool"),
        machines,
        groups=(("u0", "u1"), ("u2", "u3")),
        friends=("u4", "u5"),
        untrusted=("u7",),
    )
    owners = {s.name: PoissonOwner(mean_active=600.0, mean_idle=1800.0) for s in specs}
    pool = CondorPool(
        specs, PoolConfig(seed=seed, chaos=False, network_loss=loss), owner_models=owners
    )
    profile = JobProfile(mean_work=JobProfile().mean_work * steps / 120)
    jobs = [
        job
        for i in range(8)
        for job in generate_jobs(mix.fork(f"jobs/u{i}"), f"u{i}", jobs_per_owner, profile)
    ]
    rate = len(jobs) / (0.5 * steps * 300.0)
    times = poisson_arrival_times(RngStream(seed).fork("arrivals"), len(jobs), rate, start=1800.0)
    pool.submit_all(jobs, times)
    return pool, 1800.0 + steps * 300.0


class TestStaleRefreshRace:
    """Lossless, the only Refreshes answered with a ResendRequest are late
    blind copies older than the stored full ad.  A job's Refresh goes out
    at a negotiation instant; the job is matched, evicted when the
    machine's owner returns, and re-advertised in full with a new
    fingerprint and a newer sequence; then the Refresh's blind copy fires
    — the job is idle again, so its ``stop_when`` does not stop it.  The collector compares
    fingerprints before sequences, so it asks for a resend instead of
    dropping the copy as stale (see ``test_central_manager.py``)."""

    def test_every_lossless_resend_answers_an_older_refresh(self):
        pool, until = _churn_pool()
        collector = pool.collector
        sent = []
        _spy_network(pool, sent)
        misses = []
        on_refresh = collector._on_refresh

        def spy(message):
            rec = collector.store.record(message.name)
            stored = None if rec is None else (rec.sequence, rec.fingerprint)
            before = len(sent)
            on_refresh(message)
            if any(isinstance(m, ResendRequest) for m in sent[before:]):
                misses.append((message, stored))

        collector._on_refresh = spy
        pool.start()
        pool.run_until(until)

        resends = [m for m in sent if isinstance(m, ResendRequest)]
        assert resends, "the race did not occur: the test pool proves nothing"
        assert len(misses) == len(resends)
        for message, stored in misses:
            assert message.name.startswith("job.")
            assert stored is not None, f"{message.name}: no stored record"
            sequence, fp = stored
            assert message.sequence < sequence
            assert message.fingerprint != fp


class TestLostContentChange:
    """Lossy, a Refresh can name a fingerprint the collector never saw:
    the full ad carrying a content change and its blind copy were both
    lost.  The next Refresh draws exactly one ResendRequest, and the
    store holds the new content within one period.  This extra message
    takes its own loss and jitter draws, which is why lossy runs are
    compared by invariants, never bitwise."""

    def test_next_refresh_resyncs_a_lost_content_change(self):
        sim = Simulator()
        net = Network(sim, rng=RngStream(1), latency=0.01)
        collector = Collector(sim, net)
        agent = MachineAgent(
            sim,
            net,
            MachineSpec(name="m0"),
            collector_address=collector.address,
            rng=RngStream(2),
            advertise_interval=60.0,
        )
        sent, lost, dropping = [], [], set()
        send = net.send

        def lossy_send(message):
            sent.append(message)
            if isinstance(message, Advertisement) and message.sequence in dropping:
                lost.append(message)
                return
            send(message)

        net.send = lossy_send
        agent.start()
        sim.run_until(121.0)  # a full ad, then Refreshes
        old_fp = collector.store.record("machine.m0").fingerprint
        assert isinstance(sent[-1], Refresh)

        agent.spec.memory = 128  # stable content changes at the t=180 period
        dropping.add(agent._advertiser.sequence + 1)
        sim.run_until(181.0)
        new_fp = agent._slot.fingerprint
        assert new_fp != old_fp
        sim.run_until(239.0)
        assert len(lost) == 2 and lost[0] is lost[1]  # the ad and its blind copy
        assert collector.store.record("machine.m0").fingerprint == old_fp

        sim.run_until(180.0 + 60.0 + 1.0)  # the next period's Refresh
        assert [type(m) for m in sent if isinstance(m, ResendRequest)] == [ResendRequest]
        rec = collector.store.record("machine.m0")
        assert rec.fingerprint == new_fp
        assert rec.ad.evaluate("Memory") == 128


class TestAdArrivedCoverage:
    def test_every_ad_and_refresh_received_is_one_ad_arrived_event(self):
        """Admitted, dropped as stale, or answered with a ResendRequest:
        each Advertisement or Refresh the collector receives is logged."""
        obs.reset()
        obs.enable(events=True)
        try:
            pool, until = _churn_pool(machines=12, jobs_per_owner=3, steps=12, loss=0.1)
            collector = pool.collector
            sent, received = [], []
            _spy_network(pool, sent)
            for handler in ("_on_advertisement", "_on_refresh"):
                inner = getattr(collector, handler)

                def counted(message, inner=inner):
                    received.append(message)
                    inner(message)

                setattr(collector, handler, counted)
            pool.start()
            pool.run_until(until)
            assert len(obs.event_log) < obs.event_log.capacity  # nothing evicted
            arrived = obs.event_log.of_kind("ad.arrived")
        finally:
            obs.disable()
            obs.reset()
        assert any(isinstance(m, ResendRequest) for m in sent)
        assert collector.ads_rejected == 0
        assert len(arrived) == len(received)
