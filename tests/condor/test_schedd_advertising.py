"""The schedd's key-compared request ads: key soundness, protocol corners.

``CustomerAgent._advertise_job`` keeps, per (job, collector), the
*stable key* of the last full ad — the values ``Job.to_classad`` builds
the non-volatile attributes from — plus its fingerprint and send time,
and compares keys each period instead of rebuilding and comparing ads.
That is sound only if equal keys mean equal stable fingerprints, and it
must leave the protocol's corners where they were: first ad, change,
NACK, flocking, withdrawal, the same-instant guard.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.classads import ClassAd, fingerprint, values_equal
from repro.condor import CondorPool, Job, JobState, MachineSpec, PoolConfig
from repro.condor.jobs import DEFAULT_JOB_CONSTRAINT, DEFAULT_JOB_RANK, parsed_policy
from repro.condor.messages import JobEvicted
from repro.condor.schedd import CustomerAgent
from repro.condor.workload import PoissonOwner
from repro.protocols import (
    VOLATILE_JOB_ATTRS,
    Advertisement,
    ClaimResponse,
    Refresh,
    ResendRequest,
    Withdrawal,
    volatile_values,
)
from repro.sim import Network, PoolMetrics, RngStream, Simulator, Trace

from tests.condor.test_schedd import notify

LOCAL, REMOTE = "collector@cm", "collector@far"


def make_schedd(flock=(), flock_threshold=600.0):
    """A schedd at t=1, just past the advertiser's t=0 firing: the next
    periods are t=60, 120, ..."""
    sim = Simulator()
    net = Network(sim, rng=RngStream(1), latency=0.01)
    inboxes = {LOCAL: [], REMOTE: []}
    for address, inbox in inboxes.items():
        net.register(address, inbox.append)
    net.register("startd@m0", lambda message: None)
    ca = CustomerAgent(
        sim,
        net,
        "alice",
        collector_address=LOCAL,
        trace=Trace(),
        metrics=PoolMetrics(),
        advertise_interval=60.0,
        flock_collectors=flock,
        flock_threshold=flock_threshold,
    )
    ca.start()
    sim.run_until(1.0)
    return sim, net, ca, inboxes


def slots_of(ca):
    """The schedd's advertising slots by (ad name, collector)."""
    return {
        (name, recipient): slot
        for name, slots in ca._advertiser._slots.items()
        for recipient, slot in slots.items()
    }


def ads_in(inbox, since=0):
    return [m for m in inbox[since:] if isinstance(m, (Advertisement, Refresh))]


def kinds(inbox, since=0):
    """Message classes of the ads first delivered at or after position
    *since* (the blind retransmit re-sends the same object: not counted)."""
    seen = {id(m) for m in inbox[:since]}
    out = []
    for message in ads_in(inbox, since):
        if id(message) not in seen:
            seen.add(id(message))
            out.append(type(message).__name__)
    return out


def evicted(ca, job, checkpointed, work_done):
    """The RA's notice that it evicted *job* from claim 5."""
    return JobEvicted(
        sender="startd@m0",
        recipient=ca.address,
        match_id=5,
        job_id=job.job_id,
        reason="owner-returned",
        checkpointed=checkpointed,
        work_done=work_done,
    )


# -- key soundness -------------------------------------------------------------


def reference_ad(job, contact_address, now):
    """``Job.to_classad`` as it was before the stable key existed."""
    ad = ClassAd(
        {
            "Type": "Job",
            "JobId": job.job_id,
            "Owner": job.owner,
            "Cmd": job.cmd,
            "QDate": int(job.submit_time),
            "SubmittedAt": job.submit_time,
            "Memory": job.memory,
            "ReqArch": job.req_arch,
            "ReqOpSys": job.req_opsys,
            "WantCheckpoint": 1 if job.want_checkpoint else 0,
            "JobPrio": job.priority,
            "RemainingWork": job.remaining_work,
            "ContactAddress": contact_address,
            "AdvertisedAt": now,
        }
    )
    ad["Constraint"] = parsed_policy(job.constraint)
    ad["Rank"] = parsed_policy(job.rank)
    return ad


numbers = st.sampled_from([0, 1, 31, 0.0, -0.0, 1.0, 31.0, True, False, 2**70, 1e22])
jobs = st.builds(
    Job,
    owner=st.sampled_from(["alice", "bob", "é"]),
    total_work=st.sampled_from([100.0, 100, 250.5, float("nan")]),
    memory=numbers,
    req_arch=st.sampled_from(["INTEL", "SPARC"]),
    want_checkpoint=st.booleans(),
    priority=numbers,
    cmd=st.sampled_from(["run_sim", "a.out"]),
    constraint=st.sampled_from([DEFAULT_JOB_CONSTRAINT, "other.Memory >= 64"]),
    rank=st.sampled_from([DEFAULT_JOB_RANK, "0"]),
    job_id=st.sampled_from([1, 2]),
    submit_time=st.sampled_from([0.0, 0, 59.5, 60.0]),
    completed_work=st.sampled_from([0.0, 50.0, 100.0, 1e9]),
)
contacts = st.sampled_from(["schedd@alice", "schedd@bob"])


class TestStableKey:
    @given(jobs, jobs, contacts, contacts)
    @settings(max_examples=500, deadline=None)
    def test_equal_keys_mean_equal_stable_fingerprints(self, a, b, ca, cb):
        fa = fingerprint(a.to_classad(ca, 5.0), exclude=VOLATILE_JOB_ATTRS)
        fb = fingerprint(b.to_classad(cb, 905.0), exclude=VOLATILE_JOB_ATTRS)
        same = values_equal(a.stable_key(ca), b.stable_key(cb))
        if same:
            assert fa == fb
        else:
            # No spurious full ads either: on these domains every key
            # difference is a content difference.
            assert fa != fb

    @given(jobs, contacts)
    @settings(max_examples=200, deadline=None)
    def test_to_classad_is_what_it_was(self, job, contact):
        ad, ref = job.to_classad(contact, 7.5), reference_ad(job, contact, 7.5)
        assert ad.keys() == ref.keys()
        assert fingerprint(ad) == fingerprint(ref)
        assert str(ad) == str(ref)

    def test_key_covers_every_stable_attribute(self):
        """One value per attribute other than the volatile stamp, in ad
        order — so nothing ``to_classad`` writes can change unseen."""
        job = Job(owner="alice", total_work=100.0)
        ad = job.to_classad("schedd@alice", 3.0)
        stable = [n for n in ad.keys() if n.lower() not in VOLATILE_JOB_ATTRS]
        assert len(job.stable_key("schedd@alice")) == len(stable)
        assert volatile_values(ad, VOLATILE_JOB_ATTRS) == (("AdvertisedAt", 3.0),)


# -- every field to_classad reads ---------------------------------------------

#: (field, new value) for a job submitted as ``Job(owner="alice",
#: total_work=100.0)``: every field ``to_classad`` reads.
MUTATIONS = [
    ("priority", 0.0),  # == 0, another literal type
    ("priority", False),
    ("memory", 48),
    ("constraint", "other.Memory >= 64"),
    ("rank", "other.Mips"),
    ("total_work", float("nan")),  # RemainingWork becomes 0.0
    ("completed_work", 40.0),
    ("owner", "alicia"),
    ("cmd", "a.out"),
    ("req_arch", "SPARC"),
    ("req_opsys", "LINUX"),
    ("want_checkpoint", False),
    ("submit_time", 0.25),
]


class TestChangeForcesOneFullAd:
    @pytest.mark.parametrize("field, value", MUTATIONS, ids=lambda v: repr(v))
    def test_mutation_while_idle(self, field, value):
        sim, net, ca, inboxes = make_schedd()
        job = Job(owner="alice", total_work=100.0)
        ca.submit(job)
        sim.run_until(130.0)
        assert kinds(inboxes[LOCAL]) == ["Advertisement", "Refresh", "Refresh"]
        before = ads_in(inboxes[LOCAL])[0].fingerprint

        setattr(job, field, value)
        mark = len(inboxes[LOCAL])
        sim.run_until(310.0)
        assert kinds(inboxes[LOCAL], mark) == ["Advertisement", "Refresh", "Refresh"]
        full = ads_in(inboxes[LOCAL], mark)[0]
        assert full.fingerprint != before
        assert full.fingerprint == fingerprint(full.ad, exclude=VOLATILE_JOB_ATTRS)
        assert all(m.fingerprint == full.fingerprint for m in ads_in(inboxes[LOCAL], mark))

    def test_priority_through_every_literal_type_and_zero_sign(self):
        """0 -> 0.0 -> -0.0 -> False: all ``==``, all different on the wire."""
        sim, net, ca, inboxes = make_schedd()
        job = Job(owner="alice", total_work=100.0, priority=0)
        ca.submit(job)
        sim.run_until(70.0)
        fingerprints = {ads_in(inboxes[LOCAL])[0].fingerprint}
        for step, value in enumerate([0.0, -0.0, False]):
            job.priority = value
            mark = len(inboxes[LOCAL])
            sim.run_until(70.0 + 120.0 * (step + 1))
            assert kinds(inboxes[LOCAL], mark) == ["Advertisement", "Refresh"]
            fingerprints.add(ads_in(inboxes[LOCAL], mark)[0].fingerprint)
        assert len(fingerprints) == 4

    def test_checkpointed_eviction_changes_remaining_work(self):
        sim, net, ca, inboxes = make_schedd()
        job = Job(owner="alice", total_work=100.0)
        ca.submit(job)
        sim.run_until(2.0)
        job.state, job.running_match_id = JobState.RUNNING, 5
        net.send(evicted(ca, job, checkpointed=True, work_done=30.0))
        mark = len(inboxes[LOCAL])
        sim.run_until(130.0)
        assert kinds(inboxes[LOCAL], mark) == ["Advertisement", "Refresh", "Refresh"]
        assert ads_in(inboxes[LOCAL], mark)[0].ad.evaluate("RemainingWork") == 70.0

    def test_refresh_carries_exactly_the_stamp(self):
        sim, net, ca, inboxes = make_schedd()
        ca.submit(Job(owner="alice", total_work=100.0))
        sim.run_until(70.0)
        refresh = ads_in(inboxes[LOCAL])[-1]
        assert isinstance(refresh, Refresh)
        assert refresh.volatile == (("AdvertisedAt", 60.0),)

    def test_the_cache_holds_no_ad(self):
        sim, net, ca, inboxes = make_schedd()
        ca.submit(Job(owner="alice", total_work=100.0))
        sim.run_until(70.0)
        (slot,) = slots_of(ca).values()
        key, fp, sent_at = slot.basis, slot.fingerprint, slot.sent_at
        assert not any(isinstance(part, ClassAd) for part in (key, fp, sent_at, *key))
        assert sent_at == 1.0 and isinstance(fp, str)


# -- protocol corners -----------------------------------------------------------


class TestProtocolCorners:
    def test_nack_resyncs_that_collector_only(self):
        sim, net, ca, inboxes = make_schedd(flock=[REMOTE], flock_threshold=0.0)
        job = Job(owner="alice", total_work=100.0)
        ca.submit(job)
        sim.run_until(130.0)
        assert kinds(inboxes[LOCAL]) == ["Advertisement", "Refresh", "Refresh"]
        assert kinds(inboxes[REMOTE]) == ["Advertisement", "Refresh"]

        marks = {a: len(inbox) for a, inbox in inboxes.items()}
        net.send(ResendRequest(sender=REMOTE, recipient=ca.address, name=ca._ad_name(job)))
        sim.run_until(131.0)
        assert kinds(inboxes[REMOTE], marks[REMOTE]) == ["Advertisement"]
        assert kinds(inboxes[LOCAL], marks[LOCAL]) == []
        sim.run_until(190.0)
        assert kinds(inboxes[REMOTE], marks[REMOTE]) == ["Advertisement", "Refresh"]
        assert kinds(inboxes[LOCAL], marks[LOCAL]) == ["Refresh"]

    def test_flocked_collectors_keep_separate_entries(self):
        sim, net, ca, inboxes = make_schedd(flock=[REMOTE], flock_threshold=100.0)
        job = Job(owner="alice", total_work=100.0)
        ca.submit(job)
        sim.run_until(190.0)
        # Local: full at 1, refreshes at 60/120/180.  Remote: first courted
        # at 120 — with a full ad, whatever the local collector holds.
        assert kinds(inboxes[LOCAL]) == ["Advertisement", "Refresh", "Refresh", "Refresh"]
        assert kinds(inboxes[REMOTE]) == ["Advertisement", "Refresh"]
        name = ca._ad_name(job)
        slots = slots_of(ca)
        assert set(slots) == {(name, LOCAL), (name, REMOTE)}
        assert slots[(name, LOCAL)].sent_at == 1.0
        assert slots[(name, REMOTE)].sent_at == 120.0

    def test_a_withdrawn_job_is_never_refreshed_back(self):
        sim, net, ca, inboxes = make_schedd()
        job = Job(owner="alice", total_work=100.0)
        ca.submit(job)
        sim.run_until(70.0)
        net.send(notify(ca, job, sim, match_id=5))
        sim.run_until(71.0)
        net.send(ClaimResponse(sender="startd@m0", recipient=ca.address, match_id=5, accepted=True))
        sim.run_until(72.0)
        assert job.state is JobState.RUNNING
        assert any(isinstance(m, Withdrawal) for m in inboxes[LOCAL])
        assert not slots_of(ca)
        mark = len(inboxes[LOCAL])
        sim.run_until(400.0)
        assert kinds(inboxes[LOCAL], mark) == []

        # Evicted without a checkpoint: nothing about the ad changed, and
        # it still must come back as a full ad — the collector dropped it.
        net.send(evicted(ca, job, checkpointed=False, work_done=10.0))
        sim.run_until(401.0)
        assert kinds(inboxes[LOCAL], mark) == ["Advertisement"]

    def test_same_instant_submit_and_period_sends_two_full_ads(self):
        sim, net, ca, inboxes = make_schedd()
        ca.submit(Job(owner="alice", total_work=100.0))
        ca.advertise_queue()  # the period falls on the instant of the submit
        sim.run_until(2.0)
        # A Refresh could overtake the full ad it refers to.
        assert kinds(inboxes[LOCAL]) == ["Advertisement", "Advertisement"]
        sim.run_until(61.0)
        assert kinds(inboxes[LOCAL])[2:] == ["Refresh"]


# -- no spurious full ads on a whole pool ------------------------------------


def fixed_pool():
    specs = [
        MachineSpec(name=f"m{i}", mips=100.0 + 50.0 * (i % 3), memory=64 if i % 2 else 32)
        for i in range(8)
    ]
    pool = CondorPool(
        specs,
        PoolConfig(seed=7, advertise_interval=60.0, negotiation_interval=60.0),
        owner_models={
            f"m{i}": PoissonOwner(mean_active=200.0, mean_idle=500.0) for i in (0, 1, 4, 5)
        },
    )
    batch = [
        Job(
            job_id=1000 + j,
            owner=("alice", "bob", "carol")[j % 3],
            total_work=400.0 + 90.0 * (j % 7),
            memory=(16, 48, 128)[j % 3],
            want_checkpoint=bool(j % 4),
        )
        for j in range(24)
    ]
    pool.submit_all(batch, arrival_times=[20.0 * j for j in range(24)])
    return pool


def test_fixed_pool_sends_the_same_ads_as_before():
    """8 machines (4 with owners coming and going), 24 jobs (8 of them
    never matchable, so they idle and refresh), 100 periods: counts taken
    at the parent commit, where the schedd rebuilt and compared ads."""
    obs.reset()
    obs.enable()
    try:
        pool = fixed_pool()
        pool.run_until(6000.0)
        totals = obs.metrics.totals()
    finally:
        obs.disable()
        obs.reset()
    assert pool.metrics.evictions == 6 and pool.metrics.jobs_completed == 16
    assert totals["advertising.full_ads"] == 157
    assert totals["advertising.refreshes"] == 1636
    assert totals["collector.refresh_hits"] == 3180
    assert "collector.resend_requests" not in totals
