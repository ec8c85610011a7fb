"""Unit tests for the customer agent (S15)."""

import pytest

from repro.condor import Job, JobState
from repro.condor.messages import JobCompleted, JobEvicted
from repro.condor.schedd import CustomerAgent
from repro.protocols import (
    Advertisement,
    ClaimRequest,
    ClaimResponse,
    MatchNotification,
    ReleaseNotice,
    Withdrawal,
)
from repro.sim import Network, PoolMetrics, RngStream, Simulator, Trace


def make_schedd(claim_timeout=30.0):
    sim = Simulator()
    net = Network(sim, rng=RngStream(1), latency=0.01)
    collector_inbox, machine_inbox = [], []
    net.register("collector@cm", collector_inbox.append)
    net.register("startd@m0", machine_inbox.append)
    metrics = PoolMetrics()
    ca = CustomerAgent(
        sim,
        net,
        "alice",
        collector_address="collector@cm",
        trace=Trace(),
        metrics=metrics,
        advertise_interval=60.0,
        claim_timeout=claim_timeout,
    )
    ca.start()
    return sim, net, ca, collector_inbox, machine_inbox


def notify(ca, job, sim, match_id=5):
    """A match notification as the negotiator would send it."""
    from repro.classads import ClassAd

    machine_ad = ClassAd(
        {"Type": "Machine", "Name": "m0", "ContactAddress": "startd@m0", "Memory": 64}
    )
    return MatchNotification(
        sender="negotiator@cm",
        recipient=ca.address,
        peer_address="startd@m0",
        peer_ad=machine_ad,
        my_ad=job.to_classad(ca.address, sim.now),
        ticket=None,
        match_id=match_id,
    )


class TestQueueAndAdvertising:
    def test_submit_advertises_immediately(self):
        sim, net, ca, collector_inbox, _ = make_schedd()
        sim.run_until(5.0)  # past the t=0 periodic firing
        collector_inbox.clear()
        ca.submit(Job(owner="alice", total_work=100))
        sim.run_until(6.0)  # well before the next periodic firing at t=60
        ads = [m for m in collector_inbox if isinstance(m, Advertisement)]
        assert len(ads) == 1
        assert ads[0].ad.evaluate("Owner") == "alice"

    def test_periodic_refresh_of_idle_jobs(self):
        from repro.protocols import Refresh

        sim, net, ca, collector_inbox, _ = make_schedd()
        ca.submit(Job(owner="alice", total_work=100))
        sim.run_until(130.0)
        # The first ad is full; unchanged periodic re-ads are compact
        # Refreshes carrying the same advertising name.
        ads = [m for m in collector_inbox if isinstance(m, (Advertisement, Refresh))]
        assert len(ads) >= 3  # immediate + 2 periodic
        assert isinstance(ads[0], Advertisement)
        assert any(isinstance(m, Refresh) for m in ads)
        assert len({m.name for m in ads}) == 1

    def test_metrics_count_submissions(self):
        sim, net, ca, _, _ = make_schedd()
        for _ in range(3):
            ca.submit(Job(owner="alice", total_work=1))
        assert ca.metrics.jobs_submitted == 3
        assert ca.unfinished() == 3


class TestMatchHandling:
    def test_match_triggers_claim_request(self):
        sim, net, ca, _, machine_inbox = make_schedd()
        job = Job(owner="alice", total_work=100)
        ca.submit(job)
        net.send(notify(ca, job, sim))
        sim.run_until(1.0)
        claims = [m for m in machine_inbox if isinstance(m, ClaimRequest)]
        assert len(claims) == 1
        assert claims[0].match_id == 5
        assert ca.metrics.claims_attempted == 1

    def test_stale_match_for_unknown_job_ignored(self):
        sim, net, ca, _, machine_inbox = make_schedd()
        ghost = Job(owner="alice", total_work=100)  # never submitted
        net.send(notify(ca, ghost, sim))
        sim.run_until(1.0)
        assert not [m for m in machine_inbox if isinstance(m, ClaimRequest)]

    def test_duplicate_match_while_claim_pending_ignored(self):
        sim, net, ca, _, machine_inbox = make_schedd()
        job = Job(owner="alice", total_work=100)
        ca.submit(job)
        net.send(notify(ca, job, sim, match_id=5))
        net.send(notify(ca, job, sim, match_id=6))
        sim.run_until(1.0)
        claims = [m for m in machine_inbox if isinstance(m, ClaimRequest)]
        assert len(claims) == 1

    def test_claim_accept_marks_running_and_withdraws(self):
        sim, net, ca, collector_inbox, _ = make_schedd()
        job = Job(owner="alice", total_work=100)
        ca.submit(job)
        net.send(notify(ca, job, sim))
        sim.run_until(1.0)
        net.send(
            ClaimResponse(
                sender="startd@m0", recipient=ca.address, match_id=5, accepted=True
            )
        )
        sim.run_until(2.0)
        assert job.state is JobState.RUNNING
        assert job.running_on == "m0"
        assert job.first_start_time is not None
        assert [m for m in collector_inbox if isinstance(m, Withdrawal)]

    def test_claim_rejection_returns_job_to_idle(self):
        sim, net, ca, _, _ = make_schedd()
        job = Job(owner="alice", total_work=100)
        ca.submit(job)
        net.send(notify(ca, job, sim))
        sim.run_until(1.0)
        net.send(
            ClaimResponse(
                sender="startd@m0",
                recipient=ca.address,
                match_id=5,
                accepted=False,
                reason="constraint-violated",
            )
        )
        sim.run_until(2.0)
        assert job.state is JobState.IDLE
        assert job.claim_rejections == 1
        assert ca.metrics.claim_rejections_by_reason["constraint-violated"] == 1
        assert job in ca.idle_jobs()

    def test_claim_timeout_recovers_job(self):
        # The ClaimRequest vanishes (machine down): after the timeout the
        # job must be matchable again.
        sim, net, ca, _, _ = make_schedd(claim_timeout=30.0)
        net.set_down("startd@m0")
        job = Job(owner="alice", total_work=100)
        ca.submit(job)
        net.send(notify(ca, job, sim))
        sim.run_until(10.0)
        assert job not in ca.idle_jobs()  # claim pending
        sim.run_until(40.0)
        assert job in ca.idle_jobs()
        assert ca.metrics.claim_rejections_by_reason["timeout"] == 1

    def test_late_response_after_timeout_ignored(self):
        sim, net, ca, _, _ = make_schedd(claim_timeout=5.0)
        job = Job(owner="alice", total_work=100)
        ca.submit(job)
        net.send(notify(ca, job, sim))
        sim.run_until(10.0)  # timed out
        net.send(
            ClaimResponse(
                sender="startd@m0", recipient=ca.address, match_id=5, accepted=True
            )
        )
        sim.run_until(11.0)
        assert job.state is JobState.IDLE  # not resurrected into RUNNING

    def test_late_accept_is_released(self):
        # The machine holds the claim it accepted; the customer has given
        # up on it, so it must say so or the machine runs a job that may
        # be re-matched elsewhere.
        sim, net, ca, _, machine_inbox = make_schedd(claim_timeout=5.0)
        job = Job(owner="alice", total_work=100)
        ca.submit(job)
        net.send(notify(ca, job, sim))
        sim.run_until(10.0)  # timed out
        for accepted in (True, False):
            net.send(
                ClaimResponse(
                    sender="startd@m0", recipient=ca.address, match_id=5, accepted=accepted
                )
            )
        sim.run_until(11.0)
        releases = [m for m in machine_inbox if isinstance(m, ReleaseNotice)]
        assert [(m.match_id, m.recipient) for m in releases] == [(5, "startd@m0")]

    def test_duplicate_accept_of_the_active_claim_is_not_released(self):
        sim, net, ca, _, machine_inbox = make_schedd()
        job = Job(owner="alice", total_work=100)
        ca.submit(job)
        net.send(notify(ca, job, sim))
        sim.run_until(1.0)
        for _ in range(2):
            net.send(
                ClaimResponse(
                    sender="startd@m0", recipient=ca.address, match_id=5, accepted=True
                )
            )
        sim.run_until(2.0)
        assert job.state is JobState.RUNNING
        assert not [m for m in machine_inbox if isinstance(m, ReleaseNotice)]


class TestCompletionAndEviction:
    def start_running(self, sim, net, ca):
        job = Job(owner="alice", total_work=100)
        ca.submit(job)
        net.send(notify(ca, job, sim))
        sim.run_until(1.0)
        net.send(
            ClaimResponse(sender="startd@m0", recipient=ca.address, match_id=5, accepted=True)
        )
        sim.run_until(2.0)
        assert job.state is JobState.RUNNING
        return job

    def test_completion(self):
        sim, net, ca, _, _ = make_schedd()
        job = self.start_running(sim, net, ca)
        net.send(
            JobCompleted(
                sender="startd@m0",
                recipient=ca.address,
                match_id=5,
                job_id=job.job_id,
                work_done=100.0,
            )
        )
        sim.run_until(3.0)
        assert job.done
        assert ca.metrics.jobs_completed == 1
        assert ca.metrics.goodput == pytest.approx(100.0)
        assert ca.unfinished() == 0

    def test_checkpointed_eviction_keeps_progress(self):
        sim, net, ca, collector_inbox, _ = make_schedd()
        job = self.start_running(sim, net, ca)
        net.send(
            JobEvicted(
                sender="startd@m0",
                recipient=ca.address,
                match_id=5,
                job_id=job.job_id,
                reason="owner-returned",
                checkpointed=True,
                work_done=40.0,
            )
        )
        sim.run_until(3.0)
        assert job.state is JobState.IDLE
        assert job.completed_work == pytest.approx(40.0)
        assert ca.metrics.goodput == pytest.approx(40.0)
        assert ca.metrics.badput == 0.0
        # re-advertised immediately with reduced remaining work
        from repro.protocols import Advertisement

        last_ad = [m for m in collector_inbox if isinstance(m, Advertisement)][-1]
        assert last_ad.ad.evaluate("RemainingWork") == pytest.approx(60.0)

    def test_uncheckpointed_eviction_is_badput(self):
        sim, net, ca, _, _ = make_schedd()
        job = self.start_running(sim, net, ca)
        net.send(
            JobEvicted(
                sender="startd@m0",
                recipient=ca.address,
                match_id=5,
                job_id=job.job_id,
                reason="owner-returned",
                checkpointed=False,
                work_done=40.0,
            )
        )
        sim.run_until(3.0)
        assert job.completed_work == 0.0
        assert job.restarts == 1
        assert ca.metrics.badput == pytest.approx(40.0)

    def test_duplicate_completion_ignored(self):
        sim, net, ca, _, _ = make_schedd()
        job = self.start_running(sim, net, ca)
        for _ in range(2):
            net.send(
                JobCompleted(
                    sender="startd@m0",
                    recipient=ca.address,
                    match_id=5,
                    job_id=job.job_id,
                    work_done=100.0,
                )
            )
        sim.run_until(3.0)
        assert ca.metrics.jobs_completed == 1


class TestJobRemoval:
    def test_remove_idle_job_withdraws_ad(self):
        sim, net, ca, collector_inbox, _ = make_schedd()
        job = Job(owner="alice", total_work=100)
        ca.submit(job)
        assert ca.remove(job.job_id)
        sim.run_until(1.0)
        assert job.state is JobState.REMOVED
        assert ca.unfinished() == 0
        assert [m for m in collector_inbox if isinstance(m, Withdrawal)]

    def test_remove_running_job_releases_claim(self):
        sim, net, ca, _, machine_inbox = make_schedd()
        job = Job(owner="alice", total_work=100)
        ca.submit(job)
        net.send(notify(ca, job, sim))
        sim.run_until(1.0)
        net.send(
            ClaimResponse(sender="startd@m0", recipient=ca.address, match_id=5, accepted=True)
        )
        sim.run_until(2.0)
        assert ca.remove(job.job_id)
        sim.run_until(3.0)
        from repro.protocols import ReleaseNotice

        releases = [m for m in machine_inbox if isinstance(m, ReleaseNotice)]
        assert releases and releases[0].match_id == 5
        assert job.state is JobState.REMOVED

    def test_remove_unknown_or_done_job(self):
        sim, net, ca, _, _ = make_schedd()
        assert not ca.remove(99999)
        job = Job(owner="alice", total_work=100)
        ca.submit(job)
        job.state = JobState.COMPLETED
        assert not ca.remove(job.job_id)

    def test_removed_job_never_rematched(self):
        sim, net, ca, _, machine_inbox = make_schedd()
        job = Job(owner="alice", total_work=100)
        ca.submit(job)
        ca.remove(job.job_id)
        net.send(notify(ca, job, sim))  # stale match arrives afterwards
        sim.run_until(1.0)
        assert not [m for m in machine_inbox if isinstance(m, ClaimRequest)]

    def test_remove_is_idempotent(self):
        sim, net, ca, _, _ = make_schedd()
        job = Job(owner="alice", total_work=100)
        ca.submit(job)
        assert ca.remove(job.job_id)
        assert not ca.remove(job.job_id)


class TestRecoveryUnderLoss:
    """The hardening satellites: claim timeout and eviction handling when
    the network eats messages."""

    def test_claim_request_lost_to_down_machine_times_out(self):
        sim, net, ca, collector_inbox, machine_inbox = make_schedd(claim_timeout=30.0)
        job = Job(owner="alice", total_work=100)
        ca.submit(job)
        net.set_down("startd@m0")  # every request (and retry) is eaten
        net.send(notify(ca, job, sim))
        sim.run_until(1.0)
        assert job.job_id in ca._pending_jobs
        dropped_before = net.stats.dropped_down
        sim.run_until(60.0)  # past the claim timeout
        assert net.stats.dropped_down >= dropped_before >= 1
        assert job.state is JobState.IDLE
        assert job.job_id not in ca._pending_jobs
        assert ca.metrics.claim_rejections_by_reason.get("timeout") == 1

    def test_job_rematchable_after_timeout(self):
        sim, net, ca, collector_inbox, machine_inbox = make_schedd(claim_timeout=30.0)
        job = Job(owner="alice", total_work=100)
        ca.submit(job)
        net.set_down("startd@m0")
        net.send(notify(ca, job, sim, match_id=5))
        sim.run_until(60.0)
        net.set_down("startd@m0", down=False)
        machine_inbox.clear()
        net.send(notify(ca, job, sim, match_id=6))
        sim.run_until(61.0)
        requests = [m for m in machine_inbox if isinstance(m, ClaimRequest)]
        assert len(requests) == 1
        assert requests[0].match_id == 6

    def run_to_running(self, ca, net, sim, job, match_id=5):
        net.send(notify(ca, job, sim, match_id=match_id))
        sim.run_until(sim.now + 0.5)
        net.send(
            ClaimResponse(
                sender="startd@m0",
                recipient=ca.address,
                match_id=match_id,
                accepted=True,
                lease_duration=120.0,
            )
        )
        sim.run_until(sim.now + 0.5)
        assert job.state is JobState.RUNNING

    def test_eviction_recovers_job_even_with_lease_tracking(self):
        sim, net, ca, collector_inbox, machine_inbox = make_schedd()
        job = Job(owner="alice", total_work=100)
        ca.submit(job)
        self.run_to_running(ca, net, sim, job)
        net.send(
            JobEvicted(
                sender="startd@m0",
                recipient=ca.address,
                match_id=5,
                job_id=job.job_id,
                reason="owner-returned",
                checkpointed=False,
                work_done=10.0,
            )
        )
        sim.run_until(sim.now + 1.0)
        assert job.state is JobState.IDLE
        assert job.restarts == 1
        # The lease bookkeeping for the dead claim is gone: keep-alive
        # sweeps must not resurrect or re-lose it.
        sim.run_until(sim.now + 600.0)
        assert job.state is JobState.IDLE

    def test_lease_silence_recovers_job(self):
        from repro.protocols import set_retries

        set_retries(True)
        try:
            sim, net, ca, collector_inbox, machine_inbox = make_schedd()
            job = Job(owner="alice", total_work=100)
            ca.submit(job)
            self.run_to_running(ca, net, sim, job)
            net.set_down("startd@m0")  # machine dies silently; acks stop
            sim.run_until(sim.now + 400.0)  # > lease_duration of 120
            assert job.state is JobState.IDLE
            assert job.restarts == 1
        finally:
            set_retries(None)

    def test_lease_nack_recovers_job_immediately(self):
        from repro.condor.messages import LeaseAck
        from repro.protocols import set_retries

        set_retries(True)
        try:
            sim, net, ca, collector_inbox, machine_inbox = make_schedd()
            job = Job(owner="alice", total_work=100)
            ca.submit(job)
            self.run_to_running(ca, net, sim, job)
            net.send(
                LeaseAck(
                    sender="startd@m0", recipient=ca.address, match_id=5, ok=False
                )
            )
            sim.run_until(sim.now + 1.0)
            assert job.state is JobState.IDLE
        finally:
            set_retries(None)

