"""Protocol hardening under a lying network: retransmission, duplicate
suppression, claim leases, and the REPRO_NO_RETRY kill-switch.

These tests drive the agents directly (no chaos plan) to pin down each
hardening mechanism in isolation; tests/chaos/test_chaos_pool.py then
exercises them all together under the named fault profiles.
"""

import pytest

from repro.classads import ClassAd
from repro.condor import CondorPool, Job, MachineSpec, MachineState, PoolConfig
from repro.condor.machine import MachineAgent
from repro.condor.schedd import CustomerAgent
from repro.protocols import (
    BackoffPolicy,
    ClaimRequest,
    MatchNotification,
    Retransmitter,
    retries_enabled,
    set_retries,
)
from repro.sim import Network, RngStream, Simulator


@pytest.fixture()
def retries_on():
    """Guarantee the kill-switch state is restored after a test."""
    set_retries(True)
    yield
    set_retries(None)


class TestBackoffPolicy:
    def test_delays_grow_and_cap(self):
        policy = BackoffPolicy(base=5.0, factor=2.0, cap=12.0, jitter=0.0, max_tries=5)
        assert policy.delay(0) == 5.0
        assert policy.delay(1) == 10.0
        assert policy.delay(2) == 12.0  # capped
        assert policy.delay(3) == 12.0

    def test_jitter_stays_bounded_and_deterministic(self):
        policy = BackoffPolicy(base=10.0, factor=1.0, cap=10.0, jitter=0.5, max_tries=3)
        a = [policy.delay(0, rng=RngStream(4)) for _ in range(5)]
        b = [policy.delay(0, rng=RngStream(4)) for _ in range(5)]
        assert a == b
        assert all(10.0 <= d <= 15.0 for d in a)


class TestRetransmitter:
    def make(self, policy):
        sim = Simulator()
        net = Network(sim, latency=0.01)
        inbox = []
        net.register("b", inbox.append)
        return sim, net, inbox, Retransmitter(sim, net, policy=policy)

    @pytest.mark.usefixtures("retries_on")
    def test_retransmits_until_exhausted(self):
        policy = BackoffPolicy(base=1.0, factor=1.0, cap=1.0, jitter=0.0, max_tries=3)
        sim, net, inbox, retx = self.make(policy)
        retx.send(ClaimRequest(sender="a", recipient="b", customer_ad=None, ticket=None, match_id=1))
        sim.run_until(100.0)
        assert len(inbox) == 4  # original + 3 retries

    @pytest.mark.usefixtures("retries_on")
    def test_stop_when_halts_retries(self):
        policy = BackoffPolicy(base=1.0, factor=1.0, cap=1.0, jitter=0.0, max_tries=5)
        sim, net, inbox, retx = self.make(policy)
        done = []
        retx.send(
            ClaimRequest(sender="a", recipient="b", customer_ad=None, ticket=None, match_id=1),
            stop_when=lambda: bool(done),
        )
        sim.schedule_at(1.5, lambda: done.append(True))
        sim.run_until(100.0)
        assert len(inbox) == 2  # original + the one retry before stop_when

    @pytest.mark.usefixtures("retries_on")
    def test_retries_counted_by_kind_only_while_metrics_are_on(self):
        from repro.obs import metrics

        policy = BackoffPolicy(base=1.0, factor=1.0, cap=1.0, jitter=0.0, max_tries=2)
        request = ClaimRequest(
            sender="a", recipient="b", customer_ad=ClassAd({"Owner": "a"}), ticket=None, match_id=1
        )

        def run(kinds):
            sim, net, inbox, _ = self.make(policy)
            for kind in kinds:
                Retransmitter(sim, net, policy=policy, kind=kind).send(request)
            sim.run_until(100.0)

        sent, exhausted = metrics.get("retries.sent"), metrics.get("retries.exhausted")
        metrics.reset()
        metrics.enable()
        try:
            run(["claim-request", "claim-request", "advertisement"])
            assert sent.value(kind="claim-request") == 4
            assert sent.value(kind="advertisement") == 2
            assert exhausted.value(kind="claim-request") == 2
            assert exhausted.value(kind="advertisement") == 1
        finally:
            metrics.disable()
            metrics.reset()
        run(["claim-request"])
        assert sent.total == 0 and exhausted.total == 0

    def test_kill_switch_sends_exactly_once(self):
        policy = BackoffPolicy(base=1.0, factor=1.0, cap=1.0, jitter=0.0, max_tries=5)
        sim, net, inbox, retx = self.make(policy)
        set_retries(False)
        try:
            retx.send(ClaimRequest(sender="a", recipient="b", customer_ad=None, ticket=None, match_id=1))
            sim.run_until(100.0)
        finally:
            set_retries(None)
        assert len(inbox) == 1

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_RETRY", "1")
        set_retries(None)  # re-read the environment
        try:
            assert not retries_enabled()
        finally:
            monkeypatch.delenv("REPRO_NO_RETRY")
            set_retries(None)
        assert retries_enabled()


def make_claimed_machine(claim_lease=120.0, match_id=77, total_work=100_000.0):
    """A machine agent with one established claim from a fake schedd."""
    sim = Simulator()
    net = Network(sim, rng=RngStream(1), latency=0.01)
    net.register("collector@cm", lambda m: None)
    inbox = []
    net.register("schedd@alice", inbox.append)
    agent = MachineAgent(
        sim, net, MachineSpec(name="m0"), collector_address="collector@cm",
        rng=RngStream(2),
    )
    agent.claim_lease = claim_lease
    agent.start()
    sim.run_until(1.0)
    job = Job(owner="alice", total_work=total_work)
    request = ClaimRequest(
        sender="schedd@alice",
        recipient=agent.address,
        customer_ad=job.to_classad("schedd@alice", sim.now),
        ticket=agent.authority.current,
        match_id=match_id,
    )
    net.send(request)
    sim.run_until(2.0)
    assert agent.state is MachineState.CLAIMED
    return sim, net, agent, inbox, request


class TestDuplicateSuppression:
    def test_duplicate_claim_request_replays_the_accept(self):
        # A duplicated ClaimRequest must NOT be answered ALREADY_CLAIMED
        # against the very claim it created (nor rejected for its
        # consumed ticket) — the original verdict is replayed.
        sim, net, agent, inbox, request = make_claimed_machine()
        net.send(request)  # the network's duplicate
        sim.run_until(3.0)
        from repro.protocols import ClaimResponse

        responses = [m for m in inbox if isinstance(m, ClaimResponse)]
        assert len(responses) == 2
        assert all(r.accepted for r in responses)
        assert agent.claims_accepted == 1  # counted once, not twice

    def test_stale_accept_replay_downgraded(self):
        # Replaying an accept after the claim ended must not pretend the
        # job is still running there.
        sim, net, agent, inbox, request = make_claimed_machine(total_work=50.0)
        sim.run_until(200.0)  # job (50 ref-seconds at 100 MIPS) completes
        assert agent.claim is None
        inbox.clear()
        net.send(request)  # very late duplicate
        sim.run_until(250.0)
        from repro.protocols import ClaimResponse

        responses = [m for m in inbox if isinstance(m, ClaimResponse)]
        assert len(responses) == 1
        assert not responses[0].accepted
        assert responses[0].reason == "stale-claim"

    def test_duplicate_match_notification_yields_one_claim_request(self):
        sim = Simulator()
        net = Network(sim, latency=0.01)
        net.register("collector@cm", lambda m: None)
        machine_inbox = []
        net.register("startd@m0", machine_inbox.append)
        ca = CustomerAgent(
            sim, net, "alice", collector_address="collector@cm", rng=RngStream(3)
        )
        ca.start()
        job = Job(owner="alice", total_work=600.0)
        ca.submit(job)
        sim.run_until(1.0)
        scratch = Simulator()
        provider_ad = MachineAgent(
            scratch, Network(scratch), MachineSpec(name="m0"), collector_address="x"
        ).build_ad()
        notification = MatchNotification(
            sender="negotiator@cm",
            recipient=ca.address,
            peer_address="startd@m0",
            peer_ad=provider_ad,
            my_ad=job.to_classad(ca.address, sim.now),
            match_id=42,
        )
        net.send(notification)
        net.send(notification)  # duplicated in flight
        sim.run_until(3.0)
        requests = [m for m in machine_inbox if isinstance(m, ClaimRequest)]
        assert len(requests) == 1


class TestLeaseProtocol:
    def make_pool(self, **config_kwargs):
        specs = [MachineSpec(name=f"m{i}") for i in range(2)]
        pool = CondorPool(
            specs,
            config=PoolConfig(
                seed=5,
                advertise_interval=60.0,
                negotiation_interval=60.0,
                chaos=False,
                **config_kwargs,
            ),
        )
        return pool

    @pytest.mark.usefixtures("retries_on")
    def test_machine_crash_recovered_via_lease(self):
        # The machine dies mid-claim and never says goodbye; the CA must
        # notice (lease NACK after restart, or renewal silence) and
        # re-run the job elsewhere.
        pool = self.make_pool()
        job = Job(job_id=1, owner="alice", total_work=2_000.0)
        pool.submit(job)
        pool.start()
        pool.sim.run_until(120.0)
        assert job.state.name == "RUNNING"
        machine = pool.machines[job.running_on]
        machine.crash()
        pool.sim.schedule_at(400.0, machine.restart)
        finished = pool.run_until_quiescent(check_interval=60.0, max_time=20_000.0)
        assert job.done, f"job stranded in {job.state} at t={finished}"
        assert job.restarts >= 1

    def test_no_retry_strands_the_job_after_machine_crash(self):
        # Same scenario with the kill-switch thrown: nobody ever notices
        # the dead claim, the job hangs in RUNNING forever.
        pool = self.make_pool()
        job = Job(job_id=1, owner="alice", total_work=2_000.0)
        pool.submit(job)
        set_retries(False)
        try:
            pool.start()
            pool.sim.run_until(120.0)
            assert job.state.name == "RUNNING"
            machine = pool.machines[job.running_on]
            machine.crash()
            pool.sim.schedule_at(400.0, machine.restart)
            pool.sim.run_until(30_000.0)
        finally:
            set_retries(None)
        assert not job.done
        assert job.state.name == "RUNNING"  # stranded, demonstrably

    @pytest.mark.usefixtures("retries_on")
    def test_lease_renewals_extend_the_claim(self):
        sim, net, agent, inbox, request = make_claimed_machine(claim_lease=120.0)
        from repro.condor.messages import KeepAlive, LeaseAck

        sim.every(
            60.0,
            lambda: net.send(
                KeepAlive(sender="schedd@alice", recipient=agent.address, match_id=77)
            ),
        )
        sim.run_until(1_000.0)
        assert agent.state is MachineState.CLAIMED
        acks = [m for m in inbox if isinstance(m, LeaseAck)]
        assert acks and all(ack.ok for ack in acks)

    @pytest.mark.usefixtures("retries_on")
    def test_keepalive_for_unknown_claim_nacked(self):
        sim, net, agent, inbox, request = make_claimed_machine(claim_lease=120.0)
        from repro.condor.messages import KeepAlive, LeaseAck

        inbox.clear()
        net.send(
            KeepAlive(sender="schedd@alice", recipient=agent.address, match_id=999)
        )
        sim.run_until(3.0)
        nacks = [m for m in inbox if isinstance(m, LeaseAck) and not m.ok]
        assert len(nacks) == 1
        assert nacks[0].match_id == 999


class TestTeardownNotices:
    """Completion and eviction notices are resent by a Retransmitter
    (kind ``notice``) until the customer acks, so every resend shows in
    ``retries.sent`` like any other protocol retransmission."""

    @staticmethod
    def _completed_claim(drop_first, ack):
        from repro.condor.messages import JobCompleted, NoticeAck

        sim, net, agent, inbox, request = make_claimed_machine(total_work=10.0)
        send, dropped = net.send, []

        def lossy(message):
            if drop_first and isinstance(message, JobCompleted) and not dropped:
                dropped.append(message)
                return
            send(message)

        net.send = lossy
        if ack:

            def schedd(message):
                inbox.append(message)
                if isinstance(message, JobCompleted):
                    net.send(
                        NoticeAck(
                            sender=message.recipient,
                            recipient=message.sender,
                            match_id=message.match_id,
                        )
                    )

            net.register("schedd@alice", schedd)
        return sim, agent, inbox, dropped

    @pytest.mark.usefixtures("retries_on")
    def test_a_dropped_completion_is_resent_and_counted(self):
        from repro import obs
        from repro.condor.machine import NOTICE_POLICY
        from repro.condor.messages import JobCompleted

        obs.reset()
        obs.enable()
        try:
            sim, agent, inbox, dropped = self._completed_claim(drop_first=True, ack=True)
            sim.run_until(20.0 + 3 * NOTICE_POLICY.base)
            sent = obs.metrics.get("retries.sent")
            resends = sent.value(kind="notice")
        finally:
            obs.disable()
            obs.reset()
        completions = [m for m in inbox if isinstance(m, JobCompleted)]
        assert len(dropped) == 1 and completions == dropped  # the same object, resent once
        assert resends == 1
        assert not agent._pending_notices  # acked: the series stopped

    @pytest.mark.usefixtures("retries_on")
    def test_an_unacked_notice_is_resent_until_the_policy_runs_out(self):
        from repro import obs
        from repro.condor.machine import NOTICE_POLICY
        from repro.condor.messages import JobCompleted

        obs.reset()
        obs.enable()
        try:
            sim, agent, inbox, _ = self._completed_claim(drop_first=False, ack=False)
            sim.run_until(20.0 + (NOTICE_POLICY.max_tries + 5) * NOTICE_POLICY.base)
            resends = obs.metrics.get("retries.sent").value(kind="notice")
            exhausted = obs.metrics.get("retries.exhausted").value(kind="notice")
        finally:
            obs.disable()
            obs.reset()
        completions = [m for m in inbox if isinstance(m, JobCompleted)]
        assert len(completions) == 1 + NOTICE_POLICY.max_tries
        assert resends == NOTICE_POLICY.max_tries and exhausted == 1
        # The series gave up; the notice stays pending (unsent) until a crash.
        assert list(agent._pending_notices) == [completions[0].match_id]
        agent.crash()
        assert not agent._pending_notices


class TestLateClaimAccept:
    """An accept that reaches the customer after ``claim_timeout`` must be
    released: by then the job is idle again and may be claimed by a
    second machine.  With 20 s of network jitter and no chaos, seed 7
    lets a late accept from ``m0`` hold ``alice.8`` while ``m1`` runs it
    unless the customer answers with a ReleaseNotice."""

    @staticmethod
    def run_pool():
        """Run the scenario to completion, sampling every 10 s; return the
        (t, (owner, job), machines) of every sample that found a job in
        more than one machine's claim."""
        pool = CondorPool(
            [MachineSpec(name=f"m{i}", mips=100.0 + 50.0 * (i % 3)) for i in range(2)],
            config=PoolConfig(
                seed=7,
                advertise_interval=60.0,
                negotiation_interval=60.0,
                chaos=False,
                network_jitter=20.0,
            ),
        )
        jobs = [
            Job(job_id=j, owner="alice" if j % 2 == 0 else "bob",
                total_work=600.0 + 60.0 * (j % 5))
            for j in range(13)
        ]
        pool.submit_all(jobs, arrival_times=[5.0 * j for j in range(len(jobs))])
        double_held = []
        t = 0.0
        while len(pool.completed_jobs()) < len(jobs) and t < 20_000.0:
            t += 10.0
            pool.run_until(t)
            holders = {}
            for agent in pool.machines.values():
                if agent.claim is not None:
                    key = (agent.claim.owner, agent.claim.job_id)
                    holders.setdefault(key, []).append(agent.spec.name)
            double_held += [(t, key, names) for key, names in holders.items() if len(names) > 1]
        assert len(pool.completed_jobs()) == len(jobs)
        return double_held

    def test_no_job_is_held_by_two_machines(self):
        assert self.run_pool() == []

    @pytest.mark.parametrize("release_late_accepts", [False, True])
    def test_obs_check_sees_the_double_hold(self, monkeypatch, release_late_accepts):
        from repro import obs
        from repro.obs.invariants import check_events

        if not release_late_accepts:
            # The code path before the fix: a response with no pending
            # claim was dropped on the floor.
            handle = CustomerAgent._on_claim_response

            def drop_late(agent, response):
                if response.match_id in agent._pending:
                    handle(agent, response)

            monkeypatch.setattr(CustomerAgent, "_on_claim_response", drop_late)
        obs.reset()
        obs.enable(events=True)
        try:
            self.run_pool()
            events = list(obs.event_log.events())
        finally:
            obs.disable()
            obs.reset()
        report = check_events(events, require_complete=True)
        held = [v for v in report.violations if v.invariant == "job-double-held"]
        if release_late_accepts:
            assert report.ok, report.render()
        else:
            assert [v.job for v in held] == ["alice.8"]  # match ids are process-wide
            assert "machine 'm1' accepted" in held[0].detail
            assert "machine 'm0' still held it" in held[0].detail


class TestKillSwitchCheck:
    """CI's kill-switch negative check runs ``repro chaos cm-crash`` at
    seed 2 with and without ``--no-retry``: with retries every job
    completes, without them some are stranded.  A traffic change after
    which that seed no longer loses a message that only a retry
    recovers fails here, not only in CI."""

    @pytest.mark.parametrize("flags, code", [((), 0), (("--no-retry",), 1)])
    def test_cm_crash_seed_2_needs_retries(self, flags, code, capsys):
        from repro.cli import main

        assert main(["chaos", "cm-crash", "--seed", "2", *flags]) == code
        all_done = "jobs      : 16/16 completed" in capsys.readouterr().out
        assert all_done == (code == 0)
        assert retries_enabled()  # the CLI put the kill-switch back
