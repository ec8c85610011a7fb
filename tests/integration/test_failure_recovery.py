"""Integration: matchmaker statelessness ⇒ trivial crash recovery (E1).

Section 3.2: "The matchmaker does not need to retain any state about the
match, a fact that simplifies recovery in case of failure and makes the
system more scalable."

We crash the central manager (collector loses its entire ad store,
negotiator stops cycling), let it recover, and verify:

* running claims are untouched (claiming is end-to-end);
* the ad store is rebuilt purely by periodic re-advertisement;
* queued jobs eventually run with no recovery protocol of any kind.
"""

import pytest

from repro.condor import CondorPool, Job, MachineSpec, PoolConfig


def build_pool(n_machines=4, seed=11):
    specs = [MachineSpec(name=f"m{i}", mips=100.0) for i in range(n_machines)]
    return CondorPool(
        specs,
        PoolConfig(seed=seed, advertise_interval=60.0, negotiation_interval=60.0),
    )


class TestCentralManagerCrash:
    def test_jobs_complete_despite_mid_run_crash(self):
        pool = build_pool()
        for i in range(8):
            pool.submit(Job(owner="alice", total_work=400.0))
        pool.crash_central_manager(at=90.0, duration=300.0)
        pool.run_until_quiescent(check_interval=60.0, max_time=100_000.0)
        assert pool.metrics.jobs_completed == 8

    def test_running_jobs_survive_the_crash(self):
        # One long job is claimed before the crash and completes *during*
        # the outage: the claim never involved the matchmaker again.
        pool = build_pool(n_machines=1)
        pool.submit(Job(owner="alice", total_work=500.0))
        pool.crash_central_manager(at=120.0, duration=500.0)  # down 120-620
        pool.run_until(700.0)
        assert pool.metrics.jobs_completed == 1
        done = pool.trace.first("job-completed")
        crash = pool.trace.first("collector-crash")
        recover = pool.trace.first("collector-recover")
        assert crash.time < done.time < recover.time

    def test_ad_store_rebuilt_by_readvertisement_alone(self):
        pool = build_pool(n_machines=4)
        pool.start()
        pool.sim.run_until(100.0)
        assert len(pool.collector.store) >= 4
        pool.crash_central_manager(at=100.0, duration=120.0)
        pool.sim.run_until(221.0)  # recovered at 220
        # Within one advertising interval of recovery, all machines are back.
        pool.sim.run_until(300.0)
        assert len(pool.collector.machine_ads()) == 4

    def test_time_to_recover_bounded_by_advertising_interval(self):
        pool = build_pool(n_machines=4)
        pool.submit(Job(owner="alice", total_work=100.0), at=500.0)
        pool.crash_central_manager(at=90.0, duration=200.0)  # down 90–290
        pool.run_until_quiescent(check_interval=60.0, max_time=100_000.0)
        assert pool.metrics.jobs_completed == 1
        # The job submitted at t=500 must have been matched in the first
        # cycle after its ad arrived — recovery left no lingering damage.
        match = pool.trace.first("match")
        assert match.time < 700.0

    def test_no_matches_happen_while_down(self):
        pool = build_pool()
        for _ in range(4):
            pool.submit(Job(owner="alice", total_work=5_000.0))
        pool.crash_central_manager(at=30.0, duration=600.0)
        pool.start()
        pool.sim.run_until(600.0)
        matches = pool.trace.of_kind("match")
        assert all(not (30.0 <= m.time <= 630.0) for m in matches)


class TestMessageLossRobustness:
    def test_pool_completes_work_under_heavy_loss(self):
        """10% message loss: ads, notifications, claims and completions
        all get dropped, yet periodic re-advertisement and claim timeouts
        let every job finish (the soft-state argument)."""
        specs = [MachineSpec(name=f"m{i}") for i in range(4)]
        pool = CondorPool(
            specs,
            PoolConfig(
                seed=5,
                advertise_interval=60.0,
                negotiation_interval=60.0,
                network_loss=0.10,
                claim_timeout=20.0,
            ),
        )
        for _ in range(10):
            pool.submit(Job(owner="alice", total_work=300.0))
        pool.run_until_quiescent(check_interval=60.0, max_time=200_000.0)
        assert pool.metrics.jobs_completed == 10
        assert pool.net.stats.dropped_loss > 0  # the chaos actually happened

    def test_teardown_notices_are_retried_until_acked(self):
        """A lost JobCompleted would strand the job as RUNNING forever;
        the RA therefore retries teardown notices until the CA acks
        (Condor gets this from TCP; our network is datagram-like)."""
        from repro.condor.machine import NOTICE_POLICY, MachineAgent
        from repro.condor.messages import JobCompleted, NoticeAck
        from repro.protocols import ClaimRequest
        from repro.sim import Network, RngStream, Simulator

        sim = Simulator()
        net = Network(sim, rng=RngStream(1), latency=0.01)
        inbox = []
        net.register("collector@cm", lambda m: None)
        net.register("schedd@alice", inbox.append)
        agent = MachineAgent(
            sim, net, MachineSpec(name="m0"), collector_address="collector@cm",
            rng=RngStream(2),
        )
        agent.start()
        sim.run_until(1.0)
        job = Job(owner="alice", total_work=10.0)
        net.send(
            ClaimRequest(
                sender="schedd@alice",
                recipient=agent.address,
                customer_ad=job.to_classad("schedd@alice", sim.now),
                ticket=agent.authority.current,
                match_id=42,
            )
        )
        # The CA never acks (we registered a dumb inbox): the notice must
        # be resent every retry interval.
        sim.run_until(1.0 + 10.0 + 3 * NOTICE_POLICY.base + 1.0)
        completions = [m for m in inbox if isinstance(m, JobCompleted)]
        assert len(completions) >= 3
        # Once acked, retries stop.
        net.send(
            NoticeAck(sender="schedd@alice", recipient=agent.address, match_id=42)
        )
        sim.run_until(sim.now + 0.1)
        count_after_ack = len([m for m in inbox if isinstance(m, JobCompleted)])
        sim.run_until(sim.now + 5 * NOTICE_POLICY.base)
        assert (
            len([m for m in inbox if isinstance(m, JobCompleted)]) == count_after_ack
        )
