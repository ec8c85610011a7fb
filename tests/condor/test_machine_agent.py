"""Unit tests for the resource-owner agent (S14)."""

import pytest

from repro.classads import ClassAd, is_true
from repro.condor import Job, MachineSpec, MachineState
from repro.condor.machine import MachineAgent, OwnerModel
from repro.protocols import ClaimRequest, ticket_from_ad
from repro.sim import Network, RngStream, Simulator, Trace


class ScriptedOwner(OwnerModel):
    """Owner who arrives/leaves at scripted offsets (for deterministic tests)."""

    def __init__(self, first_arrival, active_for, idle_for=3600.0):
        self.first_arrival = first_arrival
        self.active_for = active_for
        self.idle_for = idle_for

    def first_event(self, rng):
        return False, self.first_arrival

    def active_duration(self, rng):
        return self.active_for

    def idle_duration(self, rng):
        return self.idle_for


def make_agent(spec=None, owner_model=None, advertise_interval=60.0):
    sim = Simulator()
    net = Network(sim, rng=RngStream(1), latency=0.01)
    trace = Trace()
    inbox = []
    net.register("collector@cm", inbox.append)
    net.register("schedd@alice", inbox.append)
    agent = MachineAgent(
        sim,
        net,
        spec or MachineSpec(name="m0", mips=100.0),
        collector_address="collector@cm",
        trace=trace,
        rng=RngStream(2),
        owner_model=owner_model,
        advertise_interval=advertise_interval,
    )
    agent.start()
    return sim, net, agent, inbox


def claim_request_for(agent, job, sim, ticket=None):
    ad = job.to_classad("schedd@alice", sim.now)
    return ClaimRequest(
        sender="schedd@alice",
        recipient=agent.address,
        customer_ad=ad,
        ticket=ticket if ticket is not None else agent.authority.current,
        match_id=99,
    )


class TestAdvertising:
    def test_periodic_ads_sent(self):
        sim, net, agent, inbox = make_agent(advertise_interval=60.0)
        sim.run_until(200.0)
        from repro.protocols import Advertisement, Refresh

        # The first ad is full and the unchanged periodic re-ads ride
        # the compact Refresh.
        ads = [m for m in inbox if isinstance(m, (Advertisement, Refresh))]
        assert len(ads) >= 3
        assert isinstance(ads[0], Advertisement)
        assert all(m.name == "machine.m0" for m in ads)

    def test_ad_contents(self):
        sim, net, agent, inbox = make_agent()
        ad = agent.build_ad()
        assert ad.evaluate("Type") == "Machine"
        assert ad.evaluate("Name") == "m0"
        assert ad.evaluate("State") == "Unclaimed"
        assert ad.evaluate("ContactAddress") == agent.address
        assert ticket_from_ad(ad) is not None

    def test_extra_attrs_included(self):
        spec = MachineSpec(name="m0", extra_attrs={"ResearchGroup": ["raman"]})
        sim, net, agent, inbox = make_agent(spec=spec)
        assert agent.build_ad().evaluate("ResearchGroup") == ["raman"]

    def test_daytime_wraps(self):
        sim, net, agent, inbox = make_agent()
        sim.run_until(86_400.0 + 100.0)
        assert agent.day_time == pytest.approx(100.0)


class TestOwnerDynamics:
    def test_owner_arrival_enters_owner_state(self):
        sim, net, agent, inbox = make_agent(owner_model=ScriptedOwner(100.0, 50.0))
        sim.run_until(120.0)
        assert agent.state is MachineState.OWNER
        assert agent.owner_active

    def test_owner_departure_returns_to_unclaimed(self):
        sim, net, agent, inbox = make_agent(owner_model=ScriptedOwner(100.0, 50.0))
        sim.run_until(200.0)
        assert agent.state is MachineState.UNCLAIMED

    def test_keyboard_idle_resets_on_activity(self):
        sim, net, agent, inbox = make_agent(owner_model=ScriptedOwner(100.0, 50.0))
        sim.run_until(99.0)
        assert agent.keyboard_idle == pytest.approx(99.0)
        sim.run_until(120.0)
        assert agent.keyboard_idle == 0.0
        sim.run_until(160.0)  # owner left at t=150
        assert agent.keyboard_idle == pytest.approx(10.0)

    def test_owner_state_ad_is_unmatchable(self):
        sim, net, agent, inbox = make_agent(owner_model=ScriptedOwner(100.0, 50.0))
        sim.run_until(120.0)
        ad = agent.build_ad()
        job = Job(owner="alice", total_work=10).to_classad("schedd@alice", sim.now)
        assert not is_true(ad.evaluate("Constraint", other=job))

    def test_ticket_revoked_while_owner_present(self):
        sim, net, agent, inbox = make_agent(owner_model=ScriptedOwner(100.0, 50.0))
        sim.run_until(120.0)
        assert agent.authority.current is None

    def test_load_avg_follows_owner(self):
        sim, net, agent, inbox = make_agent(owner_model=ScriptedOwner(100.0, 50.0))
        assert agent.load_avg < 0.3
        sim.run_until(120.0)
        assert agent.load_avg > 0.3


class TestClaiming:
    def test_valid_claim_accepted_and_job_runs(self):
        sim, net, agent, inbox = make_agent()
        sim.run_until(1.0)
        job = Job(owner="alice", total_work=100.0)  # 100s at 100 mips
        net.send(claim_request_for(agent, job, sim))
        sim.run_until(2.0)
        assert agent.state is MachineState.CLAIMED
        assert agent.claim is not None
        sim.run_until(200.0)
        assert agent.jobs_completed == 1
        assert agent.state is MachineState.UNCLAIMED
        from repro.condor.messages import JobCompleted

        # The raw inbox never acks, so the RA retries the notice;
        # every copy is identical (at-least-once delivery).
        done = [m for m in inbox if isinstance(m, JobCompleted)]
        assert len(done) >= 1
        assert len({(m.match_id, m.job_id) for m in done}) == 1
        assert done[0].work_done == pytest.approx(100.0, abs=1.0)

    def test_fast_machine_finishes_sooner(self):
        sim, net, agent, inbox = make_agent(spec=MachineSpec(name="m0", mips=200.0))
        sim.run_until(1.0)
        job = Job(owner="alice", total_work=100.0)
        net.send(claim_request_for(agent, job, sim))
        sim.run_until(60.0)  # 100 ref-seconds at 200 mips = 50s wall
        assert agent.jobs_completed == 1

    def test_bad_ticket_rejected(self):
        from repro.protocols import Ticket

        sim, net, agent, inbox = make_agent()
        sim.run_until(1.0)
        job = Job(owner="alice", total_work=10)
        bogus = Ticket("m0", 1, "forged")
        net.send(claim_request_for(agent, job, sim, ticket=bogus))
        sim.run_until(2.0)
        assert agent.state is MachineState.UNCLAIMED
        assert agent.claims_rejected == 1
        from repro.protocols import ClaimResponse

        responses = [m for m in inbox if isinstance(m, ClaimResponse)]
        assert responses and not responses[0].accepted
        assert responses[0].reason == "bad-ticket"

    def test_claim_rejected_when_owner_present(self):
        sim, net, agent, inbox = make_agent(owner_model=ScriptedOwner(10.0, 1000.0))
        sim.run_until(5.0)
        ticket = agent.authority.current  # valid now, revoked at t=10
        sim.run_until(20.0)
        job = Job(owner="alice", total_work=10)
        net.send(claim_request_for(agent, job, sim, ticket=ticket))
        sim.run_until(21.0)
        assert agent.claims_rejected == 1
        assert agent.state is MachineState.OWNER

    def test_owner_return_evicts_job(self):
        sim, net, agent, inbox = make_agent(owner_model=ScriptedOwner(50.0, 100.0))
        sim.run_until(1.0)
        job = Job(owner="alice", total_work=500.0, want_checkpoint=True)
        net.send(claim_request_for(agent, job, sim))
        sim.run_until(60.0)
        assert agent.state is MachineState.OWNER
        assert agent.evictions_owner == 1
        from repro.condor.messages import JobEvicted

        evictions = [m for m in inbox if isinstance(m, JobEvicted)]
        assert len(evictions) >= 1
        assert evictions[0].checkpointed
        # ~49s of work at reference speed before the owner returned.
        assert evictions[0].work_done == pytest.approx(49.0, abs=1.5)

    def test_eviction_without_checkpoint_flagged(self):
        sim, net, agent, inbox = make_agent(owner_model=ScriptedOwner(50.0, 100.0))
        sim.run_until(1.0)
        job = Job(owner="alice", total_work=500.0, want_checkpoint=False)
        net.send(claim_request_for(agent, job, sim))
        sim.run_until(60.0)
        from repro.condor.messages import JobEvicted

        evictions = [m for m in inbox if isinstance(m, JobEvicted)]
        assert evictions and not evictions[0].checkpointed

    def test_second_claim_with_equal_rank_rejected(self):
        sim, net, agent, inbox = make_agent()
        sim.run_until(1.0)
        net.send(claim_request_for(agent, Job(owner="alice", total_work=500.0), sim))
        sim.run_until(2.0)
        ticket = agent.authority.current
        net.send(claim_request_for(agent, Job(owner="bob", total_work=10.0), sim, ticket=ticket))
        sim.run_until(3.0)
        assert agent.claims_rejected == 1
        from repro.protocols import ClaimResponse

        rejected = [m for m in inbox if isinstance(m, ClaimResponse) and not m.accepted]
        assert rejected[0].reason == "already-claimed"


class TestRankPreemption:
    def preferential_spec(self):
        return MachineSpec(
            name="m0",
            rank='member(other.Owner, { "raman", "miron" }) * 10',
        )

    def test_higher_rank_customer_preempts(self):
        sim, net, agent, inbox = make_agent(spec=self.preferential_spec())
        sim.run_until(1.0)
        net.send(claim_request_for(agent, Job(owner="stranger", total_work=500.0), sim))
        sim.run_until(2.0)
        assert agent.claim.rank == 0.0
        ticket = agent.authority.current
        net.send(
            claim_request_for(agent, Job(owner="raman", total_work=100.0), sim, ticket=ticket)
        )
        sim.run_until(3.0)
        assert agent.evictions_preempted == 1
        assert agent.claim is not None
        assert agent.claim.job_ad.evaluate("Owner") == "raman"
        assert agent.claim.rank == 10.0

    def test_equal_rank_does_not_preempt(self):
        sim, net, agent, inbox = make_agent(spec=self.preferential_spec())
        sim.run_until(1.0)
        net.send(claim_request_for(agent, Job(owner="raman", total_work=500.0), sim))
        sim.run_until(2.0)
        ticket = agent.authority.current
        net.send(
            claim_request_for(agent, Job(owner="miron", total_work=10.0), sim, ticket=ticket)
        )
        sim.run_until(3.0)
        assert agent.evictions_preempted == 0
        assert agent.claim.job_ad.evaluate("Owner") == "raman"

    def test_claimed_ad_advertises_current_rank(self):
        sim, net, agent, inbox = make_agent(spec=self.preferential_spec())
        sim.run_until(1.0)
        net.send(claim_request_for(agent, Job(owner="raman", total_work=500.0), sim))
        sim.run_until(2.0)
        ad = agent.build_ad()
        assert ad.evaluate("State") == "Claimed"
        assert ad.evaluate("CurrentRank") == 10.0
        assert ad.evaluate("RemoteOwner") == "raman"


class TestClaimPathBuildsEachAdOnce:
    """One ad of the current state serves the preemption Rank, the claim
    check and the accepted claim's Rank; only an eviction in between —
    which changes the state — calls for another."""

    @staticmethod
    def counting(agent):
        builds = []
        real = agent.build_ad
        agent.build_ad = lambda: builds.append(agent.sim.now) or real()
        return builds

    def test_accepted_claim(self):
        sim, net, agent, inbox = make_agent()
        sim.run_until(1.0)
        builds = self.counting(agent)
        net.send(claim_request_for(agent, Job(owner="alice", total_work=500.0), sim))
        sim.run_until(2.0)
        assert agent.state is MachineState.CLAIMED
        # The claim's, and the Claimed-state advertisement's.
        assert len(builds) == 2

    def test_refused_and_rejected_claims(self):
        sim, net, agent, inbox = make_agent()
        sim.run_until(1.0)
        net.send(claim_request_for(agent, Job(owner="alice", total_work=500.0), sim))
        sim.run_until(2.0)
        builds = self.counting(agent)
        request = claim_request_for(agent, Job(owner="bob", total_work=10.0), sim)
        net.send(request)
        sim.run_until(3.0)
        assert agent.claims_rejected == 1 and len(builds) == 1
        net.send(request)  # a retransmit is answered from the replay cache
        sim.run_until(4.0)
        assert agent.claims_rejected == 1 and len(builds) == 1

    def test_preemptor_is_ranked_against_the_machine_after_the_eviction(self):
        spec = MachineSpec(
            name="m0",
            rank='member(other.Owner, { "raman" }) * 10 + (RemoteOwner is undefined ? 1 : 0)',
        )
        sim, net, agent, inbox = make_agent(spec=spec)
        sim.run_until(1.0)
        net.send(claim_request_for(agent, Job(owner="stranger", total_work=500.0), sim))
        sim.run_until(2.0)
        assert agent.claim.rank == 1.0
        builds = self.counting(agent)
        net.send(
            claim_request_for(
                agent, Job(owner="raman", total_work=100.0), sim, ticket=agent.authority.current
            )
        )
        sim.run_until(3.0)
        assert agent.evictions_preempted == 1
        # Ranked 10 while the stranger held the machine (enough to preempt),
        # 11 once it was evicted: the claim records the latter.
        assert agent.claim.rank == 11.0
        assert len(builds) == 3  # before the eviction, after it, the new ad

    def test_response_and_replay_key_carry_the_job_id(self):
        from repro.protocols import ClaimResponse

        sim, net, agent, inbox = make_agent()
        sim.run_until(1.0)
        job = Job(owner="alice", total_work=500.0)
        net.send(claim_request_for(agent, job, sim))
        sim.run_until(2.0)
        assert agent.claim.job_id == job.job_id
        assert list(agent._claim_verdicts) == [(99, "schedd@alice", job.job_id)]
        (event,) = agent.trace.of_kind("claim-response")
        assert (event.fields["job"], event.fields["match"]) == (job.job_id, 99)
        (response,) = [m for m in inbox if isinstance(m, ClaimResponse)]
        assert response.accepted and response.recipient == "schedd@alice"


class TestVacateGrace:
    def start_claim(self, agent, net, sim, memory=64, want_checkpoint=True):
        sim.run_until(1.0)
        job = Job(owner="alice", total_work=500.0, memory=memory,
                  want_checkpoint=want_checkpoint)
        net.send(claim_request_for(agent, job, sim))
        sim.run_until(2.0)
        assert agent.claim is not None

    def evictions(self, inbox):
        from repro.condor.messages import JobEvicted

        return [m for m in inbox if isinstance(m, JobEvicted)]

    def test_ample_grace_checkpoints(self):
        sim, net, agent, inbox = make_agent(owner_model=ScriptedOwner(50.0, 100.0))
        agent.vacate_grace = 60.0  # 64 MB at 10 MB/s = 6.4s << 60s
        self.start_claim(agent, net, sim, memory=64)
        sim.run_until(60.0)
        assert self.evictions(inbox)[0].checkpointed

    def test_insufficient_grace_loses_checkpoint(self):
        sim, net, agent, inbox = make_agent(owner_model=ScriptedOwner(50.0, 100.0))
        agent.vacate_grace = 5.0  # 64 MB needs 6.4s > 5s grace
        self.start_claim(agent, net, sim, memory=64)
        sim.run_until(60.0)
        assert not self.evictions(inbox)[0].checkpointed

    def test_small_jobs_still_fit_tight_grace(self):
        sim, net, agent, inbox = make_agent(owner_model=ScriptedOwner(50.0, 100.0))
        agent.vacate_grace = 5.0
        self.start_claim(agent, net, sim, memory=32)  # 3.2s <= 5s
        sim.run_until(60.0)
        assert self.evictions(inbox)[0].checkpointed

    def test_default_grace_is_unlimited(self):
        sim, net, agent, inbox = make_agent(owner_model=ScriptedOwner(50.0, 100.0))
        self.start_claim(agent, net, sim, memory=64)  # any size checkpoints
        sim.run_until(60.0)
        assert self.evictions(inbox)[0].checkpointed

    def test_non_checkpointing_job_unaffected(self):
        sim, net, agent, inbox = make_agent(owner_model=ScriptedOwner(50.0, 100.0))
        agent.vacate_grace = 1e9
        self.start_claim(agent, net, sim, want_checkpoint=False)
        sim.run_until(60.0)
        assert not self.evictions(inbox)[0].checkpointed


class TestCrashedAgentIsSilent:
    """A crashed resource agent is a dead process: its advertising timer
    may still fire, but it must send nothing and trace nothing until
    restart, and its first ad after restart must be a full one (crash
    forgot the fingerprint a Refresh would reference)."""

    def run_crash(self):
        from repro.protocols import Advertisement, Refresh

        sim, net, agent, inbox = make_agent(
            owner_model=ScriptedOwner(first_arrival=1.0, active_for=10_000.0),
            advertise_interval=60.0,
        )
        sent = []
        send = net.send

        def record(message):
            if isinstance(message, (Advertisement, Refresh)):
                sent.append((sim.now, message))
            send(message)

        net.send = record
        sim.schedule_at(100.0, agent.crash)
        sim.schedule_at(400.0, agent.restart)
        sim.run_until(500.0)
        assert agent.state is MachineState.OWNER
        return agent, sent

    def test_no_ads_or_advertise_events_while_crashed(self):
        agent, sent = self.run_crash()
        assert [t for t, _ in sent if 100.0 <= t < 400.0] == []
        advertised = [e.time for e in agent.trace.of_kind("advertise-machine")]
        assert [t for t in advertised if 100.0 <= t < 400.0] == []
        assert advertised[0] < 100.0 and advertised[-1] >= 400.0

    def test_first_message_after_an_owner_state_restart_is_a_full_ad(self):
        from repro.protocols import Advertisement, Refresh

        agent, sent = self.run_crash()
        after = [m for t, m in sent if t >= 400.0]
        assert isinstance(after[0], Advertisement)
        assert any(isinstance(m, Refresh) for m in after[1:])  # refreshes resume
