"""The assembled Condor pool — wiring for S12–S17.

:class:`CondorPool` builds the whole system of Figure 3 on one
simulator: a central manager (collector + negotiator), one
:class:`~repro.condor.machine.MachineAgent` per workstation, one
:class:`~repro.condor.schedd.CustomerAgent` per submitter, and the
network between them.  Benchmarks and integration tests drive scenarios
through it (submit jobs, crash the central manager, sweep advertising
intervals) and read the shared :class:`~repro.sim.PoolMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..matchmaking import Accountant
from ..matchmaking.match import DEFAULT_POLICY, MatchPolicy
from ..sim import Network, PoolMetrics, RngStream, Simulator, Trace, UtilizationTracker
from ..sim.chaos import ChaosController, ChaosPlan, chaos_profile
from .collector import Collector
from .jobs import Job
from .machine import MachineAgent, MachineSpec, OwnerModel
from .negotiator import Negotiator
from .schedd import CustomerAgent


@dataclass
class PoolConfig:
    """Timing and fault-model knobs for a pool simulation."""

    seed: int = 1
    advertise_interval: float = 300.0
    negotiation_interval: float = 300.0
    ad_lifetime: Optional[float] = None  # default: 3 × advertise interval
    claim_timeout: float = 30.0
    network_latency: float = 0.050
    network_jitter: float = 0.010
    network_loss: float = 0.0
    allow_preemption: bool = True
    advertise_on_state_change: bool = True
    use_index: bool = False
    with_session_key: bool = False
    priority_half_life: float = 3_600.0
    trace_enabled: bool = True
    #: Fault injection: a :class:`~repro.sim.chaos.ChaosPlan` or a profile
    #: name (``"lossy"``, ``"partition"``, ``"cm-crash"``); ``None`` or
    #: ``False`` runs clean.
    chaos: object = None
    chaos_horizon: float = 3_600.0


class CondorPool:
    """A complete simulated pool; the top-level experiment harness."""

    def __init__(
        self,
        machine_specs: Sequence[MachineSpec],
        config: Optional[PoolConfig] = None,
        owner_models: Optional[Dict[str, OwnerModel]] = None,
        policy: MatchPolicy = DEFAULT_POLICY,
        sim: Optional[Simulator] = None,
        net: Optional[Network] = None,
        rng: Optional[RngStream] = None,
        trace: Optional[Trace] = None,
        cm_name: str = "cm",
        flock_collectors: Sequence[str] = (),
    ):
        self.config = config or PoolConfig()
        cfg = self.config
        # sim/net/rng/trace may be shared with other pools (flocking).
        self.sim = sim if sim is not None else Simulator()
        self.rng = rng if rng is not None else RngStream(cfg.seed)
        self.trace = trace if trace is not None else Trace(enabled=cfg.trace_enabled)
        self.metrics = PoolMetrics()
        self.net = net if net is not None else Network(
            self.sim,
            rng=self.rng,
            latency=cfg.network_latency,
            jitter=cfg.network_jitter,
            loss=cfg.network_loss,
        )
        self.cm_name = cm_name
        self.flock_collectors = list(flock_collectors)
        self.accountant = Accountant(half_life=cfg.priority_half_life, now=self.sim.now)
        self.utilization = UtilizationTracker(
            capacity=len(machine_specs), _last_time=self.sim.now
        )

        self.collector = Collector(
            self.sim, self.net, trace=self.trace, address=f"collector@{cm_name}"
        )
        self.negotiator = Negotiator(
            self.sim,
            self.net,
            self.collector,
            trace=self.trace,
            address=f"negotiator@{cm_name}",
            cycle_interval=cfg.negotiation_interval,
            accountant=self.accountant,
            policy=policy,
            allow_preemption=cfg.allow_preemption,
            use_index=cfg.use_index,
            with_session_key=cfg.with_session_key,
            rng=self.rng.fork("negotiator"),
        )

        owner_models = owner_models or {}
        self.machines: Dict[str, MachineAgent] = {}
        for spec in machine_specs:
            agent = MachineAgent(
                self.sim,
                self.net,
                spec,
                collector_address=self.collector.address,
                trace=self.trace,
                rng=self.rng.fork(f"owner/{spec.name}"),
                owner_model=owner_models.get(spec.name),
                advertise_interval=cfg.advertise_interval,
                ad_lifetime=cfg.ad_lifetime,
                policy=policy,
                advertise_on_state_change=cfg.advertise_on_state_change,
                on_claim_started=self._claim_started,
                on_claim_ended=self._claim_ended,
            )
            self.machines[spec.name] = agent

        self.schedds: Dict[str, CustomerAgent] = {}
        self._started = False
        self._pending_submissions = 0
        self.chaos: Optional[ChaosController] = None
        self._arm_chaos(cfg)

    def _arm_chaos(self, cfg: PoolConfig) -> None:
        """Resolve ``cfg.chaos`` to a plan and attach it to the network."""
        spec = cfg.chaos
        if spec is None or spec is False:
            return
        if isinstance(spec, ChaosPlan):
            plan = spec
        elif isinstance(spec, str):
            plan = chaos_profile(spec, horizon=cfg.chaos_horizon)
        else:
            raise TypeError(f"unsupported chaos spec: {spec!r}")
        hooks = {
            "cm": (
                lambda: (self.collector.crash(), self.negotiator.crash()),
                lambda: (self.collector.recover(), self.negotiator.recover()),
            )
        }
        for agent in self.machines.values():
            hooks[agent.address] = (agent.crash, agent.restart)
        self.chaos = ChaosController(plan, rng=self.rng)
        self.chaos.arm(self.sim, self.net, crash_hooks=hooks)

    # -- accounting hooks ---------------------------------------------------

    def _claim_started(self, owner: str, machine: str) -> None:
        self.accountant.resource_claimed(owner, now=self.sim.now)
        self.utilization.claim(self.sim.now)

    def _claim_ended(self, owner: str, machine: str) -> None:
        self.accountant.resource_released(owner, now=self.sim.now)
        self.utilization.release(self.sim.now)

    # -- population -----------------------------------------------------------

    def schedd_for(self, owner: str) -> CustomerAgent:
        """The (lazily created) customer agent for *owner*."""
        agent = self.schedds.get(owner)
        if agent is None:
            agent = CustomerAgent(
                self.sim,
                self.net,
                owner,
                collector_address=self.collector.address,
                trace=self.trace,
                metrics=self.metrics,
                advertise_interval=self.config.advertise_interval,
                ad_lifetime=self.config.ad_lifetime,
                claim_timeout=self.config.claim_timeout,
                flock_collectors=self.flock_collectors,
                rng=self.rng.fork(f"ca/{owner}"),
            )
            self.schedds[owner] = agent
            if self._started:
                agent.start()
        return agent

    def submit(self, job: Job, at: Optional[float] = None) -> None:
        """Submit *job* now, or schedule its arrival for time *at*."""
        schedd = self.schedd_for(job.owner)
        if at is None:
            schedd.submit(job)
        else:
            self._pending_submissions += 1
            self.sim.schedule_at(at, self._arrive, (schedd, job))

    def _arrive(self, submission) -> None:
        schedd, job = submission
        self._pending_submissions -= 1
        schedd.submit(job)

    def submit_all(self, jobs: Sequence[Job], arrival_times: Optional[Sequence[float]] = None) -> None:
        if arrival_times is None:
            for job in jobs:
                self.submit(job)
            return
        if len(arrival_times) != len(jobs):
            raise ValueError("one arrival time per job required")
        for job, at in zip(jobs, arrival_times):
            self.submit(job, at=at)

    # -- execution ----------------------------------------------------------

    def start(self) -> None:
        """Arm every agent's timers (idempotent)."""
        if self._started:
            return
        self._started = True
        for machine in self.machines.values():
            machine.start()
        for schedd in self.schedds.values():
            schedd.start()

    def run_until(self, time: float) -> None:
        self.start()
        self.sim.run_until(time)

    def run_until_quiescent(
        self, check_interval: float = 300.0, max_time: float = 1e7
    ) -> float:
        """Run until every submitted job completed (or *max_time*).

        Returns the simulated completion time.
        """
        self.start()
        while self.sim.now < max_time:
            self.sim.run_until(self.sim.now + check_interval)
            if self._pending_submissions == 0 and all(
                s.unfinished() == 0 for s in self.schedds.values()
            ):
                return self.sim.now
        return self.sim.now

    # -- failure injection -----------------------------------------------------

    def crash_central_manager(self, at: float, duration: float) -> None:
        """Crash collector+negotiator at *at*, recover after *duration*.

        The collector loses its entire ad store (soft state); recovery is
        re-registration — the agents' periodic advertisements rebuild the
        rest without any recovery protocol (the E1 claim).
        """
        self.sim.schedule_at(at, self._cm_crash)
        self.sim.schedule_at(at + duration, self._cm_recover)

    def _cm_crash(self) -> None:
        self.collector.crash()
        self.negotiator.crash()

    def _cm_recover(self) -> None:
        self.collector.recover()
        self.negotiator.recover()

    def crash_schedd(self, owner: str, at: float, duration: Optional[float] = None) -> None:
        """Crash *owner*'s customer agent at *at*; revive after *duration*
        (None = never).  While down, its keep-alives stop, so machines
        running its jobs reclaim themselves when the claim lease lapses.
        """
        schedd = self.schedd_for(owner)
        self.sim.schedule_at(at, self.net.set_down, schedd.address)
        if duration is not None:
            self.sim.schedule_at(at + duration, self.net.revive, schedd.address)

    # -- reporting ----------------------------------------------------------

    def jobs(self) -> List[Job]:
        out: List[Job] = []
        for schedd in self.schedds.values():
            out.extend(schedd.jobs.values())
        return out

    def completed_jobs(self) -> List[Job]:
        return [job for job in self.jobs() if job.done]

    def preemption_count(self) -> int:
        """Total Rank preemptions across the pool (feeds metrics at report
        time; machines count them as they happen)."""
        count = sum(m.evictions_preempted for m in self.machines.values())
        self.metrics.preemptions = count
        return count

    def machine_share_by_owner(self) -> Dict[str, float]:
        """Fraction of total delivered CPU-work per submitter (for E4)."""
        totals: Dict[str, float] = {}
        for job in self.jobs():
            done = job.completed_work if not job.done else job.total_work
            totals[job.owner] = totals.get(job.owner, 0.0) + done
        grand = sum(totals.values())
        if grand == 0:
            return {owner: 0.0 for owner in totals}
        return {owner: value / grand for owner, value in totals.items()}
