"""The four pool workloads and the checks every run of them must pass.

Each workload is one whole ``CondorPool`` (paper sections 3.2 and 4): the
Figure-1 policy pool with owners ``u0..u7`` — ``[u0,u1]`` and ``[u2,u3]``
are research groups, ``u4,u5`` friends, ``u6`` a stranger, ``u7``
untrusted and therefore never matchable, so its jobs keep the negotiator
rejecting every cycle.  The workloads differ only in the properties the
program's behaviour depends on: whether ads change, how deep the request
queue is, whether the index is on, and whether the network misbehaves.

``repro`` is imported inside :func:`build`, so the driver can read the
definitions without the package and the child's set-up time includes the
import.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass, replace
from typing import Dict, List

OWNERS = tuple(f"u{i}" for i in range(8))
GROUPS = (("u0", "u1"), ("u2", "u3"))
FRIENDS = ("u4", "u5")
UNTRUSTED = "u7"

WARMUP_S = 1800.0  # six advertising rounds before the window opens
STEP_S = 300.0  # one advertising period and one negotiation cycle
STEPS = 120  # ten simulated hours

#: The machine mix and the job mix are drawn from this fixed seed on every
#: run; ``--seed`` drives the order machines and jobs come in and everything
#: that happens over time (arrival times, owners coming and going, loss,
#: jitter, retry timing).  With the
#: composition drawn from ``--seed`` too, how long the rare-platform queue
#: lasts moved ``backlog-drain``'s window by +-10% from seed to seed at
#: these sizes - more than any bound a regression is judged by.
MIX_SEED = 1998

#: Job arrivals are spread over this share of the window (its first five
#: simulated hours, 01:30 to 06:30 by the pool's clock).  Strangers are shut
#: out from 08:00, so a ``u6`` job that arrives much later can be evicted
#: and then wait until 18:00, past the window's end: with arrivals over
#: two-thirds of the window one seed in ten left such a job unfinished.
ARRIVAL_SHARE = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    machines: int
    jobs_per_owner: int = 0
    arrivals: str = "none"  # "none", "burst" (all at warm-up + 1 s) or "poisson"
    churn: bool = False  # owners come and go, so ads change
    use_index: bool = False
    loss: float = 0.0
    jitter: float = 0.0
    trace: bool = False  # the program's own Trace sink, not our spans

    def scaled(self, machines: int) -> "Workload":
        """The same shape at another size: jobs scale with machines."""
        jobs = round(self.jobs_per_owner * machines / self.machines)
        return replace(self, machines=machines, jobs_per_owner=jobs)


# Sizes are the issue's divided by 2.5 (machines and jobs together), which
# is what the contract's cap on total run time leaves room for.
# backlog-drain is cut to a quarter of the machines and half the jobs
# instead: at three jobs per machine the queue drains in 8 steps, so the
# p90 step (13th slowest) sat on the cliff between the two regimes; at six
# it takes 17 and the p90 lies on the plateau.  See README.md, "Sizes".
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "idle-refresh",
            "no jobs, nothing changes: steady soft-state refresh traffic, "
            "network fast path, negotiator idle - the advertising plane alone",
            machines=1200,
        ),
        Workload(
            "backlog-drain",
            "a deep queue arrives at once: the negotiator drains it, then "
            "rejects u7's jobs against every provider each cycle; advertising is a small share",
            machines=200,
            jobs_per_owner=150,
            arrivals="burst",
        ),
        Workload(
            "churn-index",
            "owners come and go so ads change: full advertisements, validation, "
            "store inserts, fingerprints and index deltas instead of refreshes",
            machines=400,
            jobs_per_owner=120,
            arrivals="poisson",
            churn=True,
            use_index=True,
        ),
        Workload(
            "lossy-retry",
            "5% loss and jitter with the Trace sink on: network slow path, "
            "retransmits, claim time-outs, resyncs; bypasses the network fast path",
            machines=320,
            jobs_per_owner=120,
            arrivals="poisson",
            loss=0.05,
            jitter=0.010,
            trace=True,
        ),
    )
}


def build(workload: Workload, seed: int, steps: int = STEPS):
    """A started-but-not-run pool with the workload's jobs submitted."""
    from repro.condor import (
        CondorPool,
        JobProfile,
        PoissonOwner,
        PoolConfig,
        generate_jobs,
        generate_policy_pool,
        poisson_arrival_times,
    )
    from repro.sim.rng import RngStream

    mix = RngStream(MIX_SEED)
    order = RngStream(seed).fork("order")
    specs = generate_policy_pool(
        mix.fork("pool"),
        workload.machines,
        groups=GROUPS,
        friends=FRIENDS,
        untrusted=(UNTRUSTED,),
    )
    order.shuffle(specs)
    owner_models = None
    if workload.churn:
        owner_models = {
            spec.name: PoissonOwner(mean_active=600.0, mean_idle=1800.0)
            for spec in specs
        }
    pool = CondorPool(
        specs,
        PoolConfig(
            seed=seed,
            chaos=False,
            network_loss=workload.loss,
            network_jitter=workload.jitter,
            use_index=workload.use_index,
            trace_enabled=workload.trace,
        ),
        owner_models=owner_models,
    )
    if workload.jobs_per_owner:
        # A shorter window (the smoke run) gets proportionally shorter jobs,
        # so that every matchable job still finishes inside it.
        profile = JobProfile(mean_work=JobProfile().mean_work * steps / STEPS)
        per_owner = [
            generate_jobs(mix.fork(f"jobs/{owner}"), owner, workload.jobs_per_owner, profile)
            for owner in OWNERS
        ]
        for batch in per_owner:
            order.shuffle(batch)
        # Round-robin over the owners, so each owner's jobs span the stream.
        jobs = [job for batch in zip(*per_owner) for job in batch]
        if workload.arrivals == "burst":
            times = [WARMUP_S + 1.0] * len(jobs)
        else:
            rate = len(jobs) / (ARRIVAL_SHARE * steps * STEP_S)
            times = poisson_arrival_times(
                RngStream(seed).fork("arrivals"), len(jobs), rate, start=WARMUP_S
            )
        pool.submit_all(jobs, times)
    pool.start()
    return pool


# -- output checks ---------------------------------------------------------


class Checker:
    """Counts attempted and failed operations and protocol violations.

    ``at_step`` runs at every step boundary, outside the timed part.
    """

    def __init__(self, workload: Workload, pool, steps: int):
        self.workload = workload
        self.pool = pool
        self.steps = steps
        self.missing_ads = 0
        self.violations: List[str] = []

    def _violation(self, text: str) -> None:
        if len(self.violations) < 20:
            self.violations.append(text)

    def at_step(self, step: int) -> None:
        pool = self.pool
        stored = len(pool.collector.machine_ads())
        if stored != self.workload.machines:
            self.missing_ads += abs(self.workload.machines - stored)
        held: Dict[int, str] = {}
        for name, machine in pool.machines.items():
            claim = machine.claim
            if claim is None:
                continue
            other = held.setdefault(claim.job_id, name)
            if other != name:
                self._violation(f"step {step}: job {claim.job_id} held by {other} and {name}")

    def finish(self) -> Dict[str, int]:
        """Attempted and failed operations for the whole run."""
        pool, workload = self.pool, self.workload
        jobs = pool.jobs()
        names = [str(ad.evaluate("Name")) for ad in pool.collector.machine_ads()]
        if sorted(names) != sorted(pool.machines):
            self._violation(
                f"collector holds {len(names)} machine ads ({len(set(names))} distinct) "
                f"for {len(pool.machines)} machines"
            )
        completed = len(pool.completed_jobs())
        if pool.metrics.jobs_completed != completed:
            self._violation(
                f"PoolMetrics.jobs_completed={pool.metrics.jobs_completed} "
                f"but {completed} jobs are in the completed state"
            )
        done_events = Counter(e.fields["job"] for e in pool.trace.of_kind("job-done"))
        for job, count in done_events.items():
            if count > 1:
                self._violation(f"job {job} completed {count} times")
        for job in jobs:
            if job.owner == UNTRUSTED and (job.first_start_time is not None or job.done):
                self._violation(f"untrusted job {job.job_id} ran")
        matchable = [job for job in jobs if job.owner != UNTRUSTED]
        if matchable:
            attempted = len(matchable)
            failed = sum(1 for job in matchable if not job.done)
        else:
            attempted = workload.machines * self.steps
            failed = 0
        return {
            "attempted": attempted,
            "failed": failed + self.missing_ads + len(self.violations),
        }


def modelled_counts(pool) -> Dict[str, float]:
    """The simulated statistics: exact for a seed, never ranked."""
    m = pool.metrics
    return {
        "condor.pool.jobs_completed": m.jobs_completed,
        "condor.pool.claims_attempted": m.claims_attempted,
        "condor.pool.claims_rejected": m.claims_rejected,
        "condor.pool.evictions": m.evictions,
        "condor.pool.goodput_share": m.goodput_fraction,
        "condor.pool.wait_mean_s": m.wait_time.mean,
        "condor.pool.turnaround_mean_s": m.turnaround.mean,
        "condor.negotiator.cycles": pool.negotiator.cycles_run,
        "condor.negotiator.matches": pool.negotiator.total_matches,
        "sim.engine.events": pool.sim.events_processed,
        "sim.network.delivered": pool.net.stats.delivered,
        "sim.network.dropped_loss": pool.net.stats.dropped_loss,
        "sim.network.duplicated": pool.net.stats.duplicated,
        "sim.trace.events": len(pool.trace),
    }


def outcome_digest(pool) -> str:
    """sha256 over everything the simulation decided.

    A finished job no longer names its machine, so the machine side is
    covered by every machine's own outcome counters instead.
    """
    jobs = sorted(
        (
            job.job_id,
            job.owner,
            job.state.value,
            job.submit_time,
            job.first_start_time,
            job.completion_time,
            job.matches,
            job.evictions,
            job.restarts,
            job.claim_rejections,
        )
        for job in pool.jobs()
    )
    machines = sorted(
        (
            name,
            m.state.value,
            m.jobs_completed,
            m.claims_accepted,
            m.claims_rejected,
            m.evictions_owner,
            m.evictions_preempted,
            m.evictions_lease,
        )
        for name, m in pool.machines.items()
    )
    outcome = {
        "jobs": jobs,
        "machines": machines,
        "pool_metrics": pool.metrics.to_dict(),
        "negotiator": [pool.negotiator.cycles_run, pool.negotiator.total_matches],
        "network": asdict(pool.net.stats),
        "events": pool.sim.events_processed,
        "trace_events": len(pool.trace),
    }
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
