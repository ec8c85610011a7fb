"""End-to-end chaos runs: every named profile must deliver all jobs and
leave a recorded event stream that passes the protocol invariants.

This is the acceptance scenario of the robustness work: sustained loss,
duplication, asymmetric partitions, a mid-run central-manager outage,
and a machine crash — and still no lost jobs, no double-booked
machines, no double-claimed jobs, deterministically per seed.
"""

import pytest

from repro import obs
from repro.condor import CondorPool, Job, MachineSpec, PoolConfig
from repro.obs.invariants import check_events
from repro.sim.chaos import PROFILES, chaos_profile


def run_profile(name, horizon=3600.0, machines=5, jobs=12):
    """One recorded pool run under profile *name*; returns
    (pool, completion_time, recorded_events)."""
    plan = chaos_profile(name, horizon=horizon)
    obs.reset()
    obs.enable(events=True)
    try:
        specs = [
            MachineSpec(name=f"m{i}", mips=100.0 + 50.0 * (i % 3))
            for i in range(machines)
        ]
        pool = CondorPool(
            specs,
            config=PoolConfig(
                seed=plan.seed,
                advertise_interval=60.0,
                negotiation_interval=60.0,
                chaos=plan,
                chaos_horizon=horizon,
            ),
        )
        batch = [
            Job(
                job_id=j,
                owner="alice" if j % 2 == 0 else "bob",
                total_work=600.0 + 60.0 * (j % 5),
            )
            for j in range(jobs)
        ]
        pool.submit_all(batch, arrival_times=[5.0 * j for j in range(len(batch))])
        finished = pool.run_until_quiescent(check_interval=60.0, max_time=8.0 * horizon)
        events = list(obs.event_log.events())
    finally:
        obs.disable()
        obs.reset()
    return pool, finished, events


class TestProfilesComplete:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_all_jobs_complete_and_invariants_hold(self, profile):
        pool, finished, events = run_profile(profile)
        batch = pool.jobs()
        assert all(job.done for job in batch), (
            f"{sum(not j.done for j in batch)} job(s) stranded under "
            f"{profile} at t={finished}"
        )
        report = check_events(events, require_complete=True)
        assert report.ok, "\n".join(str(v) for v in report.violations)

    def test_chaos_actually_injected_faults(self):
        pool, _, events = run_profile("partition")
        assert pool.net.stats.dropped_partition > 0
        assert pool.net.stats.duplicated > 0
        kinds = {e.kind for e in events}
        assert "net.partition" in kinds

    def test_cm_crash_profile_crashes_daemons(self):
        pool, _, events = run_profile("cm-crash")
        crash_targets = {
            e.fields.get("target") for e in events if e.kind == "chaos.crash"
        }
        assert crash_targets == {"cm", "startd@m0"}
        assert any(e.kind == "machine-crash" for e in events)


class TestDeterminism:
    def test_same_profile_same_seed_same_run(self):
        pool_a, finished_a, events_a = run_profile("lossy")
        pool_b, finished_b, events_b = run_profile("lossy")
        assert finished_a == finished_b
        assert pool_a.net.stats == pool_b.net.stats
        assert [(e.t, e.kind) for e in events_a] == [(e.t, e.kind) for e in events_b]

    def test_env_hook_drives_the_pool(self, monkeypatch):
        # REPRO_CHAOS no longer arms a pool: with it set, an unset ``chaos``
        # runs clean, and only the config's own profile injects faults.
        monkeypatch.setenv("REPRO_CHAOS", "lossy")
        pool = CondorPool(
            [MachineSpec(name="m0")],
            config=PoolConfig(seed=1, chaos=None),
        )
        assert pool.chaos is None
        pool = CondorPool(
            [MachineSpec(name="m0")],
            config=PoolConfig(seed=1, chaos="partition"),
        )
        assert pool.chaos is not None
        assert pool.chaos.plan.name == "partition"

    def test_chaos_false_suppresses_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "lossy")
        pool = CondorPool(
            [MachineSpec(name="m0")],
            config=PoolConfig(seed=1, chaos=False),
        )
        assert pool.chaos is None
