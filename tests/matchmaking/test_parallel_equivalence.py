"""Differential tests for the parallel scoring tier (PR 7).

The contract under test: a cycle that fans candidate scoring out to
worker processes is *bit-for-bit identical* to the serial engine —
same assignments, same preemptions, same fair-share outcomes, same
``repro-events/1`` forensic stream — because workers only evaluate
pure (class, provider) pairings and the parent commits serially in
the same order.  Also under test: the kill-switch, the
threshold fallback, dead-pool degradation, and determinism of two
same-seed chaos recordings with workers enabled.
"""

import json

import pytest
from hypothesis import given, settings

from repro.cli import main
from repro.matchmaking import Accountant, ProviderIndex
from repro.matchmaking import parallel as par
from repro.obs import event_log

from tests.matchmaking.test_batch_equivalence import (
    VARIABLE_FIELDS,
    assignment_key,
    build,
    machine,
    machines_strategy,
    request,
    requests_strategy,
    run_cycle,
)


@pytest.fixture(autouse=True)
def _worker_pool():
    """Force a 2-worker pool with no fallback threshold, restore after."""
    prev_workers = par.scoring_workers()
    prev_threshold = par.pair_threshold()
    prev_enabled = par.parallelism_enabled()
    par.set_parallelism(True)
    par.set_scoring_workers(2)
    par.set_pair_threshold(0)
    yield
    par.set_scoring_workers(prev_workers)
    par.set_pair_threshold(prev_threshold)
    par.set_parallelism(prev_enabled)
    par.shutdown_scoring_pool()


def run_pair(providers, grouped, use_index=False, accountant=None,
             allow_preemption=True):
    """(serial assignments, parallel assignments) for one scenario."""
    serial, _ = run_cycle(
        providers, grouped, batch=True, use_index=use_index,
        accountant=accountant() if callable(accountant) else None,
        allow_preemption=allow_preemption,
    )
    # run_cycle drives negotiation_cycle with the module switches in
    # effect; the fixture guarantees workers are on for this call.
    parallel, _ = run_cycle(
        providers, grouped, batch=True, use_index=use_index,
        accountant=accountant() if callable(accountant) else None,
        allow_preemption=allow_preemption,
    )
    return serial, parallel


def scenario():
    """A handcrafted pool covering every disposition: matches, taken,
    unavailable, preemption (allowed/disabled/rank-blocked), constraint
    rejection, unmatched jobs."""
    providers = [
        machine("m1", memory=128),
        machine("m2", memory=64, state="Claimed", current_rank=5.0,
                remote_owner="alice", rank='other.Owner == "bob" ? 10 : 0'),
        machine("m3", memory=256, state="Claimed", current_rank=100.0,
                remote_owner="bob"),
        machine("m4", memory=32),
        machine("m5", memory=512, state="Owner"),
        machine("picky", memory=96, constraint='other.Owner == "vip"'),
    ]
    grouped = {
        "alice": [request("alice", 1), request("alice", 2),
                  request("alice", 3, memory=48)],
        "bob": [request("bob", 4), request("bob", 5, memory=200)],
        "vip": [request("vip", 6, memory=48), request("vip", 7, memory=48)],
    }
    return providers, grouped


def fair_share_accountant(owners=("alice", "bob", "vip")):
    acc = Accountant(half_life=100.0)
    for i, owner in enumerate(owners):
        acc.record(owner)
        for _ in range(i * 2):
            acc.resource_claimed(owner)
    acc.advance_to(50.0)
    return acc


class TestParallelEqualsSerial:
    def test_handcrafted_scenario_all_dispositions(self):
        providers, grouped = scenario()
        for use_index in (False, True):
            serial, _ = run_cycle(providers, grouped, batch=True,
                                  use_index=use_index)
            par.set_parallelism(False)
            try:
                off, _ = run_cycle(providers, grouped, batch=True,
                                   use_index=use_index)
            finally:
                par.set_parallelism(True)
            assert assignment_key(serial) == assignment_key(off)

    def test_preemption_disabled_matches(self):
        providers, grouped = scenario()
        with_workers, _ = run_cycle(providers, grouped, batch=True,
                                    use_index=False, allow_preemption=False)
        par.set_parallelism(False)
        try:
            serial, _ = run_cycle(providers, grouped, batch=True,
                                  use_index=False, allow_preemption=False)
        finally:
            par.set_parallelism(True)
        assert assignment_key(with_workers) == assignment_key(serial)

    def test_fair_share_outcomes_match(self):
        providers, grouped = scenario()
        with_workers, _ = run_cycle(
            providers, grouped, batch=True, use_index=False,
            accountant=fair_share_accountant(),
        )
        par.set_parallelism(False)
        try:
            serial, _ = run_cycle(
                providers, grouped, batch=True, use_index=False,
                accountant=fair_share_accountant(),
            )
        finally:
            par.set_parallelism(True)
        assert assignment_key(with_workers) == assignment_key(serial)

    def test_scoring_actually_engaged_workers(self):
        providers, grouped = scenario()
        from repro.matchmaking import CycleStats, negotiation_cycle
        stats = CycleStats()
        negotiation_cycle(grouped, providers, stats=stats, batch=True)
        assert stats.parallel_pairs_scored > 0
        assert stats.parallel_chunks > 0

    @given(machines_strategy, requests_strategy)
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_pools_match(self, machine_params, request_params):
        providers, grouped = build(machine_params, request_params)
        with_workers, _ = run_cycle(providers, grouped, batch=True,
                                    use_index=False)
        par.set_parallelism(False)
        try:
            serial, _ = run_cycle(providers, grouped, batch=True,
                                  use_index=False)
        finally:
            par.set_parallelism(True)
        assert assignment_key(with_workers) == assignment_key(serial)

    @given(machines_strategy, requests_strategy)
    @settings(max_examples=15, deadline=None)
    def test_hypothesis_pools_match_indexed(self, machine_params, request_params):
        providers, grouped = build(machine_params, request_params)
        with_workers, _ = run_cycle(providers, grouped, batch=True,
                                    use_index=True)
        par.set_parallelism(False)
        try:
            serial, _ = run_cycle(providers, grouped, batch=True,
                                  use_index=True)
        finally:
            par.set_parallelism(True)
        assert assignment_key(with_workers) == assignment_key(serial)


class TestEventStreamParity:
    def _events_of(self, providers, grouped, parallel, use_index=False):
        event_log.reset()
        event_log.enable()
        try:
            par.set_parallelism(parallel)
            run_cycle(providers, grouped, batch=True, use_index=use_index,
                      accountant=fair_share_accountant())
            return [
                (
                    e.kind,
                    tuple(sorted(
                        (k, v) for k, v in e.fields.items()
                        if k not in VARIABLE_FIELDS
                    )),
                )
                for e in event_log.events()
            ]
        finally:
            par.set_parallelism(True)
            event_log.disable()
            event_log.reset()

    def test_streams_identical(self):
        providers, grouped = scenario()
        for use_index in (False, True):
            serial = self._events_of(providers, grouped, False, use_index)
            parallel = self._events_of(providers, grouped, True, use_index)
            assert serial == parallel
            kinds = {kind for kind, _ in serial}
            # the scenario must actually exercise the interesting paths
            assert {"match.made", "match.reject", "cycle.end"} <= kinds

    def test_cycle_end_reports_worker_engagement(self):
        providers, grouped = scenario()
        event_log.reset()
        event_log.enable()
        try:
            run_cycle(providers, grouped, batch=True, use_index=False)
            (end,) = [e for e in event_log.events() if e.kind == "cycle.end"]
        finally:
            event_log.disable()
            event_log.reset()
        assert end.fields["workers"] == 2
        assert end.fields["chunks"] > 0


class TestKillSwitchAndFallback:
    def test_kill_switch_routes_serial(self):
        providers, grouped = scenario()
        par.set_parallelism(False)
        try:
            from repro.matchmaking import CycleStats, negotiation_cycle
            stats = CycleStats()
            negotiation_cycle(grouped, providers, stats=stats, batch=True)
            assert stats.parallel_pairs_scored == 0
            assert stats.parallel_chunks == 0
        finally:
            par.set_parallelism(True)

    def test_per_cycle_parallel_override_beats_module_switch(self):
        providers, grouped = scenario()
        from repro.matchmaking import CycleStats, negotiation_cycle
        par.set_parallelism(False)
        try:
            stats = CycleStats()
            negotiation_cycle(grouped, providers, stats=stats, batch=True,
                              parallel=True)
            assert stats.parallel_pairs_scored > 0
        finally:
            par.set_parallelism(True)
        stats = CycleStats()
        negotiation_cycle(grouped, providers, stats=stats, batch=True,
                          parallel=False)
        assert stats.parallel_pairs_scored == 0

    def test_threshold_fallback_scores_serially(self):
        providers, grouped = scenario()
        par.set_pair_threshold(10_000)  # pools far below this bar
        try:
            from repro.matchmaking import CycleStats, negotiation_cycle
            stats = CycleStats()
            assignments = negotiation_cycle(grouped, providers, stats=stats,
                                            batch=True)
            assert stats.parallel_pairs_scored == 0
            assert stats.parallel_fallbacks > 0
        finally:
            par.set_pair_threshold(0)
        par.set_parallelism(False)
        try:
            serial, _ = run_cycle(providers, grouped, batch=True,
                                  use_index=False)
        finally:
            par.set_parallelism(True)
        assert assignment_key(assignments) == assignment_key(serial)

    def test_threshold_counts_distinct_views_not_pairs(self):
        """What fanning out saves is the serial scorer's evaluations, and
        it makes one per distinct provider view: 40 providers showing a
        request four views stay in-process under a bar of 8, 40 showing
        it 40 views clear the same bar — and an opaque view (an observed
        attribute bound to an expression) counts as its own."""
        from repro.matchmaking import CycleStats, negotiation_cycle
        grouped = {"alice": [request("alice", i, memory=48) for i in range(3)]}
        pools = {
            "regular": [
                machine(f"m{i}", "INTEL" if i % 2 else "SPARC", 64 if i % 4 < 2 else 128)
                for i in range(40)
            ],
            "irregular": [machine(f"m{i}", memory=64 + i) for i in range(40)],
            "opaque": [machine(f"m{i}") for i in range(40)],
        }
        for ad in pools["opaque"]:
            ad.set_expr("Memory", "32 * 2")
        par.set_pair_threshold(8)
        try:
            for label, providers in pools.items():
                stats = CycleStats()
                assignments = negotiation_cycle(grouped, providers, stats=stats, batch=True)
                if label == "regular":
                    assert stats.parallel_pairs_scored == 0
                    assert stats.parallel_fallbacks == 1
                else:
                    assert stats.parallel_pairs_scored == 40
                    assert stats.parallel_fallbacks == 0
                serial, _ = run_cycle(providers, grouped, batch=False, use_index=False)
                assert assignment_key(assignments) == assignment_key(serial), label
        finally:
            par.set_pair_threshold(0)

    def test_dead_pool_degrades_to_serial(self):
        providers, grouped = scenario()
        pool = par.scoring_pool()
        assert pool is not None and pool.ping()
        pool.close()  # simulate a crashed pool mid-flight
        pool.alive = False
        from repro.matchmaking import CycleStats, negotiation_cycle
        # scoring_pool() respawns on next request; force the dead handle
        scoring = par.CycleScoring(pool, providers, threshold=0)
        rep = request("alice", 99)
        assert scoring.score_class(rep, providers) is None
        assert scoring.fallbacks == 1
        # ...and a full cycle still completes correctly via respawn
        stats = CycleStats()
        assignments = negotiation_cycle(grouped, providers, stats=stats,
                                        batch=True)
        par.set_parallelism(False)
        try:
            serial, _ = run_cycle(providers, grouped, batch=True,
                                  use_index=False)
        finally:
            par.set_parallelism(True)
        assert assignment_key(assignments) == assignment_key(serial)

    def test_worker_misalignment_marks_pool_dead(self):
        providers, _ = scenario()
        pool = par.scoring_pool()
        assert pool is not None
        scoring = par.CycleScoring(pool, providers, threshold=0)
        rep = request("alice", 99)
        # candidates not drawn from the cycle's provider list violate
        # the caller contract -> KeyError -> serial fallback, dead pool
        foreign = [machine("foreign", memory=64)]
        assert scoring.score_class(rep, foreign) is None
        assert scoring.fallbacks == 1
        assert not pool.alive

    def test_zero_workers_disables_scoring(self):
        par.set_scoring_workers(0)
        assert par.scoring_pool() is None
        assert par.cycle_scoring([machine("m", memory=64)]) is None


class TestPoolLifecycle:
    def test_pool_persists_across_cycles(self):
        providers, grouped = scenario()
        run_cycle(providers, grouped, batch=True, use_index=False)
        first = par.scoring_pool()
        run_cycle(providers, grouped, batch=True, use_index=False)
        assert par.scoring_pool() is first

    def test_pool_respawns_on_worker_count_change(self):
        providers, grouped = scenario()
        run_cycle(providers, grouped, batch=True, use_index=False)
        first = par.scoring_pool()
        par.set_scoring_workers(3)
        second = par.scoring_pool()
        assert second is not first
        assert second.workers == 3
        with_3, _ = run_cycle(providers, grouped, batch=True, use_index=False)
        par.set_parallelism(False)
        try:
            serial, _ = run_cycle(providers, grouped, batch=True,
                                  use_index=False)
        finally:
            par.set_parallelism(True)
        assert assignment_key(with_3) == assignment_key(serial)

    def test_mutated_ad_reserializes(self):
        # the wire memo must notice in-place mutation (expression
        # rebinding), not serve the stale encoding
        providers, grouped = scenario()
        run_cycle(providers, grouped, batch=True, use_index=False)
        providers[0]["Memory"] = 1  # alice's 128MB machine vanishes
        with_workers, _ = run_cycle(providers, grouped, batch=True,
                                    use_index=False)
        par.set_parallelism(False)
        try:
            serial, _ = run_cycle(providers, grouped, batch=True,
                                  use_index=False)
        finally:
            par.set_parallelism(True)
        assert assignment_key(with_workers) == assignment_key(serial)


@pytest.mark.slow
class TestChaosDeterminism:
    """Acceptance: two same-seed chaos recordings with workers enabled
    are bitwise identical (modulo the wall-clock duration_s field), and
    identical to a serial recording of the same seed."""

    def _record(self, tmp_path, name):
        out = str(tmp_path / f"{name}.jsonl")
        code = main(
            ["chaos", "cm-crash", "--machines", "6", "--jobs", "8",
             "--horizon", "1800", "--out", out]
        )
        assert code == 0
        return out

    @staticmethod
    def _normalized(path):
        # evals_saved is a serial-path memo statistic the workers have
        # no reason to accrue; like duration_s/workers/chunks on
        # cycle.end and the parallel_* totals on run.stats it is engine
        # bookkeeping, not a matching outcome.
        records = []
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                fields = record.get("fields", {})
                for key in ("duration_s", "workers", "chunks", "evals_saved"):
                    fields.pop(key, None)
                for key in [k for k in fields if k.startswith("parallel_")]:
                    fields.pop(key)
                records.append(record)
        return records

    def test_same_seed_recordings_bitwise_identical(self, tmp_path):
        first = self._record(tmp_path, "one")
        second = self._record(tmp_path, "two")
        with open(first) as a, open(second) as b:
            lines_a, lines_b = a.readlines(), b.readlines()
        assert len(lines_a) == len(lines_b)
        for la, lb in zip(lines_a, lines_b):
            ra, rb = json.loads(la), json.loads(lb)
            ra.get("fields", {}).pop("duration_s", None)
            rb.get("fields", {}).pop("duration_s", None)
            assert ra == rb

    def test_parallel_recording_matches_serial(self, tmp_path):
        with_workers = self._record(tmp_path, "parallel")
        par.set_parallelism(False)
        try:
            serial = self._record(tmp_path, "serial")
        finally:
            par.set_parallelism(True)
        assert self._normalized(with_workers) == self._normalized(serial)


class TestIndexedSubsetMapping:
    def test_index_pruned_pools_map_to_global_ids(self):
        # many providers, sharply-pruning index -> the subset path
        providers = [
            machine(f"m{i}", arch="INTEL" if i % 2 else "SPARC",
                    memory=32 * (1 + i % 4))
            for i in range(30)
        ]
        grouped = {"alice": [request("alice", i, arch="INTEL") for i in range(5)]}
        index = ProviderIndex(providers)
        from repro.matchmaking import negotiation_cycle
        with_workers = negotiation_cycle(grouped, providers, index=index,
                                         batch=True)
        serial = negotiation_cycle(grouped, providers,
                                   index=ProviderIndex(providers),
                                   batch=True, parallel=False)
        assert assignment_key(with_workers) == assignment_key(serial)
