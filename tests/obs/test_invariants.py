"""Unit tests for the post-hoc protocol invariant checker."""

from repro.obs.events import Event
from repro.obs.invariants import check_events


def ev(seq, t, kind, **fields):
    return Event(seq=seq, t=t, kind=kind, fields=fields)


def machine_claim(seq, t, machine="m0", match=1, job=1):
    return ev(seq, t, "claim-response", machine=machine, accepted=True,
              reason="", match=match, job=job)


class TestSafety:
    def test_clean_stream_ok(self):
        events = [
            ev(1, 0.0, "job-submitted", owner="alice", job=1),
            machine_claim(2, 1.0),
            ev(3, 1.0, "claim-accepted", owner="alice", job=1, match=1),
            ev(4, 9.0, "job-completed", machine="m0", job=1),
            ev(5, 9.1, "job-done", owner="alice", job=1),
        ]
        report = check_events(events, require_complete=True)
        assert report.ok
        assert report.stats["machine_claims"] == 1
        assert report.stats["jobs_done"] == 1

    def test_machine_overlap_detected(self):
        events = [
            machine_claim(1, 1.0, match=1, job=1),
            machine_claim(2, 2.0, match=2, job=2),  # m0 double-booked
        ]
        report = check_events(events)
        assert not report.ok
        assert report.violations[0].invariant == "machine-overlap"

    def test_claim_end_clears_the_machine(self):
        events = [
            machine_claim(1, 1.0, match=1, job=1),
            ev(2, 5.0, "job-evicted", machine="m0", job=1, reason="owner"),
            machine_claim(3, 6.0, match=2, job=2),
        ]
        assert check_events(events).ok

    def test_machine_crash_vaporizes_the_claim(self):
        events = [
            machine_claim(1, 1.0),
            ev(2, 5.0, "machine-crash", machine="m0"),
            machine_claim(3, 6.0, match=2, job=2),
        ]
        assert check_events(events).ok

    def test_rejected_claim_response_is_not_a_claim(self):
        events = [
            machine_claim(1, 1.0),
            ev(2, 2.0, "claim-response", machine="m0", accepted=False,
               reason="busy", match=2, job=2),
        ]
        assert check_events(events).ok

    def test_job_overlap_detected(self):
        events = [
            ev(1, 1.0, "claim-accepted", owner="alice", job=1, match=1),
            ev(2, 2.0, "claim-accepted", owner="alice", job=1, match=2),
        ]
        report = check_events(events)
        assert not report.ok
        assert report.violations[0].invariant == "job-overlap"

    def test_lease_lost_ends_the_job_claim(self):
        events = [
            ev(1, 1.0, "claim-accepted", owner="alice", job=1, match=1),
            ev(2, 5.0, "claim.lease.lost", owner="alice", job=1, match=1),
            ev(3, 6.0, "claim-accepted", owner="alice", job=1, match=2),
        ]
        assert check_events(events).ok

    def test_job_double_held_by_machines_detected(self):
        # m0's accept reached the customer too late; the job was matched
        # again and m1 accepted it while m0 still held it.
        events = [
            ev(1, 0.0, "match-notified-customer", owner="alice", job=8, match=9),
            machine_claim(2, 40.0, machine="m0", match=9, job=8),
            ev(3, 60.0, "match-notified-customer", owner="alice", job=8, match=10),
            machine_claim(4, 61.0, machine="m1", match=10, job=8),
            ev(5, 61.0, "claim-accepted", owner="alice", job=8, match=10),
        ]
        report = check_events(events)
        assert [v.invariant for v in report.violations] == ["job-double-held"]
        assert report.violations[0].job == "alice.8"
        assert report.violations[0].match == 10

    def test_released_machine_claim_is_not_double_held(self):
        events = [
            ev(1, 0.0, "match-notified-customer", owner="alice", job=8, match=9),
            machine_claim(2, 40.0, machine="m0", match=9, job=8),
            ev(3, 45.0, "claim-released", machine="m0", job=8),
            ev(4, 60.0, "match-notified-customer", owner="alice", job=8, match=10),
            machine_claim(5, 61.0, machine="m1", match=10, job=8),
            # Another owner's job with the same id is a different job.
            ev(6, 62.0, "match-notified-customer", owner="bob", job=8, match=11),
            machine_claim(7, 63.0, machine="m2", match=11, job=8),
        ]
        assert check_events(events).ok

    def test_double_completion_detected(self):
        events = [
            ev(1, 0.0, "job-submitted", owner="alice", job=1),
            ev(2, 5.0, "job-done", owner="alice", job=1),
            ev(3, 6.0, "job-done", owner="alice", job=1),
        ]
        report = check_events(events)
        assert not report.ok
        assert report.violations[0].invariant == "double-completion"


class TestLiveness:
    def test_loose_ends_are_warnings_by_default(self):
        events = [
            ev(1, 0.0, "job-submitted", owner="alice", job=1),
            machine_claim(2, 1.0),
            ev(3, 1.0, "claim-accepted", owner="alice", job=1, match=1),
        ]
        report = check_events(events)
        assert report.ok
        assert {w.invariant for w in report.warnings} == {
            "unterminated-machine-claim",
            "unterminated-job-claim",
            "incomplete-job",
        }

    def test_require_complete_promotes_them(self):
        events = [ev(1, 0.0, "job-submitted", owner="alice", job=1)]
        report = check_events(events, require_complete=True)
        assert not report.ok
        assert report.violations[0].invariant == "incomplete-job"

    def test_removed_job_counts_as_finished(self):
        events = [
            ev(1, 0.0, "job-submitted", owner="alice", job=1),
            ev(2, 5.0, "job-removed", owner="alice", job=1),
        ]
        assert check_events(events, require_complete=True).ok

    def test_render_mentions_violations(self):
        events = [
            machine_claim(1, 1.0, match=1, job=1),
            machine_claim(2, 2.0, match=2, job=2),
        ]
        text = check_events(events).render()
        assert "VIOLATION" in text
        assert "machine-overlap" in text


class TestViolationAnchors:
    """Violations carry job/match/trace anchors for tooling pivots."""

    def test_machine_overlap_resolves_owner_via_match(self):
        events = [
            ev(1, 0.0, "job-submitted", owner="a", job=1, trace="job.a.1"),
            ev(2, 0.0, "job-submitted", owner="b", job=2, trace="job.b.2"),
            ev(3, 1.0, "match-notified-customer", owner="a", job=1, match=1),
            ev(4, 1.5, "match-notified-customer", owner="b", job=2, match=2),
            machine_claim(5, 2.0, match=1, job=1),
            machine_claim(6, 3.0, match=2, job=2),
        ]
        report = check_events(events)
        (violation,) = report.violations
        assert violation.invariant == "machine-overlap"
        assert violation.job == "b.2"
        assert violation.match == 2
        assert violation.trace == "job.b.2"
        assert "job=b.2" in str(violation)
        assert "trace=job.b.2" in str(violation)

    def test_trace_absent_when_recorded_without_tracing(self):
        events = [
            ev(1, 0.0, "job-submitted", owner="a", job=1),
            machine_claim(2, 2.0, match=1, job=1),
            machine_claim(3, 3.0, match=2, job=2),
        ]
        (violation,) = check_events(events).violations
        assert violation.trace is None
        assert "trace=" not in str(violation)

    def test_incomplete_job_carries_anchors(self):
        events = [ev(1, 0.0, "job-submitted", owner="a", job=1, trace="job.a.1")]
        report = check_events(events, require_complete=True)
        (violation,) = report.violations
        assert violation.invariant == "incomplete-job"
        assert violation.job == "a.1"
        assert violation.trace == "job.a.1"

    def test_double_completion_carries_anchors(self):
        events = [
            ev(1, 0.0, "job-submitted", owner="a", job=1, trace="job.a.1"),
            ev(2, 5.0, "job-done", owner="a", job=1),
            ev(3, 6.0, "job-done", owner="a", job=1),
        ]
        (violation,) = check_events(events).violations
        assert violation.invariant == "double-completion"
        assert violation.job == "a.1"
        assert violation.trace == "job.a.1"
