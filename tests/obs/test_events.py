"""Unit tests for the structured negotiation event log (repro-events/1)."""

import dataclasses
import json

import pytest

from repro.classads import ClassAd
from repro.matchmaking import attribute_failure, negotiation_cycle
from repro.obs import event_log
from repro.obs.events import (
    EVENTS_SCHEMA,
    Event,
    EventLog,
    EventLogError,
    read_jsonl,
    summarize,
    validate_record,
)


@pytest.fixture
def log():
    return EventLog(enabled=True)


@pytest.fixture
def global_log():
    """The process-wide log, enabled for the test and restored after."""
    event_log.reset()
    event_log.enable()
    yield event_log
    event_log.reset()
    event_log.disable()


def machine(name="m0", arch="INTEL", memory=64):
    ad = ClassAd(
        {"Type": "Machine", "Name": name, "Arch": arch, "Memory": memory, "State": "Unclaimed"}
    )
    ad.set_expr("Constraint", 'other.Type == "Job"')
    return ad


def job(job_id, constraint, owner="raman"):
    ad = ClassAd({"Type": "Job", "JobId": job_id, "Owner": owner})
    ad.set_expr("Constraint", constraint)
    return ad


class TestEventLog:
    def test_emit_records_in_order(self, log):
        log.emit("a", t=1.0, x=1)
        log.emit("b", t=2.0)
        assert [e.kind for e in log] == ["a", "b"]
        assert log.events()[0].seq == 1
        assert log.events()[1].seq == 2
        assert log.events()[0].fields == {"x": 1}

    def test_disabled_log_records_nothing(self):
        log = EventLog(enabled=False)
        log.emit("a", t=1.0)
        assert len(log) == 0

    def test_ring_is_bounded(self):
        log = EventLog(enabled=True, capacity=10)
        for i in range(100):
            log.emit("tick", t=float(i), i=i)
        assert len(log) == 10
        # The newest events survive; sequence numbers keep counting.
        assert [e.fields["i"] for e in log] == list(range(90, 100))
        assert log.last("tick").seq == 100

    def test_clock_used_when_t_omitted(self, log):
        log.set_clock(lambda: 42.5)
        log.emit("a")
        assert log.events()[0].t == 42.5
        log.reset()
        # reset() restores the wall clock
        assert log.clock is not None
        assert log.clock() > 1_000_000

    def test_queries(self, log):
        log.emit("a", t=1.0)
        log.emit("b", t=2.0)
        log.emit("a", t=3.0)
        assert log.count("a") == 2
        assert log.first("a").t == 1.0
        assert log.last("a").t == 3.0
        assert log.kinds() == ["a", "b"]
        assert [e.kind for e in log.of_kind("b")] == ["b"]
        assert "a" in log.render(limit=1) or "b" in log.render(limit=1)


class TestEventShape:
    def test_events_carry_no_instance_dict(self):
        from repro.sim import TraceEvent

        for event in (Event(1, 2.0, "a", {"x": 1}), TraceEvent(1, 2.0, "a", {"x": 1})):
            assert not hasattr(event, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                event.seq = 2

    def test_to_dict_and_replace(self):
        from repro.sim import TraceEvent

        event = Event(3, 1.5, "match.made", {"job": 7})
        assert event.to_dict() == {"seq": 3, "t": 1.5, "kind": "match.made", "fields": {"job": 7}}
        moved = dataclasses.replace(event, seq=4)
        assert moved == Event(4, 1.5, "match.made", {"job": 7}) and moved.fields is event.fields
        traced = dataclasses.replace(TraceEvent(1, 2.0, "a", {}), t=3.0)
        assert type(traced) is TraceEvent and traced.time == 3.0


class TestJsonlRoundTrip:
    def test_file_sink_round_trip(self, log, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log.open_file(path)
        log.emit("cycle.begin", t=1.0, cycle=1)
        log.emit("match.reject", t=1.5, job=7, conjunct='other.Arch == "VAX"')
        log.close_file()
        events = read_jsonl(path)
        assert events == log.events()
        assert [e.kind for e in events] == ["cycle.begin", "match.reject"]
        assert events[1].fields["job"] == 7
        assert events[1].fields["conjunct"] == 'other.Arch == "VAX"'

    def test_header_line_is_schema(self, log, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log.open_file(path)
        log.close_file()
        first = json.loads(open(path).readline())
        assert first == {"schema": EVENTS_SCHEMA}

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 1, "t": 0.0, "kind": "a", "fields": {}}\n')
        with pytest.raises(EventLogError):
            read_jsonl(str(path))

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": EVENTS_SCHEMA}) + '\n{"seq": "x"}\n')
        with pytest.raises(EventLogError):
            read_jsonl(str(path))

    def test_validate_record_requires_keys(self):
        validate_record({"seq": 1, "t": 0.0, "kind": "a", "fields": {}})
        with pytest.raises(EventLogError):
            validate_record({"seq": 1, "t": 0.0})
        with pytest.raises(EventLogError):
            validate_record({"seq": 1, "t": True, "kind": "a"})


class TestAttribution:
    def test_false_conjunct_named(self):
        j = job(7, 'other.Type == "Machine" && other.Arch == "VAX" && other.Memory >= 32')
        a = attribute_failure(j, machine())
        assert a is not None
        assert a.side == "customer"
        assert a.conjunct == 'other.Arch == "VAX"'
        assert a.value == "false"

    def test_undefined_attribute_named(self):
        j = job(8, 'other.Type == "Machine" && other.HasJava')
        a = attribute_failure(j, machine())
        assert a.value == "undefined"
        assert a.conjunct == "other.HasJava"
        assert "other.HasJava" in a.undefined_attrs

    def test_provider_side_attributed(self):
        j = job(9, 'other.Type == "Machine"')
        m = machine()
        m.set_expr("Constraint", 'other.Type == "Job" && other.Owner == "livny"')
        a = attribute_failure(j, m)
        assert a.side == "provider"
        assert a.conjunct == 'other.Owner == "livny"'

    def test_compatible_pair_attributes_nothing(self):
        j = job(10, 'other.Type == "Machine"')
        assert attribute_failure(j, machine()) is None


class TestLiveNegotiationForensics:
    def test_cycle_emits_attributed_rejections(self, global_log):
        jobs = [job(1, 'other.Type == "Machine" && other.Arch == "VAX"')]
        negotiation_cycle({"raman": jobs}, [machine()])
        rejects = global_log.of_kind("match.reject")
        assert len(rejects) == 1
        fields = rejects[0].fields
        assert fields["job"] == 1
        assert fields["reason"] == "constraint"
        assert fields["conjunct"] == 'other.Arch == "VAX"'
        assert fields["value"] == "false"
        assert global_log.count("job.unmatched") == 1
        assert global_log.last("cycle.end").fields["rejected"] == 1

    def test_match_made_event(self, global_log):
        jobs = [job(1, 'other.Type == "Machine"')]
        negotiation_cycle({"raman": jobs}, [machine()])
        made = global_log.of_kind("match.made")
        assert len(made) == 1
        assert made[0].fields["provider"] == "m0"

    def test_cycle_end_reports_evals_saved(self, global_log):
        from repro.classads import compile as cc

        previous = cc.compilation_enabled()
        cc.set_compilation(True)
        try:
            jobs = [job(1, 'other.Type == "Machine"')]
            pool = [machine()]
            negotiation_cycle({"raman": jobs}, pool)
            first = global_log.last("cycle.end").fields
            assert "evals_saved" in first
            # Second cycle over the same ads: the compiled Constraints are
            # cached, so evaluations are served without walking the ASTs.
            negotiation_cycle({"raman": jobs}, pool)
            warm = global_log.last("cycle.end").fields
            assert warm["evals_saved"] >= 1
        finally:
            cc.set_compilation(previous)

    def test_disabled_log_sees_nothing(self):
        event_log.reset()
        event_log.disable()
        jobs = [job(1, 'other.Type == "Machine"')]
        negotiation_cycle({"raman": jobs}, [machine()])
        assert len(event_log) == 0


class TestSummarize:
    def test_summary_shape(self):
        events = [
            Event(1, 0.0, "cycle.begin", {"cycle": 1}),
            Event(2, 0.1, "match.reject", {"side": "customer", "conjunct": "other.X"}),
            Event(3, 0.2, "match.reject", {"reason": "taken"}),
            Event(
                4,
                0.3,
                "cycle.end",
                {"cycle": 1, "requests": 2, "matched": 1, "rejected": 1, "preemptions": 0},
            ),
        ]
        summary = summarize(events)
        assert summary["schema"] == "repro-events-summary/1"
        assert summary["events"] == 4
        assert summary["by_kind"]["match.reject"] == 2
        assert summary["cycles"] == [
            {"cycle": 1, "requests": 2, "matched": 1, "rejected": 1, "preemptions": 0}
        ]
        reasons = {item["reason"]: item["count"] for item in summary["top_rejections"]}
        assert reasons == {"customer: other.X": 1, "taken": 1}


class TestTraceMirror:
    def test_trace_mirrors_into_global_log(self, global_log):
        from repro.sim import Trace

        trace = Trace(enabled=True)
        trace.emit(5.0, "claim-request", job=3)
        assert trace.count("claim-request") == 1
        mirrored = global_log.of_kind("claim-request")
        assert len(mirrored) == 1
        assert mirrored[0].t == 5.0
        assert mirrored[0].fields == {"job": 3}

    def test_disabled_trace_still_mirrors(self, global_log):
        from repro.sim import Trace

        trace = Trace(enabled=False)
        trace.emit(5.0, "ad-expired", name="m0")
        assert len(trace) == 0
        assert global_log.count("ad-expired") == 1

    def test_simulator_installs_its_clock(self, global_log):
        from repro.sim import Simulator

        sim = Simulator(start=100.0)
        assert global_log.count("sim.started") == 1
        global_log.emit("anything")
        assert global_log.last("anything").t == 100.0
        sim.schedule(5.0, lambda: global_log.emit("later"))
        sim.run()
        assert global_log.last("later").t == 105.0
