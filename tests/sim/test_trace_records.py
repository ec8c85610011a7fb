"""How a :class:`~repro.sim.trace.Trace` stores its records and reads them.

A trace stores one flat tuple per record and builds each
:class:`~repro.sim.trace.TraceEvent` when it is read.  These tests hold
every read to a reference model that keeps the events themselves, and
pin what a stored record costs.
"""

import gc
import math
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.trace as trace_mod
from repro.sim import Trace, TraceEvent


class ListTrace:
    """The reference: a list of events, each built at emit."""

    def __init__(self):
        self.events = []

    def emit(self, time, kind, **fields):
        self.events.append(TraceEvent(len(self.events) + 1, time, kind, fields))


def same_event(a, b):
    """Equal events whose field values are the very same objects."""
    return (
        type(a) is type(b) is TraceEvent
        and a.seq == b.seq
        and a.t is b.t
        and a.kind is b.kind
        and list(a.fields) == list(b.fields)
        and all(a.fields[k] is b.fields[k] for k in a.fields)
    )


def same_events(got, want):
    got, want = list(got), list(want)
    return len(got) == len(want) and all(same_event(a, b) for a, b in zip(got, want))


KINDS = ["ad", "advertise-machine", "match", "job-done", "claim"]
NAMES = ["machine", "state", "job", "owner", "a"]
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True),
    st.sampled_from([float("nan"), -0.0, 0.0]),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=3),
)
TIMES = st.one_of(st.floats(0.0, 1e6), st.sampled_from([-0.0, 0.0, 5.0]))


@st.composite
def records(draw):
    kind = draw(st.sampled_from(KINDS))
    # Any kind (and so "ad" too) draws a different field set and order
    # from record to record.
    names = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=4))
    return draw(TIMES), kind, {name: draw(VALUES) for name in names}


class TestReadsMatchTheEventList:
    @settings(max_examples=150, deadline=None)
    @given(
        emitted=st.lists(records(), max_size=30),
        asked=st.lists(st.sampled_from(KINDS + ["missing"]), max_size=3),
        window=st.tuples(TIMES, TIMES),
        limit=st.one_of(st.none(), st.integers(-3, 35)),
    )
    def test_every_read_agrees(self, emitted, asked, window, limit):
        trace, model = Trace(), ListTrace()
        for time, kind, fields in emitted:
            trace.emit(time, kind, **fields)
            model.emit(time, kind, **fields)
        events = model.events

        assert len(trace) == len(events)
        assert same_events(trace, events)
        assert same_events(reversed(trace), reversed(events))
        assert same_events(trace.of_kind(*asked), [e for e in events if e.kind in set(asked)])
        assert trace.kinds() == list(dict.fromkeys(e.kind for e in events))
        start, end = window
        assert same_events(trace.between(start, end), [e for e in events if start <= e.t <= end])
        shown = events if limit is None else events[:limit]
        assert trace.render(limit) == "\n".join(str(e) for e in shown)
        for kind in KINDS + ["missing"]:
            wanted = [e for e in events if e.kind == kind]
            assert trace.count(kind) == len(wanted)
            first, last = trace.first(kind), trace.last(kind)
            if wanted:
                assert same_event(first, wanted[0]) and same_event(last, wanted[-1])
            else:
                assert first is None and last is None

    def test_nan_and_negative_zero_come_back_as_emitted(self):
        nan = float("nan")
        trace = Trace()
        trace.emit(-0.0, "ad", x=nan, y=-0.0)
        event = trace.first("ad")
        assert math.copysign(1.0, event.t) == -1.0
        assert event.fields["x"] is nan
        assert math.copysign(1.0, event.fields["y"]) == -1.0


class TestStoredRecords:
    def test_a_record_of_atomic_values_leaves_the_collector(self):
        trace = Trace()
        trace.emit(0.5, "advertise-machine", machine="m0", state="Owner")
        trace.emit(1.0, "advertise-job", owner="u0", job=1, collector="cm", done=None)
        gc.collect()  # the shapes' shared name tuples are untracked first
        trace.emit(1.5, "advertise-machine", machine="m1", state="Unclaimed")
        trace.emit(2.5, "advertise-job", owner="u1", job=17, collector="cm", done=None)
        trace.emit(3.5, "ad-expired", name="m1", ttl=-0.0, admitted=False)
        gc.collect()
        assert not any(gc.is_tracked(record) for record in trace._records[2:4])
        gc.collect()
        assert not any(gc.is_tracked(record) for record in trace._records)

    def test_a_list_value_reads_back_as_that_list(self):
        trace = Trace()
        held = [1, 2]
        trace.emit(1.0, "ad", values=held)
        gc.collect()
        assert trace.first("ad").fields["values"] is held
        assert next(iter(trace)).fields["values"] is held

    def test_records_of_one_shape_share_their_names(self):
        trace = Trace()
        trace.emit(1.0, "ad", machine="m1", state="Owner")
        trace.emit(2.0, "ad", machine="m2", state="Unclaimed")
        trace.emit(3.0, "ad", state="Unclaimed", machine="m3")
        first, second, third = trace._records
        assert first[2] is second[2]
        assert third[2] == ("state", "machine")

    def test_renewal_records_cost_at_most_140_bytes_each(self):
        machines = [f"slot{i}@host{i}" for i in range(64)]
        states = ["Unclaimed", "Claimed", "Owner"]
        trace = Trace()
        trace.emit(0.0, "warm-up")
        records = 25_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(records // 2):
                trace.emit(float(i), "advertise-machine", machine=machines[i % 64],
                           state=states[i % 3])
                trace.emit(float(i) + 0.5, "advertise-job", owner="u1", job=i % 200,
                           collector="collector@cm")
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace) == records + 1
        assert grown / records <= 140, f"{grown / records:.1f} B per record"


class TestKindQueriesBuildOnlyWhatTheyReturn:
    def test_of_kind_builds_one_event_per_match(self, monkeypatch):
        built = []

        class Counted(TraceEvent):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(trace_mod, "TraceEvent", Counted)
        trace = Trace()
        for i in range(300):
            trace.emit(float(i), "job-done" if i % 7 == 0 else "advertise-machine",
                       machine=f"m{i % 5}")
        done = trace.of_kind("job-done")
        assert [e.seq for e in done] == list(range(1, 301, 7))
        # Emitting and querying together build one event per match.
        assert built == [e.seq for e in done]
