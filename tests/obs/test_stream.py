"""The shared recorded-stream mechanism (repro.obs.stream) behind the
event log, the causal trace and the pool series.

The golden files pin the on-disk bytes of all three schemas — header
line, key order, ``default=str`` for a value JSON cannot encode, ASCII
escapes — so recordings made before and after a change to the stream
code read the same.
"""

import inspect
import types

import pytest

from repro.obs.causal import CausalTracer, TraceError
from repro.obs.causal import read_jsonl as read_trace
from repro.obs.events import EventLog, EventLogError
from repro.obs.events import read_jsonl as read_events
from repro.obs.stream import RecordStream, StreamError
from repro.obs.timeseries import SeriesError, SeriesStore
from repro.obs.timeseries import read_jsonl as read_series
from repro.sim.trace import Trace

GOLDEN_EVENTS = (
    b'{"schema": "repro-events/1"}\n'
    b'{"seq": 1, "t": 1.0, "kind": "cycle.begin", "fields": {"cycle": 1}}\n'
    b'{"seq": 2, "t": 7.5, "kind": "match.reject", "fields": {"job": 7, '
    b'"conjunct": "other.Arch == \\"VAX\\"", "value": "(1+2j)"}}\n'
    b'{"seq": 3, "t": 2, "kind": "note", "fields": {"owner": "caf\\u00e9", '
    b'"tags": ["a", "b"], "nothing": null}}\n'
)

GOLDEN_SERIES = (
    b'{"schema": "repro-series/1"}\n'
    b'{"seq": 1, "t": 60.0, "fields": {"cycle": 1, "machines": 5, "match_rate": 0.5}}\n'
    b'{"seq": 2, "t": 180.0, "fields": {"cycle": 2, "load": "1j"}}\n'
)

GOLDEN_TRACE = (
    b'{"schema": "repro-trace/1"}\n'
    b'{"span": 1, "t": 3.25, "trace": "job.a.1", "name": "job.submit", '
    b'"parent": null, "fields": {"owner": "a"}}\n'
    b'{"span": 2, "t": 3.25, "trace": "job.a.1", "name": "send.Advertisement", '
    b'"parent": 1, "fields": {"frm": "schedd@a", "ticket": "(2+0j)"}}\n'
    b'{"span": 3, "t": 3.25, "trace": "job.a.1", "name": "recv.Advertisement", '
    b'"parent": 2, "fields": {}}\n'
)


class TestGoldenBytes:
    def test_event_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(enabled=True)
        log.set_clock(lambda: 7.5)
        log.open_file(str(path))
        log.emit("cycle.begin", t=1.0, cycle=1)
        log.emit("match.reject", job=7, conjunct='other.Arch == "VAX"', value=complex(1, 2))
        log.emit("note", t=2, owner="café", tags=("a", "b"), nothing=None)
        log.close_file()
        assert path.read_bytes() == GOLDEN_EVENTS
        assert [e.seq for e in read_events(str(path))] == [1, 2, 3]

    def test_series(self, tmp_path):
        path = tmp_path / "series.jsonl"
        store = SeriesStore(enabled=True)
        store.set_clock(lambda: 180.0)
        store.open_file(str(path))
        store.sample(t=60.0, cycle=1, machines=5, match_rate=0.5)
        store.sample(cycle=2, load=complex(0, 1))
        store.close_file()
        assert path.read_bytes() == GOLDEN_SERIES
        assert [s.t for s in read_series(str(path))] == [60.0, 180.0]

    def test_causal_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = CausalTracer(enabled=True)
        tracer.set_clock(lambda: 3.25)
        tracer.open_file(str(path))
        root = tracer.start_trace("job.a.1", "job.submit", owner="a")
        with tracer.activate(root):
            send = tracer.span("send.Advertisement", frm="schedd@a", ticket=complex(2, 0))
        tracer.span("recv.Advertisement", parent=send)
        tracer.close_file()
        assert path.read_bytes() == GOLDEN_TRACE
        assert [s.parent for s in read_trace(str(path))] == [None, 1, 2]

    def test_series_line_readable_before_close(self, tmp_path):
        # `repro obs pool --watch` follows the file while the run is live.
        path = tmp_path / "series.jsonl"
        store = SeriesStore(enabled=True)
        store.open_file(str(path))
        try:
            store.sample(t=60.0, cycle=1, machines=5, match_rate=0.5)
            with open(path, "rb") as other:
                assert other.read() == b"".join(GOLDEN_SERIES.splitlines(keepends=True)[:2])
        finally:
            store.close_file()


READERS = [
    pytest.param(read_events, EventLogError, "repro-events/1", id="events"),
    pytest.param(read_trace, TraceError, "repro-trace/1", id="trace"),
    pytest.param(read_series, SeriesError, "repro-series/1", id="series"),
]


class TestReaderErrors:
    @pytest.mark.parametrize("read, error, schema", READERS)
    def test_each_stream_raises_its_own_stream_error(self, tmp_path, read, error, schema):
        assert issubclass(error, StreamError)
        assert error is not StreamError
        cases = {
            "empty.jsonl": ("", f"empty {schema} stream"),
            "no-header.jsonl": ('{"seq": 1, "t": 0.0}\n', ":1: expected"),
            "header-not-json.jsonl": ("{\n", ":1: not JSON"),
            "line-not-json.jsonl": (f'{{"schema": "{schema}"}}\n\n{{oops\n', ":3: not JSON"),
            "not-object.jsonl": (f'{{"schema": "{schema}"}}\n[1]\n', ":2: record must be an object"),
            "bad-t.jsonl": (
                f'{{"schema": "{schema}"}}\n'
                '{"seq": 1, "span": 1, "t": true, "kind": "k", "trace": "x", "name": "n"}\n',
                ":2: t must be a number",
            ),
            "bad-fields.jsonl": (
                f'{{"schema": "{schema}"}}\n'
                '{"seq": 1, "span": 1, "t": 0, "kind": "k", "trace": "x", "name": "n", '
                '"fields": null}\n',
                ":2: fields must be an object",
            ),
        }
        for name, (text, message) in cases.items():
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(error) as raised:
                read(str(path))
            assert str(raised.value).startswith(str(path)), name
            assert message in str(raised.value), name

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"schema": "repro-trace/1"}\n{"span": 1, "t": 0.0, "trace": "x"}\n')
        with pytest.raises(TraceError, match=r":2: record missing 'name'"):
            read_trace(str(path))

    def test_span_parent_may_be_absent_or_null_but_not_text(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rows = [
            '{"span": 1, "t": 0.0, "trace": "x", "name": "root"}',
            '{"span": 2, "t": 0.0, "trace": "x", "name": "child", "parent": null}',
        ]
        path.write_text('{"schema": "repro-trace/1"}\n' + "\n".join(rows) + "\n")
        assert [s.parent for s in read_trace(str(path))] == [None, None]
        path.write_text(
            '{"schema": "repro-trace/1"}\n'
            '{"span": 1, "t": 0.0, "trace": "x", "name": "n", "parent": "1"}\n'
        )
        with pytest.raises(TraceError, match="parent must be an integer or null"):
            read_trace(str(path))


class TestSharedMechanism:
    @pytest.mark.parametrize("stream", [EventLog, CausalTracer, SeriesStore])
    def test_enabled_is_a_plain_slot(self, stream):
        # The disabled fast path is one attribute read, never a property.
        assert issubclass(stream, RecordStream)
        slot = inspect.getattr_static(stream, "enabled")
        assert isinstance(slot, types.MemberDescriptorType)
        assert not stream().enabled
        assert not hasattr(stream(), "__dict__")

    def test_trace_and_event_log_answer_kind_queries_alike(self):
        log, trace = EventLog(enabled=True), Trace()
        for t, kind in enumerate(["a", "b", "a", "c", "b"]):
            log.emit(kind, t=float(t), i=t)
            trace.emit(float(t), kind, i=t)
        for stream in (log, trace):
            assert stream.kinds() == ["a", "b", "c"]
            assert stream.count("b") == 2
            assert [e.fields["i"] for e in stream.of_kind("a", "c")] == [0, 2, 3]
            assert stream.first("b").fields["i"] == 1
            assert stream.last("a").fields["i"] == 2
            assert stream.first("missing") is None and stream.last("missing") is None

    def test_render_windows(self):
        log, trace = EventLog(enabled=True), Trace()
        for t in range(3):
            log.emit(f"k{t}", t=float(t))
            trace.emit(float(t), f"k{t}")
        # The event log shows its most recent events, a Trace its first.
        assert "k2" in log.render(limit=1) and "k0" not in log.render(limit=1)
        assert "k0" in trace.render(limit=1) and "k2" not in trace.render(limit=1)
