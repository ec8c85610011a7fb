"""Exporter schema tests and global-singleton integration tests."""

import io
import json

import pytest

from repro import obs
from repro.obs import MetricsRegistry
from repro.obs.export import OBS_SCHEMA, dump, snapshot, write_json


@pytest.fixture
def populated():
    registry = MetricsRegistry(enabled=True)
    registry.counter("matchmaker.matched", "matches made").inc(3)
    registry.counter("claims.verified").inc(verdict="accepted")
    registry.histogram("matchmaker.cycle_seconds").observe(0.25)
    registry.gauge("collector.store_size").set(12)
    return registry


class TestSnapshotSchema:
    def test_top_level_shape(self, populated):
        snap = snapshot(populated)
        assert snap["schema"] == OBS_SCHEMA == "repro-obs/2"
        assert set(snap) == {"schema", "metrics"}

    def test_metrics_section(self, populated):
        snap = snapshot(populated)
        by_name = {m["name"]: m for m in snap["metrics"]}
        assert by_name["matchmaker.matched"]["kind"] == "counter"
        assert by_name["matchmaker.matched"]["samples"][0]["value"] == 3
        assert by_name["claims.verified"]["samples"][0]["labels"] == {
            "verdict": "accepted"
        }
        hist = by_name["matchmaker.cycle_seconds"]
        assert hist["kind"] == "histogram"
        assert hist["samples"][0]["value"]["count"] == 1
        assert by_name["collector.store_size"]["kind"] == "gauge"

    def test_snapshot_is_json_serializable(self, populated):
        text = json.dumps(snapshot(populated))
        assert json.loads(text)["schema"] == "repro-obs/2"

    def test_prefix_filters_metrics(self, populated):
        snap = snapshot(populated, prefix="matchmaker.")
        names = [m["name"] for m in snap["metrics"]]
        assert names == ["matchmaker.cycle_seconds", "matchmaker.matched"]


class TestWriteJson:
    def test_round_trip_via_file(self, populated, tmp_path):
        path = write_json(str(tmp_path / "obs.json"), populated)
        with open(path) as handle:
            snap = json.load(handle)
        assert snap == json.loads(json.dumps(snapshot(populated)))
        assert set(snap) == {"schema", "metrics"}


class TestDump:
    def test_human_dump_renders_values(self, populated):
        stream = io.StringIO()
        dump(populated, stream=stream)
        text = stream.getvalue()
        assert text.startswith("== metrics ==\n")
        assert "matchmaker.matched 3" in text
        assert "claims.verified{verdict=accepted} 1" in text
        assert "== spans ==" not in text


class TestGlobalSingletons:
    """snapshot() with no arguments reads the process-wide state."""

    @pytest.fixture(autouse=True)
    def clean_globals(self):
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def test_disabled_by_default_in_tests(self):
        assert not obs.is_enabled()

    def test_enable_records_and_snapshot_sees_it(self):
        obs.enable()
        obs.metrics.counter("test.only").inc(2)
        snap = snapshot()
        by_name = {m["name"]: m for m in snap["metrics"]}
        assert by_name["test.only"]["samples"][0]["value"] == 2
        assert set(snap) == {"schema", "metrics"}

    def test_enable_without_trace_leaves_spans_off(self):
        obs.enable()
        assert obs.metrics.enabled
        assert not obs.causal_log.enabled
        assert not (obs.event_log.enabled or obs.series.enabled)

    def test_reset_clears_recorded_state(self):
        obs.enable(events=True)
        obs.metrics.counter("test.only").inc()
        obs.event_log.emit("test.event")
        obs.reset()
        snap = snapshot()
        by_name = {m["name"]: m for m in snap["metrics"]}
        assert by_name["test.only"]["samples"] == []
        assert len(obs.event_log) == 0
