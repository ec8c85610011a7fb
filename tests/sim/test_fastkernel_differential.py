"""Slotted event kernel: end-to-end determinism of chaos recordings.

The simulator runs on one kernel, the slotted fast kernel.  Two same-seed
``cm-crash`` chaos runs through it must produce bitwise-identical trace and
series streams, and event streams that differ only in wall-clock fields.
"""

import json

import pytest

from repro.cli import main


class TestChaosRecordingDifferential:
    @pytest.fixture(scope="class")
    def recordings(self, tmp_path_factory):
        """Two same-seed cm-crash recordings."""
        runs = {}
        for attempt in ("one", "two"):
            base = tmp_path_factory.mktemp(f"kernel-{attempt}")
            paths = {
                "events": str(base / "events.jsonl"),
                "trace": str(base / "trace.jsonl"),
                "series": str(base / "series.jsonl"),
            }
            code = main(
                ["chaos", "cm-crash", "--machines", "4", "--jobs", "6",
                 "--horizon", "1800", "--out", paths["events"],
                 "--trace", paths["trace"], "--series", paths["series"]]
            )
            assert code == 0
            runs[attempt] = paths
        return runs

    @staticmethod
    def normalized_events(path):
        # cycle.end carries duration_s, a wall-clock measurement — the
        # one legitimately nondeterministic field in a recording.
        records = []
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                record.get("fields", {}).pop("duration_s", None)
                records.append(record)
        return records

    def test_two_runs_bitwise_identical_within_mode(self, recordings):
        first, second = recordings["one"], recordings["two"]
        for stream in ("trace", "series"):
            with open(first[stream]) as a, open(second[stream]) as b:
                assert a.read() == b.read(), f"{stream} differs across runs"
        assert self.normalized_events(first["events"]) == self.normalized_events(
            second["events"]
        )
