"""PerfReport JSON schema guarantees: round-trip, schema tagging, and
counter-merge associativity (the property the fork-pool relies on)."""

import json

import pytest

from repro.perf.report import SCHEMA, PerfReport
from repro.perf.timers import PerfRegistry


def _populated_registry():
    registry = PerfRegistry()
    registry.add("flow/vpr/place", 0.25)
    registry.add("flow/vpr", 0.5)
    registry.count("vpr.subnetlist.hit", 3)
    registry.count("vpr.subnetlist.miss", 1)
    return registry


class TestRoundTrip:
    def test_dict_round_trip(self):
        report = PerfReport.from_registry(
            _populated_registry(), meta={"design": "aes", "jobs": 2}
        )
        again = PerfReport.from_dict(report.to_dict())
        assert again.stages == report.stages
        assert again.counters == report.counters
        assert again.meta == report.meta

    def test_disk_round_trip(self, tmp_path):
        report = PerfReport.from_registry(_populated_registry(), meta={"seed": 0})
        path = tmp_path / "perf.json"
        report.write(str(path))
        loaded = PerfReport.load(str(path))
        assert loaded.to_dict() == report.to_dict()

    def test_json_round_trip_preserves_values(self):
        report = PerfReport.from_registry(_populated_registry())
        data = json.loads(report.to_json())
        again = PerfReport.from_dict(data)
        assert again.stage_total("flow/vpr") == report.stage_total("flow/vpr")
        assert again.cache_rate("vpr.subnetlist") == pytest.approx(0.75)


class TestSchemaField:
    def test_schema_version_stamped(self):
        assert PerfReport().to_dict()["schema"] == SCHEMA == "repro.perf/1"

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="repro.perf/1"):
            PerfReport.from_dict({"schema": "repro.perf/999", "stages": {}})
        with pytest.raises(ValueError):
            PerfReport.from_dict({"stages": {}, "counters": {}})

    def test_missing_sections_default_empty(self):
        report = PerfReport.from_dict({"schema": SCHEMA})
        assert report.stages == {} and report.counters == {} and report.meta == {}


class TestMergeAssociativity:
    A = {"x": 1, "y": 2}
    B = {"x": 10, "z": 5}
    C = {"y": 100, "z": 50}

    @staticmethod
    def _merged(*snapshots):
        registry = PerfRegistry()
        for snap in snapshots:
            registry.merge_counters(snap)
        return registry.snapshot()["counters"]

    def test_grouping_does_not_matter(self):
        # (A + B) + C  ==  A + (B + C): fold B and C into a scratch
        # registry first, then merge its snapshot.
        left = self._merged(self.A, self.B, self.C)
        bc = self._merged(self.B, self.C)
        right = self._merged(self.A, bc)
        assert left == right == {"x": 11, "y": 102, "z": 55}

    def test_order_does_not_matter(self):
        assert self._merged(self.A, self.B, self.C) == self._merged(
            self.C, self.A, self.B
        )

    def test_merge_ignores_empty_and_none_like(self):
        registry = PerfRegistry()
        registry.merge_counters({})
        assert registry.snapshot()["counters"] == {}
