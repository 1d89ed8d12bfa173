"""RunReport serialisation, the diff gate, and HTML rendering."""

import json

import pytest

from repro import obs, telemetry
from repro.telemetry import SCHEMA, RunReport, diff_runs, render_html


def _report(**finals):
    """A minimal report whose streams end at the given final values."""
    metrics = {
        name: {"steps": [0.0, 1.0], "values": [value * 2.0, value]}
        for name, value in finals.items()
    }
    return RunReport(meta={"design": "unit"}, metrics=metrics)


class TestSerialisation:
    def test_round_trip_dict_and_disk(self, tmp_path):
        telemetry.enable()
        with obs.stage("flow.route", design="aes"):
            obs.observe("route.overflow", 0.02)
        obs.event("flow.done", hpwl=1.0)
        report = telemetry.run_report(
            meta={"design": "aes"}, qor={"qor.hpwl": 1.0}
        )
        again = RunReport.from_dict(report.to_dict())
        assert again.to_dict() == report.to_dict()

        path = tmp_path / "run.json"
        report.write(str(path))
        loaded = RunReport.load(str(path))
        assert loaded.to_dict() == report.to_dict()
        assert json.loads(path.read_text())["schema"] == SCHEMA

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            RunReport.from_dict({"schema": "something/else"})
        with pytest.raises(ValueError):
            RunReport.from_dict({})

    def test_queries(self):
        report = _report(**{"gp.hpwl": 10.0})
        report.spans = [
            {"id": 0, "parent": None, "name": "flow.vpr", "t0": 0.0, "dur": 1.0, "attrs": {}},
            {"id": 1, "parent": 0, "name": "vpr.sweep", "t0": 0.1, "dur": 0.5, "attrs": {}},
        ]
        report.events = [{"schema": SCHEMA, "seq": 0, "t": 0.0, "type": "flow.start"}]
        assert report.stream_final("gp.hpwl") == 10.0
        assert report.stream_final("missing") is None
        assert report.span_names() == ["flow.vpr", "vpr.sweep"]
        tree = report.span_tree()
        assert len(tree) == 1 and tree[0]["children"][0]["name"] == "vpr.sweep"
        assert len(report.events_of("flow.start")) == 1
        assert report.events_of("flow.done") == []


class TestDiff:
    def test_lower_is_better_regression(self):
        base = _report(**{"gp.hpwl": 100.0})
        worse = _report(**{"gp.hpwl": 110.0})
        better = _report(**{"gp.hpwl": 95.0})
        assert not diff_runs(base, worse, rel_threshold=0.05).ok
        assert diff_runs(base, worse, rel_threshold=0.15).ok
        assert diff_runs(base, better, rel_threshold=0.05).ok

    def test_higher_is_better_streams(self):
        # WNS toward more negative = worse, even though the value drops.
        base = _report(**{"sta.wns": -0.1})
        worse = _report(**{"sta.wns": -0.2})
        better = _report(**{"sta.wns": 0.05})
        assert not diff_runs(base, worse).ok
        assert diff_runs(base, better).ok

    def test_abs_threshold_tolerates_noise_near_zero(self):
        base = _report(**{"route.overflow": 0.0})
        tiny = _report(**{"route.overflow": 1e-12})
        assert diff_runs(base, tiny).ok
        real = _report(**{"route.overflow": 0.01})
        assert not diff_runs(base, real).ok

    def test_missing_stream_only_gates_when_requested(self):
        base = _report(**{"gp.hpwl": 100.0, "sta.wns": -0.1})
        cand = _report(**{"gp.hpwl": 100.0})
        # Unconstrained diff: a vanished stream is flagged.
        assert not diff_runs(base, cand).ok
        # Restricted to a stream both runs have: fine.
        assert diff_runs(base, cand, streams=["gp.hpwl"]).ok
        # Restricted to the vanished one: regression.
        diff = diff_runs(base, cand, streams=["sta.wns"])
        assert not diff.ok and diff.deltas[0].missing

    def test_describe_lines(self):
        base = _report(**{"gp.hpwl": 100.0})
        cand = _report(**{"gp.hpwl": 120.0})
        delta = diff_runs(base, cand).deltas[0]
        text = delta.describe()
        assert "gp.hpwl" in text and "REGRESSED" in text


class TestHtml:
    def test_self_contained_page(self, tmp_path):
        telemetry.enable()
        with obs.stage("flow.vpr"):
            for i in range(5):
                obs.observe("vpr.total_cost", 0.5 - 0.05 * i, step=i)
        obs.event("vpr.shape_selected", cluster=0, ar=1.5)
        report = telemetry.run_report(meta={"design": "aes"})
        out = tmp_path / "report.html"
        text = render_html(report, str(out))
        assert out.read_text() == text
        assert "<svg" in text  # inline convergence plot
        assert "vpr.total_cost" in text
        assert "flow.vpr" in text
        assert "vpr.shape_selected" in text
        assert "<script" not in text  # static page, no JS
