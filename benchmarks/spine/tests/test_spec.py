"""BENCHMARK.json obeys the driver's contract and the harness's output
matches it name for name."""

import copy
import json
import math

import pytest

from benchmarks.spine import harness


@pytest.fixture(scope="module")
def spec():
    return harness.load_benchmark_json()


def test_benchmark_json_is_acceptable(spec):
    assert harness.benchmark_json_problems(spec) == []
    assert harness.BENCHMARK_JSON.stat().st_size <= 64 * 1024
    assert len(spec["workloads"]) <= 8
    assert len(spec["end_to_end"]) <= 16
    assert len(spec["per_layer"]) <= 128
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            assert harness.NAME_RE.match(entry["name"]), entry["name"]
    assert spec["paths"] == ["benchmarks/spine"]
    assert all(not part.startswith("/") and ".." not in part for part in spec["command"])
    # Every run of the driver's schedule fits its total budget only if
    # the per-run measuring time stays small.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * spec["run_seconds"] < 3420 / 2


def test_problems_are_reported(spec):
    broken = copy.deepcopy(spec)
    broken["end_to_end"][1]["bound"] = 0.5
    broken["per_layer"][0]["name"] = "bad name"
    broken["end_to_end"] = [e for e in broken["end_to_end"] if e["name"] != "setup_s"]
    problems = " ".join(harness.benchmark_json_problems(broken))
    assert "bound" in problems and "bad name" in problems and "setup_s" in problems
    assert harness.benchmark_json_problems({"command": []})


def test_workload_names_match(spec):
    from benchmarks.spine.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_lock_refuses_a_second_run():
    with harness.exclusive_workdir() as workdir:
        assert workdir.is_dir()
        with pytest.raises(harness.HarnessError, match="another spine run"):
            with harness.exclusive_workdir():
                pass
    assert not workdir.exists()


@pytest.fixture()
def tiny_sweep(monkeypatch):
    """sweep_cold shrunk to a one-cluster sweep on 1.5k-instance designs."""
    from benchmarks.spine import workloads
    from repro.designs.generator import DesignSpec

    class TinySweep(workloads.SweepCold):
        units = 2
        min_ops = 2
        trace_ops = 2
        SWEPT = 1

        def spec(self, unit):
            return DesignSpec(f"tiny{unit}", 1500, seed=100 + self.seed * 2 + unit)

    monkeypatch.setitem(workloads.WORKLOADS, "sweep_cold", TinySweep)


@pytest.mark.parametrize("trace", [False, True])
def test_result_object_validates_against_benchmark_json(spec, tiny_sweep, trace, capsys):
    from benchmarks.spine import run

    result = run.run_workload("sweep_cold", seed=0, seconds=0, trace=trace, trace_file=None)
    printed = capsys.readouterr().out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, printed
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for entry in declared:
        value = result["metrics"][entry["name"]]
        assert value["unit"] == entry["unit"]
        assert isinstance(value["value"], float) and math.isfinite(value["value"])
        assert f"sweep_cold {entry['name']} = " in printed
    json.dumps(result)  # serialisable as the last stdout line
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["vpr.candidates_evaluated"] == 20
        assert metrics["flow.unattributed_share"] < 0.10
        assert (
            metrics["place.b2b_solve_s"] + metrics["route.rsmt_s"]
            <= metrics["place.global_s"] + metrics["route.global_s"]
        )
        assert metrics["ml.select_s"] == 0 and metrics["eco.vpr_s"] == 0
    else:
        assert all(v["value"] != 0 for v in result["metrics"].values())
    assert "unmeasurable" in printed


def test_missing_program_is_a_clean_error(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "SRC", tmp_path / "src")
    with pytest.raises(harness.HarnessError, match="no program to measure"):
        harness.require_program()
