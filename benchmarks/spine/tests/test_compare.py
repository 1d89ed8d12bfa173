from benchmarks.spine import compare


def _document(values):
    return {
        "runs": [
            {
                "workload": "w",
                "seed": i,
                "trace": 0,
                "result": {"metrics": {"m": {"value": v, "unit": "s"}}},
            }
            for i, v in enumerate(values)
        ]
        + [
            {
                "workload": "w",
                "seed": 0,
                "trace": 1,
                "result": {"metrics": {"layer": {"value": 1.0, "unit": "s"}}},
            }
        ]
    }


SPEC = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [{"name": "m", "unit": "s", "better": "lower", "bound": 0.1}],
}


def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(steady, steady, 0.1, "lower") == "same"
    assert compare.verdict(steady, [v * 1.2 for v in steady], 0.1, "lower") == "worse"
    assert compare.verdict(steady, [v * 0.8 for v in steady], 0.1, "lower") == "better"
    assert compare.verdict(steady, [v * 0.8 for v in steady], 0.1, "higher") == "worse"
    noisy = [10.0, 14.0, 7.0, 12.0, 8.0]
    assert compare.verdict(noisy, [v * 1.5 for v in noisy], 0.1, "lower") == "unresolved"


def test_rows_skip_traced_runs_and_flag_identity():
    a = _document([1.0, 1.01, 0.99])
    rows = compare.compare(a, a, SPEC)
    assert len(rows) == 1
    assert rows[0]["identical"] and rows[0]["verdict"] == "same"
    assert rows[0]["n"] == (3, 3)


def test_exit_status(tmp_path):
    import json

    (tmp_path / "a.json").write_text(json.dumps(_document([1.0, 1.0, 1.0])))
    (tmp_path / "b.json").write_text(json.dumps(_document([2.0, 2.0, 2.0])))
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    # The real BENCHMARK.json has no workload "w": no rows, nothing worse.
    assert compare.main([a, b]) == 0
    assert compare.main([a]) == 2
