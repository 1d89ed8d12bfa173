"""The timers output's contract: clean import, near-zero overhead of
``obs.stage`` / ``obs.count`` while disabled, correct aggregation when
enabled, sane reports."""

import json
import time

import pytest

from repro import obs, perf
from repro.perf import PerfRegistry, PerfReport


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts and ends with a disabled, empty registry."""
    perf.disable()
    perf.reset()
    yield
    perf.disable()
    perf.reset()


class TestDisabledPath:
    def test_package_imports_cleanly(self):
        import repro.perf
        import repro.perf.profile
        import repro.perf.report
        import repro.perf.timers  # noqa: F401

        assert not perf.is_enabled()

    def test_disabled_stage_is_shared_null_object(self):
        """A disabled stage still reads the clock (``elapsed`` feeds
        the ``runtimes`` tables) but keeps no aggregate and is not
        pushed on the nesting stack."""
        with obs.stage("x") as outer:
            with obs.stage("other.name"):
                assert obs.session()._stack() == []
        assert outer.elapsed > 0.0
        assert perf.report().stages == {}

    def test_disabled_count_records_nothing(self):
        obs.count("cache.hit", 5)
        assert perf.counter_value("cache.hit") == 0

    def test_disabled_overhead_near_zero(self):
        """The disabled stage must stay within noise of a bare loop:
        one small object, three flag checks and the clock pair."""
        n = 20000

        def bare():
            t0 = time.perf_counter()
            for _ in range(n):
                pass
            return time.perf_counter() - t0

        def hooked():
            t0 = time.perf_counter()
            for _ in range(n):
                with obs.stage("hot"):
                    pass
            return time.perf_counter() - t0

        bare_s = min(bare() for _ in range(3))
        hooked_s = min(hooked() for _ in range(3))
        # Allow generous CI noise; a real regression (locking, dict
        # writes, object churn per call) is an order of magnitude.
        assert hooked_s - bare_s < 0.05, (
            f"disabled obs.stage cost {(hooked_s - bare_s) / n * 1e9:.0f} "
            "ns/call — expected a no-op"
        )


class TestEnabledPath:
    def test_stage_nesting_builds_paths(self):
        perf.enable()
        with obs.stage("flow"):
            with obs.stage("vpr"):
                with obs.stage("place"):
                    pass
            with obs.stage("vpr"):
                pass
        stages = perf.report().stages
        assert set(stages) == {"flow", "flow/vpr", "flow/vpr/place"}
        assert stages["flow/vpr"]["calls"] == 2
        assert stages["flow"]["total_s"] >= stages["flow/vpr"]["total_s"]

    def test_counters_accumulate_and_merge(self):
        perf.enable()
        obs.count("steiner.rsmt.hit")
        obs.count("steiner.rsmt.hit", 2)
        obs.count("steiner.rsmt.miss")
        assert perf.counter_value("steiner.rsmt.hit") == 3
        # Worker snapshot round-trip.
        obs.merge_worker(
            {"counters": {"steiner.rsmt.hit": 4, "vpr.candidates_evaluated": 7}}
        )
        assert perf.counter_value("steiner.rsmt.hit") == 7
        assert perf.counter_value("vpr.candidates_evaluated") == 7
        obs.merge_worker(None)  # tolerated
        assert perf.counter_value("steiner.rsmt.hit") == 7

    def test_reset_clears_everything(self):
        perf.enable()
        with obs.stage("s"):
            obs.count("c")
        perf.reset()
        assert perf.report().stages == {} and perf.report().counters == {}

    def test_independent_registry(self):
        reg = PerfRegistry()
        reg.add("a", 0.25)
        reg.count("k", 3)
        assert reg.counter_value("k") == 3
        assert reg.snapshot()["stages"]["a"]["total_s"] == 0.25
        assert not perf.is_enabled(), "default registry untouched"
        assert perf.counter_value("k") == 0


class TestReport:
    def test_report_schema_roundtrip(self, tmp_path):
        perf.enable()
        with obs.stage("flow"):
            obs.count("vpr.subnetlist.hit", 3)
            obs.count("vpr.subnetlist.miss", 1)
        report = perf.report(meta={"design": "aes", "jobs": 2})
        path = tmp_path / "perf.json"
        report.write(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == "repro.perf/1"
        assert loaded["meta"] == {"design": "aes", "jobs": 2}
        assert "flow" in loaded["stages"]
        assert loaded["counters"]["vpr.subnetlist.hit"] == 3

    def test_cache_rate(self):
        report = PerfReport(
            counters={"vpr.subnetlist.hit": 3, "vpr.subnetlist.miss": 1}
        )
        assert report.cache_rate("vpr.subnetlist") == pytest.approx(0.75)
        assert report.cache_rate("unknown") is None

    def test_summary_lines_rank_by_total(self):
        report = PerfReport(
            stages={
                "fast": {"total_s": 0.1, "calls": 1},
                "slow": {"total_s": 2.0, "calls": 4},
            },
            counters={"steiner.rsmt.hit": 9, "steiner.rsmt.miss": 1},
        )
        lines = report.summary_lines()
        assert lines[0].startswith("slow")
        assert any("90% cache hits" in line for line in lines)


class TestProfileHook:
    def test_cprofile_to_writes_dump(self, tmp_path):
        path = tmp_path / "prof.pstats"
        with perf.cprofile_to(str(path), top=5):
            sum(range(1000))
        assert path.exists()
        assert (tmp_path / "prof.pstats.txt").exists()

    def test_cprofile_none_is_noop(self):
        with perf.cprofile_to(None):
            pass
