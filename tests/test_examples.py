"""Smoke tests: the example scripts run end to end.

Examples are part of the public surface; these tests execute the
cheaper ones in-process (runpy) with controlled argv.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name, *argv):
    old_argv = sys.argv
    sys.argv = [str(EXAMPLES / name), *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_hierarchy_clustering(self, capsys):
        run_example("hierarchy_clustering.py", "aes")
        out = capsys.readouterr().out
        assert "Algorithm 2 picks level" in out
        assert "R_avg" in out

    def test_file_io_flow(self, tmp_path, capsys):
        run_example("file_io_flow.py", str(tmp_path))
        out = capsys.readouterr().out
        assert "problems: 0" in out
        assert (tmp_path / "aes_clusters.lef").exists()
        assert (tmp_path / "aes_placed.def").exists()

    def test_visualize_layout(self, tmp_path, capsys):
        run_example("visualize_layout.py", "aes", str(tmp_path))
        assert (tmp_path / "aes_placement.svg").exists()
        assert (tmp_path / "aes_clusters.svg").exists()
        assert (tmp_path / "aes_congestion.svg").exists()

    def test_quickstart(self, capsys):
        run_example("quickstart.py", "aes")
        out = capsys.readouterr().out
        assert "HPWL" in out
        assert "TNS" in out
        assert "ratio" in out

    def test_compare_clusterers(self, capsys):
        run_example("compare_clusterers.py", "aes")
        out = capsys.readouterr().out
        assert "=== aes: structural quality ===" in out
        assert "=== aes: PPA through the seeded flow (post-route) ===" in out
        # One row per clusterer in each table.
        first = [line.split()[0] for line in out.splitlines() if line.strip()]
        for method in ("ppa", "mfc", "bc", "ec", "louvain", "leiden"):
            assert first.count(method) == 2, method
