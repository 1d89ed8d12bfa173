"""Unit tests for the shared RSS/CPU probes (repro.perf.rss)."""

import mmap
import time

from repro import perf
from repro.perf.rss import cpu_times, peak_rss_bytes, rss_bytes


class TestRssProbes:
    def test_rss_is_positive_and_plausible(self):
        rss = rss_bytes()
        # any live CPython interpreter sits between ~1 MiB and ~1 TiB
        assert 1024 * 1024 < rss < 1 << 40

    def test_peak_bounds_current(self):
        # the high-water mark can never be below the live resident set
        # (modulo the instant between the two reads, hence the slack)
        assert peak_rss_bytes() >= rss_bytes() * 0.5

    def test_peak_is_monotone(self):
        first = peak_rss_bytes()
        ballast = bytearray(8 * 1024 * 1024)
        ballast[::4096] = b"x" * len(ballast[::4096])  # fault pages in
        second = peak_rss_bytes()
        del ballast
        assert second >= first

    def test_allocation_raises_peak(self):
        """In a fresh interpreter (whose high-water mark is still low —
        in-process the suite has already pushed it far above any small
        allocation), faulting in 32 MiB must raise the peak."""
        import subprocess
        import sys

        code = (
            "from repro.perf.rss import peak_rss_bytes, rss_bytes\n"
            "before = peak_rss_bytes()\n"
            # size past the current peak: freed-but-resident allocator
            # pages mean a fixed ballast may fit under the high-water
            # mark without touching new memory
            "size = max(0, before - rss_bytes()) + 32 * 1024 * 1024\n"
            "ballast = bytearray(size)\n"
            "ballast[::4096] = b'x' * len(ballast[::4096])\n"
            "after = peak_rss_bytes()\n"
            "assert after >= before + 16 * 1024 * 1024, (before, after)\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_cpu_seconds_advances_with_work(self):
        start = cpu_times()
        assert start.cpu_s >= start.system_s >= 0.0
        assert start.minor_faults >= 0
        deadline = time.process_time() + 0.05
        total = 0
        while time.process_time() < deadline:
            total += sum(range(1000))
        assert cpu_times().cpu_s > start.cpu_s

    def test_minor_faults_count_fresh_pages(self):
        start = cpu_times().minor_faults
        with mmap.mmap(-1, 16 << 20) as fresh:  # never from the heap
            fresh[:: 1 << 12] = b"x" * (1 << 12)
        # At least one fault per page, or per 2 MiB transparent huge page.
        assert cpu_times().minor_faults - start >= 8

    def test_reexported_from_perf_package(self):
        assert perf.rss_bytes is rss_bytes
        assert perf.peak_rss_bytes is peak_rss_bytes
        assert perf.cpu_times is cpu_times
