"""The measurement spine: one harness, four workloads, reconciling layers.

See ``README.md`` in this directory and ``BENCHMARK.json`` at the
repository root.
"""
