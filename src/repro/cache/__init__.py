"""Content-addressed, disk-backed V-P&R evaluation cache.

Every (cluster, shape candidate) V-P&R evaluation is a pure function
of the induced sub-netlist, the shape and the evaluation-relevant
:class:`~repro.core.vpr.VPRConfig` knobs — so repeat runs (CI gates,
parameter sweeps, GNN-training data harvests) can serve identical
:class:`~repro.core.vpr.CandidateEvaluation` results from disk instead
of re-running place + route.

* :mod:`repro.cache.keys` — the content address: a SHA-256 over the
  canonical sub-netlist form, the shape, the config fingerprint and
  the cache schema version.
* :mod:`repro.cache.store` — :class:`EvaluationCache`, the sharded
  on-disk store: atomic rename writes, corruption-tolerant reads (a
  bad entry is a miss, never a crash), a size-bounded LRU garbage
  collector, and ``vpr.cache.*`` perf counters.

Concurrency contract (see ``docs/performance.md``): fleet
**workers never see the store** — lookups, writes and GC all happen in
the sweep's own process, so the hot path takes no locks.  Warm results
are byte-identical to cold ones.
"""

from repro.cache.keys import (
    SCHEMA,
    cache_key,
    config_fingerprint,
    netlist_digest,
)
from repro.cache.store import (
    CacheStats,
    EvaluationCache,
    derive_cache_summary,
)

__all__ = [
    "SCHEMA",
    "CacheStats",
    "EvaluationCache",
    "cache_key",
    "config_fingerprint",
    "derive_cache_summary",
    "netlist_digest",
]
