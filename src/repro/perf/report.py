"""The JSON perf report emitted by the flow / CLI.

Schema (``repro.perf/1``)::

    {
      "schema": "repro.perf/1",
      "stages": {
        "<hierarchical/stage/name>": {
          "total_s": float,   # summed wall-clock seconds
          "calls": int,       # enter/exit pairs
          "mean_s": float,
          "min_s": float,
          "max_s": float
        }, ...
      },
      "counters": { "<name>": int, ... },
      "meta": { ... }         # free-form run context (design, jobs, ...)
    }

Stage names are ``/``-joined paths of ``obs.stage`` names
(``flow.vpr/vpr.select/vpr.sweep``), so a report
can be folded into a tree for display; counters follow a dotted
``subsystem.event`` convention (``steiner.rsmt.hit``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.perf.timers import PerfRegistry

SCHEMA = "repro.perf/1"


@dataclass
class PerfReport:
    """A serialisable snapshot of a :class:`PerfRegistry`."""

    stages: Dict[str, Dict[str, float]] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_registry(
        cls, registry: PerfRegistry, meta: Optional[Dict[str, object]] = None
    ) -> "PerfReport":
        """Snapshot ``registry`` (stages + counters) into a report."""
        snap = registry.snapshot()
        return cls(
            stages=snap["stages"],
            counters=snap["counters"],
            meta=dict(meta or {}),
        )

    def to_dict(self) -> Dict[str, object]:
        """The schema dict (see module docstring)."""
        return {
            "schema": SCHEMA,
            "stages": self.stages,
            "counters": self.counters,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PerfReport":
        """Rebuild a report from its schema dict.

        Raises ``ValueError`` on a wrong/missing schema marker, so a
        stale or foreign JSON file fails loudly instead of producing an
        empty report.
        """
        schema = data.get("schema")
        if schema != SCHEMA:
            raise ValueError(
                f"not a perf report (schema {schema!r}, expected {SCHEMA!r})"
            )
        return cls(
            stages=dict(data.get("stages") or {}),
            counters=dict(data.get("counters") or {}),
            meta=dict(data.get("meta") or {}),
        )

    def to_json(self, indent: int = 2) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path: str) -> None:
        """Write the JSON report to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "PerfReport":
        """Read a JSON report back (inverse of :meth:`write`)."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    # -- convenience ---------------------------------------------------
    def stage_total(self, name: str) -> float:
        """Total seconds of one stage (0 when absent)."""
        entry = self.stages.get(name)
        return float(entry["total_s"]) if entry else 0.0

    def cache_rate(self, prefix: str) -> Optional[float]:
        """Hit rate of a ``<prefix>.hit`` / ``<prefix>.miss`` counter
        pair; None when the cache was never queried."""
        hits = self.counters.get(f"{prefix}.hit", 0)
        misses = self.counters.get(f"{prefix}.miss", 0)
        total = hits + misses
        if total == 0:
            return None
        return hits / total

    def summary_lines(self, top: int = 12) -> list:
        """Human-readable top-N stage lines (for CLI output)."""
        ranked = sorted(
            self.stages.items(), key=lambda kv: -kv[1]["total_s"]
        )[:top]
        width = max((len(name) for name, _ in ranked), default=0)
        lines = [
            f"{name:<{width}}  {stat['total_s']:8.3f} s  x{stat['calls']}"
            for name, stat in ranked
        ]
        for prefix in sorted(
            {
                name.rsplit(".", 1)[0]
                for name in self.counters
                if name.endswith((".hit", ".miss"))
            }
        ):
            rate = self.cache_rate(prefix)
            if rate is not None:
                lines.append(f"{prefix}: {100 * rate:.0f}% cache hits")
        return lines
