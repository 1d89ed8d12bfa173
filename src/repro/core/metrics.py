"""PPA metric records reported by every flow."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class PPAMetrics:
    """The metric set of Algorithm 1's output line.

    Attributes:
        hpwl: Post-place half-perimeter wirelength (microns).
        rwl: Post-route wirelength (microns); None when routing skipped.
        wns: Post-route worst negative slack (ns), setup.
        tns: Post-route total negative slack (ns), setup.
        power: Post-route total power (mW).
        hold_wns: Post-route worst hold slack (ns).
        hold_tns: Post-route total negative hold slack (ns).
        runtimes: Stage name -> wall-clock seconds (clustering, vpr,
            cluster_place, seeded_place, route, sta...).  A stage served
            from a store has one entry under its record's name
            (``clustering``, ``vpr``, ``seeded``, ``metrics``): the
            seconds this run spent serving it.
    """

    hpwl: float
    rwl: Optional[float] = None
    wns: Optional[float] = None
    tns: Optional[float] = None
    power: Optional[float] = None
    hold_wns: Optional[float] = None
    hold_tns: Optional[float] = None
    runtimes: Dict[str, float] = field(default_factory=dict)

    @property
    def placement_runtime(self) -> float:
        """Cumulative clustering + seeded-placement runtime — the
        paper's Table 2 "CPU" column.  V-P&R shape selection is
        excluded here (the paper accelerates it ~30x with the ML model
        and reports its breakdown separately); it remains available in
        ``runtimes["vpr"]``."""
        keys = (
            "clustering",
            "hier_clustering",
            "sta",
            "cluster_place",
            "seed",
            "incremental_place",
            "place",
            "seeded",
        )
        return sum(self.runtimes.get(k, 0.0) for k in keys)

    def as_row(self) -> Dict[str, float]:
        """Flat dict for table printing."""
        return {
            "hpwl": self.hpwl,
            "rwl": self.rwl if self.rwl is not None else float("nan"),
            "wns": self.wns if self.wns is not None else float("nan"),
            "tns": self.tns if self.tns is not None else float("nan"),
            "power": self.power if self.power is not None else float("nan"),
            "cpu": self.placement_runtime,
        }
