"""Global placement substrate (RePlAce/OpenROAD-gpl substitute).

A bound-to-bound (B2B) quadratic analytical placer with bin-based
density spreading, net weighting, region constraints and an incremental
mode — the knobs Algorithm 1's seeded placement needs (seed starts,
``-incremental`` runs, IO-net weight scaling, Innovus-style region
constraints).  No flow legalizes or detail-places: QoR is measured at
global-placement positions.

The ``hpwl`` *function* shadows the ``repro.place.hpwl`` *submodule*
on attribute access (``repro.place.hpwl`` is the function once this
package is imported).  ``from repro.place.hpwl import ...`` still works
— import-from consults ``sys.modules`` before attributes — and the
submodule stays importable under the stable :data:`hpwl_module` alias.
"""

# Bind the submodule under an unshadowed name BEFORE the function
# import below rebinds the ``hpwl`` attribute to the function.
from repro.place import hpwl as hpwl_module
from repro.place.hpwl import hpwl, net_hpwl
from repro.place.problem import PlacementProblem
from repro.place.placer import GlobalPlacer, PlacerConfig, PlacementResult
from repro.place.regions import RegionConstraint

__all__ = [
    "hpwl",
    "hpwl_module",
    "net_hpwl",
    "PlacementProblem",
    "GlobalPlacer",
    "PlacerConfig",
    "PlacementResult",
    "RegionConstraint",
]
