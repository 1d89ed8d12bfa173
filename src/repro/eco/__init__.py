"""Incremental ECO: re-run the flow on netlist deltas, not designs.

Interactive users edit a few cells and want updated QoR in seconds;
this package is the delta path (ROADMAP item 5).  An edit script —
resize / swap / add / remove cell, reconnect pin — is applied to the
design snapshot a checkpointed run left behind, and QoR is recomputed
by touching only what the edit touched:

* clustering is *remapped*, not re-run: untouched clusters keep their
  assignment, added cells join their best-connected neighbour cluster;
* V-P&R re-sweeps only dirty clusters; untouched (cluster, shape)
  evaluations are kept from the checkpoint and their content-addressed
  cache entries are mtime-touched so concurrent GC keeps them warm;
* placement warm-starts from the checkpointed coordinates with only
  dirty clusters free;
* STA is the cold flow's single full update, over a timing graph
  recompiled once per script.

Entry points: :func:`run_eco` (one shot — the CLI `repro eco` path),
:class:`EcoSession` (persistent — repeated edits against one base,
the serve `POST /jobs/<id>/eco` path).  See docs/performance.md,
"Incremental ECO".
"""

from repro.eco.edits import SCHEMA, EcoEdit, EcoError, load_edit_script, parse_edits
from repro.eco.apply import EcoImpact, apply_edits
from repro.eco.engine import EcoResult, EcoSession, run_eco

__all__ = [
    "SCHEMA",
    "EcoEdit",
    "EcoError",
    "EcoImpact",
    "EcoResult",
    "EcoSession",
    "apply_edits",
    "load_edit_script",
    "parse_edits",
    "run_eco",
]
