"""Wire delay / capacitance models.

Three fidelity levels, used at different points of the flow:

* :class:`FanoutWireModel` — pre-placement, wire length estimated from
  fanout alone (the model synthesis-time STA would use).
* :class:`PlacementWireModel` — post-placement, per-sink Manhattan
  distance and HPWL-based net capacitance.
* :class:`RoutedWireModel` — post-routing, uses the global router's
  per-net routed lengths (Steiner length inflated by congestion
  detours).

Unit system: distance in microns, resistance in kOhm, capacitance in
fF, time in ns.  1 kOhm * 1 fF = 1 ps = 1e-3 ns, hence the ``RC_NS``
conversion factor.
"""

from __future__ import annotations

from typing import Dict, Optional

#: ns per (kOhm * fF).
RC_NS = 1e-3

#: Default per-micron wire resistance (kOhm/um), NanGate45-ish metal.
DEFAULT_R_PER_UM = 0.002

#: Default per-micron wire capacitance (fF/um).
DEFAULT_C_PER_UM = 0.2

#: Virtual buffering: loads above this are assumed to be buffered by
#: the implementation tool (OpenROAD resizer / Innovus optDesign both
#: do this before routing), so a driver never sees more than this
#: capacitance directly...
BUFFERED_LOAD_FF = 40.0

#: ...and each doubling of the remaining load costs one buffer stage.
BUFFER_STAGE_DELAY_NS = 0.045


def effective_cell_delay(
    intrinsic_delay: float, drive_resistance: float, load: float
) -> float:
    """Linear cell delay with virtual buffering of large loads.

    ``delay = intrinsic + R * min(load, BUFFERED) + stage_delay *
    log2(load / BUFFERED)`` — the logarithmic term models the buffer
    tree the implementation tools would insert for high-fanout nets.
    """
    import math

    direct = min(load, BUFFERED_LOAD_FF)
    delay = intrinsic_delay + drive_resistance * direct
    if load > BUFFERED_LOAD_FF:
        delay += BUFFER_STAGE_DELAY_NS * math.log2(load / BUFFERED_LOAD_FF)
    return delay


class WireDelayModel:
    """Base class: the electrical parameters of a wire model.

    A model is data: per-micron resistance and capacitance, plus what
    each subclass adds.  The per-net geometry (wire length, driver-to-
    sink distance, driver load) is computed for all nets at once over
    the flat form by :class:`repro.sta.flat.FlatTiming`; the per-object
    walk it replaced is the tests' oracle (``tests/sta/reference.py``).
    """

    def __init__(
        self,
        r_per_um: float = DEFAULT_R_PER_UM,
        c_per_um: float = DEFAULT_C_PER_UM,
    ) -> None:
        self.r_per_um = r_per_um
        self.c_per_um = c_per_um


class FanoutWireModel(WireDelayModel):
    """Placement-oblivious model: wire length grows with fanout.

    ``WL = wl_per_fanout * max(1, fanout)`` is the classic synthesis
    wireload approximation, and every driver-to-sink distance is
    ``wl_per_fanout``; used for the pre-placement STA that seeds the
    PPA-aware clustering when no placement exists yet.
    """

    def __init__(self, wl_per_fanout: float = 4.0, **kwargs) -> None:
        super().__init__(**kwargs)
        self.wl_per_fanout = wl_per_fanout


class PlacementWireModel(WireDelayModel):
    """Post-placement model: HPWL net length, Manhattan driver-to-sink
    distance between instance centres / port locations."""


class RoutedWireModel(PlacementWireModel):
    """Post-route model: per-net routed lengths from the global router.

    ``routed_lengths`` maps net index to routed wire length (microns);
    nets absent from the map fall back to the placement HPWL.  Sink
    distances are scaled by the net's detour ratio
    ``max(1, routed / hpwl)`` so congestion-driven detours lengthen the
    timing arcs they affect.
    """

    def __init__(
        self,
        routed_lengths: Optional[Dict[int, float]] = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.routed_lengths = routed_lengths or {}
