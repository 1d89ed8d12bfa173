"""Vectorless power analysis.

Total power = switching + internal + leakage (+ clock network), the
metric reported in the paper's Tables 3-6.

* switching: ``0.5 * Vdd^2 * f * sum_nets(activity * C_net)``
* internal:  ``f * sum_cells(internal_energy * output_activity)``
* leakage:   ``sum_cells(leakage_power)``
* clock:     switching power of the CTS network (wire + buffers at
  activity 1.0), supplied by the router/CTS stage.

Units: Vdd in volts, f in GHz (1/ns), capacitance in fF, energy in fJ;
the products come out in mW after the 1e-3 factors cancel (fF * V^2 *
GHz = fJ/ns * 1e-3 = uW... we carry an explicit factor, see code).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.arrays import DIR_OUTPUT, NetlistArrays
from repro.sta.delay import WireDelayModel
from repro.sta.flat import check_wire_model, flat_for
from repro.sta.graph import timing_graph_for

#: Supply voltage (V), NanGate45 nominal.
VDD = 1.1

#: fF * V^2 * GHz = 1e-15 F * V^2 * 1e9 Hz = 1e-6 W = 1e-3 mW.
_FF_V2_GHZ_TO_MW = 1e-3


@dataclass
class PowerReport:
    """Power breakdown in mW."""

    switching: float
    internal: float
    leakage: float
    clock: float

    @property
    def total(self) -> float:
        """Total power (mW)."""
        return self.switching + self.internal + self.leakage + self.clock


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right sum (``cumsum``, never pairwise), 0.0 when empty."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def analyze_power(
    arrays: NetlistArrays,
    wire_model: WireDelayModel,
    activity: np.ndarray,
    clock_wirelength: float = 0.0,
    clock_buffers: int = 0,
    c_per_um: float = 0.2,
) -> PowerReport:
    """Compute the power report for the current placement/routing state.

    Args:
        arrays: The flat netlist.
        wire_model: Geometry source for net capacitances.
        activity: Toggle rate per net index, read by the switching and
            the internal term alike (:func:`repro.sta.propagate_activity`).
        clock_wirelength: Total CTS wire length (microns).
        clock_buffers: Number of inserted clock buffers.
        c_per_um: Wire capacitance for the clock network (fF/um).
    """
    check_wire_model(wire_model)
    period = arrays.current_scalar("clock_period") or 1.0
    freq_ghz = 1.0 / period
    flat = flat_for(timing_graph_for(arrays))
    # The analyzer's driver loads at the model's current geometry.
    load, _hpwl = flat.net_loads(wire_model, *flat.geometry(wire_model))
    activity = np.asarray(activity, dtype=np.float64)

    # Every sum below runs left to right in net / instance order
    # (cumsum), as a Python loop over the nets would.
    driven = flat.net_has_driver & ~flat.net_is_clock
    switching = _sequential_sum(0.5 * activity[driven] * load[driven])
    switching *= VDD * VDD * freq_ghz * _FF_V2_GHZ_TO_MW

    inst_master = arrays.inst_master
    leakage = _sequential_sum(arrays.m_leakage[inst_master])
    # Output toggle rate per instance: the max over its connected
    # output pins' nets; sequential
    # cells burn internal power on every clock edge.
    out_rows = np.flatnonzero((arrays.pin_inst >= 0) & (arrays.pin_dir == DIR_OUTPUT))
    out_activity = np.zeros(arrays.num_instances)
    np.fmax.at(
        out_activity, arrays.pin_inst[out_rows], activity[arrays.pin_net()[out_rows]]
    )
    is_seq = arrays.m_is_seq[inst_master]
    out_activity = np.where(is_seq, np.fmax(out_activity, 1.0), out_activity)
    internal = _sequential_sum(arrays.m_energy[inst_master] * out_activity)
    internal *= freq_ghz * _FF_V2_GHZ_TO_MW

    # Clock network: full-rate switching on the CTS wire capacitance
    # plus per-buffer energy, plus CK pin caps of the sinks (each
    # master's first clock pin).
    clock_slots = np.flatnonzero(arrays.mp_is_clock)
    slot_master = np.repeat(
        np.arange(len(arrays.master_names)), np.diff(arrays.mp_ptr)
    )[clock_slots]
    ck_masters, first = np.unique(slot_master, return_index=True)
    ck_cap = np.zeros(len(arrays.master_names))
    ck_cap[ck_masters] = arrays.mp_cap[clock_slots[first]]
    # A master without a clock pin adds +0.0: the sum is unchanged.
    ck_pin_cap = _sequential_sum(ck_cap[inst_master[is_seq]])
    clock_cap = c_per_um * clock_wirelength + ck_pin_cap
    buffer_energy = 2.0 * clock_buffers  # fJ per buffer per edge
    clock = (
        (0.5 * 1.0 * clock_cap * VDD * VDD + buffer_energy)
        * freq_ghz
        * _FF_V2_GHZ_TO_MW
    )

    return PowerReport(
        switching=switching, internal=internal, leakage=leakage, clock=clock
    )
