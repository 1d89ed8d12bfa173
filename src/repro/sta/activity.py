"""Vectorless switching-activity propagation (findClkedActivity substitute).

Primary inputs receive the netlist's input toggle rate
(``input_activity``, SDC ``set_switching_activity -toggle_rate``);
activity propagates forward through the levelized timing graph with a
per-cell-class attenuation factor (inverters pass activity through,
wide logic attenuates, sequential outputs re-time to a fixed register
activity).  The result is one per-net array — the theta_e of the
paper's switching cost (Eq. 2) and the toggle rates power analysis
reads — returned to the caller; nothing is written onto the netlist.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.sta.graph import TimingGraph

#: Activity transfer factor per cell class: output toggle rate as a
#: fraction of the mean input toggle rate.
TRANSFER_FACTORS: Dict[str, float] = {
    "inv": 1.0,
    "buf": 1.0,
    "logic": 0.62,
    "arith": 0.88,
    "mux": 0.70,
    "seq": 0.0,  # sequential outputs use REGISTER_ACTIVITY instead
    "macro": 0.0,
    "io": 1.0,
}

#: Toggle rate assumed at sequential (FF / macro) outputs.
REGISTER_ACTIVITY = 0.20

#: Floor so deep logic cones never decay to exactly zero.
ACTIVITY_FLOOR = 0.005


def propagate_activity(graph: TimingGraph) -> np.ndarray:
    """Switching activity per net index (toggles per cycle).

    Clock nets get the full clock toggle rate of 1.0, driven nets their
    driver's propagated rate (at least :data:`ACTIVITY_FLOOR`), and
    undriven nets 0.0.

    Wave-sliced over the flat compilation, bit-identical to the
    per-arc oracle in ``tests/sta/reference.py``: the mean-input sums
    accumulate with ``np.add.at`` in that walk's visitation order.
    """
    from repro.sta.flat import flat_for

    flat = flat_for(graph)
    n = flat.num_nodes
    # One extra slot: virtual node for driver pins absent from the
    # graph (zero activity, floored to ACTIVITY_FLOOR below).
    act = np.zeros(n + 1, dtype=np.float64)
    if len(flat.s_nodes):
        act[flat.s_nodes] = np.where(
            flat.s_isport,
            flat.arrays.current_scalar("input_activity"),
            REGISTER_ACTIVITY,
        )
    insum = np.zeros(n, dtype=np.float64)
    fsrc = flat.f_src
    fdst = flat.f_dst
    fwire = flat.f_iswire
    for lvl in range(1, flat.max_level + 1):
        a0 = flat.wave_f[lvl]
        a1 = flat.wave_f[lvl + 1]
        if a0 == a1:
            continue
        wire = fwire[a0:a1]
        wsl = np.flatnonzero(wire) + a0
        if len(wsl):
            np.maximum.at(act, fdst[wsl], act[fsrc[wsl]])
        csl = np.flatnonzero(~wire) + a0
        if len(csl):
            cdst = fdst[csl]
            # add.at accumulates sequentially in array order — the fwd
            # order within a dst is (rank(src), creation), the scalar
            # accumulation order.
            np.add.at(insum, cdst, act[fsrc[csl]])
            vs = np.unique(cdst)
            act[vs] = np.maximum(
                ACTIVITY_FLOOR,
                flat.act_factor[vs] * (insum[vs] / flat.cell_in_cnt[vs]),
            )
    net_act = np.maximum(ACTIVITY_FLOOR, act[flat.drv_node])
    net_act = np.where(np.isnan(net_act), ACTIVITY_FLOOR, net_act)
    net_act = np.where(flat.net_has_driver, net_act, 0.0)
    return np.where(flat.net_is_clock, 1.0, net_act)
