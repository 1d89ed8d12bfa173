"""Frozen digests of what the one design generator produces.

One SHA-256 per design over its netlist digest, floorplan, clock
period and the instance / port coordinate and fixed columns of its
snapshot.  ``netlist_digest`` alone ignores coordinates, so the extra
columns pin macro pre-placement and the port ring too.  A change to
``generate_design`` that moves any of these fails here; re-baselining
means every paper table and golden downstream moves with it.
"""

import hashlib
from dataclasses import astuple

import pytest

from repro.cache import netlist_digest
from repro.designs import BENCHMARKS, DesignSpec, generate_design
from repro.netlist import design_snapshot

SPECS = {
    **BENCHMARKS,
    "asap7_macros": DesignSpec(
        "asap7_macros",
        2000,
        num_macros=3,
        enablement="asap7",
        clock_period=0.4,
        seed=7,
    ),
}

GOLDEN = {
    "aes": "e7d2cdd2abf2a409c3c38976f940f4f83aef64f25bff62c753cae02efc3d0c65",
    "jpeg": "57ef4a5bb970ae42cca5d25229f7bb2797e8b1e7ca74f79de94ff96f04e546eb",
    "ariane": "bfbb769b5522ead10100da732bf5405fc3ec059a07872186644586d3212a1d80",
    "BlackParrot": "b1b3533150068ee82855de22dd623370558b7870707ebd254449c45732853f50",
    "MegaBoom": "1e6d33d6b7a009c9a91b15c1fe7a6da764b5a85c05d44d4649d305796aa73760",
    "MemPool Group": "f2e5bfe7ada40d1fb087496761cb319756981b141d114988b8e851150260f3e5",
    "asap7_macros": "15d6b714fcbbbde78f74cb9ab9bf79052b1c73e476c6e0abfca55e6629a2d30d",
}


def design_digest(design) -> str:
    h = hashlib.sha256()
    h.update(netlist_digest(design.arrays()).encode())
    h.update(repr((astuple(design.floorplan), design.clock_period)).encode())
    columns = design_snapshot(design)["columns"]
    for name in ("inst_x", "inst_y", "inst_fixed", "port_x", "port_y"):
        h.update(name.encode())
        h.update(columns[name].tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_generated_design_is_frozen(name):
    assert design_digest(generate_design(SPECS[name])) == GOLDEN[name]
