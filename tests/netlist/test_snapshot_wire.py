"""Design snapshots over the fleet wire: the remote state transfer.

The distributed sweep ships flat design snapshots to workers inside
:mod:`repro.codec` frames (``repro.core.wire``): the snapshot's header
in the frame's JSON header, its columns as the frame's ``.npy``
columns.  These tests round-trip a real snapshot over a real
``socket.socketpair()`` and pin
the property the fleet's bit-identity contract needs: a design
rebuilt on the far side is content-identical, and a torn transfer is
rejected with a typed error instead of yielding a partial design.
"""

import socket
import threading

import pytest

from repro import codec
from repro.cache import netlist_digest
from repro.core import wire
from repro.designs import DesignSpec, generate_design
from repro.netlist import design_from_snapshot, design_snapshot



@pytest.fixture(scope="module")
def design():
    return generate_design(
        DesignSpec(name="wiresnap", num_instances=300, seed=11)
    )


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestSnapshotOverSocket:
    def test_rebuilt_design_is_content_identical(self, design, pair):
        left, right = pair
        snapshot = design_snapshot(design)
        header = {
            "type": "state",
            "digest": netlist_digest(design.arrays()),
            "form": snapshot["form"],
            "snapshot": snapshot["header"],
        }
        # A real snapshot frame is larger than the socketpair buffer;
        # send from a thread exactly as parent and worker overlap.
        writer = threading.Thread(
            target=wire.send_msg, args=(left, header, snapshot["columns"])
        )
        writer.start()
        received, columns = wire.recv_msg(right)
        writer.join()

        rebuilt = design_from_snapshot(
            {"form": received["form"], "header": received["snapshot"], "columns": columns}
        )
        assert netlist_digest(rebuilt.arrays()) == netlist_digest(design.arrays())
        assert received["digest"] == netlist_digest(design.arrays())
        assert len(rebuilt.instances) == len(design.instances)
        assert len(rebuilt.nets) == len(design.nets)

    def test_truncated_snapshot_stream_is_rejected(self, design, pair):
        left, right = pair
        snapshot = design_snapshot(design)
        frame = codec.encode_frame(
            {"type": "state", "snapshot": snapshot["header"]}, snapshot["columns"]
        )
        cut = len(frame) // 2

        def torn_writer():
            left.sendall(frame[:cut])
            left.close()  # the worker died mid-transfer

        writer = threading.Thread(target=torn_writer)
        writer.start()
        with pytest.raises(wire.WireTruncated):
            wire.recv_msg(right)
        writer.join()

    def test_clean_close_before_snapshot_is_not_truncation(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(wire.WireClosed):
            wire.recv_msg(right)
