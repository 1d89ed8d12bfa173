"""Array-native netlist core: equivalence, round-trips and caching.

The contract under test (docs/performance.md "Array-native core &
memory model"): :class:`repro.netlist.arrays.NetlistArrays` is the
primary representation — every converted consumer must reproduce the
object-walk reference bit for bit, round-trips must be digest-exact,
and the structure-keyed caches must invalidate on mutation.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.cache import netlist_digest
from repro.designs import DesignSpec, generate_design, load_benchmark
from repro.netlist import NetlistArrays, design_from_snapshot, design_snapshot
from repro.netlist.arrays import COLUMNS
from repro.netlist.design import CellPin, PinDirection, PinRef
from repro.netlist.hypergraph import Hypergraph
from repro.place.hpwl import hpwl, net_hpwl
from repro.place.problem import PlacementProblem
from repro.sta.analysis import TimingAnalyzer
from repro.sta.delay import PlacementWireModel
from repro.sta.graph import TimingGraph
from tests.netlist.reference import (
    hypergraph_reference,
    placement_problem_reference,
    score_arrays_reference,
)
from tests.sta.reference import (
    CELL,
    WIRE,
    GraphView,
    ReferenceAnalyzer,
    build_graph_reference,
)

BENCHES = ("aes", "ariane")


@pytest.fixture(scope="module", params=BENCHES)
def bench_pair(request):
    """Two independently built copies of one benchmark design."""
    name = request.param
    return (
        load_benchmark(name, use_cache=False),
        load_benchmark(name, use_cache=False),
    )


class TestConsumerEquivalence:
    """Arrays-path consumers match the object-walk reference exactly."""

    def test_hypergraph_identical(self, bench_pair):
        d_arr, d_ref = bench_pair
        for kwargs in ({}, {"include_clock_nets": True}, {"max_edge_degree": 8}):
            ha = Hypergraph.from_netlist(d_arr.arrays(), **kwargs)
            hr = hypergraph_reference(d_ref, **kwargs)
            assert ha.edges == hr.edges
            assert np.array_equal(ha.edge_weights, hr.edge_weights)
            assert np.array_equal(ha.vertex_areas, hr.vertex_areas)
            assert np.array_equal(ha.edge_net_indices, hr.edge_net_indices)
            assert ha.num_edges == hr.num_edges
            assert ha.num_pins == hr.num_pins

    def test_placement_problem_identical(self, bench_pair):
        d_arr, d_ref = bench_pair
        for include_clock in (False, True):
            pa = PlacementProblem(
                d_arr.arrays(), d_arr.floorplan, include_clock=include_clock
            )
            reference = placement_problem_reference(d_ref, include_clock)
            assert set(reference) == {
                field
                for field, value in vars(pa).items()
                if isinstance(value, np.ndarray)
            }
            for field, ref_value in reference.items():
                assert np.array_equal(getattr(pa, field), ref_value), field

    def test_scoring_arrays_identical(self, bench_pair):
        """The V-P&R scoring walk ``_SubContext`` carried == the cached
        ``pin_vertex_csr``, value for value and dtype for dtype, on the
        whole design (clock nets kept) and on induced sub-netlists."""
        from repro.core.vpr import extract_subnetlist
        from tests.netlist.reference import extract_subnetlist_reference

        d_arr, d_ref = bench_pair
        n = d_arr.num_instances
        pairs = [(d_arr.arrays(), d_ref)] + [
            (
                extract_subnetlist(d_arr, members),
                extract_subnetlist_reference(d_ref, members),
            )
            for members in (range(0, n // 3), range(n // 2, n // 2 + 25), [n - 1])
        ]
        for netlist, reference in pairs:
            pins, offsets = score_arrays_reference(reference)
            pin_vertex, net_offsets, nets = netlist.pin_vertex_csr(include_clock=True)
            assert pin_vertex.dtype == pins.dtype and np.array_equal(pin_vertex, pins)
            assert net_offsets.dtype == offsets.dtype
            assert np.array_equal(net_offsets, offsets)
            assert len(nets) == len(offsets) - 1
            # Memoised: the next caller gets the same arrays.
            assert netlist.pin_vertex_csr(include_clock=True)[0] is pin_vertex

    def test_timing_graph_identical(self, bench_pair):
        d_arr, d_ref = bench_pair
        ga = TimingGraph(d_arr.arrays())
        gr = build_graph_reference(d_ref)
        assert ga.num_nodes == len(gr.node_names)
        assert [ga.node_name(i) for i in range(ga.num_nodes)] == gr.node_names
        src, dst, num_wire = ga.flat_arc_arrays()
        assert src.tolist() == gr.arc_src
        assert dst.tolist() == gr.arc_dst
        assert num_wire == gr.num_wire_arcs
        assert ga.startpoints == gr.startpoints
        assert ga.endpoints == gr.endpoints
        assert ga.topo_order == gr.topo_order
        assert ga.levels.tolist() == gr.levels
        # The oracle's adjacency view lists the same arcs, per source in
        # creation order, with the net / driving instance as payload.
        by_src = [[] for _ in range(ga.num_nodes)]
        for i, (u, v, payload) in enumerate(
            zip(gr.arc_src, gr.arc_dst, gr.arc_payload)
        ):
            kind = WIRE if i < gr.num_wire_arcs else CELL
            by_src[u].append((v, kind, payload))
        assert [
            [(v, kind, payload.index) for v, kind, payload in arcs]
            for arcs in GraphView(ga, d_arr).arcs
        ] == by_src

    def test_sta_slacks_identical(self, bench_pair):
        d_arr, d_ref = bench_pair
        ra = TimingAnalyzer(TimingGraph(d_arr.arrays()), PlacementWireModel()).update()
        rr = ReferenceAnalyzer(d_ref, PlacementWireModel()).update()
        assert ra.wns == rr.wns
        assert ra.tns == rr.tns
        assert ra.endpoint_slacks == rr.endpoint_slacks

    def test_hpwl_matches_per_net_walk(self, bench_pair):
        d_arr, _ = bench_pair
        total = hpwl(d_arr.arrays())
        walked = sum(
            net_hpwl(d_arr, net) for net in d_arr.nets if not net.is_clock
        )
        assert total == pytest.approx(walked, rel=0, abs=1e-9)


class TestRoundTrip:
    """Design -> NetlistArrays -> Design is digest-exact."""

    def test_digest_identity(self, bench_pair):
        design, _ = bench_pair
        rebuilt = design.arrays().to_design()
        assert netlist_digest(rebuilt.arrays()) == netlist_digest(design.arrays())

    def test_rebuilt_design_equivalent_consumers(self, bench_pair):
        design, _ = bench_pair
        rebuilt = design.arrays().to_design()
        ha = Hypergraph.from_netlist(design.arrays())
        hb = Hypergraph.from_netlist(rebuilt.arrays())
        assert ha.edges == hb.edges
        assert hpwl(design.arrays()) == hpwl(rebuilt.arrays())
        ra = TimingAnalyzer(
            TimingGraph(design.arrays()), PlacementWireModel()
        ).update()
        rb = TimingAnalyzer(
            TimingGraph(rebuilt.arrays()), PlacementWireModel()
        ).update()
        assert ra.wns == rb.wns
        assert ra.endpoint_slacks == rb.endpoint_slacks

    def test_from_design_matches_rebuilt_arrays(self, bench_pair):
        design, _ = bench_pair
        first = design.arrays()
        second = first.to_design().arrays()
        for field in (
            "inst_master",
            "net_ptr",
            "pin_inst",
            "pin_port",
            "pin_name_idx",
            "pin_slot",
            "net_has_driver",
            "net_is_clock",
            "port_name_idx",
            "port_x",
            "port_y",
        ):
            assert np.array_equal(
                getattr(first, field), getattr(second, field)
            ), field
        assert first.name_pool == second.name_pool
        assert first.master_names == second.master_names


class TestSlotsAndPickling:
    """__slots__ classes stay picklable and snapshot-safe."""

    def test_cellpin_pickle_and_deepcopy(self):
        pin = CellPin("A", PinDirection.INPUT, 1.5, False)
        clone = pickle.loads(pickle.dumps(pin))
        assert (clone.name, clone.direction, clone.capacitance, clone.is_clock) == (
            "A",
            PinDirection.INPUT,
            1.5,
            False,
        )
        deep = copy.deepcopy(pin)
        assert deep.name == pin.name and deep.capacitance == pin.capacitance

    def test_pinref_pickle_and_deepcopy(self):
        ref = PinRef(None, "in0")
        clone = pickle.loads(pickle.dumps(ref))
        assert clone.instance is None and clone.pin_name == "in0"
        assert copy.deepcopy(ref).pin_name == "in0"

    def test_slots_have_no_dict(self):
        pin = CellPin("A", PinDirection.INPUT)
        ref = PinRef(None, "x")
        assert not hasattr(pin, "__dict__")
        assert not hasattr(ref, "__dict__")

    def test_snapshot_roundtrip_digest(self):
        design = generate_design(DesignSpec("snapshot_rt", 400, seed=5))
        snapshot = pickle.loads(pickle.dumps(design_snapshot(design)))
        rebuilt = design_from_snapshot(snapshot)
        assert netlist_digest(rebuilt.arrays()) == netlist_digest(design.arrays())
        # A design rebuilt from flat columns alone has the source's
        # timing graph, arc for arc.
        for decoded, source in zip(
            TimingGraph(rebuilt.arrays()).flat_arc_arrays(),
            TimingGraph(design.arrays()).flat_arc_arrays(),
        ):
            assert np.array_equal(decoded, source)


class TestStructureCaches:
    """arrays() and its degree counts invalidate on mutation."""

    @pytest.fixture()
    def design(self):
        return generate_design(DesignSpec("cache_probe", 300, seed=9))

    def test_net_degrees_match_objects(self, design):
        arrays = design.arrays()
        for net in design.nets:
            assert arrays.net_degree[net.index] == net.degree
            assert arrays.net_fanout[net.index] == net.fanout

    def test_net_degrees_invalidated_on_connect(self, design):
        degrees = design.arrays().net_degree
        net = design.nets[0]
        master = next(
            m for m in design.masters.values() if m.input_pins()
        )
        inst = design.add_instance("cache_probe_sink", master)
        design.connect_instance_pin(net, inst, master.input_pins()[0].name)
        new_degrees = design.arrays().net_degree
        assert new_degrees[net.index] == degrees[net.index] + 1

    def test_arrays_cached_against_structure_key(self, design):
        arrays = design.arrays()
        assert design.arrays() is arrays
        design.add_instance("cache_probe_u", next(iter(design.masters.values())))
        assert design.arrays() is not arrays

    def test_pickle_drops_caches(self, design):
        design.arrays()
        state = design.__getstate__()
        assert "_netlist_arrays" not in state


class TestGenerateArrays:
    """Arrays built directly from columns materialize into a Design."""

    def test_materialized_design_round_trips(self):
        source = generate_design(DesignSpec("fastgen", 3000, seed=13))
        columns = source.arrays()
        fields = {
            name: getattr(columns, name)
            for name in (
                "name", "floorplan", "clock_period", "clock_port",
                "input_activity", "name_pool", "master_names", "master_classes",
                "inst_names", "net_names", *COLUMNS,
            )
        }
        arrays = NetlistArrays(**fields)
        design = arrays.to_design()
        assert design.num_instances == arrays.num_instances
        assert design.num_nets == arrays.num_nets
        rebuilt = design.arrays()
        assert rebuilt is arrays
        assert netlist_digest(design.arrays()) == netlist_digest(source.arrays())
        for built, reference in zip(
            TimingGraph(design.arrays()).flat_arc_arrays(),
            TimingGraph(source.arrays()).flat_arc_arrays(),
        ):
            assert np.array_equal(np.asarray(built), np.asarray(reference))
