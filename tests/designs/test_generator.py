"""Synthetic design generator tests."""

import pytest

from repro.designs import DesignSpec, generate_design
from repro.netlist.hierarchy import HierarchyTree
from repro.sta.graph import TimingGraph
from tests.sta.reference import CELL, GraphView


def spec(**kwargs) -> DesignSpec:
    base = dict(
        name="g",
        num_instances=300,
        clock_period=0.7,
        logic_depth=8,
        hierarchy_depth=2,
        hierarchy_branching=3,
        seed=5,
    )
    base.update(kwargs)
    return DesignSpec(**base)


class TestGeneration:
    def test_instance_count_close_to_target(self):
        design = generate_design(spec())
        assert abs(design.num_instances - 300) <= 5

    def test_structurally_valid(self):
        design = generate_design(spec())
        assert design.validate() == []

    def test_deterministic(self):
        a = generate_design(spec())
        b = generate_design(spec())
        assert a.num_instances == b.num_instances
        assert a.num_nets == b.num_nets
        assert [i.name for i in a.instances] == [i.name for i in b.instances]
        for na, nb in zip(a.nets, b.nets):
            assert na.name == nb.name
            assert na.degree == nb.degree

    def test_seed_changes_output(self):
        a = generate_design(spec(seed=1))
        b = generate_design(spec(seed=2))
        degrees_a = [n.degree for n in a.nets]
        degrees_b = [n.degree for n in b.nets]
        assert degrees_a != degrees_b

    def test_sequential_fraction(self):
        design = generate_design(spec(seq_fraction=0.25))
        frac = len(design.sequential_instances()) / design.num_instances
        assert frac == pytest.approx(0.25, abs=0.05)

    def test_timing_graph_acyclic(self):
        design = generate_design(spec())
        graph = TimingGraph(design.arrays())
        assert len(graph.topo_order) == graph.num_nodes

    def test_logic_depth_bounds_comb_chains(self):
        """No register-to-register path exceeds logic_depth stages."""
        design = generate_design(spec(logic_depth=6))
        graph = TimingGraph(design.arrays())
        view = GraphView(graph, design)
        depth = {}
        longest = 0
        for u in graph.topo_order:
            du = depth.get(u, 0)
            for v, kind, _p in view.arcs[u]:
                step = 1 if kind == CELL else 0
                if du + step > depth.get(v, 0):
                    depth[v] = du + step
                    longest = max(longest, depth[v])
        assert longest <= 6

    def test_hierarchy_structure(self):
        design = generate_design(spec(hierarchy_depth=3, num_instances=600))
        tree = HierarchyTree(design)
        assert tree.has_hierarchy()
        assert tree.max_depth() <= 3

    def test_clock_reaches_all_flops(self):
        design = generate_design(spec())
        clock_net = design.net("clk_net")
        assert clock_net.is_clock
        clocked = {ref.instance.name for ref in clock_net.sinks if ref.instance}
        for ff in design.sequential_instances():
            assert ff.name in clocked

    def test_macros_fixed_and_placed(self):
        design = generate_design(spec(num_instances=600, num_macros=2))
        macros = design.macro_instances()
        assert len(macros) == 2
        fp = design.floorplan
        for macro in macros:
            assert macro.fixed
            assert fp.core_llx <= macro.x <= fp.core_urx
            assert fp.core_lly <= macro.y <= fp.core_ury

    def test_ports_on_boundary(self):
        design = generate_design(spec())
        fp = design.floorplan
        for port in design.ports.values():
            on_x_edge = port.x in (0.0, pytest.approx(fp.die_width))
            on_y_edge = port.y == 0.0 or port.y == pytest.approx(fp.die_height)
            assert (
                port.x == 0
                or port.y == 0
                or port.x == pytest.approx(fp.die_width)
                or port.y == pytest.approx(fp.die_height)
            ), (port.name, port.x, port.y)

    def test_floorplan_matches_utilization(self):
        design = generate_design(spec(target_utilization=0.5))
        assert design.utilization() == pytest.approx(0.5, abs=0.02)

    def test_high_fanout_nets_exist(self):
        design = generate_design(spec(num_instances=600, high_fanout_nets=3))
        top_fanout = max(n.fanout for n in design.nets if not n.is_clock)
        assert top_fanout >= 15

    def test_every_input_pin_driven(self):
        design = generate_design(spec())
        for inst in design.instances:
            for pin in inst.master.input_pins():
                assert pin.name in inst.pin_nets, (inst.name, pin.name)

    def test_critical_chain_creates_deep_paths(self):
        shallow = generate_design(spec(critical_chains=0, logic_depth=10))
        deep = generate_design(spec(critical_chains=3, logic_depth=10))

        def longest_chain(design):
            graph = TimingGraph(design.arrays())
            view = GraphView(graph, design)
            depth = {}
            best = 0
            for u in graph.topo_order:
                du = depth.get(u, 0)
                for v, kind, _p in view.arcs[u]:
                    step = 1 if kind == CELL else 0
                    if du + step > depth.get(v, 0):
                        depth[v] = du + step
                        best = max(best, depth[v])
            return best

        assert longest_chain(deep) >= longest_chain(shallow)
        assert longest_chain(deep) >= 9


@pytest.mark.parametrize(
    "edge",
    [
        {"num_instances": 1},
        {"hierarchy_depth": 0},
        {"hierarchy_branching": 1},
        {"logic_depth": 1},
        {"seq_fraction": 0, "locality": 0, "sibling_bias": 0},
        {"seq_fraction": 1, "locality": 1, "sibling_bias": 1},
        {"target_utilization": 1.0},
        {"clock_period": None},
        {"num_ports": 0, "num_macros": 0, "high_fanout_nets": 0, "critical_chains": 0},
        {"seed": 2**63 - 1},
    ],
)
def test_edge_values_generate(edge):
    """Every value at the edge of what ``from_params`` accepts builds a
    structurally valid design."""
    spec = DesignSpec.from_params({"name": "edge", "num_instances": 200, **edge})
    design = generate_design(spec)
    assert design.num_instances >= 1
    assert design.validate() == []
    assert len(TimingGraph(design.arrays()).topo_order) > 0


def test_from_params_takes_an_integer_as_a_float():
    spec = DesignSpec.from_params(
        {"name": "t", "num_instances": 5, "target_utilization": 1}
    )
    assert spec.target_utilization == 1.0
    assert type(spec.target_utilization) is float
