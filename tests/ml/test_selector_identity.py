"""The array-native ML selector against its scalar oracle, bit for bit.

``FeatureExtractor.extract`` (CSR kernels, one frontier loop for all
pivots) and ``TotalCostGNN.predict_shared`` (node-major, in place) must
be ``np.array_equal`` to ``tests/ml/reference.py`` — every feature
column, the operator's three arrays, every prediction — over generated
sub-netlists that cover the degenerate shapes: 0 / 1 / 2 instances, no
nets, fewer instances than pivots, disconnected components and isolated
vertices, one huge-fanout net, a net touching one instance twice.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shapes import default_candidate_grid
from repro.designs.nangate45 import make_library
from repro.ml.features import NUM_PIVOTS, FeatureExtractor, GraphSample
from repro.ml.model import TotalCostGNN
from repro.netlist.design import Design, Floorplan, PinDirection
from repro.netlist.hypergraph import Hypergraph
from tests.ml.reference import ReferenceExtractor, predict_shared_reference
from tests.netlist.reference import clique_expansion_reference

LIBRARY = make_library()
MASTERS = [
    LIBRARY[name]
    for name in (
        "INV_X1", "BUF_X2", "NAND2_X1", "AOI21_X1", "XOR2_X1", "FA_X1",
        "MUX2_X1", "DFF_X1",
    )
]


def build_sub_netlist(
    num_instances, num_nets, components, isolated, huge_fanout, touch_twice, seed
):
    """A cluster-like sub-netlist: ``components`` groups of instances
    with nets drawn inside one group each, the first ``isolated``
    instances left unconnected, virtual ports on some nets."""
    rng = random.Random(seed)
    design = Design("prop", Floorplan(die_width=50.0, die_height=50.0))
    instances = [
        design.add_instance(f"u{i}", rng.choice(MASTERS))
        for i in range(num_instances)
    ]
    connected = instances[isolated:]
    groups = [connected[g::components] for g in range(components)]
    free_in = [
        [
            (inst, pin.name)
            for inst in group
            for pin in inst.master.pins.values()
            if pin.direction is PinDirection.INPUT and not pin.is_clock
        ]
        for group in groups
    ]
    free_out = [
        [
            (inst, pin.name)
            for inst in group
            for pin in inst.master.pins.values()
            if pin.direction is PinDirection.OUTPUT
        ]
        for group in groups
    ]
    ports = 0

    def new_net(sinks, driver):
        nonlocal ports
        net = design.add_net(f"n{len(design.nets)}")
        net.weight = rng.choice((1.0, 1.0, 0.3, 2.5, 1.0 / 3.0))
        for inst, pin in sinks:
            design.connect_instance_pin(net, inst, pin)
        if driver is not None:
            design.connect_instance_pin(net, *driver)
        if driver is None or rng.random() < 0.2:
            direction = PinDirection.INPUT if driver is None else PinDirection.OUTPUT
            design.add_port(f"p{ports}", direction)
            design.connect_port(net, f"p{ports}")
            ports += 1

    if touch_twice:
        # Two input pins of one instance on the same net.
        for g, pins in enumerate(free_in):
            by_inst = {}
            for inst, pin in pins:
                by_inst.setdefault(inst.index, []).append((inst, pin))
            twice = next((p for p in by_inst.values() if len(p) >= 2), None)
            if twice and free_out[g]:
                sinks = twice[:2]
                others = [p for p in pins if p[0] is not sinks[0][0]]
                sinks += others[:1]
                for pin in sinks:
                    pins.remove(pin)
                new_net(sinks, free_out[g].pop(rng.randrange(len(free_out[g]))))
                break
    if huge_fanout and free_in[0]:
        # One net reaching an input pin of every instance of group 0.
        seen, sinks = set(), []
        for inst, pin in list(free_in[0]):
            if inst.index not in seen:
                seen.add(inst.index)
                sinks.append((inst, pin))
                free_in[0].remove((inst, pin))
        new_net(sinks, None)
    for _ in range(num_nets):
        g = rng.randrange(components)
        if not free_in[g]:
            continue
        fanout = min(len(free_in[g]), rng.choice((1, 1, 1, 2, 2, 3, 6)))
        sinks = [
            free_in[g].pop(rng.randrange(len(free_in[g]))) for _ in range(fanout)
        ]
        driver = None
        if free_out[g] and rng.random() < 0.85:
            driver = free_out[g].pop(rng.randrange(len(free_out[g])))
        new_net(sinks, driver)
    return design


@st.composite
def sub_netlists(draw):
    num_instances = draw(
        st.one_of(
            st.sampled_from([0, 1, 2, NUM_PIVOTS - 1, NUM_PIVOTS, NUM_PIVOTS + 1]),
            st.integers(min_value=0, max_value=48),
        )
    )
    return build_sub_netlist(
        num_instances,
        num_nets=draw(st.sampled_from([0, 0, 1, 5, 20, 60])),
        components=draw(st.integers(min_value=1, max_value=3)),
        isolated=draw(st.integers(min_value=0, max_value=min(3, num_instances))),
        huge_fanout=draw(st.booleans()),
        touch_twice=draw(st.booleans()),
        seed=draw(st.integers(min_value=0, max_value=2**31)),
    )


def assert_same_sample(new: GraphSample, old: GraphSample):
    assert new.features.dtype == old.features.dtype
    assert new.features.shape == old.features.shape
    for column in range(old.features.shape[1]):
        assert np.array_equal(new.features[:, column], old.features[:, column]), column
    for part in ("data", "indices", "indptr"):
        ours, theirs = getattr(new.operator, part), getattr(old.operator, part)
        assert ours.dtype == theirs.dtype, part
        assert np.array_equal(ours, theirs), part


def trained_like_model(seed):
    """A model with non-trivial normalisation and eval batch-norm
    statistics (an untrained one has mean 0 / var 1 everywhere)."""
    rng = np.random.default_rng(seed)
    model = TotalCostGNN(seed=seed)
    model.feature_mean = rng.normal(size=model.feature_mean.shape)
    model.feature_std = rng.uniform(0.5, 3.0, size=model.feature_std.shape)
    model.label_mean, model.label_std = 1.7, 0.4
    for param in model.parameters():
        param.data = param.data + rng.normal(scale=0.05, size=param.data.shape)
    bn_objects = [model.head_bn] + [
        block.bn for blocks in model.branches for block in blocks
    ]
    for bn in bn_objects:
        bn.running["mean"] = rng.normal(size=bn.running["mean"].shape)
        bn.running["var"] = rng.uniform(0.5, 2.0, size=bn.running["var"].shape)
    model.set_training(False)
    return model


MODEL = trained_like_model(5)
GRID = default_candidate_grid()


class TestExtractIdentity:
    @given(sub_netlists())
    @settings(max_examples=120, deadline=None)
    def test_features_and_operator_match_oracle(self, sub):
        assert_same_sample(
            FeatureExtractor().extract(sub.arrays()), ReferenceExtractor().extract(sub)
        )

    @given(sub_netlists(), st.integers(min_value=0, max_value=40), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_any_pivot_count_and_seed(self, sub, num_pivots, seed):
        new = FeatureExtractor(num_pivots=num_pivots, seed=seed).extract(
            sub.arrays(), GRID[3]
        )
        old = ReferenceExtractor(num_pivots=num_pivots, seed=seed).extract(sub, GRID[3])
        assert_same_sample(new, old)

    @pytest.mark.parametrize("num_instances", [0, 1, 2])
    @pytest.mark.parametrize("num_nets", [0, 4])
    def test_tiny_sub_netlists(self, num_instances, num_nets, recwarn):
        sub = build_sub_netlist(num_instances, num_nets, 1, 0, False, True, seed=1)
        new = FeatureExtractor().extract(sub.arrays())
        assert_same_sample(new, ReferenceExtractor().extract(sub))
        assert new.features.shape == (num_instances, 35)
        assert np.isfinite(new.features).all()
        # An empty cluster's averages are 0.0, not the mean of nothing.
        cluster = FeatureExtractor()._cluster_features(
            sub.arrays(), Hypergraph.from_netlist(sub.arrays()), _graph_of(sub)
        )
        assert np.isfinite(cluster).all()
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]

    def test_unreachable_pivot_distances_are_minus_one(self):
        sub = build_sub_netlist(30, 40, 3, 2, False, False, seed=3)
        graph = _graph_of(sub)
        assert (graph.dist == -1).any()
        assert (graph.dist[np.arange(len(graph.pivots)), graph.pivots] == 0).all()
        assert_same_sample(
            FeatureExtractor().extract(sub.arrays()), ReferenceExtractor().extract(sub)
        )

    def test_generated_cluster(self, medium_design):
        """The flow's sub (columns, no object view) against the oracle on
        the object sub the walk induces, not on a decode of the sub under
        test."""
        from repro.core.vpr import extract_subnetlist
        from tests.netlist.reference import extract_subnetlist_reference

        members = range(0, 600, 2)
        sub = extract_subnetlist(medium_design, members)
        assert sub.design is None
        assert_same_sample(
            FeatureExtractor().extract(sub),
            ReferenceExtractor().extract(
                extract_subnetlist_reference(medium_design, members)
            ),
        )


def _graph_of(sub):
    from repro.ml.features import _ClusterGraph

    hgraph = Hypergraph.from_netlist(sub.arrays())
    rows, cols, _weights = hgraph.clique_expansion()
    n = hgraph.num_vertices
    return _ClusterGraph(n, rows, cols, FeatureExtractor()._pivots(n))


class TestCliqueExpansionIdentity:
    @given(sub_netlists())
    @settings(max_examples=80, deadline=None)
    def test_matches_double_loop(self, sub):
        hgraph = Hypergraph.from_netlist(sub.arrays())
        for new, old in zip(hgraph.clique_expansion(), clique_expansion_reference(hgraph)):
            assert new.dtype == old.dtype
            assert np.array_equal(new, old)

    def test_repeated_member_and_unsorted_edges(self):
        # Not reachable from a Design (members are deduplicated there),
        # but the constructor takes any edge list.
        hgraph = Hypergraph(
            5,
            [(3, 1, 3, 0), (1, 3), (4,), (), (2, 0, 1), (3, 1)],
            edge_weights=[0.7, 1.0 / 3.0, 5.0, 1.0, 0.1, 0.2],
        )
        for new, old in zip(hgraph.clique_expansion(), clique_expansion_reference(hgraph)):
            assert new.dtype == old.dtype
            assert np.array_equal(new, old)


class TestPredictSharedIdentity:
    @given(sub_netlists(), st.sampled_from([1, len(GRID)]))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_and_blockdiag(self, sub, batch):
        base = FeatureExtractor().extract(sub.arrays())
        samples = [base.with_shape(candidate) for candidate in GRID[:batch]]
        features = np.stack([s.features for s in samples])
        before = features.copy()
        shared = MODEL.predict_shared(features, base.operator)
        assert np.array_equal(features, before)  # the input block is not scratch
        assert shared.shape == (batch,)
        if base.num_nodes:
            assert np.array_equal(shared, MODEL.predict(samples))
        # One node under several candidates is the one shape where the
        # oracle itself left the block-diagonal forward (B one-row
        # products where ``predict`` runs one B-row product: last-bit
        # differences); the node-major layout always runs ``predict``'s
        # product, so there it agrees with ``predict`` only.
        if not (base.num_nodes == 1 and batch > 1):
            oracle = predict_shared_reference(MODEL, features, base.operator)
            assert np.array_equal(shared, oracle)
