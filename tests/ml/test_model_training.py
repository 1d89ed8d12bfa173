"""GNN model, feature extraction, optimiser and training tests."""

import tracemalloc

import numpy as np
import pytest

from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.shapes import ShapeCandidate, default_candidate_grid
from repro.core.vpr import extract_subnetlist
from repro.db.database import DesignDatabase
from repro.ml import (
    Adam,
    FeatureExtractor,
    GraphSample,
    NUM_NODE_FEATURES,
    Tensor,
    TotalCostGNN,
    TotalCostPredictor,
    train_model,
    TrainingConfig,
)
from repro.ml.layers import normalized_adjacency
from repro.ml.model import CHUNK_ROWS, batch_samples
from repro.ml.training import evaluate
from tests.ml.reference import predict_shared_reference


@pytest.fixture(scope="module")
def sub_netlist():
    from repro.designs import DesignSpec, generate_design

    design = generate_design(
        DesignSpec("mlsub", 500, clock_period=0.8, logic_depth=8, seed=29)
    )
    db = DesignDatabase(design)
    result = ppa_aware_clustering(
        db, PPAClusteringConfig(target_cluster_size=120)
    )
    largest = max(result.members(), key=len)
    return extract_subnetlist(design, largest)


class TestFeatures:
    def test_feature_dimensions(self, sub_netlist):
        sample = FeatureExtractor().extract(sub_netlist)
        assert sample.features.shape == (
            sub_netlist.num_instances,
            NUM_NODE_FEATURES,
        )

    def test_design_params_set_by_shape(self, sub_netlist):
        base = FeatureExtractor().extract(sub_netlist)
        shaped = base.with_shape(ShapeCandidate(1.25, 0.8))
        assert np.allclose(shaped.features[:, 0], 0.8)
        assert np.allclose(shaped.features[:, 1], 1.25)
        # Other features untouched.
        assert np.allclose(shaped.features[:, 2:], base.features[:, 2:])

    def test_cluster_features_broadcast(self, sub_netlist):
        sample = FeatureExtractor().extract(sub_netlist)
        cluster_block = sample.features[:, 2:19]
        assert np.allclose(cluster_block, cluster_block[0])

    def test_cell_count_feature(self, sub_netlist):
        sample = FeatureExtractor().extract(sub_netlist)
        assert sample.features[0, 2] == sub_netlist.num_instances

    def test_one_hot_cell_class(self, sub_netlist):
        sample = FeatureExtractor().extract(sub_netlist)
        one_hot = sample.features[:, 27:]
        assert one_hot.shape[1] == 8
        assert np.allclose(one_hot.sum(axis=1), 1.0)

    def test_cell_area_feature(self, sub_netlist):
        sample = FeatureExtractor().extract(sub_netlist)
        areas = sub_netlist.m_width * sub_netlist.m_height
        for i, master in enumerate(sub_netlist.inst_master.tolist()):
            assert sample.features[i, 19] == pytest.approx(areas[master])

    def test_deterministic(self, sub_netlist):
        a = FeatureExtractor(seed=1).extract(sub_netlist)
        b = FeatureExtractor(seed=1).extract(sub_netlist)
        assert np.allclose(a.features, b.features)

    def test_with_label(self, sub_netlist):
        sample = FeatureExtractor().extract(sub_netlist).with_label(1.5)
        assert sample.label == 1.5


class TestNormalizedAdjacency:
    def test_row_stochastic_like(self):
        rows = np.array([0, 1])
        cols = np.array([1, 2])
        weights = np.array([1.0, 1.0])
        op = normalized_adjacency(rows, cols, weights, 3)
        assert op.shape == (3, 3)
        # Symmetric.
        dense = op.toarray()
        assert np.allclose(dense, dense.T)
        # Spectral norm of the normalised operator is at most 1.
        eigenvalues = np.linalg.eigvalsh(dense)
        assert eigenvalues.max() <= 1.0 + 1e-9
        assert eigenvalues.min() >= -1.0 - 1e-9


class TestModel:
    def make_samples(self, n_graphs=3, n_nodes=10, seed=0):
        rng = np.random.default_rng(seed)
        samples = []
        for _ in range(n_graphs):
            rows = rng.integers(0, n_nodes, 15)
            cols = rng.integers(0, n_nodes, 15)
            keep = rows != cols
            op = normalized_adjacency(
                rows[keep], cols[keep], np.ones(int(keep.sum())), n_nodes
            )
            features = rng.normal(size=(n_nodes, NUM_NODE_FEATURES))
            label = float(features[:, :2].mean())
            samples.append(GraphSample(features, op, label))
        return samples

    def test_forward_shapes(self):
        model = TotalCostGNN(seed=0)
        samples = self.make_samples()
        features, operator, segments = batch_samples(samples)
        out = model.forward_batch(features, operator, segments, len(samples))
        assert out.shape == (3, 1)

    def test_predict_order_independent_of_batching(self):
        model = TotalCostGNN(seed=0)
        model.set_training(False)
        samples = self.make_samples(4)
        all_at_once = model.predict(samples)
        one_by_one = np.concatenate([model.predict([s]) for s in samples])
        assert np.allclose(all_at_once, one_by_one, atol=1e-8)

    def test_predict_shared_matches_blockdiag(self):
        # The blocked shared-operator path must be bit-identical to the
        # block-diagonal predict over shape candidates that share one
        # graph and differ only in the two design-parameter columns.
        rng = np.random.default_rng(7)
        model = TotalCostGNN(seed=3)
        base = self.make_samples(1, n_nodes=17, seed=11)[0]
        model.fit_normalization(self.make_samples(5, n_nodes=17, seed=2))
        # Non-trivial eval batch-norm statistics.
        bn_objects = [model.head_bn] + [
            block.bn for blocks in model.branches for block in blocks
        ]
        for bn in bn_objects:
            bn.running["mean"] = rng.normal(size=bn.running["mean"].shape)
            bn.running["var"] = rng.uniform(0.5, 2.0, size=bn.running["var"].shape)
        candidates = default_candidate_grid()
        samples = []
        features = np.repeat(base.features[None, :, :], len(candidates), 0)
        for i, cand in enumerate(candidates):
            features[i, :, 0] = cand.utilization
            features[i, :, 1] = cand.aspect_ratio
            samples.append(
                GraphSample(features[i].copy(), base.operator, base.label)
            )
        blockdiag = model.predict(samples)
        shared = model.predict_shared(features, base.operator)
        assert shared.shape == blockdiag.shape
        assert np.array_equal(shared, blockdiag)

    def test_predictor_blocked_matches_unblocked(self):
        from repro.designs import load_benchmark
        from repro.ml import FeatureExtractor, TotalCostPredictor

        design = load_benchmark("aes", use_cache=False)
        db = DesignDatabase(design)
        clustering = ppa_aware_clustering(
            db, PPAClusteringConfig(target_cluster_size=200)
        )
        members = clustering.members()
        cluster = max(range(len(members)), key=lambda c: len(members[c]))
        sub = extract_subnetlist(design, members[cluster])
        model = TotalCostGNN(seed=0)
        candidates = default_candidate_grid()
        predictor = TotalCostPredictor(model, FeatureExtractor())
        # Oracle: one sample per candidate through the block-diagonal batch.
        base = FeatureExtractor().extract(sub)
        unblocked = model.predict([base.with_shape(c) for c in candidates])
        assert np.array_equal(predictor(sub, candidates), unblocked)

    def test_save_load_roundtrip(self, tmp_path):
        model = TotalCostGNN(seed=1)
        samples = self.make_samples()
        model.fit_normalization(samples)
        preds = model.predict(samples)
        path = tmp_path / "model.npz"
        model.save(path)
        clone = TotalCostGNN.load(path)
        assert np.allclose(clone.predict(samples), preds)

    def test_parameter_count(self):
        model = TotalCostGNN()
        params = model.parameters()
        # 4 branches x 3 blocks x (W, b, gamma, beta) + head (W1,b1,g,b,W2,b2)
        assert len(params) == 4 * 3 * 4 + 6

    def test_fit_normalization(self):
        model = TotalCostGNN()
        samples = self.make_samples()
        model.fit_normalization(samples)
        stacked = np.vstack([s.features for s in samples])
        normalized = model.normalize_features(stacked)
        assert abs(normalized.mean()) < 0.2


def _shared_batch(n_nodes, batch, seed=0):
    """A ``(batch, n_nodes, F)`` candidate block over one random graph
    (about three edges per node), with its per-candidate samples."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_nodes, 3 * n_nodes)
    cols = rng.integers(0, n_nodes, 3 * n_nodes)
    keep = rows != cols
    operator = normalized_adjacency(
        rows[keep], cols[keep], rng.uniform(0.1, 1.0, int(keep.sum())), n_nodes
    )
    base = GraphSample(rng.normal(size=(n_nodes, NUM_NODE_FEATURES)), operator, 0.0)
    samples = [base.with_shape(c) for c in default_candidate_grid()[:batch]]
    return np.stack([s.features for s in samples]), operator, samples


@pytest.fixture(scope="module")
def eval_model():
    """A model with fitted normalisation and non-trivial eval batch norm."""
    rng = np.random.default_rng(5)
    model = TotalCostGNN(seed=4)
    model.fit_normalization(_shared_batch(40, 3, seed=9)[2])
    for bn in [model.head_bn] + [b.bn for blocks in model.branches for b in blocks]:
        bn.running["mean"] = rng.normal(size=bn.running["mean"].shape)
        bn.running["var"] = rng.uniform(0.5, 2.0, size=bn.running["var"].shape)
    model.set_training(False)
    return model


class TestPredictSharedChunks:
    """``predict_shared`` runs ``ceil(CHUNK_ROWS / n)`` candidates at a
    time; generated sub-netlists are too small to split the batch, so
    these shapes put the chunk boundaries where they can bite."""

    #: One node (whole batch in one chunk), two nodes, exactly two
    #: candidates per chunk, three per chunk (a partial last chunk at
    #: B = 7 and B = 20), and one candidate per chunk.
    NODES = (1, 2, CHUNK_ROWS * 3 // 4, CHUNK_ROWS * 2 // 5, CHUNK_ROWS + 1)

    def test_chunk_sizes_are_the_intended_ones(self):
        steps = [-(-CHUNK_ROWS // n) for n in self.NODES[2:]]
        assert steps == [2, 3, 1]
        assert 7 % 3 and 20 % 3  # both batches leave a partial chunk

    @pytest.mark.parametrize("batch", [1, 7, 20])
    @pytest.mark.parametrize("n_nodes", NODES)
    def test_equals_predict_bitwise(self, eval_model, n_nodes, batch):
        features, operator, samples = _shared_batch(n_nodes, batch, seed=n_nodes)
        before = features.copy()
        shared = eval_model.predict_shared(features, operator)
        assert np.array_equal(features, before)  # the input block is not scratch
        assert shared.shape == (batch,)
        assert np.array_equal(shared, eval_model.predict(samples))
        # The oracle ran B one-row products for one node under several
        # candidates (see tests/ml/test_selector_identity.py).
        if not (n_nodes == 1 and batch > 1):
            oracle = predict_shared_reference(eval_model, features, operator)
            assert np.array_equal(shared, oracle)

    def test_traced_peak_is_within_one_batch_block(self, eval_model):
        """Memory ratchet: one call on 20 candidates of a ~400-node
        cluster allocates at most one ``(n, B, 64)`` float64 block (the
        whole-batch forward peaked at about four of them)."""
        n_nodes, batch = 398, 20
        features, operator, _ = _shared_batch(n_nodes, batch)
        eval_model.predict_shared(features, operator)  # warm caches
        tracemalloc.start()
        try:
            eval_model.predict_shared(features, operator)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= n_nodes * batch * 64 * 8


class TestAdam:
    def test_minimises_quadratic(self):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        optimizer = Adam([x], lr=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            x.grad = 2 * x.data  # d/dx (x^2)
            optimizer.step()
        assert np.allclose(x.data, 0.0, atol=1e-2)

    def test_weight_decay_shrinks(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = Adam([x], lr=0.01, weight_decay=1.0)
        for _ in range(100):
            optimizer.zero_grad()
            x.grad = np.zeros(1)
            optimizer.step()
        assert abs(x.data[0]) < 1.0

    def test_none_grad_skipped(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = Adam([x], lr=0.1)
        optimizer.step()  # no grad set
        assert x.data[0] == 1.0


class TestTraining:
    def test_loss_decreases_and_fits(self):
        """The model learns a simple function of the design params."""
        rng = np.random.default_rng(7)
        samples = []
        op = normalized_adjacency(
            np.array([0, 1, 2]), np.array([1, 2, 3]), np.ones(3), 4
        )
        for _ in range(60):
            features = rng.normal(size=(4, NUM_NODE_FEATURES))
            util = rng.uniform(0.7, 0.9)
            features[:, 0] = util
            label = 3.0 * util
            samples.append(GraphSample(features, op, label))
        result = train_model(
            samples[:48],
            samples[48:],
            config=TrainingConfig(epochs=40, batch_size=16, lr=5e-3, seed=0),
        )
        assert result.loss_history[-1] < result.loss_history[0]
        assert result.metrics["train"]["mae"] < 0.25
        assert result.metrics["train"]["r2"] > 0.5

    def test_evaluate_perfect_predictor(self):
        model = TotalCostGNN(seed=0)
        # Degenerate check: evaluate on empty set.
        metrics = evaluate(model, [])
        assert np.isnan(metrics["mae"])

    def test_training_deterministic(self):
        rng = np.random.default_rng(9)
        op = normalized_adjacency(
            np.array([0]), np.array([1]), np.ones(1), 2
        )
        samples = [
            GraphSample(
                rng.normal(size=(2, NUM_NODE_FEATURES)), op, float(i % 3)
            )
            for i in range(12)
        ]
        r1 = train_model(samples, config=TrainingConfig(epochs=3, seed=5))
        r2 = train_model(samples, config=TrainingConfig(epochs=3, seed=5))
        assert np.allclose(r1.loss_history, r2.loss_history)


class TestPredictor:
    def test_predictor_interface(self, sub_netlist):
        model = TotalCostGNN(seed=0)
        # Fit normalisation on dummy data so prediction is well-defined.
        extractor = FeatureExtractor()
        base = extractor.extract(sub_netlist)
        candidates = default_candidate_grid()
        model.fit_normalization(
            [base.with_shape(c).with_label(1.0) for c in candidates[:5]]
        )
        predictor = TotalCostPredictor(model, extractor)
        costs = predictor(sub_netlist, candidates)
        assert costs.shape == (20,)
        assert np.isfinite(costs).all()
