"""The Total-Cost GNN (Figure 4) and its flow-facing predictor.

Architecture (verbatim from the paper): four convolution branches of
three hypergraph-convolution blocks each (dims 35 -> 64 -> 64 -> 32,
batch norm + ReLU, skip connection on the dimension-preserving middle
block); branch outputs are accumulated; global mean pooling produces a
32-dim cluster embedding; the prediction head is
Linear(32, 64) -> BatchNorm -> ReLU -> Linear(64, 1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from repro.core.shapes import ShapeCandidate
from repro.ml.autograd import Tensor, add_tensors, relu, segment_mean
from repro.ml.features import FeatureExtractor, GraphSample, NUM_NODE_FEATURES
from repro.ml.layers import BatchNorm, GraphConvBlock, Linear
from repro.netlist.arrays import NetlistArrays

#: Branch layer dimensions from the paper: input 35, hidden 64, out 32.
BRANCH_DIMS = (NUM_NODE_FEATURES, 64, 64, 32)

#: Head dimensions from the paper: input 32, hidden 64, output 1.
HEAD_HIDDEN = 64

#: Number of convolution branches.
NUM_BRANCHES = 4

#: Rows (nodes x candidates) per chunk of :meth:`TotalCostGNN.predict_shared`:
#: a chunk's 64-wide float64 block is a few hundred KB and stays in cache,
#: where the whole batch's is ~4 MB on a 400-node cluster.
CHUNK_ROWS = 512


class TotalCostGNN:
    """The 4-branch hypergraph-convolution Total-Cost model."""

    def __init__(self, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.branches: List[List[GraphConvBlock]] = []
        for _b in range(NUM_BRANCHES):
            blocks = [
                GraphConvBlock(BRANCH_DIMS[i], BRANCH_DIMS[i + 1], rng)
                for i in range(len(BRANCH_DIMS) - 1)
            ]
            self.branches.append(blocks)
        self.head_linear1 = Linear(BRANCH_DIMS[-1], HEAD_HIDDEN, rng)
        self.head_bn = BatchNorm(HEAD_HIDDEN)
        self.head_linear2 = Linear(HEAD_HIDDEN, 1, rng)
        # Feature standardisation, fitted by the trainer.
        self.feature_mean = np.zeros(NUM_NODE_FEATURES)
        self.feature_std = np.ones(NUM_NODE_FEATURES)
        self.label_mean = 0.0
        self.label_std = 1.0
        self.training = True

    # ------------------------------------------------------------------
    def parameters(self) -> List[Tensor]:
        """All trainable tensors."""
        params: List[Tensor] = []
        for blocks in self.branches:
            for block in blocks:
                params.extend(block.parameters())
        params.extend(self.head_linear1.parameters())
        params.extend(self.head_bn.parameters())
        params.extend(self.head_linear2.parameters())
        return params

    def set_training(self, training: bool) -> None:
        """Toggle batch-norm mode everywhere."""
        self.training = training
        for blocks in self.branches:
            for block in blocks:
                block.set_training(training)
        self.head_bn.training = training

    # ------------------------------------------------------------------
    def normalize_features(self, features: np.ndarray) -> np.ndarray:
        """Apply the fitted feature standardisation."""
        return (features - self.feature_mean) / self.feature_std

    def fit_normalization(
        self, samples: Sequence[GraphSample]
    ) -> None:
        """Fit feature/label standardisation on the training set."""
        stacked = np.vstack([s.features for s in samples])
        self.feature_mean = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        self.feature_std = np.where(std > 1e-9, std, 1.0)
        labels = np.array([s.label for s in samples])
        self.label_mean = float(labels.mean())
        self.label_std = float(labels.std()) or 1.0

    # ------------------------------------------------------------------
    def forward_batch(
        self,
        features: np.ndarray,
        operator: sp.spmatrix,
        segments: np.ndarray,
        num_graphs: int,
        normalized: bool = False,
    ) -> Tensor:
        """Forward a block-diagonal batch of graphs.

        Returns a (num_graphs, 1) tensor of *standardised* predictions
        (use :meth:`denormalize` for Total Cost units).
        """
        if not normalized:
            features = self.normalize_features(features)
        x = Tensor(features)
        branch_outputs = []
        for blocks in self.branches:
            h = x
            for block in blocks:
                h = block(h, operator)
            branch_outputs.append(h)
        accumulated = add_tensors(branch_outputs)
        pooled = segment_mean(accumulated, segments, num_graphs)
        h = self.head_linear1(pooled)
        h = self.head_bn(h)
        h = relu(h)
        return self.head_linear2(h)

    def denormalize(self, standardized: np.ndarray) -> np.ndarray:
        """Convert standardised predictions back to Total Cost units."""
        return standardized * self.label_std + self.label_mean

    # ------------------------------------------------------------------
    def predict(self, samples: Sequence[GraphSample]) -> np.ndarray:
        """Predicted Total Cost for a list of samples (eval mode)."""
        was_training = self.training
        self.set_training(False)
        features, operator, segments = batch_samples(samples)
        out = self.forward_batch(features, operator, segments, len(samples))
        if was_training:
            self.set_training(True)
        return self.denormalize(out.data.ravel())

    def predict_shared(
        self, features: np.ndarray, operator: sp.spmatrix
    ) -> np.ndarray:
        """Chunked eval-mode inference for candidates sharing one graph.

        The V-P&R shape sweep predicts the same cluster hypergraph under
        B candidate shapes: only the two design-parameter feature
        columns differ between candidates, the graph operator is
        identical.  Instead of stacking B copies of the operator
        block-diagonally, the batch runs in chunks of
        ``ceil(CHUNK_ROWS / n)`` candidates, each laid out node-major
        ``(n, c, d)``: per convolution one dense product over the
        ``(n*c, d)`` view, one sparse product of the shared ``(n, n)``
        operator against the ``(n, c*d)`` view and an in-place bias /
        batch-norm / ReLU / skip, all into three rotating buffers sized
        for one chunk; each chunk pools into its rows of the embedding.
        Arithmetic identical to :meth:`predict` (same operation order
        per element, same accumulation order in the sparse product and
        the pool); the input block is never written.

        Args:
            features: ``(B, n, F)`` feature block, one slice per
                candidate.
            operator: Shared ``(n, n)`` normalised adjacency.

        Returns:
            ``(B,)`` predicted Total Cost in label units.
        """
        op = operator.tocsr().astype(float, copy=False)
        batch, n, width = features.shape
        # Every chunk's dense products need >= 2 rows: a one-row product
        # runs as gemv, whose last bits differ from predict's gemm.
        step = -(-CHUNK_ROWS // n) if n > 1 else max(batch, 1)
        rows, embed = n * min(step, batch), BRANCH_DIMS[-1]
        wide = rows * max(BRANCH_DIMS[1:])
        h, acc = np.empty(rows * width), np.empty(rows * embed)
        z_buf, spare, out = np.empty(wide), np.empty(wide), np.empty(wide)
        pooled = np.empty((batch, embed))

        def norm_relu(z: np.ndarray, bn: BatchNorm) -> None:
            """Eval batch norm + ReLU in place, ``predict``'s operation order."""
            z -= bn.running["mean"]
            z *= 1.0 / np.sqrt(bn.running["var"] + 1e-5)
            z *= bn.gamma.data
            z += bn.beta.data
            np.multiply(z, z > 0, out=z)

        for lo in range(0, batch, step):
            c = min(step, batch - lo)
            m = n * c
            x0 = h[: m * width].reshape(n, c, width)
            chunk = features[lo : lo + c].transpose(1, 0, 2)
            np.subtract(chunk, self.feature_mean, out=x0)
            x0 /= self.feature_std
            accumulated = acc[: m * embed].reshape(n, c, embed)
            accumulated.fill(0.0)
            for blocks in self.branches:
                x = x0
                for block in blocks:
                    weight = block.linear.weight.data
                    d = weight.shape[1]
                    z = z_buf[: m * d].reshape(m, d)
                    np.matmul(x.reshape(m, x.shape[2]), weight, out=z)
                    z += block.linear.bias.data
                    y = out[: m * d]
                    y.fill(0.0)
                    _sparsetools.csr_matvecs(
                        n, n, c * d, op.indptr, op.indices, op.data, z.ravel(), y
                    )
                    y = y.reshape(n, c, d)
                    norm_relu(y, block.bn)
                    if block.use_skip:
                        y += x
                    x, out, spare = y, spare, out
                accumulated += x
            # A sequential reduce over the node axis matches segment_mean's
            # np.add.at ordering, keeping the pooled embedding bit-identical
            # to the block-diagonal forward.
            np.add.reduce(accumulated, axis=0, out=pooled[lo : lo + c])
        pooled /= max(n, 1)
        z = pooled @ self.head_linear1.weight.data
        z += self.head_linear1.bias.data
        norm_relu(z, self.head_bn)
        z = z @ self.head_linear2.weight.data + self.head_linear2.bias.data
        return self.denormalize(z.ravel())

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Serialisable parameter snapshot."""
        state: Dict[str, np.ndarray] = {}
        for i, p in enumerate(self.parameters()):
            state[f"param_{i}"] = p.data.copy()
        state["feature_mean"] = self.feature_mean
        state["feature_std"] = self.feature_std
        state["label_stats"] = np.array([self.label_mean, self.label_std])
        bn_states = [self.head_bn.running] + [
            block.bn.running for blocks in self.branches for block in blocks
        ]
        for i, running in enumerate(bn_states):
            state[f"bn_{i}_mean"] = running["mean"].copy()
            state[f"bn_{i}_var"] = running["var"].copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore a parameter snapshot."""
        for i, p in enumerate(self.parameters()):
            p.data = np.asarray(state[f"param_{i}"], dtype=float).copy()
        self.feature_mean = np.asarray(state["feature_mean"], dtype=float)
        self.feature_std = np.asarray(state["feature_std"], dtype=float)
        self.label_mean, self.label_std = (float(v) for v in state["label_stats"])
        bn_objects = [self.head_bn] + [
            block.bn for blocks in self.branches for block in blocks
        ]
        for i, bn in enumerate(bn_objects):
            bn.running["mean"] = np.asarray(state[f"bn_{i}_mean"], dtype=float).copy()
            bn.running["var"] = np.asarray(state[f"bn_{i}_var"], dtype=float).copy()

    def save(self, path) -> None:
        """Save weights to an .npz file."""
        np.savez_compressed(path, **self.state_dict())

    @classmethod
    def load(cls, path) -> "TotalCostGNN":
        """Load weights from an .npz file."""
        model = cls()
        with np.load(path) as data:
            model.load_state_dict({k: data[k] for k in data.files})
        return model


def batch_samples(samples: Sequence[GraphSample]):
    """Stack graphs block-diagonally for one batched forward pass."""
    features = np.vstack([s.features for s in samples])
    operator = sp.block_diag([s.operator for s in samples], format="csr")
    segments = np.concatenate(
        [np.full(s.num_nodes, i, dtype=np.int64) for i, s in enumerate(samples)]
    )
    return features, operator, segments


class TotalCostPredictor:
    """Flow-facing predictor: plugs into
    :class:`~repro.core.vpr.MLShapeSelector`.

    Extracts features once per sub-netlist, then batches the 20 shape
    candidates through the trained GNN: measured ~2.0-2.6x over the
    exact sweep (``benchmarks/bench_ml_speedup.py``), not the ~30x
    Section 3.2 reports.
    """

    def __init__(
        self,
        model: TotalCostGNN,
        extractor: Optional[FeatureExtractor] = None,
    ) -> None:
        self.model = model
        self.extractor = extractor or FeatureExtractor()

    def __call__(
        self, sub: NetlistArrays, candidates: Sequence[ShapeCandidate]
    ) -> np.ndarray:
        """Predicted Total Cost per candidate."""
        base = self.extractor.extract(sub)
        # Candidates of a cluster share the graph; only the two shape
        # feature columns differ, so one shared-operator batch serves all.
        features = np.repeat(base.features[None, :, :], len(candidates), 0)
        for i, candidate in enumerate(candidates):
            features[i, :, 0] = candidate.utilization
            features[i, :, 1] = candidate.aspect_ratio
        return self.model.predict_shared(features, base.operator)
