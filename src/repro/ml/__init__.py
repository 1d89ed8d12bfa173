"""NumPy GNN stack (PyTorch Geometric substitute).

Implements the paper's Total-Cost predictor end to end: a small
reverse-mode autograd engine, the 28-feature (35-dim one-hot-encoded)
node encoding, the 4-branch x 3-block hypergraph-convolution model of
Figure 4, Adam training, and dataset generation labelled by the exact
V-P&R framework.
"""

from repro.ml.autograd import Tensor
from repro.ml.layers import BatchNorm, GraphConvBlock, Linear
from repro.ml.model import TotalCostGNN, TotalCostPredictor
from repro.ml.optim import Adam
from repro.ml.features import FeatureExtractor, GraphSample, NUM_NODE_FEATURES
from repro.ml.dataset import DatasetConfig, build_dataset, split_dataset
from repro.ml.training import TrainingConfig, train_model

__all__ = [
    "Tensor",
    "Linear",
    "BatchNorm",
    "GraphConvBlock",
    "TotalCostGNN",
    "TotalCostPredictor",
    "Adam",
    "FeatureExtractor",
    "GraphSample",
    "NUM_NODE_FEATURES",
    "DatasetConfig",
    "build_dataset",
    "split_dataset",
    "TrainingConfig",
    "train_model",
]
