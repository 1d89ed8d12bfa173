"""Training loop and accuracy metrics for the Total-Cost GNN.

Reports the Section 4.4 metrics: MAE and R^2 on train/validation/test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.ml.autograd import mse_loss
from repro.ml.features import GraphSample
from repro.ml.model import TotalCostGNN, batch_samples
from repro.ml.optim import Adam


@dataclass
class TrainingConfig:
    """Training knobs.

    Attributes:
        epochs: Passes over the training set.
        batch_size: Graphs per batched forward.
        lr: Adam learning rate.
        weight_decay: L2 regularisation.
        seed: Shuffling / init seed.
    """

    epochs: int = 30
    batch_size: int = 24
    lr: float = 2e-3
    weight_decay: float = 1e-5
    seed: int = 0


@dataclass
class TrainingResult:
    """Outcome of a training run.

    Attributes:
        model: The trained model.
        metrics: split name -> {"mae": ..., "r2": ...}.
        loss_history: Mean training loss per epoch.
        runtime: Wall-clock training seconds.
    """

    model: TotalCostGNN
    metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)
    loss_history: List[float] = field(default_factory=list)
    runtime: float = 0.0


def evaluate(model: TotalCostGNN, samples: Sequence[GraphSample]) -> Dict[str, float]:
    """MAE and R^2 of the model on a labelled sample set."""
    if not samples:
        return {"mae": float("nan"), "r2": float("nan")}
    preds = []
    # Evaluate in moderate batches to bound memory.
    for i in range(0, len(samples), 64):
        preds.append(model.predict(samples[i : i + 64]))
    pred = np.concatenate(preds)
    target = np.array([s.label for s in samples])
    mae = float(np.abs(pred - target).mean())
    ss_res = float(((pred - target) ** 2).sum())
    ss_tot = float(((target - target.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return {"mae": mae, "r2": r2}


def train_model(
    train: Sequence[GraphSample],
    val: Sequence[GraphSample] = (),
    test: Sequence[GraphSample] = (),
    config: Optional[TrainingConfig] = None,
    model: Optional[TotalCostGNN] = None,
) -> TrainingResult:
    """Train the Total-Cost GNN; returns model + split metrics."""
    config = config or TrainingConfig()
    model = model or TotalCostGNN(seed=config.seed)
    model.fit_normalization(train)
    optimizer = Adam(
        model.parameters(), lr=config.lr, weight_decay=config.weight_decay
    )
    rng = random.Random(config.seed)

    # Pre-normalise features once (they are reused across epochs).
    normalized = [
        GraphSample(
            features=model.normalize_features(s.features),
            operator=s.operator,
            label=(s.label - model.label_mean) / model.label_std,
        )
        for s in train
    ]

    loss_history: List[float] = []
    order = list(range(len(normalized)))
    model.set_training(True)
    with obs.stage(
        "ml.train", samples=len(train), epochs=config.epochs
    ) as stage:
        for epoch in range(config.epochs):
            rng.shuffle(order)
            epoch_losses = []
            for i in range(0, len(order), config.batch_size):
                batch = [normalized[j] for j in order[i : i + config.batch_size]]
                features, operator, segments = batch_samples(batch)
                out = model.forward_batch(
                    features, operator, segments, len(batch), normalized=True
                )
                targets = np.array([[s.label] for s in batch])
                loss = mse_loss(out, targets)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                epoch_losses.append(loss.item())
            loss_history.append(float(np.mean(epoch_losses)))
            obs.observe("ml.train.loss", loss_history[-1], step=epoch)

    model.set_training(False)
    metrics = {
        "train": evaluate(model, train),
        "val": evaluate(model, val),
        "test": evaluate(model, test),
    }
    for split, scores in metrics.items():
        for key in ("mae", "r2"):
            if not math.isnan(scores[key]):
                obs.observe(f"ml.{split}.{key}", scores[key])
    obs.event(
        "ml.trained",
        samples=len(train),
        epochs=config.epochs,
        final_loss=loss_history[-1] if loss_history else None,
    )
    return TrainingResult(
        model=model,
        metrics=metrics,
        loss_history=loss_history,
        runtime=stage.elapsed,
    )
