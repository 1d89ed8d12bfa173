"""Train the Total-Cost GNN and use it to accelerate V-P&R.

Reproduces the Section 3.2 / 4.4 pipeline at example scale:

1. generate labelled (cluster, shape) samples by perturbing the
   clustering hyperparameters and labelling with exact V-P&R,
2. train the 4-branch hypergraph-convolution model (Figure 4),
3. report MAE / R^2 on train / val / test,
4. plug the trained predictor into the flow as the ML-accelerated
   shape selector and compare its selections with exact V-P&R.

    python examples/train_shape_predictor.py
"""

import time

import numpy as np

from repro.core.ppa_clustering import PPAClusteringConfig, ppa_aware_clustering
from repro.core.shapes import default_candidate_grid
from repro.core.vpr import VPRConfig, VPRFramework, extract_subnetlist
from repro.db import DesignDatabase
from repro.designs import load_benchmark
from repro.ml import (
    DatasetConfig,
    FeatureExtractor,
    TotalCostPredictor,
    TrainingConfig,
    build_dataset,
    split_dataset,
    train_model,
)


def main() -> None:
    print("=== 1. dataset generation (exact V-P&R labels) ===")
    t0 = time.time()
    designs = [load_benchmark("aes", use_cache=False)]
    dataset_config = DatasetConfig(
        max_clusters_per_design=8,
        min_cluster_instances=40,
        max_cluster_instances=400,
        perturbation_seeds=(0, 1),
        cluster_sizes=(60, 120),
        vpr=VPRConfig(placer_iterations=4),
    )
    samples = build_dataset(designs, dataset_config)
    labels = np.array([s.label for s in samples])
    print(
        f"{len(samples)} samples in {time.time() - t0:.1f}s; "
        f"labels in [{labels.min():.3f}, {labels.max():.3f}]"
    )

    print("\n=== 2. training (Figure 4 architecture) ===")
    train, val, test = split_dataset(samples, seed=0)
    result = train_model(
        train, val, test, TrainingConfig(epochs=15, batch_size=24, seed=0)
    )
    print(f"trained in {result.runtime:.1f}s")
    for split in ("train", "val", "test"):
        m = result.metrics[split]
        print(f"  {split:>5}: MAE={m['mae']:.4f}  R2={m['r2']:.3f}")
    print(
        "  (example-sized corpus: held-out R2 is noisy here; "
        "benchmarks/bench_gnn_accuracy.py trains the full corpus)"
    )

    print("\n=== 3. ML-accelerated shape selection vs exact V-P&R ===")
    design = load_benchmark("jpeg", use_cache=False)
    db = DesignDatabase(design)
    clustering = ppa_aware_clustering(
        db, PPAClusteringConfig(target_cluster_size=150)
    )
    members = clustering.members()
    config = VPRConfig(min_cluster_instances=100)
    framework = VPRFramework(config)
    predictor = TotalCostPredictor(result.model, FeatureExtractor())
    candidates = default_candidate_grid()

    for cluster in framework.config.eligible_clusters(members)[:3]:
        t0 = time.time()
        sweep = framework.sweep_cluster(design, members[cluster], cluster)
        exact_time = time.time() - t0

        t0 = time.time()
        sub = extract_subnetlist(design, members[cluster])
        costs = predictor(sub, candidates)
        ml_time = time.time() - t0
        ml_choice = candidates[int(np.argmin(costs))]
        print(
            f"  cluster {cluster:>4} ({len(members[cluster])} insts): "
            f"exact={sweep.best} ({exact_time:.2f}s)  "
            f"ml={ml_choice} ({ml_time:.2f}s, {exact_time / ml_time:.0f}x faster)"
        )


if __name__ == "__main__":
    main()
