from benchmarks.spine import workloads


def test_training_design_without_clusters_is_redrawn(tmp_path):
    # --seed 38, unit 1: the first training design has no cluster in the
    # size window (set-up used to raise here, and the run exited 1).
    workload = workloads.BackendML(38, tmp_path, None)
    samples = workload._training_samples(1)
    assert len(samples) == workload.TRAIN_CLUSTERS * len(workloads.GRID)
