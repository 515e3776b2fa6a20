#!/usr/bin/env python3
"""Self-training by consensus refinement with entropy-based early stopping.

Starts from noisy boundary estimates, repeatedly moves each view toward its
fused pseudo-label, and selects the best iteration by the entropy metric
alone -- no ground truth involved -- then grades that choice against the
known synthetic truth.
"""

import numpy as np

from panolayout import NoiseSpec, TrainConfig, generate_scene, perturb, \
    run, square_room
from panolayout.evaluation import footprint_truth, frame_ious
from panolayout.geometry import BoundaryKind

SEED = 3


def mean_iou(scene, truth):
    ious = frame_ious(scene, scene.world_polylines((BoundaryKind.FLOOR,)),
                      footprint_truth(truth), raster=512)
    return float(np.mean([iou_2d for iou_2d, _ in ious]))


def main():
    clean = generate_scene(square_room(4.0), 9, 128, seed=SEED)
    noisy = perturb(clean, NoiseSpec(boundary_std=0.05, seed=SEED + 1))
    print(f"starting IoU vs truth: {mean_iou(noisy, clean):.4f}")

    cfg = TrainConfig(max_iters=20, damping=0.5, estimator="median",
                      loss="wbc", eval_every=2, grid_size=256)
    trajectory, best = run(noisy, cfg)

    print("\n  iter |  H_MLC  |   wbc    |   l1   | IoU2d")
    for r in trajectory.records:
        h = f"{r.h_mlc:.4f}" if r.h_mlc is not None else "   -  "
        iou = f"{r.iou2d:.4f}" if r.iou2d is not None else "  -   "
        print(f"  {r.iteration:4d} | {h} | {r.wbc:8.1f} | {r.l1:6.3f} | {iou}")

    print(f"\nentropy picks iteration {trajectory.best_iter} (no ground truth used)")
    print(f"refined IoU vs truth: {mean_iou(best, clean):.4f}")

    print("\n== ablation: weighted vs plain consensus, median vs mean ==")
    for estimator, loss in [("median", "wbc"), ("median", "l1"), ("mean", "wbc")]:
        cfg = TrainConfig(max_iters=20, damping=0.5, estimator=estimator,
                          loss=loss, eval_every=10, grid_size=256)
        _, best = run(noisy, cfg)
        print(f"  {estimator:>6s} + {loss:>3s}: final IoU {mean_iou(best, clean):.4f}")


if __name__ == "__main__":
    main()
