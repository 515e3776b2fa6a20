"""Consensus refinement: iterative pseudo-label fusion with damped updates.

Each step re-fuses every view's boundary stack into a pseudo-label and moves
the view's boundary toward it by a damping factor; with the uncertainty-
weighted loss the per-column step shrinks where the views disagree. Early
stopping picks the iteration with the lowest density-map entropy, evaluated
on grid bounds frozen at iteration zero so values stay comparable, and
counted sparsely by density_entropy without building the grid. run lifts
each state once, for its stacks, its entropy and its IoU against the ground
truth, steps every iteration, discarding the last update, and keeps only the
best state, not a snapshot per evaluation. The ground truth's floor polygons
and heights are built once per run. The trajectory's wbc is measured
against each iteration's own labels, whose sigma shrinks as views agree, so
it can rise while l1 falls: compare iterations by l1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .consistency import GRID_SIZE_DEFAULT, PADDING_DEFAULT, check_grid, \
    data_bounds, density_entropy
from .errors import MetricError
from .evaluation import footprint_truth, frame_ious
from .geometry import SphericalBoundary
from .pseudolabel import SIGMA_FLOOR_DEFAULT, check_fusion, fuse, l1_loss, \
    wbc_loss
from .reprojection import build_stacks
from .scene import Scene

logger = logging.getLogger(__name__)

LOSSES = ("wbc", "l1")

_TRAJECTORY_IOU_RASTER = 512
# A fusion pass's time grows with its re-projected samples; this limit
# (128 views of 2,048 columns) keeps one step to seconds, not minutes.
MAX_STEP_SAMPLES = 2 ** 25


@dataclass(frozen=True)
class TrainConfig:
    max_iters: int = 20
    damping: float = 0.5
    estimator: str = "median"
    loss: str = "wbc"
    sigma_floor: float = SIGMA_FLOOR_DEFAULT
    view_fraction: float = 1.0
    eval_every: int = 1
    grid_size: int = GRID_SIZE_DEFAULT
    padding: float = PADDING_DEFAULT

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must be in (0, 1]")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}")
        if not (0.0 < self.view_fraction <= 1.0):
            raise ValueError("view_fraction must be in (0, 1]")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        check_fusion(self.estimator, self.sigma_floor)
        check_grid(self.grid_size, self.grid_size, self.padding)


@dataclass
class IterationRecord:
    iteration: int
    wbc: float
    l1: float
    h_mlc: float | None = None
    iou2d: float | None = None
    iou3d: float | None = None


@dataclass
class TrainTrajectory:
    records: list[IterationRecord] = field(default_factory=list)
    best_iter: int = 0


def select_views(view_ids: list[str], fraction: float) -> list[str]:
    """Deterministic evenly spaced subset of at least one view."""
    if not (0.0 < fraction <= 1.0):
        raise ValueError("view_fraction must be in (0, 1]")
    n = len(view_ids)
    m = max(1, int(round(fraction * n)))
    idx = (np.arange(m) * n) // m
    return [view_ids[int(i)] for i in idx]


def check_step(scene: Scene, cfg: TrainConfig) -> None:
    """Raise ValueError if a fuse_labels pass would re-project more than
    MAX_STEP_SAMPLES (targets x contributors x W) samples of one kind."""
    n, m = len(scene.view_ids), len(select_views(scene.view_ids, cfg.view_fraction))
    samples = n * m * scene.image_width
    if samples > MAX_STEP_SAMPLES:
        raise ValueError(f"{n} targets x {m} contributors x {scene.image_width} "
                         f"columns = {samples} samples per kind, over the "
                         f"limit of {MAX_STEP_SAMPLES} for one fusion pass")


def fuse_labels(scene: Scene, polys, kinds, cfg: TrainConfig):
    """Pseudo-labels {kind: {view id: label}} for every view and given kind.

    Each kind is stacked from the lifts in polys (Scene.world_polylines) of
    the configured view subset, and each stack is fused as it is yielded.
    """
    contributors = set(select_views(scene.view_ids, cfg.view_fraction))
    labels = {}
    for kind in kinds:
        sources = [p for p in polys
                   if p.kind == kind and p.source_view in contributors]
        labels[kind] = {s.target_view: fuse(s, cfg.estimator, cfg.sigma_floor)
                        for s in build_stacks(scene, sources)}
    return labels


def self_train_step(scene: Scene, cfg: TrainConfig, polys):
    """One synchronous consensus update over all views.

    Stacks are built from polys, the pre-step scene.world_polylines(), of the
    selected contributor views, so per-view updates are order-independent.
    Returns (updated scene, (mean_wbc, mean_l1)) with losses measured before
    the update. With loss="wbc" the per-column step is scaled by
    min(1, sigma_ref^2 / sigma^2), sigma_ref being the view's median sigma,
    which damps updates where the re-projections disagree.
    """
    kinds = scene.kinds()
    labels = fuse_labels(scene, polys, kinds, cfg)
    wbc, l1, updates = [], [], {f.view_id: {} for f in scene.frames}
    for kind in kinds:   # kind-major, frame order: the losses' summation order
        for f in scene.frames:
            pl, lat = labels[kind][f.view_id], f.boundary(kind).lat
            wbc.append(wbc_loss(lat, pl))
            l1.append(l1_loss(lat, pl))
            if cfg.loss == "wbc":
                sigma_ref = float(np.median(pl.sigma))
                step = cfg.damping * np.minimum(1.0, (sigma_ref / pl.sigma) ** 2)
            else:
                step = np.full_like(lat, cfg.damping)
            new_lat = np.where(step >= 1.0, pl.lat_bar, lat + step * (pl.lat_bar - lat))
            updates[f.view_id][kind] = SphericalBoundary(new_lat, kind)
    return scene.with_boundaries(updates), (float(np.mean(wbc)), float(np.mean(l1)))


def run(scene: Scene, cfg: TrainConfig):
    """Refine for max_iters steps with entropy-based early stopping.

    Returns (TrainTrajectory, best scene). Iteration k records the losses of
    state k; evaluated iterations (every eval_every-th and the last) also
    record its entropy on grid bounds frozen at iteration zero. Only the
    lowest-entropy state is kept (ties go to the earliest iteration). A best
    iteration of 0 returns the input scene itself, pseudo-labels included.
    A scene over check_step's bound raises ValueError before any work. An
    undefined IoU (MetricError) is left blank, with a warning.
    """
    check_step(scene, cfg)
    truth = None if scene.ground_truth is None else footprint_truth(scene)
    records: list[IterationRecord] = []
    state = best_state = scene
    best_h, best_iter, bounds = math.inf, 0, None
    for k in range(cfg.max_iters + 1):
        polys = state.world_polylines()   # the one lift of this state
        next_state, losses = self_train_step(state, cfg, polys)   # the last is unused
        rec = IterationRecord(k, *losses)
        if k % cfg.eval_every == 0 or k == cfg.max_iters:
            bounds = data_bounds(polys) if bounds is None else bounds
            rec.h_mlc = density_entropy(polys, cfg.grid_size, cfg.grid_size,
                                        cfg.padding, bounds=bounds)
            if truth is not None:
                try:
                    vals = list(frame_ious(state, polys, truth,
                                           _TRAJECTORY_IOU_RASTER))
                except MetricError as e:
                    logger.warning("iteration %d: IoU not recorded: %s", k, e)
                else:
                    rec.iou2d = float(np.mean([v2 for v2, _ in vals]))
                    vals3 = [v3 for _, v3 in vals if v3 is not None]
                    rec.iou3d = float(np.mean(vals3)) if vals3 else None
            if rec.h_mlc < best_h:
                best_h, best_iter, best_state = rec.h_mlc, k, state
        records.append(rec)
        state = next_state
    return TrainTrajectory(records, best_iter), best_state
