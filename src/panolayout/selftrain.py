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

A run that re-projects at least _WORKER_SAMPLES samples in all, on a
machine with two usable CPUs and no other live thread, forks one
_FuseWorker at its start and closes it before it returns. At every step the
worker fuses the second half of the step's (kind, target) pairs, the whole
ceiling kind when there are both, from the lifts run pipes to it, while run
fuses the first half. Labels are merged in pair order, and each depends only
on the lifts, so the outputs are byte-identical to the one-process path that
fuse_labels, smaller runs and fewer CPUs take. Hooks and log handlers in
the worker see only its own half.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import pickle
import threading
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
# A run that re-projects fewer samples in all (iterations x kinds x targets
# x contributors x W) fuses in one process: below this, a fork's start-up
# and page-fault cost outweighs the time the second CPU saves.
_WORKER_SAMPLES = 2 ** 20


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
    return _fuse_pairs(scene, polys, _pairs(scene, kinds), cfg)


def _pairs(scene: Scene, kinds) -> list:
    """The (kind, target view) pairs of one step, kind-major, frame order."""
    return [(kind, f.view_id) for kind in kinds for f in scene.frames]


def _fuse_pairs(scene: Scene, polys, pairs, cfg: TrainConfig) -> dict:
    """fuse_labels for the given (kind, target view) pairs, in their order.
    Only the poses, view ids and W of scene are read; the boundaries come
    from polys."""
    contributors = set(select_views(scene.view_ids, cfg.view_fraction))
    labels = {}
    for kind in dict.fromkeys(k for k, _ in pairs):
        sources = [p for p in polys
                   if p.kind == kind and p.source_view in contributors]
        targets = [t for k, t in pairs if k == kind]
        labels[kind] = {s.target_view: fuse(s, cfg.estimator, cfg.sigma_floor)
                        for s in build_stacks(scene, sources, targets)}
    return labels


class _FuseWorker:
    """A forked process that fuses the second half of every step's (kind,
    target) pairs while run's process fuses the first half.

    Each step pipes the worker the lifts of its kinds and gets back its
    labels, or the exception its half raised. Poses, view ids and W come
    from the fork-time scene: refine never changes them. A worker that ends
    without a reply is closed and its half fused here.
    """

    def __init__(self, scene: Scene, cfg: TrainConfig, pairs):
        half = len(pairs) // 2
        self.mine, self.theirs = pairs[:half], pairs[half:]
        self.kinds = {k for k, _ in self.theirs}
        child_rx, parent_tx = os.pipe()
        parent_rx, child_tx = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (child_rx, parent_tx, parent_rx, child_tx):
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                os.close(parent_tx)
                os.close(parent_rx)
                with open(child_rx, "rb") as rx, open(child_tx, "wb") as tx:
                    while True:   # until EOFError: run closed the pipe
                        polys = pickle.load(rx)
                        try:
                            reply = True, _fuse_pairs(scene, polys, self.theirs, cfg)
                        except Exception as e:
                            reply = False, e
                        tx.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
                        tx.flush()
            finally:
                os._exit(0)
        os.close(child_rx)
        os.close(child_tx)
        self.tx, self.rx = open(parent_tx, "wb"), open(parent_rx, "rb")

    def fuse_labels(self, scene: Scene, polys, cfg: TrainConfig) -> dict:
        if self.pid is not None:
            try:
                self.tx.write(pickle.dumps([p for p in polys if p.kind in self.kinds],
                                           pickle.HIGHEST_PROTOCOL))
                self.tx.flush()
            except OSError:   # the worker is gone
                self.close()
        if self.pid is None:
            return _fuse_pairs(scene, polys, self.mine + self.theirs, cfg)
        labels = _fuse_pairs(scene, polys, self.mine, cfg)
        try:
            ok, theirs = pickle.load(self.rx)
        except Exception:   # no reply, or a cut one: the worker ended
            self.close()
            ok, theirs = True, _fuse_pairs(scene, polys, self.theirs, cfg)
        if not ok:
            raise theirs
        for kind, kind_labels in theirs.items():   # a split kind: theirs last
            labels.setdefault(kind, {}).update(kind_labels)
        return labels

    def close(self) -> None:
        """Close both pipes and reap the worker; safe to call twice."""
        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        for f in (self.tx, self.rx):
            with contextlib.suppress(OSError):
                f.close()
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


def _start_worker(scene: Scene, cfg: TrainConfig) -> _FuseWorker | None:
    """A _FuseWorker when the run is large and a second CPU is free, else None.

    It needs os.fork, at least two usable CPUs, no other live thread (a
    fork copies only the calling one) and a run that re-projects at least
    _WORKER_SAMPLES samples in all.
    """
    pairs = _pairs(scene, scene.kinds())
    m = len(select_views(scene.view_ids, cfg.view_fraction))
    samples = (cfg.max_iters + 1) * len(pairs) * m * scene.image_width
    if (samples < _WORKER_SAMPLES or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2 or threading.active_count() != 1):
        return None
    try:
        return _FuseWorker(scene, cfg, pairs)
    except OSError:   # no pipe or no fork to be had: fuse in this process
        return None


def self_train_step(scene: Scene, cfg: TrainConfig, polys, worker=None):
    """One synchronous consensus update over all views.

    Stacks are built from polys, the pre-step scene.world_polylines(), of the
    selected contributor views, so per-view updates are order-independent.
    Returns (updated scene, (mean_wbc, mean_l1)) with losses measured before
    the update. With loss="wbc" the per-column step is scaled by
    min(1, sigma_ref^2 / sigma^2), sigma_ref being the view's median sigma,
    which damps updates where the re-projections disagree. worker, run's
    _FuseWorker or None, fuses half of the labels in a second process.
    """
    kinds = scene.kinds()
    labels = fuse_labels(scene, polys, kinds, cfg) if worker is None \
        else worker.fuse_labels(scene, polys, cfg)
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
    worker = _start_worker(scene, cfg)
    try:
        for k in range(cfg.max_iters + 1):
            polys = state.world_polylines()   # the one lift of this state
            # The last step's update is unused.
            next_state, losses = self_train_step(state, cfg, polys, worker)
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
    finally:
        if worker is not None:
            worker.close()
    return TrainTrajectory(records, best_iter), best_state
