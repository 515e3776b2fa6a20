"""Consensus refinement: iterative pseudo-label fusion with damped updates.

Each step re-fuses every view's boundary stack into a pseudo-label and moves
the view's boundary toward it by a damping factor; with the uncertainty-
weighted loss the per-column step shrinks where the views disagree. Early
stopping picks the iteration with the lowest density-map entropy, evaluated
on grid bounds frozen at iteration zero so values stay comparable, and
counted sparsely by density_entropy without building the grid. run lifts
each state once, for its stacks, its entropy and its IoU against the ground
truth, steps every iteration but the last, whose state is scored and not
stepped, and keeps only the best state, not a snapshot per evaluation. The
ground truth's floor polygons and heights are built once per run. The
trajectory's wbc is measured against each iteration's own labels, whose
sigma shrinks as views agree, so it can rise while l1 falls: compare
iterations by l1.

A step is a list of (kind, target) pairs, kind-major in frame order, and
_step_pairs turns each into its losses and its damped latitudes; the losses
are averaged in pair order. run builds one _FuseWorker at its start and
closes it before it returns. When the run re-projects at least
_WORKER_SAMPLES samples in all, on a machine with two usable CPUs and no
other live thread, the worker forks a process that, at every step, steps the
second half of the pairs, the whole ceiling kind when there are both, while
run's process steps the first half. run lifts the worker's kind first and
sends it those lifts and its targets' latitudes over one duplex pipe, lifts
the rest, steps its half, scores the state and then takes the worker's list;
the step is its own list followed by the worker's. Each result depends only
on the lifts and latitudes, so the outputs are byte-identical to the
one-process path that smaller runs and fewer CPUs take. Hooks and log
handlers in the worker see only its own half.
"""

from __future__ import annotations

import contextlib
import logging
import math
import multiprocessing
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .consistency import GRID_SIZE_DEFAULT, PADDING_DEFAULT, check_grid, \
    data_bounds, density_entropy
from .errors import MetricError
from .evaluation import footprint_truth, frame_ious
from .geometry import BoundaryKind, SphericalBoundary
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


def check_step(scene: Scene, cfg: TrainConfig) -> int:
    """The samples (targets x contributors x W) a fuse_labels pass
    re-projects per kind; ValueError if over MAX_STEP_SAMPLES."""
    n, m = len(scene.view_ids), len(select_views(scene.view_ids, cfg.view_fraction))
    samples = n * m * scene.image_width
    if samples > MAX_STEP_SAMPLES:
        raise ValueError(f"{n} targets x {m} contributors x {scene.image_width} "
                         f"columns = {samples} samples per kind, over the "
                         f"limit of {MAX_STEP_SAMPLES} for one fusion pass")
    return samples


def fuse_labels(scene: Scene, polys, kinds, cfg: TrainConfig):
    """Pseudo-labels {kind: {view id: label}} for every view and given kind.

    Each kind is stacked from the lifts in polys (Scene.world_polylines) of
    the configured view subset, and each stack is fused as it is yielded.
    """
    pairs = _pairs(scene, kinds)
    labels = {kind: {} for kind in kinds}
    for (kind, view), pl in zip(pairs, _labels(scene, polys, pairs, cfg)):
        labels[kind][view] = pl
    return labels


def _pairs(scene: Scene, kinds) -> list:
    """The (kind, target view) pairs of one step, kind-major, frame order."""
    return [(kind, f.view_id) for kind in kinds for f in scene.frames]


def _lats(scene: Scene, pairs) -> list:
    """The current latitudes of each (kind, target view) pair's boundary."""
    frames = {f.view_id: f for f in scene.frames}
    return [frames[view].boundary(kind).lat for kind, view in pairs]


def _labels(scene: Scene, polys, pairs, cfg: TrainConfig):
    """Yield the pseudo-label of each (kind, target view) pair, in pair
    order. Only the poses, view ids and W of scene are read; the boundaries
    come from polys."""
    contributors = set(select_views(scene.view_ids, cfg.view_fraction))
    for kind in dict.fromkeys(k for k, _ in pairs):
        sources = [p for p in polys
                   if p.kind == kind and p.source_view in contributors]
        targets = [t for k, t in pairs if k == kind]
        for s in build_stacks(scene, sources, targets):
            yield fuse(s, cfg.estimator, cfg.sigma_floor)


def _step_pairs(scene: Scene, polys, pairs, lats, cfg: TrainConfig,
                update: bool) -> list:
    """Each (kind, target view) pair's (wbc, l1, new lat) in pair order.

    lats holds each pair's current latitudes. The losses are measured
    against the pair's pseudo-label, fused from polys as in _labels; new lat
    is the damped step toward that label, or None when update is false.
    With loss="wbc" the per-column step is scaled by min(1, sigma_ref^2 /
    sigma^2), sigma_ref being the label's median sigma.
    """
    out = []
    for lat, pl in zip(lats, _labels(scene, polys, pairs, cfg)):
        new_lat = None
        if update:
            if cfg.loss == "wbc":
                sigma_ref = float(np.median(pl.sigma))
                step = cfg.damping * np.minimum(1.0, (sigma_ref / pl.sigma) ** 2)
            else:
                step = np.full_like(lat, cfg.damping)
            new_lat = np.where(step >= 1.0, pl.lat_bar, lat + step * (pl.lat_bar - lat))
        out.append((wbc_loss(lat, pl), l1_loss(lat, pl), new_lat))
    return out


def _losses(steps) -> tuple[float, float]:
    """(mean wbc, mean l1) of _step_pairs results, summed in their order."""
    return float(np.mean([s[0] for s in steps])), float(np.mean([s[1] for s in steps]))


def _stepped(scene: Scene, pairs, steps) -> Scene:
    """scene with each pair's boundary replaced by its new lat from steps."""
    updates = {f.view_id: {} for f in scene.frames}
    for (kind, view), (_, _, lat) in zip(pairs, steps):
        updates[view][kind] = SphericalBoundary(lat, kind)
    return scene.with_boundaries(updates)


class _FuseWorker:
    """A forked process that steps the second half of every step's (kind,
    target) pairs while run's process steps the first half.

    It starts only where os.fork and os.sched_getaffinity exist, at least two
    CPUs are usable, no other thread is alive (a fork copies only the calling
    one) and the run re-projects at least _WORKER_SAMPLES samples in all.
    Otherwise, or when no pipe or fork can be had, pid stays None and every
    pair is stepped in this process. Each step sends the worker, over one
    duplex multiprocessing.Pipe, the lifts of its kinds, its targets'
    current latitudes and whether to update; it replies with _step_pairs'
    list for its pairs, or the exception its half raised. No label crosses
    the pipe. Poses, view ids and W come from the fork-time scene: refine
    never changes them. A worker that ends without a reply is closed and its
    half stepped here.
    """

    def __init__(self, scene: Scene, cfg: TrainConfig, pairs):
        samples = (cfg.max_iters + 1) * len(scene.kinds()) * check_step(scene, cfg)
        half = len(pairs) // 2
        self.cfg, self.pairs, self.pid = cfg, pairs, None
        self.mine, self.theirs = pairs[:half], pairs[half:]
        self.kinds = tuple(dict.fromkeys(k for k, _ in self.theirs))
        if (samples < _WORKER_SAMPLES or not hasattr(os, "fork")
                or not hasattr(os, "sched_getaffinity")
                or len(os.sched_getaffinity(0)) < 2 or threading.active_count() != 1):
            return
        try:
            self.conn, conn = multiprocessing.Pipe()
        except OSError:   # no pipe to be had: step in this process
            return
        try:
            self.pid = os.fork()
        except OSError:   # no fork to be had: step in this process
            self.conn.close()
        if self.pid == 0:
            try:
                self.conn.close()   # else the child never sees run close its end
                while True:   # until EOFError: run closed its end
                    polys, lats, update = conn.recv()
                    try:
                        reply = True, _step_pairs(scene, polys, self.theirs, lats,
                                                  cfg, update)
                    except Exception as e:
                        reply = False, e
                    conn.send(reply)
            finally:
                os._exit(0)
        conn.close()

    def lift(self, scene: Scene, update: bool) -> list:
        """The lifts of scene.world_polylines(). While the worker lives its
        kinds are lifted first and sent, then the rest: the list is grouped
        by kind, not by frame."""
        if self.pid is None:
            return scene.world_polylines()
        polys = scene.world_polylines(self.kinds)
        self.send(scene, polys, update)
        return polys + scene.world_polylines(
            tuple(k for k in BoundaryKind if k not in self.kinds))

    def send(self, scene: Scene, polys, update: bool) -> None:
        """Start the worker's half of scene's step."""
        if self.pid is not None:
            try:
                self.conn.send(([p for p in polys if p.kind in self.kinds],
                                _lats(scene, self.theirs), update))
            except OSError:   # the worker is gone
                self.close()

    def step_here(self, scene: Scene, polys, update: bool) -> list:
        """_step_pairs for this process's pairs: the first half while the
        worker lives, else all."""
        pairs = self.mine if self.pid is not None else self.pairs
        return _step_pairs(scene, polys, pairs, _lats(scene, pairs), self.cfg, update)

    def collect(self, scene: Scene, polys, update: bool) -> list:
        """The worker's results for the step that send started, [] when
        step_here stepped every pair. Its exception is raised here; a
        worker that ended is closed and its half stepped here."""
        if self.pid is None:
            return []
        try:
            ok, theirs = self.conn.recv()
        except Exception:   # no reply, or a cut one: the worker ended
            self.close()
            return _step_pairs(scene, polys, self.theirs, _lats(scene, self.theirs),
                               self.cfg, update)
        if not ok:
            raise theirs
        return theirs

    def close(self) -> None:
        """Close the pipe and reap the worker; safe to call twice."""
        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        self.conn.close()
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


def self_train_step(scene: Scene, cfg: TrainConfig, polys, worker=None):
    """One synchronous consensus update over all views.

    Stacks are built from polys, the pre-step scene.world_polylines(), of the
    selected contributor views, so per-view updates are order-independent.
    Returns (updated scene, (mean_wbc, mean_l1)) with losses measured before
    the update. With loss="wbc" the per-column step is scaled by
    min(1, sigma_ref^2 / sigma^2), sigma_ref being the view's median sigma,
    which damps updates where the re-projections disagree. worker, a
    _FuseWorker built for scene's pairs or None, steps half of the pairs in
    a second process.
    """
    pairs = _pairs(scene, scene.kinds())
    if worker is None:
        steps = _step_pairs(scene, polys, pairs, _lats(scene, pairs), cfg, True)
    else:
        worker.send(scene, polys, True)
        steps = worker.step_here(scene, polys, True) + worker.collect(scene, polys, True)
    return _stepped(scene, pairs, steps), _losses(steps)


def _scores(state: Scene, polys, truth, bounds, cfg: TrainConfig, k: int):
    """(h_mlc, iou2d, iou3d) of iteration k's state from its lifts polys:
    the entropy on the frozen bounds, and the mean IoUs against truth. The
    IoUs are None without truth, and with a warning where MetricError
    leaves them undefined; iou3d also where truth has no heights."""
    h_mlc = density_entropy(polys, cfg.grid_size, cfg.grid_size, cfg.padding,
                            bounds=bounds)
    if truth is None:
        return h_mlc, None, None
    try:
        vals = list(frame_ious(state, polys, truth, _TRAJECTORY_IOU_RASTER))
    except MetricError as e:
        logger.warning("iteration %d: IoU not recorded: %s", k, e)
        return h_mlc, None, None
    vals3 = [v3 for _, v3 in vals if v3 is not None]
    return (h_mlc, float(np.mean([v2 for v2, _ in vals])),
            float(np.mean(vals3)) if vals3 else None)


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
    records: list[IterationRecord] = []
    state = best_state = scene
    best_h, best_iter, bounds = math.inf, 0, None
    pairs = _pairs(scene, scene.kinds())
    worker = _FuseWorker(scene, cfg, pairs)   # checks the step
    try:
        truth = None if scene.ground_truth is None else footprint_truth(scene)
        for k in range(cfg.max_iters + 1):
            update = k < cfg.max_iters   # the last state is scored, not stepped
            polys = worker.lift(state, update)   # the one lift of this state
            steps = worker.step_here(state, polys, update)
            scores = None, None, None
            try:   # the state is scored while the worker steps its half
                if k % cfg.eval_every == 0 or not update:
                    bounds = data_bounds(polys) if bounds is None else bounds
                    scores = _scores(state, polys, truth, bounds, cfg, k)
            finally:   # an error of the worker's half wins, as in one process
                steps += worker.collect(state, polys, update)
            records.append(IterationRecord(k, *_losses(steps), *scores))
            if scores[0] is not None and scores[0] < best_h:
                best_h, best_iter, best_state = scores[0], k, state
            if update:
                state = _stepped(state, pairs, steps)
    finally:
        worker.close()
    return TrainTrajectory(records, best_iter), best_state
