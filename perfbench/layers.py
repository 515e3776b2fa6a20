"""What the traced run wraps, the counters its hooks keep, and the per-layer
metrics built from one workload's traced passes.

Per-layer values are averages per pass over the workload's job list, so runs
of different lengths compare; synth values are per scene set-up.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np


def _stack_hook(tracer, args, stack):
    c = tracer.counters
    c["reprojection.stack_entries"] += stack.valid.size
    c["reprojection.valid_entries"] += int(stack.valid.sum())
    room = tracer.context.get("room")
    if room is None:
        return
    if "dst_pose" in args:
        pose = args["dst_pose"]
    else:
        pose = args["scene"].frame(args["target"]).pose
    kind = args["kind"]
    key = (pose.rotation.tobytes(), pose.translation.tobytes(), stack.width, kind)
    cache = tracer.context.setdefault("exact", {})
    if key not in cache:
        cache[key] = tracer.context["synth"].exact_boundary(
            room, pose, stack.width, kind).lat
    err = np.abs(stack.lat - cache[key][:, None])[stack.valid]
    c["reprojection.stack_err_rad"] += float(err.sum())
    c["reprojection.stack_err_entries"] += err.size


def _fuse_hook(tracer, args, pl):
    c = tracer.counters
    c["pseudolabel.columns"] += pl.sigma.shape[0]
    c["pseudolabel.floor_columns"] += int(np.sum(pl.sigma <= args["sigma_floor"]))
    c["pseudolabel.support_sum"] += int(pl.support.sum())


def _density_hook(tracer, args, grid):
    tracer.counters["consistency.points"] += sum(
        p.points.shape[0] for p in args["polylines"])


def _iou_hook(tracer, args, value):
    # Computed, not measured: both footprints are rasterized at raster^2 cells.
    tracer.counters["evaluation.raster_cells"] += 2 * args["raster"] ** 2


def _load_hook(tracer, args, scene):
    tracer.counters["sceneio.bytes_read"] += os.path.getsize(args["path"])


def _save_hook(tracer, args, _):
    tracer.counters["sceneio.bytes_written"] += os.path.getsize(args["path"])


# (defining module, attribute, span name, statistics hook). The stack helper
# that selftrain imports shares the build_stack span name: both build one
# target's stack, and build_stack calling it merges into one call.
SPECS = [
    ("geometry", "boundary_to_world", "geometry.boundary_to_world", None),
    ("geometry", "world_to_boundary_samples",
     "geometry.world_to_boundary_samples", None),
    ("reprojection", "resample_to_columns", "reprojection.resample_to_columns", None),
    ("reprojection", "build_stack", "reprojection.build_stack", _stack_hook),
    ("reprojection", "_stack_from_polylines", "reprojection.build_stack", _stack_hook),
    ("pseudolabel", "fuse", "pseudolabel.fuse", _fuse_hook),
    ("consistency", "density_map", "consistency.density_map", _density_hook),
    ("consistency", "mlc_entropy", "consistency.mlc_entropy", None),
    ("evaluation", "iou2d", "evaluation.iou2d", _iou_hook),
    ("evaluation", "iou3d", "evaluation.iou3d", _iou_hook),
    ("evaluation", "layout_depth", "evaluation.layout_depth", None),
    ("selftrain", "self_train_step", "selftrain.self_train_step", None),
    ("sceneio", "load_scene", "sceneio.load_scene", _load_hook),
    ("sceneio", "save_scene", "sceneio.save_scene", _save_hook),
    ("synth", "generate_scene", "synth.generate_scene", None),
    ("synth", "perturb", "synth.perturb", None),
]

SUBCOMMANDS = ("pseudo-label", "metric", "refine", "evaluate")
MODULES = ("geometry", "reprojection", "pseudolabel", "consistency",
           "evaluation", "selftrain", "sceneio", "cli")

_CALLS = ("geometry.boundary_to_world", "geometry.world_to_boundary_samples",
          "reprojection.resample_to_columns", "reprojection.build_stack",
          "pseudolabel.fuse", "consistency.density_map", "evaluation.iou2d",
          "evaluation.iou3d", "selftrain.self_train_step")
_SELF = _CALLS + ("consistency.mlc_entropy", "evaluation.layout_depth",
                  "sceneio.load_scene", "sceneio.save_scene")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(pass_tracers, setup_tracer, best_iters, overhead_frac):
    """(name -> (value, unit)) from the traced passes and traced set-up."""
    n = len(pass_tracers)
    calls, self_s, incl, counters = Counter(), Counter(), Counter(), Counter()
    for t in pass_tracers:
        for total, part in zip((calls, self_s, incl), t.totals()):
            total.update(part)
        counters.update(t.counters)

    m = {}
    for name in _CALLS:
        m[f"{name}.calls"] = (calls.get(name, 0) / n, "count")
    for name in _SELF:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0) / n, "s")
    m["reprojection.contested_crossings"] = (
        counters.get("reprojection.contested_crossings", 0) / n, "count")
    m["reprojection.valid_frac"] = (_ratio(
        counters.get("reprojection.valid_entries", 0),
        counters.get("reprojection.stack_entries", 0)), "ratio")
    m["reprojection.stack_err_mrad"] = (1e3 * _ratio(
        counters.get("reprojection.stack_err_rad", 0.0),
        counters.get("reprojection.stack_err_entries", 0)), "mrad")
    m["pseudolabel.sigma_floor_frac"] = (_ratio(
        counters.get("pseudolabel.floor_columns", 0),
        counters.get("pseudolabel.columns", 0)), "ratio")
    m["pseudolabel.support_mean"] = (_ratio(
        counters.get("pseudolabel.support_sum", 0),
        counters.get("pseudolabel.columns", 0)), "count")
    m["consistency.points"] = (counters.get("consistency.points", 0) / n, "count")
    m["evaluation.raster_cells"] = (
        counters.get("evaluation.raster_cells", 0) / n, "count")
    m["selftrain.best_iter"] = (
        float(np.mean(best_iters)) if best_iters else 0.0, "iter")
    for key in ("sceneio.bytes_read", "sceneio.bytes_written"):
        m[key] = (counters.get(key, 0) / n, "B")

    _, setup_self, _ = setup_tracer.totals()
    for name in ("synth.generate_scene", "synth.perturb"):
        m[f"{name}.self_s"] = (setup_self.get(name, 0.0), "s")

    job_s = sum(incl.get(f"cli.{sub}", 0.0) for sub in SUBCOMMANDS)
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.s"] = (incl.get(f"cli.{sub}", 0.0) / n, "s")
    for mod in MODULES:
        mod_self = sum(v for k, v in self_s.items() if k.split(".")[0] == mod)
        m[f"{mod}.self_frac"] = (_ratio(mod_self, job_s), "ratio")
    m["trace.spans"] = (sum(len(t.spans) for t in pass_tracers) / n, "count")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m

