"""Correctness checks and output checksums for every benchmark job.

A job passes when the CLI returned 0 and its outputs hold what the
subcommand promises: a finite H_MLC, a trajectory with iters+1 rows, every
IoU in [0, 1], well-formed pseudo-labels and density maps. Each job also
gets a SHA-256 over its outputs (trajectory CSV, best-scene JSON, report
JSON, H_MLC string ...), so a change that alters numbers shows up even when
every check passes. The same job must give the same checksum on every pass;
a difference fails it, because every subcommand is deterministic.

Checks run untraced and untimed, between passes. A checksum already verified
reuses its verdict: identical bytes cannot check differently.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass, field

_H_LINE = re.compile(r"^H_MLC=(\S+)$", re.M)


class CheckFailed(Exception):
    pass


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    digest: str = ""
    quality: dict = field(default_factory=dict)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _unit(x: float) -> bool:
    return 0.0 <= x <= 1.0


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _digest(job, stdout: str) -> str:
    h = hashlib.sha256()
    for role in sorted(job.files):
        if role != "src":
            h.update(role.encode() + b"\0" + _read(job.files[role]) + b"\0")
    m = _H_LINE.search(stdout)
    if m:
        h.update(b"h_mlc\0" + m.group(1).encode())
    return h.hexdigest()


def _mean_iou_vs_gt(pl, scene, ground_truth, raster: int) -> float:
    ev = pl.evaluation
    floor = pl.geometry.BoundaryKind.FLOOR
    vals = []
    for f in scene.frames:
        pred = ev.floor_polygon(f.boundary_floor, f.pose)
        gt = ev.floor_polygon(ground_truth[f.view_id][floor], f.pose)
        vals.append(ev.iou2d(pred, gt, raster))
    return sum(vals) / len(vals)


def _entropy(pl, scene) -> float:
    con = pl.consistency
    return con.mlc_entropy(con.density_map(scene.world_polylines()))


def _check_refine(pl, job, inputs):
    with open(job.files["traj"], newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    _require(len(rows) == job.iters + 1,
             f"trajectory has {len(rows)} rows, expected {job.iters + 1}")
    h = [float(r["h_mlc"]) for r in rows]
    _require(all(math.isfinite(x) for x in h), "non-finite H_MLC in trajectory")
    _require(all(math.isfinite(float(r[k])) for r in rows for k in ("wbc", "l1")),
             "non-finite loss in trajectory")
    best = pl.sceneio.load_scene(job.files["best"])
    _require(len(best.frames) == inputs.n_views[job.scene], "best scene lost views")
    for r in rows:
        for k in ("iou2d", "iou3d"):
            if best.ground_truth is None:
                _require(r[k] == "", f"{k} tracked without ground truth")
            else:
                _require(_unit(float(r[k])), f"trajectory {k}={r[k]} outside [0, 1]")
    best_iter = min(range(len(h)), key=lambda i: (h[i], i))
    iou = _mean_iou_vs_gt(pl, best, inputs.ground_truth[job.scene], inputs.raster)
    _require(_unit(iou), f"best-snapshot IoU {iou} outside [0, 1]")
    return {"h_mlc_best": h[best_iter], "iou2d": iou, "best_iter": best_iter}


def _check_evaluate(pl, job, inputs, score_entropy: bool):
    with open(job.files["report"], encoding="utf-8") as f:
        rep = json.load(f)
    _require(len(rep["per_view"]) == inputs.n_views[job.scene],
             "report has the wrong number of views")
    for r in [rep] + rep["per_view"]:
        _require(all(math.isfinite(float(r[k])) for k in ("iou2d", "iou3d", "rmse", "delta1")),
                 "non-finite metric in report")
        _require(_unit(r["iou2d"]) and _unit(r["iou3d"]) and _unit(r["delta1"]),
                 "report IoU or delta1 outside [0, 1]")
        _require(r["rmse"] >= 0.0, "negative RMSE in report")
    quality = {"iou2d": float(rep["iou2d"])}
    if score_entropy:
        quality["h_mlc_input"] = _entropy(pl, pl.sceneio.load_scene(job.files["src"]))
    return quality


def _check_metric(job, stdout: str):
    m = _H_LINE.search(stdout)
    _require(m is not None, "metric printed no H_MLC line")
    h = float(m.group(1))
    _require(math.isfinite(h) and 0.0 <= h <= math.log(512 * 512),
             f"H_MLC={h} outside [0, ln(U*V)]")
    data = _read(job.files["pgm"])
    header = b"P5\n512 512\n255\n"
    _require(data.startswith(header) and len(data) == len(header) + 512 * 512,
             "density map is not a 512x512 P5 image")
    return {}


def _check_pseudo_label(pl, job, inputs):
    with open(job.files["scene_out"], encoding="utf-8") as f:
        doc = json.load(f)
    ids = [fr["id"] for fr in doc["frames"]]
    labels = {p["id"]: p for p in doc.get("pseudo_labels") or []}
    _require(sorted(labels) == sorted(ids), "pseudo-labels do not cover every view")
    n, w = inputs.n_views[job.scene], doc["image_width"]
    floor = pl.pseudolabel.SIGMA_FLOOR_DEFAULT
    for p in labels.values():
        _require(len(p["lat_bar"]) == w and len(p["sigma"]) == w, "label length != W")
        _require(all(math.isfinite(x) and x < 0.0 for x in p["lat_bar"]),
                 "floor label not finite and below the horizon")
        _require(all(math.isfinite(x) and x >= floor for x in p["sigma"]),
                 "sigma below its floor")
        _require(all(1 <= s <= n for s in p["support"]), "support outside [1, N]")
    return {}


def check_job(pl, job, rc, stdout: str, stderr: str, inputs, cache: dict,
              score_entropy: bool = False) -> Verdict:
    """Verdict for one finished job; cache maps (job, digest) -> Verdict."""
    if rc != 0:
        return Verdict(False, f"exit {rc}: {stderr.strip()[-300:]}")
    try:
        digest = _digest(job, stdout)
    except OSError as e:
        return Verdict(False, f"missing output: {e}")
    if (job.name, digest) in cache:
        return cache[job.name, digest]
    try:
        if job.sub == "refine":
            quality = _check_refine(pl, job, inputs)
        elif job.sub == "evaluate":
            quality = _check_evaluate(pl, job, inputs, score_entropy)
        elif job.sub == "metric":
            quality = _check_metric(job, stdout)
        else:
            quality = _check_pseudo_label(pl, job, inputs)
        verdict = Verdict(True, "", digest, quality)
    except (CheckFailed, OSError, ValueError, KeyError, TypeError) as e:
        verdict = Verdict(False, f"{type(e).__name__}: {e}", digest)
    cache[job.name, digest] = verdict
    return verdict
