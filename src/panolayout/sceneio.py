"""Scene JSON, CSV and report serialization.

Scene files are JSON (version "1") with every float written with 17
significant digits, so save -> load -> save is byte-identical. CSV outputs
follow RFC 4180 (CRLF line endings, header row).
"""

from __future__ import annotations

import csv
import json
import logging
import math

import numpy as np

from .errors import SceneFormatError
from .geometry import BoundaryKind, CameraPose, DEFAULT_CAMERA_HEIGHT, \
    SphericalBoundary, latitude_to_row, row_to_latitude
from .pseudolabel import PseudoLabel
from .reprojection import BoundaryStack
from .scene import Scene, ViewFrame

logger = logging.getLogger(__name__)

SCENE_VERSION = "1"

# Rotations are accepted up to this orthonormality defect on load; beyond
# the strict pose tolerance they are projected back onto SO(3).
_LOAD_ROTATION_TOL = 1e-6
_STRICT_ROTATION_TOL = 1e-9

# Largest |translation| entry and floor_height accepted on load, in meters.
# Far beyond any room, and small enough that no squared world coordinate
# overflows.
_MAX_METERS = 1e6


def format_float(x: float) -> str:
    """17-significant-digit decimal, exact on round trip."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if x == 0.0:
        return "-0.0" if math.copysign(1.0, x) < 0 else "0.0"
    return format(x, ".17g")


def _float_array(values) -> str:
    """format_float of each float, comma-joined, from one format call."""
    text = ("%.17g," * len(values) % tuple(values))[:-1]
    if "n" in text:  # "inf" or "nan"
        for x in values:
            format_float(x)
    if 0.0 in values:
        text = ",".join(t + ".0" if t in ("0", "-0") else t for t in text.split(","))
    return text


def _has_control(s: str) -> bool:
    return any(ord(c) < 0x20 for c in s)


def _dump(obj, out: list[str]) -> None:
    if isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out.append(("," if i else "") + json.dumps(k) + ":")
            _dump(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        types = set(map(type, obj))
        if types == {float}:
            out.append("[" + _float_array(obj) + "]")
        elif types == {int}:
            out.append("[" + ",".join(map(str, obj)) + "]")
        else:
            out.append("[")
            for i, v in enumerate(obj):
                if i:
                    out.append(",")
                _dump(v, out)
            out.append("]")
    else:
        if isinstance(obj, str) and _has_control(obj):
            raise ValueError("control characters are not allowed in strings")
        out.append(json.dumps(obj))


def dumps_document(doc) -> str:
    """Compact ASCII JSON with floats rendered via format_float.

    Dict keys must be strings; a list of floats is formatted in one call.
    """
    out: list[str] = []
    _dump(doc, out)
    return "".join(out) + "\n"


def _boundary_list(b: SphericalBoundary | None):
    return None if b is None else b.lat.tolist()


def scene_to_document(scene: Scene) -> dict:
    doc = {
        "version": SCENE_VERSION,
        "image_width": int(scene.image_width),
        "image_height": int(scene.image_height),
        "frames": [],
    }
    for f in scene.frames:
        doc["frames"].append({
            "id": f.view_id,
            "pose": {
                "rotation": f.pose.rotation.reshape(-1).tolist(),
                "translation": f.pose.translation.tolist(),
            },
            "floor_height": float(f.pose.floor_height),
            "boundary_floor": _boundary_list(f.boundary_floor),
            "boundary_ceiling": _boundary_list(f.boundary_ceiling),
        })
    if scene.ground_truth is not None:
        doc["ground_truth"] = [{
            "id": vid,
            "boundary_floor": _boundary_list(gt.get(BoundaryKind.FLOOR)),
            "boundary_ceiling": _boundary_list(gt.get(BoundaryKind.CEILING)),
        } for vid, gt in scene.ground_truth.items()]
    if scene.pseudo_labels is not None:
        doc["pseudo_labels"] = [{
            "id": vid,
            "lat_bar": pl.lat_bar.tolist(),
            "sigma": pl.sigma.tolist(),
            "support": [int(v) for v in pl.support],
        } for vid, pl in scene.pseudo_labels.items()]
    if scene.meta:
        doc["meta"] = scene.meta
    return doc


def save_scene(scene: Scene, path) -> None:
    text = dumps_document(scene_to_document(scene))  # no file on a rejected scene
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def _require(cond: bool, msg: str):
    if not cond:
        raise SceneFormatError(msg)


def _array(values, dtype, ctx: str, what: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as e:  # Overflow: int > float max
        raise SceneFormatError(f"{ctx}: {what} must be numeric") from e


def _records(values, what: str) -> list[dict]:
    _require(isinstance(values, list) and all(isinstance(v, dict) for v in values),
             f"{what} must be a list of JSON objects")
    return values


def _parse_boundary(values, kind: BoundaryKind, W: int, ctx: str,
                    pixel_rows: bool, H: int) -> SphericalBoundary | None:
    if values is None:
        return None
    arr = _array(values, float, ctx, "boundary")
    _require(arr.ndim == 1 and arr.shape[0] == W,
             f"{ctx}: boundary length {arr.shape} != image_width {W}")
    if pixel_rows:
        arr = row_to_latitude(arr, H)
    try:
        return SphericalBoundary(arr, kind)
    except ValueError as e:
        raise SceneFormatError(f"{ctx}: {e}") from e


def _parse_rotation(values, ctx: str) -> np.ndarray:
    R = _array(values, float, ctx, "rotation")
    _require(R.shape == (9,), f"{ctx}: rotation must be 9 row-major floats")
    R = R.reshape(3, 3)
    defect = float(np.max(np.abs(R.T @ R - np.eye(3))))
    _require(defect <= _LOAD_ROTATION_TOL and np.linalg.det(R) > 0,
             f"{ctx}: rotation not orthonormal within {_LOAD_ROTATION_TOL}")
    if defect > _STRICT_ROTATION_TOL:
        # Repair mildly denormalized poses; exact ones keep their bits.
        u, _, vt = np.linalg.svd(R)
        R = u @ vt
        if np.linalg.det(R) < 0:
            u[:, -1] = -u[:, -1]
            R = u @ vt
        logger.warning("%s: rotation re-orthonormalized (defect %.2e)", ctx, defect)
    return R


def _strings(value):
    """Every string in a JSON value, dict keys included."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, str):
            yield v
        elif isinstance(v, dict):
            stack += [*v.keys(), *v.values()]
        elif isinstance(v, list):
            stack += v


def document_to_scene(doc: dict, pixel_rows: bool = False) -> Scene:
    _require(isinstance(doc, dict), "scene document must be a JSON object")
    _require(doc.get("version") == SCENE_VERSION,
             f"unrecognized scene version {doc.get('version')!r}")
    W = doc.get("image_width")
    H = doc.get("image_height")
    _require(type(W) is int and W >= 8, "image_width must be an int >= 8")
    # Equirectangular panoramas are W/2 tall; evaluate allocates H-long rows.
    _require(type(H) is int and 1 <= H <= W,
             "image_height must be an int in [1, image_width]")
    raw_frames = _records(doc.get("frames"), "frames")
    _require(len(raw_frames) > 0, "frames must be non-empty")

    frames = []
    for rf in raw_frames:
        vid = rf.get("id")
        _require(isinstance(vid, str) and vid != "", "frame id must be a string")
        _require(not _has_control(vid),
                 f"frame id {vid!r}: control characters are not allowed")
        ctx = f"frame {vid!r}"
        pose_doc = rf.get("pose") or {}
        _require(isinstance(pose_doc, dict), f"{ctx}: pose must be a JSON object")
        R = _parse_rotation(pose_doc.get("rotation"), ctx)
        t = _array(pose_doc.get("translation"), float, ctx, "translation")
        _require(t.shape == (3,), f"{ctx}: translation must be a 3-vector")
        _require(bool(np.all(np.abs(t) <= _MAX_METERS)),
                 f"{ctx}: translation entries must lie in [-1e6, 1e6] m")
        h = rf.get("floor_height")
        if h is None:
            h = DEFAULT_CAMERA_HEIGHT
            logger.warning("%s: floor_height missing, defaulting to %.1f m",
                           ctx, DEFAULT_CAMERA_HEIGHT)
        _require(isinstance(h, (int, float)) and not isinstance(h, bool)
                 and 0 < h <= _MAX_METERS,
                 f"{ctx}: floor_height must be a positive number <= 1e6 m")
        bf = _parse_boundary(rf.get("boundary_floor"), BoundaryKind.FLOOR,
                             W, ctx, pixel_rows, H)
        _require(bf is not None, f"{ctx}: boundary_floor is required")
        bc = _parse_boundary(rf.get("boundary_ceiling"), BoundaryKind.CEILING,
                             W, ctx, pixel_rows, H)
        try:
            pose = CameraPose(R, t, float(h))
        except ValueError as e:
            raise SceneFormatError(f"{ctx}: {e}") from e
        frames.append(ViewFrame(vid, pose, bf, bc))

    frame_ids = {f.view_id for f in frames}
    ground_truth = None
    if doc.get("ground_truth") is not None:
        ground_truth = {}
        for rg in _records(doc["ground_truth"], "ground_truth"):
            vid = rg.get("id")
            ctx = f"ground_truth {vid!r}"
            _require(isinstance(vid, str) and vid in frame_ids,
                     f"{ctx}: names no frame")
            bf = _parse_boundary(rg.get("boundary_floor"), BoundaryKind.FLOOR,
                                 W, ctx, pixel_rows, H)
            _require(bf is not None, f"{ctx}: boundary_floor is required")
            entry = {BoundaryKind.FLOOR: bf}
            bc = _parse_boundary(rg.get("boundary_ceiling"), BoundaryKind.CEILING,
                                 W, ctx, pixel_rows, H)
            if bc is not None:
                entry[BoundaryKind.CEILING] = bc
            ground_truth[vid] = entry

    pseudo_labels = None
    if doc.get("pseudo_labels") is not None:
        pseudo_labels = {}
        for rp in _records(doc["pseudo_labels"], "pseudo_labels"):
            vid = rp.get("id")
            ctx = f"pseudo_labels {vid!r}"
            _require(isinstance(vid, str) and vid in frame_ids,
                     f"{ctx}: names no frame")
            lat_bar = _array(rp.get("lat_bar"), float, ctx, "lat_bar")
            sigma = _array(rp.get("sigma"), float, ctx, "sigma")
            support = _array(rp.get("support"), float, ctx, "support")
            _require(lat_bar.shape == (W,) and sigma.shape == (W,)
                     and support.shape == (W,),
                     f"{ctx}: arrays must have length {W}")
            _require(np.all(np.isfinite(lat_bar)) and np.all(np.isfinite(sigma)),
                     f"{ctx}: lat_bar and sigma must be finite")
            _require(np.all((support >= 0) & (support <= len(frames))
                            & (support == np.floor(support))),
                     f"{ctx}: support must be whole view counts")
            pseudo_labels[vid] = PseudoLabel(lat_bar, sigma,
                                             support.astype(np.int64))

    meta = doc.get("meta") or {}
    _require(isinstance(meta, dict), "meta must be a JSON object")
    _require(not any(map(_has_control, _strings(meta))),
             "meta: control characters are not allowed in strings")
    try:
        return Scene(frames, W, H, ground_truth, pseudo_labels, meta)
    except SceneFormatError:
        raise
    except ValueError as e:
        raise SceneFormatError(str(e)) from e


def load_scene(path, pixel_rows: bool = False) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise SceneFormatError(f"{path}: invalid JSON: {e}") from e
    return document_to_scene(doc, pixel_rows=pixel_rows)


def _open_csv(path):
    return open(path, "w", encoding="utf-8", newline="")


def write_stack_csv(stack: BoundaryStack, path) -> None:
    """Stack dump: one row per (column, view) with lat and validity."""
    with _open_csv(path) as f:
        w = csv.writer(f)
        w.writerow(["column", "view", "lat", "valid"])
        for theta in range(stack.width):
            for i, vid in enumerate(stack.view_ids):
                lat = stack.lat[theta, i]
                w.writerow([theta, vid,
                            "" if np.isnan(lat) else format_float(float(lat)),
                            int(stack.valid[theta, i])])


def write_pseudolabel_csv(pl: PseudoLabel, path) -> None:
    with _open_csv(path) as f:
        w = csv.writer(f)
        w.writerow(["column", "lat_bar", "sigma", "support"])
        for i in range(pl.width):
            w.writerow([i, format_float(float(pl.lat_bar[i])),
                        format_float(float(pl.sigma[i])), int(pl.support[i])])


def write_trajectory_csv(records, path) -> None:
    with _open_csv(path) as f:
        w = csv.writer(f)
        w.writerow(["iter", "h_mlc", "wbc", "l1", "iou2d", "iou3d"])
        for r in records:
            w.writerow([
                r.iteration,
                "" if r.h_mlc is None else format_float(r.h_mlc),
                format_float(r.wbc), format_float(r.l1),
                "" if r.iou2d is None else format_float(r.iou2d),
                "" if r.iou3d is None else format_float(r.iou3d),
            ])


def write_density_csv(cells: np.ndarray, path) -> None:
    """Occupied density cells as (u, v, phi) rows."""
    with _open_csv(path) as f:
        w = csv.writer(f)
        w.writerow(["u", "v", "phi"])
        for u, v, phi in cells:
            w.writerow([int(u), int(v), format_float(float(phi))])


def write_report_csv(report, path) -> None:
    """One metric row per evaluated view."""
    with _open_csv(path) as f:
        w = csv.writer(f)
        w.writerow(["view_id", "iou2d", "iou3d", "rmse", "delta1"])
        for r in report.per_view:
            w.writerow([r["view_id"], format_float(float(r["iou2d"])),
                        format_float(float(r["iou3d"])),
                        format_float(float(r["rmse"])),
                        format_float(float(r["delta1"]))])


def write_report_json(report, path) -> None:
    doc = {
        "iou2d": float(report.iou2d), "iou3d": float(report.iou3d),
        "rmse": float(report.rmse), "delta1": float(report.delta1),
        "per_view": [{
            "view_id": r["view_id"], "iou2d": float(r["iou2d"]),
            "iou3d": float(r["iou3d"]), "rmse": float(r["rmse"]),
            "delta1": float(r["delta1"]),
        } for r in report.per_view],
    }
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(dumps_document(doc))


def boundary_to_rows(b: SphericalBoundary, H: int) -> np.ndarray:
    """Boundary latitudes as fractional pixel rows (export counterpart of
    the --pixel-rows import path)."""
    return latitude_to_row(b.lat, H)
