"""Scene JSON, CSV and report serialization.

Scene files are JSON (version "1") with every float written with 17
significant digits, so save -> load -> save is byte-identical. CSV outputs
follow RFC 4180 (CRLF line endings, header row).

The loader checks only what concerns the document: JSON types, true or false
inside a numeric array, an id repeated within one list, the 1e-6 rotation
gate and its repair, the floor_height default, and pseudo-label values.
Every other rule belongs to Scene and CameraPose, whose errors it reports
as SceneFormatError naming the record, so any scene that the constructors
accept saves to a file that loads.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math

import numpy as np

from .errors import SceneFormatError
from .geometry import BoundaryKind, CameraPose, DEFAULT_CAMERA_HEIGHT, \
    SphericalBoundary, is_rotation, rotation_defect, row_to_latitude
from .pseudolabel import PseudoLabel
from .reprojection import BoundaryStack
from .scene import Scene, ViewFrame, check_image_size, has_control

logger = logging.getLogger(__name__)

SCENE_VERSION = "1"

# Rotations are accepted up to this orthonormality defect on load; those
# that CameraPose would reject are projected back onto SO(3).
_LOAD_ROTATION_TOL = 1e-6


def _float_array(values) -> str:
    """Each float as a 17-significant-digit decimal, exact on round trip (zeros
    as "0.0" and "-0.0"), comma-joined, from one format call. Raises
    ValueError, naming it, at the first non-finite value."""
    text = ("%.17g," * len(values) % tuple(values))[:-1]
    if "n" in text:  # "inf" or "nan"
        x = next(x for x in values if not math.isfinite(x))
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if 0.0 in values:
        text = ",".join(t + ".0" if t in ("0", "-0") else t for t in text.split(","))
    return text


def format_float(x: float) -> str:
    """One float as _float_array writes it."""
    return _float_array((x,))


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
        if isinstance(obj, str) and has_control(obj):
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
    """Write dumps_document(scene_to_document(scene)) to path.

    Every piece is formatted before the file opens, so a rejected scene
    writes no file; the pieces are written as they are, not joined first.
    """
    pieces: list[str] = []
    _dump(scene_to_document(scene), pieces)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.writelines(pieces)
        f.write("\n")


def _require(cond: bool, msg: str):
    if not cond:
        raise SceneFormatError(msg)


def _array(values, ctx: str, what: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:  # Overflow: int > float max
        raise SceneFormatError(f"{ctx}: {what} must be numeric") from e
    # numpy reads true and false as 1.0 and 0.0: only then look for them.
    if isinstance(values, list) and ((arr == 0.0) | (arr == 1.0)).any():
        _require(not any(v is True or v is False for v in values),
                 f"{ctx}: {what} must be numeric, not true or false")
    return arr


def _records(values, what: str) -> list[dict]:
    _require(isinstance(values, list) and all(isinstance(v, dict) for v in values),
             f"{what} must be a list of JSON objects")
    return values


def _construct(ctx: str, make, *args):
    """make(*args), a ValueError or OverflowError raised as a SceneFormatError
    naming ctx."""
    try:
        return make(*args)
    except (ValueError, OverflowError) as e:   # Overflow: H beyond a float
        raise SceneFormatError(f"{ctx}: {e}") from e


def _boundaries(record: dict, ctx: str, pixel_rows: bool, H: int) -> dict:
    """A frame's or ground-truth record's boundaries by kind, those present."""
    out = {}
    for kind in BoundaryKind:
        key = f"boundary_{kind.value}"
        if record.get(key) is not None:
            lat = _array(record[key], ctx, key)
            if pixel_rows:
                with np.errstate(over="ignore"):   # a huge row becomes inf, rejected
                    lat = _construct(ctx, row_to_latitude, lat, H)
            out[kind] = _construct(ctx, SphericalBoundary, lat, kind)
    return out


def _entries(doc: dict, key: str):
    """(id, ctx, record) for each record of doc[key], each id once."""
    seen = set()
    for record in _records(doc[key], key):
        vid = record.get("id")
        ctx = f"{key} {vid!r}"
        _require(isinstance(vid, str), f"{ctx}: id must be a string")
        _require(vid not in seen, f"{ctx}: id repeated")
        seen.add(vid)
        yield vid, ctx, record


def _parse_rotation(values, ctx: str) -> np.ndarray:
    R = _array(values, ctx, "rotation")
    _require(R.shape == (9,), f"{ctx}: rotation must be 9 row-major floats")
    R = R.reshape(3, 3)
    defect = rotation_defect(R)
    _require(defect <= _LOAD_ROTATION_TOL and np.linalg.det(R) > 0,
             f"{ctx}: rotation not orthonormal within {_LOAD_ROTATION_TOL}")
    if not is_rotation(R):
        # Repair exactly the rotations CameraPose rejects; others keep their
        # bits. det(R) > 0 makes det(u) * det(vt) = +1, so u @ vt is a rotation.
        u, _, vt = np.linalg.svd(R)
        R = u @ vt
        logger.warning("%s: rotation re-orthonormalized (defect %.2e)", ctx, defect)
    return R


def document_to_scene(doc: dict, pixel_rows: bool = False) -> Scene:
    """The Scene a parsed scene document describes; SceneFormatError if it
    breaks a rule of the document or of Scene and CameraPose."""
    _require(isinstance(doc, dict), "scene document must be a JSON object")
    _require(doc.get("version") == SCENE_VERSION,
             f"unrecognized scene version {doc.get('version')!r}")
    W, H = doc.get("image_width"), doc.get("image_height")
    check_image_size(W, H)   # before any pixel row is divided by H

    frames = []
    for rf in _records(doc.get("frames"), "frames"):
        ctx = f"frame {rf.get('id')!r}"
        pose_doc = rf.get("pose") or {}
        _require(isinstance(pose_doc, dict), f"{ctx}: pose must be a JSON object")
        R = _parse_rotation(pose_doc.get("rotation"), ctx)
        t = _array(pose_doc.get("translation"), ctx, "translation")
        h = rf.get("floor_height")
        if h is None:
            h = DEFAULT_CAMERA_HEIGHT
            logger.warning("%s: floor_height missing, defaulting to %.1f m",
                           ctx, DEFAULT_CAMERA_HEIGHT)
        _require(isinstance(h, (int, float)) and not isinstance(h, bool),
                 f"{ctx}: floor_height must be a number")
        b = _boundaries(rf, ctx, pixel_rows, H)
        frames.append(ViewFrame(rf.get("id"), _construct(ctx, CameraPose, R, t, h),
                                b.get(BoundaryKind.FLOOR), b.get(BoundaryKind.CEILING)))

    ground_truth = None
    if doc.get("ground_truth") is not None:
        ground_truth = {vid: _boundaries(rg, ctx, pixel_rows, H)
                        for vid, ctx, rg in _entries(doc, "ground_truth")}

    pseudo_labels = None
    if doc.get("pseudo_labels") is not None:
        pseudo_labels = {}
        for vid, ctx, rp in _entries(doc, "pseudo_labels"):
            lat_bar, sigma, support = (_array(rp.get(k), ctx, k)
                                       for k in ("lat_bar", "sigma", "support"))
            _require(np.all(np.isfinite(lat_bar)) and np.all(np.isfinite(sigma)),
                     f"{ctx}: lat_bar and sigma must be finite")
            _require(np.all((support >= 0) & (support <= len(frames))
                            & (support == np.floor(support))),
                     f"{ctx}: support must be whole view counts")
            pseudo_labels[vid] = PseudoLabel(lat_bar, sigma,
                                             support.astype(np.int64))

    return Scene(frames, W, H, ground_truth, pseudo_labels, doc.get("meta") or {})


def load_scene(path, pixel_rows: bool = False) -> Scene:
    with open(path, "r", encoding="utf-8") as f:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and integers
        # beyond Python's digit limit; RecursionError, nesting too deep.
        try:
            doc = json.load(f)
        except (ValueError, RecursionError) as e:
            raise SceneFormatError(f"{path}: invalid JSON: {e}") from e
    return document_to_scene(doc, pixel_rows=pixel_rows)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _optional_float(x) -> str:
    return "" if x is None else format_float(x)


def write_stack_csv(stack: BoundaryStack, path) -> None:
    """Stack dump: one row per (column, view) with lat and validity."""
    _write_csv(path, ["column", "view", "lat", "valid"], (
        [theta, vid, format_float(float(lat)) if ok else "", int(ok)]
        for theta, oks in enumerate(stack.valid)   # evaluated once, up front
        for vid, lat, ok in zip(stack.view_ids, stack.lat[theta], oks)))


def write_pseudolabel_csv(pl: PseudoLabel, path) -> None:
    _write_csv(path, ["column", "lat_bar", "sigma", "support"], (
        [i, format_float(float(pl.lat_bar[i])), format_float(float(pl.sigma[i])),
         int(pl.support[i])] for i in range(pl.width)))


def write_trajectory_csv(records, path) -> None:
    _write_csv(path, ["iter", "h_mlc", "wbc", "l1", "iou2d", "iou3d"], (
        [r.iteration, _optional_float(r.h_mlc), format_float(r.wbc),
         format_float(r.l1), _optional_float(r.iou2d), _optional_float(r.iou3d)]
        for r in records))


def write_density_csv(u: np.ndarray, v: np.ndarray, phi: np.ndarray, path) -> None:
    """Occupied density cells (consistency.density_cells) as (u, v, phi) rows."""
    _write_csv(path, ["u", "v", "phi"], (
        [int(i), int(j), format_float(float(m))] for i, j, m in zip(u, v, phi)))


def write_report_csv(report, path) -> None:
    """One metric row per evaluated view."""
    keys = ("iou2d", "iou3d", "rmse", "delta1")
    _write_csv(path, ["view_id", *keys], (
        [r["view_id"], *(format_float(float(r[k])) for k in keys)]
        for r in report.per_view))


def write_report_json(report, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(dumps_document(dataclasses.asdict(report)))
