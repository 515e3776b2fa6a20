"""Standard layout metrics: 2D/3D IoU, depth RMSE and delta-1.

IoU counts the cells of an even-odd fill of both footprints on a shared
raster^2 grid, which stays well-defined for the self-touching polygons noisy
boundaries can produce. No mask is built: every (edge, row) crossing becomes
a sorted cell key, and footprint_ious sums the lengths of the runs between
consecutive keys where each fill, and both, are odd. Its work grows with the
crossing count, not with raster^2.
Depth metrics follow the fixed-camera-height protocol: both prediction and
ground truth are scaled to a 1.6 m camera before comparison. A depth map is
ceiling, wall and floor down each column between two row limits; ceiling
and floor depths depend on the row only, a wall depth on the column only.
evaluate_view builds no map: it sums RMSE and delta-1 from the row limits,
with one term per row where both maps are ceiling or both floor, one per
column for wall/wall rows, and one per pixel only in the bands where one map
is wall and the other is not. layout_depth and depth_metrics build and
compare whole maps; they are the map-level API and the oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import GeometryError, MetricError
from .geometry import BoundaryKind, CameraPose, DEFAULT_CAMERA_HEIGHT, \
    SphericalBoundary, boundary_to_world, ceiling_height, row_to_latitude
from .scene import Scene

RASTER_DEFAULT = 1024
DELTA_THRESHOLD = 1.25
_BAD_DEPTH = "depths must be finite and positive"


@dataclass
class LayoutEvalReport:
    """Scene-level metric means plus one entry per view."""

    iou2d: float
    iou3d: float
    rmse: float
    delta1: float
    per_view: list[dict] = field(default_factory=list)


def floor_polygon(b: SphericalBoundary, pose: CameraPose) -> np.ndarray:
    """Footprint polygon (x, z) of a floor boundary, implicitly closed."""
    if b.kind != BoundaryKind.FLOOR:
        raise ValueError("floor_polygon expects a floor boundary")
    pts = boundary_to_world(b, pose).points
    return pts[:, [0, 2]]


def _crossing_cells(poly: np.ndarray, bounds, raster: int):
    """(row, cmin) of every even-odd crossing sampled at cell centers.

    A crossing flips the fill of cells cmin..raster-1 in its row.
    """
    xmin, xmax, ymin, ymax = bounds
    cw = (xmax - xmin) / raster
    ch = (ymax - ymin) / raster
    ys = ymin + (np.arange(raster) + 0.5) * ch
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    # Half-open row span per edge (none if horizontal) avoids double counting
    # at shared vertices; an edge's k-th crossing lies on row start + k.
    start = np.searchsorted(ys, np.minimum(y1, y2), side="left")
    count = np.searchsorted(ys, np.maximum(y1, y2), side="left") - start
    edge = np.repeat(np.arange(poly.shape[0]), count)
    rows = np.arange(edge.size) + np.repeat(start - np.cumsum(count) + count, count)
    xc = x1[edge] + (ys[rows] - y1[edge]) * (x2 - x1)[edge] / (y2 - y1)[edge]
    # Crossing contributes to all cells whose center lies right of it.
    cmin = np.floor((xc - xmin) / cw - 0.5).astype(np.int64) + 1
    ok = cmin < raster
    return rows[ok], np.clip(cmin[ok], 0, raster - 1)


def _footprint_counts(pred: np.ndarray, gt: np.ndarray, bounds,
                      raster: int) -> tuple[int, int, int]:
    """(n_pred, n_gt, n_both): cells inside each even-odd fill and both."""
    keys = []
    for tag, poly in enumerate((pred, gt)):
        rows, cmin = _crossing_cells(poly, bounds, raster)
        # One more key at the right edge of each odd row closes every row even.
        odd = np.flatnonzero(np.bincount(rows, minlength=raster) & 1)
        keys += [(rows * raster + cmin) << 1 | tag,
                 (odd * raster + raster) << 1 | tag]
    # The low bit tags the polygon, so one sort merges both key lists.
    tagged = np.sort(np.concatenate(keys))
    is_gt = tagged & 1
    in_gt = np.cumsum(is_gt)[:-1] & 1
    in_pred = np.cumsum(is_gt ^ 1)[:-1] & 1
    # Fill parity holds from one key to the next; rows close even, so the
    # run from a row's last key to the next row's first is outside both.
    run = np.diff(tagged >> 1)
    return int(run @ in_pred), int(run @ in_gt), int(run @ (in_pred & in_gt))


def _union_bounds(a: np.ndarray, b: np.ndarray):
    xmin = min(a[:, 0].min(), b[:, 0].min())
    xmax = max(a[:, 0].max(), b[:, 0].max())
    ymin = min(a[:, 1].min(), b[:, 1].min())
    ymax = max(a[:, 1].max(), b[:, 1].max())
    if not (xmax > xmin and ymax > ymin):
        raise MetricError("degenerate polygon extent; IoU undefined")
    return xmin, xmax, ymin, ymax


def footprint_ious(pred: np.ndarray, pred_heights, gt: np.ndarray, gt_heights,
                   raster: int = RASTER_DEFAULT) -> tuple[float, float | None]:
    """(iou2d, iou3d) from one crossing pass; iou3d is None without both heights."""
    if raster < 64:
        raise ValueError("raster must be >= 64")
    with_3d = pred_heights is not None and gt_heights is not None
    if with_3d:
        (hf_a, hc_a), (hf_b, hc_b) = pred_heights, gt_heights
        if not all(0 < h < math.inf for h in (hf_a, hc_a, hf_b, hc_b)):
            raise ValueError("prism heights must be positive and finite")
    pred, gt = np.asarray(pred, dtype=float), np.asarray(gt, dtype=float)
    bounds = _union_bounds(pred, gt)
    n_pred, n_gt, n_both = _footprint_counts(pred, gt, bounds, raster)
    union = n_pred + n_gt - n_both
    if union == 0:
        raise MetricError("empty polygon union; IoU undefined")
    if not with_3d:
        return n_both / union, None
    inter = n_both * (min(hf_a, hf_b) + min(hc_a, hc_b))
    vol_union = n_pred * (hf_a + hc_a) + n_gt * (hf_b + hc_b) - inter
    if vol_union <= 0:
        raise MetricError("empty prism union; 3D IoU undefined")
    return n_both / union, float(inter / vol_union)


def iou2d(pred: np.ndarray, gt: np.ndarray, raster: int = RASTER_DEFAULT) -> float:
    """Intersection over union of two footprint polygons.

    Both polygons are rasterized on their union bounding box at raster^2
    cells with even-odd fill. Raises MetricError when the union is empty.
    """
    return footprint_ious(pred, None, gt, None, raster)[0]


def iou3d(pred: np.ndarray, pred_heights, gt: np.ndarray, gt_heights,
          raster: int = RASTER_DEFAULT) -> float:
    """Volume IoU of two room prisms given (h_floor, h_ceil) height pairs.

    Each prism spans [-h_ceil, +h_floor] vertically (Y-down camera frame)
    over its footprint; the union follows from inclusion-exclusion.
    """
    return footprint_ious(pred, pred_heights, gt, gt_heights, raster)[1]


class _DepthRows(NamedTuple):
    """One layout depth map by rows and columns, without the (H, W) map.

    Column j is ceiling on rows [0, kc[j]), wall on [kc[j], kf[j]) and floor
    on [kf[j], H). ceil holds the depths of rows [0, kc.max()), floor those
    of rows [kf.min(), H), and wall one depth per column.
    """

    kc: np.ndarray
    kf: np.ndarray
    wall: np.ndarray
    ceil: np.ndarray
    floor: np.ndarray


def _depth_rows(b_floor: SphericalBoundary, b_ceil: SphericalBoundary, H: int,
                camera_height: float) -> _DepthRows:
    if b_floor.kind != BoundaryKind.FLOOR or b_ceil.kind != BoundaryKind.CEILING:
        raise ValueError("expected a (floor, ceiling) boundary pair")
    if b_floor.width != b_ceil.width:
        raise ValueError("floor and ceiling boundaries must share W")
    h_c = ceiling_height(b_floor, b_ceil, camera_height)
    lat_rows = row_to_latitude(np.arange(H), H)
    # Row latitudes fall with the row index, so a column's ceiling rows
    # (lat_row >= lat_c) are [0, kc) and its floor rows (lat_row <= lat_f)
    # are [kf, H); the rows between are wall. Ceiling latitudes are positive
    # and floor ones negative, so max(kc) <= min(kf) across any two maps.
    kc = np.searchsorted(-lat_rows, -b_ceil.lat, side="right")
    kf = np.searchsorted(-lat_rows, -b_floor.lat, side="left")
    return _DepthRows(kc, kf, camera_height / np.tan(-b_floor.lat),
                      h_c / np.tan(lat_rows[:kc.max()]),
                      camera_height / np.tan(-lat_rows[kf.min():]))


def layout_depth(b_floor: SphericalBoundary, b_ceil: SphericalBoundary,
                 H: int | None = None,
                 camera_height: float = DEFAULT_CAMERA_HEIGHT) -> np.ndarray:
    """Per-pixel horizontal depth map implied by a boundary pair.

    The camera height is fixed to the evaluation convention (1.6 m); the
    ceiling height follows from the boundary pair at that scale. Wall pixels
    (rows between the ceiling and floor boundary) take the wall distance of
    their column; floor and ceiling pixels take the plane-intersection
    distance of their own latitude. Returns an (H, W) array in meters.
    """
    if H is None:
        H = b_floor.width // 2
    kc, kf, d_wall, ceil_rows, floor_rows = _depth_rows(b_floor, b_ceil, H,
                                                        camera_height)
    top, bottom = ceil_rows.size, H - floor_rows.size
    depth = np.broadcast_to(d_wall, (H, d_wall.size)).copy()
    row = np.arange(H)[:, None]
    np.copyto(depth[:top], ceil_rows[:, None], where=row[:top] < kc)
    np.copyto(depth[bottom:], floor_rows[:, None], where=row[bottom:] >= kf)
    if not all(np.isfinite(v).all() for v in (d_wall, ceil_rows, floor_rows)):
        # A column without wall rows does not use its d_wall.
        n_bad = np.count_nonzero(~np.isfinite(depth))
        if n_bad:
            raise GeometryError(f"{n_bad} nonfinite depth pixels")
    return depth


def _band(lo, hi, rows, row0, wall):
    """(row depth, wall depth) of each element in rows [lo[j], hi[j]) of column j.

    rows[i - row0] is the depth of row i in the map that holds it.
    """
    n = np.maximum(hi - lo, 0)
    col = np.repeat(np.arange(n.size), n)
    row = np.arange(col.size) + np.repeat(lo - np.cumsum(n) + n, n)
    return rows[row - row0], wall[col]


def _view_depth_metrics(pred_floor, pred_ceil, gt_floor, gt_ceil, H: int):
    """depth_metrics of the two layout_depth maps, from row limits alone.

    Where both maps are ceiling, or both floor, a row has one depth pair and
    counts once per column that has it; wall/wall rows have one pair per
    column. Only the thin bands where one map is wall and the other is not
    are listed element by element, so no (H, W) array is built.
    """
    p = _depth_rows(pred_floor, pred_ceil, H, DEFAULT_CAMERA_HEIGHT)
    g = _depth_rows(gt_floor, gt_ceil, H, DEFAULT_CAMERA_HEIGHT)
    if H < 1 or not all(np.all((v > 0) & (v < math.inf))
                        for r in (p, g) for v in r[2:]):
        # Rare: the map path rejects empty maps, raises for a bad depth some
        # pixel uses and ignores one that no pixel uses.
        return depth_metrics(layout_depth(pred_floor, pred_ceil, H),
                             layout_depth(gt_floor, gt_ceil, H))
    W = p.kc.size
    n_c = min(p.ceil.size, g.ceil.size)
    n_f = min(p.floor.size, g.floor.size)
    # Both ceiling on rows [0, min kc), both floor on rows [max kf, H).
    cover_c = W - np.cumsum(np.bincount(np.minimum(p.kc, g.kc),
                                        minlength=n_c + 1))[:n_c]
    cover_f = np.cumsum(np.bincount(np.maximum(p.kf, g.kf) - (H - n_f),
                                    minlength=n_f + 1))[:n_f]
    n_wall = np.minimum(p.kf, g.kf) - np.maximum(p.kc, g.kc)
    # (a - b)^2 and the delta test are symmetric in a and b, so a band pair
    # need not say which map is the prediction.
    bands = [_band(g.kc, p.kc, p.ceil, 0, g.wall),
             _band(p.kc, g.kc, g.ceil, 0, p.wall),
             _band(p.kf, g.kf, p.floor, H - p.floor.size, g.wall),
             _band(g.kf, p.kf, g.floor, H - g.floor.size, p.wall)]
    a = np.concatenate([p.ceil[:n_c], p.floor[p.floor.size - n_f:], p.wall]
                       + [x for x, _ in bands])
    b = np.concatenate([g.ceil[:n_c], g.floor[g.floor.size - n_f:], g.wall]
                       + [y for _, y in bands])
    weight = np.concatenate([cover_c, cover_f, n_wall,
                             np.ones(a.size - n_c - n_f - W, dtype=np.int64)])
    diff = a - b
    close = (a / b < DELTA_THRESHOLD) & (b / a < DELTA_THRESHOLD)
    size = H * W
    return (float(np.sqrt((weight * (diff * diff)).sum() / size)),
            int(weight[close].sum()) / size)


def depth_metrics(pred: np.ndarray, gt: np.ndarray,
                  threshold: float = DELTA_THRESHOLD):
    """(rmse, delta1) between two depth maps on identical pixel grids.

    Raises ValueError on empty maps or on a depth that is not finite and
    positive.
    """
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if pred.shape != gt.shape:
        raise ValueError(f"depth shapes differ: {pred.shape} vs {gt.shape}")
    if pred.size == 0:
        raise ValueError("depth maps are empty")
    # min() is NaN when a depth is; an infinite depth makes the mean non-finite.
    if not (pred.min() > 0 and gt.min() > 0):
        raise ValueError(_BAD_DEPTH)
    with np.errstate(invalid="ignore"):  # inf - inf, rejected below
        buf = np.subtract(pred, gt, out=np.empty(pred.shape))
    np.square(buf, out=buf)
    mse = np.mean(buf)
    if not np.isfinite(mse) and (np.isinf(pred).any() or np.isinf(gt).any()):
        raise ValueError(_BAD_DEPTH)
    # max(p/g, g/p) < threshold holds where both ratios do.
    np.divide(pred, gt, out=buf)
    close = buf < threshold
    np.divide(gt, pred, out=buf)
    close &= buf < threshold
    return float(np.sqrt(mse)), float(np.count_nonzero(close) / close.size)


def evaluate_view(pred_floor, pred_ceil, gt_floor, gt_ceil, pose: CameraPose,
                  H: int, raster: int = RASTER_DEFAULT) -> dict:
    """All four metrics for one view's predicted vs ground-truth boundaries."""
    poly_p = floor_polygon(pred_floor, pose)
    poly_g = floor_polygon(gt_floor, pose)
    hf = pose.floor_height
    heights_p = (hf, ceiling_height(pred_floor, pred_ceil, hf))
    heights_g = (hf, ceiling_height(gt_floor, gt_ceil, hf))
    rmse, delta1 = _view_depth_metrics(pred_floor, pred_ceil, gt_floor, gt_ceil, H)
    iou_2d, iou_3d = footprint_ious(poly_p, heights_p, poly_g, heights_g, raster)
    return {"iou2d": iou_2d, "iou3d": iou_3d, "rmse": rmse, "delta1": delta1}


def evaluate_scene(scene: Scene, raster: int = RASTER_DEFAULT) -> LayoutEvalReport:
    """Evaluate every frame against the scene's ground-truth boundaries.

    Requires a ground_truth block and ceiling boundaries on both sides (3D
    IoU and depth need the full pair).
    """
    if scene.ground_truth is None:
        raise ValueError("scene has no ground_truth block")
    per_view = []
    for f in scene.frames:
        gt = scene.view_ground_truth(f.view_id)
        gt_ceil = gt.get(BoundaryKind.CEILING)
        if f.boundary_ceiling is None or gt_ceil is None:
            raise ValueError(
                f"view {f.view_id!r}: evaluation needs ceiling boundaries")
        row = evaluate_view(f.boundary_floor, f.boundary_ceiling,
                            gt[BoundaryKind.FLOOR], gt_ceil, f.pose,
                            scene.image_height, raster)
        row["view_id"] = f.view_id
        per_view.append(row)
    return LayoutEvalReport(
        iou2d=float(np.mean([r["iou2d"] for r in per_view])),
        iou3d=float(np.mean([r["iou3d"] for r in per_view])),
        rmse=float(np.mean([r["rmse"] for r in per_view])),
        delta1=float(np.mean([r["delta1"] for r in per_view])),
        per_view=per_view)
