"""Standard layout metrics: 2D/3D IoU, depth RMSE and delta-1.

IoU is computed by even-odd rasterization of both footprints on a shared
grid, which stays well-defined for the self-touching polygons noisy
boundaries can produce. The raster expands every (edge, row) crossing at
once, and footprint_ious feeds both IoUs from one pass per (pred, gt) pair.
Depth metrics follow the fixed-camera-height protocol: both prediction and
ground truth are scaled to a 1.6 m camera before comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, MetricError
from .geometry import BoundaryKind, CameraPose, DEFAULT_CAMERA_HEIGHT, \
    SphericalBoundary, boundary_to_world, ceiling_height, row_to_latitude
from .scene import Scene

RASTER_DEFAULT = 1024
DELTA_THRESHOLD = 1.25


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


def _even_odd_mask(poly: np.ndarray, bounds, raster: int) -> np.ndarray:
    """Even-odd fill of a polygon sampled at raster x raster cell centers."""
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
    rows, cmin = rows[ok], np.clip(cmin[ok], 0, raster - 1)
    # A cell is inside when an odd number of crossings lie at or left of it.
    parity = np.bincount(rows * raster + cmin, minlength=raster * raster) & 1
    inside = np.bitwise_xor.accumulate(
        parity.astype(np.uint8).reshape(raster, raster), axis=1)
    return inside.view(bool)


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
    """(iou2d, iou3d) from one raster pass; iou3d is None without both heights."""
    if raster < 64:
        raise ValueError("raster must be >= 64")
    with_3d = pred_heights is not None and gt_heights is not None
    if with_3d:
        (hf_a, hc_a), (hf_b, hc_b) = pred_heights, gt_heights
        if min(hf_a, hc_a, hf_b, hc_b) <= 0:
            raise ValueError("prism heights must be positive")
    pred, gt = np.asarray(pred, dtype=float), np.asarray(gt, dtype=float)
    bounds = _union_bounds(pred, gt)
    ma, mb = _even_odd_mask(pred, bounds, raster), _even_odd_mask(gt, bounds, raster)
    n_pred, n_gt, n_both = (np.count_nonzero(m) for m in (ma, mb, ma & mb))
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
    if b_floor.kind != BoundaryKind.FLOOR or b_ceil.kind != BoundaryKind.CEILING:
        raise ValueError("expected a (floor, ceiling) boundary pair")
    if b_floor.width != b_ceil.width:
        raise ValueError("floor and ceiling boundaries must share W")
    W = b_floor.width
    if H is None:
        H = W // 2
    h_c = ceiling_height(b_floor, b_ceil, camera_height)
    lat_rows = row_to_latitude(np.arange(H), H)[:, None]            # (H, 1)
    lat_f = b_floor.lat[None, :]                                    # (1, W)
    lat_c = b_ceil.lat[None, :]
    d_wall = camera_height / np.tan(-lat_f)                         # (1, W)
    with np.errstate(divide="ignore"):
        depth = np.where(
            lat_rows <= lat_f, camera_height / np.tan(-lat_rows),
            np.where(lat_rows >= lat_c, h_c / np.tan(lat_rows),
                     np.broadcast_to(d_wall, (H, W))))
    bad = ~np.isfinite(depth)
    if np.any(bad):
        raise GeometryError(f"{int(bad.sum())} nonfinite depth pixels")
    return depth


def depth_metrics(pred: np.ndarray, gt: np.ndarray,
                  threshold: float = DELTA_THRESHOLD):
    """(rmse, delta1) between two depth maps on identical pixel grids."""
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if pred.shape != gt.shape:
        raise ValueError(f"depth shapes differ: {pred.shape} vs {gt.shape}")
    rmse = float(np.sqrt(np.mean((pred - gt) ** 2)))
    ratio = np.maximum(pred / gt, gt / pred)
    delta1 = float(np.mean(ratio < threshold))
    return rmse, delta1


def evaluate_view(pred_floor, pred_ceil, gt_floor, gt_ceil, pose: CameraPose,
                  H: int, raster: int = RASTER_DEFAULT) -> dict:
    """All four metrics for one view's predicted vs ground-truth boundaries."""
    poly_p = floor_polygon(pred_floor, pose)
    poly_g = floor_polygon(gt_floor, pose)
    hf = pose.floor_height
    heights_p = (hf, ceiling_height(pred_floor, pred_ceil, hf))
    heights_g = (hf, ceiling_height(gt_floor, gt_ceil, hf))
    depth_p = layout_depth(pred_floor, pred_ceil, H)
    depth_g = layout_depth(gt_floor, gt_ceil, H)
    rmse, delta1 = depth_metrics(depth_p, depth_g)
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
        gt = scene.ground_truth.get(f.view_id)
        if gt is None:
            raise ValueError(f"no ground truth for view {f.view_id!r}")
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
