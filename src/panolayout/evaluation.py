"""Standard layout metrics: 2D/3D IoU, depth RMSE and delta-1.

IoU counts the cells of an even-odd fill of both footprints on a shared
raster^2 grid, which stays well-defined for the self-touching polygons noisy
boundaries can produce. No mask is built: one pass over both polygons'
edges, tagged by polygon, turns every (edge, row) crossing into a cell key,
and footprint_ious sums the lengths of the runs between consecutive sorted
keys where each fill, and both, are odd. Its work grows with the crossing
count, not with raster^2. Row indices, here and in the depth rows, come in
closed form from the evenly spaced rows and are checked against them
(_grid_count), not binary-searched. A crossing right of every cell center
keeps cmin = raster, so each polygon's rows close even with no key added. evaluate_scene and refine's IoU tracking score
each frame's floor lift with frame_ious against footprint_truth.
Depth metrics follow the fixed-camera-height protocol: both prediction and
ground truth are scaled to a 1.6 m camera before comparison. A depth map is
ceiling, wall and floor down each column between two row limits; ceiling
and floor depths depend on the row only, a wall depth on the column only.
_view_depth_metrics builds no map: it sums RMSE and delta-1 from the row
limits, with one term per row where both maps are ceiling or both floor, one
per column for wall/wall rows, and one per pixel only in the bands where one
map is wall and the other is not. layout_depth and depth_metrics build and
compare whole maps; they are the map-level API and the oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import GeometryError, MetricError
from .geometry import BoundaryKind, CameraPose, DEFAULT_CAMERA_HEIGHT, \
    SphericalBoundary, boundary_to_world, ceiling_height, latitude_to_row, \
    row_to_latitude
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


def _grid_count(grid, values, guess, side: str):
    """np.searchsorted(grid, values, side) on an ascending grid, where guess
    is each value's fractional position on it.

    The rounded guess is kept where the grid brackets its value;
    np.searchsorted places the rest (a guess off by rounding, a non-finite
    value).
    """
    k = np.ceil(guess) if side == "left" else np.floor(guess) + 1
    k = np.fmin(np.fmax(k, 0.0), grid.size).astype(np.intp)  # NaN to 0
    lo = np.concatenate(([-np.inf], grid))[k]                 # grid[k - 1]
    hi = np.concatenate((grid, [np.inf]))[k]                  # grid[k]
    ok = (lo < values) & (values <= hi) if side == "left" else \
        (lo <= values) & (values < hi)
    if not ok.all():
        off = ~ok
        k[off] = np.searchsorted(grid, values[off], side)
    return k


def _crossing_cells(polys, bounds, raster: int):
    """(row, cmin, tag) of every even-odd crossing of the polygons, sampled
    at cell centers, in one pass over all their edges.

    tag is the crossing polygon's index in polys, and each polygon closes
    on itself. A crossing flips that polygon's fill of cells cmin..raster-1
    in its row; one right of every cell center has cmin = raster and flips
    none. Row indices come in closed form from the evenly spaced rows.
    """
    xmin, xmax, ymin, ymax = bounds
    cw = (xmax - xmin) / raster
    ch = (ymax - ymin) / raster
    ys = ymin + (np.arange(raster) + 0.5) * ch
    sizes = [p.shape[0] for p in polys]
    pts = np.concatenate(polys)
    nxt = np.arange(1, pts.shape[0] + 1)
    ends = np.cumsum(sizes)
    nxt[ends - 1] = ends - sizes              # last vertex back to the first
    x1, y1 = pts[:, 0], pts[:, 1]
    # Half-open row span per edge (none if horizontal) avoids double counting
    # at shared vertices; an edge's k-th crossing lies on row start + k.
    # Each vertex's rows below it bound both its edges' spans.
    below = _grid_count(ys, y1, (y1 - ymin) / ch - 0.5, "left")
    start = np.minimum(below, below[nxt])
    count = np.abs(below - below[nxt])
    rows = np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)
    x, y, dx, dy = (np.repeat(v, count) for v in (x1, y1, x1[nxt] - x1, y1[nxt] - y1))
    # The crossing xc = x + (ys[rows] - y) * dx / dy contributes to all cells
    # whose center lies right of it, from floor((xc - xmin) / cw - 0.5) + 1;
    # both are worked in place, in that order of operations.
    c = ys[rows]
    for op, v in ((np.subtract, y), (np.multiply, dx), (np.divide, dy), (np.add, x),
                  (np.subtract, xmin), (np.divide, cw), (np.subtract, 0.5)):
        op(c, v, out=c)
    np.floor(c, out=c)
    c += 1
    tag = np.repeat(np.repeat(np.arange(len(polys)), sizes), count)
    return rows, np.clip(c, 0, raster, out=c).astype(np.int64), tag


def _footprint_counts(pred: np.ndarray, gt: np.ndarray, bounds,
                      raster: int) -> tuple[int, int, int]:
    """(n_pred, n_gt, n_both): cells inside each even-odd fill and both."""
    rows, cmin, tag = _crossing_cells((pred, gt), bounds, raster)
    # A closed polygon crosses each row an even number of times, so every
    # row closes even. The low bit tags the polygon, so one sort merges both
    # key lists; keys reach 2 raster^2 + 1.
    key_t = np.int32 if raster < 2 ** 15 else np.int64
    tagged = np.sort(((rows * raster + cmin) << 1 | tag).astype(key_t))
    in_gt = np.cumsum(tagged & 1, dtype=key_t)[:-1] & 1
    # Fill parity holds from one key to the next; rows close even, so the
    # run from a row's last key to the next row's first is outside both.
    # After an even-indexed key one fill is odd, after an odd one both or
    # neither.
    run = np.diff(tagged >> 1)
    n_gt, n_both = int(run @ in_gt), int(run[1::2] @ in_gt[1::2])
    return int(run[::2].sum()) - n_gt + 2 * n_both, n_gt, n_both


def _union_bounds(a: np.ndarray, b: np.ndarray, raster: int):
    xmin = min(a[:, 0].min(), b[:, 0].min())
    xmax = max(a[:, 0].max(), b[:, 0].max())
    ymin = min(a[:, 1].min(), b[:, 1].min())
    ymax = max(a[:, 1].max(), b[:, 1].max())
    # A cell must have a width and a height: one can underflow to 0 m.
    if not (xmax > xmin and ymax > ymin and (xmax - xmin) / raster > 0
            and (ymax - ymin) / raster > 0):
        raise MetricError("degenerate polygon extent; IoU undefined")
    return xmin, xmax, ymin, ymax


def footprint_ious(pred: np.ndarray, pred_heights, gt: np.ndarray, gt_heights,
                   raster: int = RASTER_DEFAULT) -> tuple[float, float | None]:
    """(iou2d, iou3d) from one crossing pass; iou3d is None without both heights."""
    if not (64 <= raster <= 65536):  # work and memory grow with raster, not raster^2
        raise ValueError(f"raster must lie in [64, 65536], got {raster}")
    with_3d = pred_heights is not None and gt_heights is not None
    if with_3d:
        (hf_a, hc_a), (hf_b, hc_b) = pred_heights, gt_heights
        if not all(0 < h < math.inf for h in (hf_a, hc_a, hf_b, hc_b)):
            raise ValueError("prism heights must be positive and finite")
    pred, gt = np.asarray(pred, dtype=float), np.asarray(gt, dtype=float)
    bounds = _union_bounds(pred, gt, raster)
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
    h_c = ceiling_height(b_floor, b_ceil, camera_height)
    lat_rows = row_to_latitude(np.arange(H), H)
    # Row latitudes fall with the row index, so a column's ceiling rows
    # (lat_row >= lat_c) are [0, kc) and its floor rows (lat_row <= lat_f)
    # are [kf, H); the rows between are wall. Ceiling latitudes are positive
    # and floor ones negative, so max(kc) <= min(kf) across any two maps.
    # latitude_to_row places each latitude on the evenly spaced rows.
    kc = _grid_count(-lat_rows, -b_ceil.lat, latitude_to_row(b_ceil.lat, H), "right")
    kf = _grid_count(-lat_rows, -b_floor.lat, latitude_to_row(b_floor.lat, H), "left")
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


def _view_depth_metrics(pred_floor, pred_ceil, gt_floor, gt_ceil, H: int):
    """depth_metrics of the two layout_depth maps, from row limits alone.

    Where both maps are ceiling, or both floor, a row has one depth pair and
    counts once per column that has it; wall/wall rows have one pair per
    column. Only the thin bands where one map is wall and the other is not
    are listed element by element, so no (H, W) array is built.
    """
    p = _depth_rows(pred_floor, pred_ceil, H, DEFAULT_CAMERA_HEIGHT)
    g = _depth_rows(gt_floor, gt_ceil, H, DEFAULT_CAMERA_HEIGHT)
    # Every depth either map can use, the bands' lookup table below.
    depths = np.concatenate([p.ceil, g.ceil, p.floor, g.floor, g.wall, p.wall])
    if H < 1 or not (depths.min() > 0 and depths.max() < math.inf):
        # Rare: the map path rejects empty maps, raises for a bad depth some
        # pixel uses and ignores one that no pixel uses. Loaded scenes get here
        # when depths underflow to 0, e.g. from ceiling latitudes of 1e-322.
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
    # The four bands, one expansion: rows [lo[j], hi[j]) of one map's
    # ceiling or floor over column j % W of the other's wall. Band b's row i
    # is depths[i + shift[b]]. (a - b)^2 and the delta test are symmetric in
    # a and b, so a band pair need not say which map is the prediction.
    shift = np.repeat(np.cumsum([0, p.ceil.size, g.ceil.size, p.floor.size])
                      - [0, 0, H - p.floor.size, H - g.floor.size], W)
    lo = np.concatenate([g.kc, p.kc, p.kf, g.kf]) + shift
    n = np.maximum(np.concatenate([p.kc, g.kc, g.kf, p.kf]) + shift - lo, 0)
    row = np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)
    a = np.concatenate([p.ceil[:n_c], p.floor[p.floor.size - n_f:], p.wall,
                        depths[row]])
    b = np.concatenate([g.ceil[:n_c], g.floor[g.floor.size - n_f:], g.wall,
                        np.repeat(np.tile(depths[-2 * W:], 2), n)])
    weight = np.concatenate([cover_c, cover_f, n_wall,
                             np.ones(row.size, dtype=np.int64)])
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


def footprint_truth(scene: Scene) -> list:
    """Per frame, the ground truth's floor polygon and, where the frame and
    its ground truth both have a ceiling, their (floor, ceiling) heights."""
    truth = []
    for f in scene.frames:
        gt = scene.view_ground_truth(f.view_id)
        gt_f, gt_c = gt[BoundaryKind.FLOOR], gt.get(BoundaryKind.CEILING)
        hf = f.pose.floor_height
        heights = None if f.boundary_ceiling is None or gt_c is None \
            else (hf, ceiling_height(gt_f, gt_c, hf))
        truth.append((floor_polygon(gt_f, f.pose), heights))
    return truth


def frame_ious(scene: Scene, polys, truth, raster: int = RASTER_DEFAULT):
    """(iou2d, iou3d) of each frame's floor lift among polys
    (scene.world_polylines()) against truth (footprint_truth), in frame
    order; iou3d is None where truth has no heights."""
    floors = (p.points[:, [0, 2]] for p in polys if p.kind == BoundaryKind.FLOOR)
    for f, poly, (poly_g, heights_g) in zip(scene.frames, floors, truth):
        hf = f.pose.floor_height
        heights_p = None if heights_g is None \
            else (hf, ceiling_height(f.boundary_floor, f.boundary_ceiling, hf))
        yield footprint_ious(poly, heights_p, poly_g, heights_g, raster)


def evaluate_scene(scene: Scene, raster: int = RASTER_DEFAULT) -> LayoutEvalReport:
    """Evaluate every frame against the scene's ground-truth boundaries.

    Requires a ground_truth block and ceiling boundaries on both sides (3D
    IoU and depth need the full pair). Floors are lifted by world_polylines.
    """
    if scene.ground_truth is None:
        raise ValueError("scene has no ground_truth block")
    ious = frame_ious(scene, scene.world_polylines((BoundaryKind.FLOOR,)),
                      footprint_truth(scene), raster)
    per_view = []
    for f, (iou_2d, iou_3d) in zip(scene.frames, ious):
        if iou_3d is None:  # the frame or its ground truth has no ceiling
            raise ValueError(
                f"view {f.view_id!r}: evaluation needs ceiling boundaries")
        gt = scene.ground_truth[f.view_id]
        rmse, delta1 = _view_depth_metrics(
            f.boundary_floor, f.boundary_ceiling, gt[BoundaryKind.FLOOR],
            gt[BoundaryKind.CEILING], scene.image_height)
        per_view.append({"view_id": f.view_id, "iou2d": iou_2d, "iou3d": iou_3d,
                         "rmse": rmse, "delta1": delta1})
    return LayoutEvalReport(**{k: float(np.mean([r[k] for r in per_view]))
                               for k in ("iou2d", "iou3d", "rmse", "delta1")},
                            per_view=per_view)
