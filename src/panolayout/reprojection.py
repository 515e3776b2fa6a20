"""Re-projection of boundaries between views and per-column stack assembly.

A source boundary is lifted to world coordinates, mapped into the target
camera, and the resulting (lon, lat) curve is resampled at the target's
column centers. Stacks collect one resampled row per source view, target
included.

A stack sends all its sources through one world-to-sphere transform and one
call of the resampling kernel, and resample_to_columns is the kernel's
one-curve case. The kernel expands only the segments within the gap limit
and picks one crossing per column with a scatter-min, not a sort. A stack
entry's lat is NaN exactly where its valid flag is False.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError
from .geometry import BoundaryKind, CameraPose, SphericalBoundary, WorldPolyline, \
    boundary_to_world, column_longitudes, world_to_boundary_samples
from .scene import Scene

logger = logging.getLogger(__name__)

# Columns whose bracketing samples are further apart than this many column
# widths are not interpolated; the source view contributes nothing there.
DEFAULT_GAP_FACTOR = 4.0

_TWO_PI = 2.0 * math.pi
# Slack for offsets that land a hair outside [0, |delta|] through rounding.
_EPS = 1e-9


@dataclass
class BoundaryStack:
    """Per-column re-projected latitudes for one target view.

    lat has shape (W, N): entry (theta, i) is view i's boundary re-projected
    to the target at column theta. lat is NaN exactly where valid is False:
    no gap-valid crossing, or a latitude on the wrong side of the horizon.
    """

    target_view: str
    lat: np.ndarray
    valid: np.ndarray
    kind: BoundaryKind
    view_ids: list[str]

    @property
    def width(self) -> int:
        return self.lat.shape[0]

    @property
    def n_views(self) -> int:
        return self.lat.shape[1]


def reproject_boundary(src: SphericalBoundary, src_pose: CameraPose,
                       dst_pose: CameraPose) -> np.ndarray:
    """Source-view boundary as (lon, lat) samples in the target camera.

    Equivalent to world_to_boundary_samples(boundary_to_world(src, src_pose),
    dst_pose); W unresampled samples in source column order.
    """
    return world_to_boundary_samples(boundary_to_world(src, src_pose), dst_pose)


def resample_to_columns(samples: np.ndarray, W: int, kind: BoundaryKind,
                        gap_max: float | None = None):
    """Interpolate a re-projected boundary curve at the W column centers.

    The samples are treated as a closed curve (consecutive samples joined,
    last wrapping to first) and each directed segment covers the shorter
    longitude arc between its endpoints; latitudes are interpolated linearly
    along that arc. For a curve single-valued in longitude this coincides
    with sorting the samples by longitude and interpolating between the two
    bracketing ones.

    Segments whose endpoints are more than gap_max apart in longitude
    (default DEFAULT_GAP_FACTOR * 2*pi/W) bridge a gap and contribute
    nothing. A column is valid exactly where a remaining segment crosses it.
    Where the curve overlaps itself, one crossing per column wins: the one
    whose source longitude is angularly nearest the target column, then the
    lowest segment index. The number of crossings that lose a column is
    logged as contested.

    Returns (lat, valid): (W,) float array (NaN where invalid) and (W,) bool.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise ValueError(f"samples must be (n, 2), got {samples.shape}")
    if samples.shape[0] < 2:
        raise ValueError("resampling needs at least 2 samples")
    if gap_max is None:
        gap_max = DEFAULT_GAP_FACTOR * _TWO_PI / W
    lat, valid, n_contested = _resample_batch(samples[None], W, gap_max)
    if n_contested:
        logger.debug("resample: %d contested column crossings", n_contested)
    return lat[0], valid[0]


def _resample_batch(samples: np.ndarray, W: int, gap_max: float):
    """resample_to_columns for m curves of n samples each in one call.

    samples is (m, n, 2). Only segments within gap_max are expanded into
    candidate crossings, keyed by curve * W + column. Two scatter-mins pick
    one per key: the least source distance, then among equals the lowest
    candidate index, which follows segment order. Only the winners are
    interpolated, and a column is valid exactly where it has one.

    Returns (lat, valid, n_contested): lat (m, W) is NaN where valid (m, W)
    is False, and n_contested counts the gap-valid crossings that lose a
    column, summed over the curves.
    """
    m, n = samples.shape[:2]
    source_lon = np.tile(column_longitudes(n), m)       # per segment
    row = np.repeat(np.arange(m) * W, n)                # key of column 0
    lon = samples[..., 0].ravel()
    lat = samples[..., 1].ravel()
    lon_b = np.roll(samples[..., 0], -1, axis=1).ravel()
    lat_b = np.roll(samples[..., 1], -1, axis=1).ravel()
    delta = (lon_b - lon + math.pi) % _TWO_PI - math.pi   # (-pi, pi)
    sgn = np.sign(delta)
    adel = np.abs(delta)
    segs = np.flatnonzero((adel > 0.0) & (adel <= gap_max))

    step = _TWO_PI / W
    # Enumerate covered columns per segment on a direction-normalized grid:
    # for sgn=-1 longitudes are mirrored, which maps the column grid onto
    # itself with index c -> W-1-c. Both segment endpoints use the same
    # grid-position expression, so consecutive same-direction segments tile
    # the columns without rounding gaps.
    g_a = (sgn[segs] * lon[segs] + math.pi) / step - 0.5
    g_b = (sgn[segs] * lon_b[segs] + math.pi) / step - 0.5
    g_b = np.where(g_b < g_a, g_b + W, g_b)           # arc crosses the seam
    c_start = np.ceil(g_a)
    cnt = np.maximum(np.floor(g_b) - c_start + 1, 0).astype(np.int64)
    i = np.repeat(np.arange(segs.size), cnt)
    offset = np.arange(i.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    c_mirror = (c_start[i].astype(np.int64) + offset) % W
    seg = segs[i]
    col = np.where(sgn[seg] < 0, W - 1 - c_mirror, c_mirror)
    key = row[seg] + col

    centers = 2.0 * math.pi * (col + 0.5) / W - math.pi
    p = (sgn[seg] * (centers - lon[seg])) % _TWO_PI
    p = np.where(p > _TWO_PI - _EPS, 0.0, p)              # rounding wrap at 0
    ok = p <= adel[seg] + _EPS
    seg, key, p, centers = seg[ok], key[ok], p[ok], centers[ok]
    src_dist = np.abs((source_lon[seg] - centers + math.pi) % _TWO_PI - math.pi)

    best = np.full(m * W, np.inf)
    np.minimum.at(best, key, src_dist)
    tie = np.flatnonzero(src_dist == best[key])
    pick = np.full(m * W, seg.size)
    np.minimum.at(pick, key[tie], tie)
    valid = pick < seg.size
    won = np.flatnonzero(valid)
    pick = pick[won]
    seg, p, centers = seg[pick], p[pick], centers[pick]

    t = np.minimum(p, adel[seg]) / adel[seg]
    # Columns exactly at a sample's longitude take that sample's latitude
    # verbatim; interpolation arithmetic would be a ulp off at the far end.
    at_start = centers == lon[seg]
    at_end = (centers == lon_b[seg]) | (t >= 1.0)
    interp = lat[seg] + t * (lat_b[seg] - lat[seg])
    out_lat = np.full(m * W, np.nan)
    out_lat[won] = np.where(at_start, lat[seg], np.where(at_end, lat_b[seg], interp))
    return out_lat.reshape(m, W), valid.reshape(m, W), key.size - won.size


def _lat_in_range(lat: np.ndarray, kind: BoundaryKind) -> np.ndarray:
    if kind == BoundaryKind.FLOOR:
        return (lat > -math.pi / 2) & (lat < 0.0)
    return (lat > 0.0) & (lat < math.pi / 2)


def build_stacks(scene: Scene, kind: BoundaryKind,
                 view_ids: list[str] | None = None,
                 targets: list[str] | None = None) -> list[BoundaryStack]:
    """Stacks for every target (default: all views, in frame order).

    Each selected source view is lifted to world coordinates once and then
    re-projected into every target, which is the N x N step of 360-MLC.
    """
    W = scene.image_width
    dst = scene.frames if targets is None else [scene.frame(t) for t in targets]
    polys = scene.world_polylines((kind,), view_ids)
    if not polys:
        raise ValueError(f"no view carries a {kind.value} boundary")
    return [_stack_from_polylines(polys, f.pose, f.view_id, kind, W) for f in dst]


def build_stack(scene: Scene, target: str, kind: BoundaryKind,
                view_ids: list[str] | None = None) -> BoundaryStack:
    """Assemble the W x N matrix of re-projected boundaries for one target.

    Every selected view (the target included when selected) is re-projected
    into the target camera and resampled at its column centers. Entries
    falling on the wrong side of the horizon are masked invalid. Raises
    CoverageError if any column ends up with no valid entry.
    """
    return build_stacks(scene, kind, view_ids, [target])[0]


def _stack_from_polylines(polys: list[WorldPolyline], dst_pose: CameraPose,
                          target: str, kind: BoundaryKind,
                          W: int) -> BoundaryStack:
    """Stack assembly for one target from already lifted source polylines.

    All sources go through one world-to-sphere transform and one kernel call;
    one contested-crossing count is logged per target.
    """
    n = len(polys)
    merged = WorldPolyline(np.concatenate([p.points for p in polys]), target, kind)
    samples = world_to_boundary_samples(merged, dst_pose).reshape(n, W, 2)
    lat, valid, n_contested = _resample_batch(samples, W,
                                              DEFAULT_GAP_FACTOR * _TWO_PI / W)
    if n_contested:
        logger.debug("resample: %d contested column crossings", n_contested)
    # C-ordered (W, n) copies: fusion reduces along the view axis, and its
    # summation order follows the memory layout.
    lat, valid = lat.T.copy(), valid.T.copy()
    valid &= _lat_in_range(lat, kind)
    lat[~valid] = np.nan
    empty = np.flatnonzero(~valid.any(axis=1))
    if empty.size:
        head = ", ".join(map(str, empty[:20]))
        more = f" (+{empty.size - 20} more)" if empty.size > 20 else ""
        raise CoverageError(
            f"target {target!r}: no valid {kind.value} entries for columns "
            f"{head}{more}")
    return BoundaryStack(target, lat, valid, kind, [p.source_view for p in polys])
