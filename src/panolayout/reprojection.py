"""Re-projection of boundaries between views and per-column stack assembly.

A source boundary is lifted to world coordinates, mapped into the target
camera, and the resulting (lon, lat) curve is resampled at the target's
column centers. Stacks collect one resampled row per source view, target
included.
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
    to the target at column theta. Invalid entries are NaN with valid False.
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
    bracketing ones. Where the curve overlaps itself, the crossing whose
    source longitude is angularly nearest the target column wins (valid
    crossings first); the number of such contested columns is logged.

    A column is invalid when no segment covers it or when its bracketing
    samples are more than gap_max apart in longitude (default
    DEFAULT_GAP_FACTOR * 2*pi/W).

    Returns (lat, valid): (W,) float array (NaN where invalid) and (W,) bool.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise ValueError(f"samples must be (n, 2), got {samples.shape}")
    n = samples.shape[0]
    if n < 2:
        raise ValueError("resampling needs at least 2 samples")
    if gap_max is None:
        gap_max = DEFAULT_GAP_FACTOR * _TWO_PI / W
    source_lon = column_longitudes(n)

    lon = samples[:, 0]
    lat = samples[:, 1]
    lon_b = np.roll(lon, -1)
    lat_b = np.roll(lat, -1)
    delta = (lon_b - lon + math.pi) % _TWO_PI - math.pi   # (-pi, pi)
    sgn = np.sign(delta)
    adel = np.abs(delta)
    keep = adel > 0.0

    step = _TWO_PI / W
    # Enumerate covered columns per segment on a direction-normalized grid:
    # for sgn=-1 longitudes are mirrored, which maps the column grid onto
    # itself with index c -> W-1-c. Both segment endpoints use the same
    # grid-position expression, so consecutive same-direction segments tile
    # the columns without rounding gaps.
    g_a = (sgn * lon + math.pi) / step - 0.5
    g_b = (sgn * lon_b + math.pi) / step - 0.5
    g_b = np.where(g_b < g_a, g_b + W, g_b)           # arc crosses the seam
    c_start = np.ceil(g_a)
    counts = np.where(keep, np.maximum(np.floor(g_b) - c_start + 1, 0),
                      0).astype(np.int64)

    total = int(counts.sum())
    if total == 0:
        return np.full(W, np.nan), np.zeros(W, dtype=bool)

    seg = np.repeat(np.arange(n), counts)
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    offset = np.arange(total) - np.repeat(first, counts)
    c_mirror = (c_start[seg].astype(np.int64) + offset) % W
    col = np.where(sgn[seg] < 0, W - 1 - c_mirror, c_mirror)

    centers = 2.0 * math.pi * (col + 0.5) / W - math.pi
    p = (sgn[seg] * (centers - lon[seg])) % _TWO_PI
    p = np.where(p > _TWO_PI - _EPS, 0.0, p)              # rounding wrap at 0
    ok = p <= adel[seg] + _EPS
    seg, col, p, centers = seg[ok], col[ok], p[ok], centers[ok]

    t = np.minimum(p, adel[seg]) / adel[seg]
    # Columns exactly at a sample's longitude take that sample's latitude
    # verbatim; interpolation arithmetic would be a ulp off at the far end.
    at_start = centers == lon[seg]
    at_end = (centers == lon_b[seg]) | (t >= 1.0)
    interp = lat[seg] + t * (lat_b[seg] - lat[seg])
    cand_lat = np.where(at_start, lat[seg], np.where(at_end, lat_b[seg], interp))
    cand_gap_ok = adel[seg] <= gap_max
    src_dist = np.abs((source_lon[seg] - centers + math.pi) % _TWO_PI - math.pi)

    # Pick one crossing per column: valid-gap first, then nearest source
    # longitude, then lowest segment index (deterministic).
    order = np.lexsort((seg, src_dist, ~cand_gap_ok, col))
    col_sorted = col[order]
    uniq_col, uniq_pos = np.unique(col_sorted, return_index=True)

    out_lat = np.full(W, np.nan)
    out_valid = np.zeros(W, dtype=bool)
    chosen = order[uniq_pos]
    out_lat[uniq_col] = cand_lat[chosen]
    out_valid[uniq_col] = cand_gap_ok[chosen]

    n_contested = int(col.shape[0] - uniq_col.shape[0])
    if n_contested:
        logger.debug("resample: %d contested column crossings", n_contested)
    return out_lat, out_valid


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
    """Stack assembly for one target from already lifted source polylines."""
    n = len(polys)
    lat = np.full((W, n), np.nan)
    valid = np.zeros((W, n), dtype=bool)
    for i, poly in enumerate(polys):
        samples = world_to_boundary_samples(poly, dst_pose)
        col_lat, col_valid = resample_to_columns(samples, W, kind)
        in_range = _lat_in_range(col_lat, kind)
        col_valid &= np.where(np.isnan(col_lat), False, in_range)
        lat[:, i] = col_lat
        valid[:, i] = col_valid
    empty = np.flatnonzero(~valid.any(axis=1))
    if empty.size:
        head = ", ".join(map(str, empty[:20]))
        more = f" (+{empty.size - 20} more)" if empty.size > 20 else ""
        raise CoverageError(
            f"target {target!r}: no valid {kind.value} entries for columns "
            f"{head}{more}")
    return BoundaryStack(target, lat, valid, kind, [p.source_view for p in polys])
