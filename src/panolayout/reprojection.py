"""Re-projection of boundaries between views and per-column stack assembly.

A source boundary is lifted to world coordinates, mapped into the target
camera, and the resulting (lon, lat) curve is resampled at the target's
column centers. Stacks collect one resampled row per source view, target
included.

The resampling kernel is block-batched: a stack sends its sources through it
a few at a time, and resample_to_columns is its one-curve case. It picks one
crossing per column with a scatter-min, not a sort.
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
# Sources per re-projection kernel call when assembling a stack. On a noisy
# N=16, W=1024 refine, one 16-source call per target was no faster than
# blocks of 4 and raised peak RSS from 63 to 70 MB.
_SOURCE_BLOCK = 4


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
    bracketing ones.

    Where the curve overlaps itself, one crossing per column wins, in this
    order: a crossing whose segment is within gap_max first, then the one
    whose source longitude is angularly nearest the target column, then the
    lowest segment index. Gap-invalid crossings are only considered for
    columns that no gap-valid crossing covers. The number of crossings that
    lose a column is logged as contested.

    A column is invalid when no segment covers it or when its bracketing
    samples are more than gap_max apart in longitude (default
    DEFAULT_GAP_FACTOR * 2*pi/W).

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

    samples is (m, n, 2). Candidate crossings are keyed by curve * W +
    column, and each pass picks one per key with two scatter-mins: the least
    source distance, then among equals the lowest candidate index, which
    follows segment order. The first pass takes the gap-valid segments. The
    second expands the gap-invalid ones and drops the candidates at keys the
    first pass filled before any further work. Only the winners are
    interpolated.

    Returns (lat (m, W), valid (m, W), n_contested summed over the curves).
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
    keep = adel > 0.0
    gap_ok = adel <= gap_max

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

    out_lat = np.full(m * W, np.nan)
    out_valid = np.zeros(m * W, dtype=bool)
    taken = np.zeros(m * W, dtype=bool)
    n_contested = 0
    for in_pass in (keep & gap_ok, keep & ~gap_ok):
        segs = np.flatnonzero(in_pass)
        cnt = counts[segs]
        seg = np.repeat(segs, cnt)
        offset = np.arange(seg.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        c_mirror = (c_start[seg].astype(np.int64) + offset) % W
        col = np.where(sgn[seg] < 0, W - 1 - c_mirror, c_mirror)
        key = row[seg] + col
        free = ~taken[key]
        n_contested += seg.size - int(np.count_nonzero(free))
        seg, col, key = seg[free], col[free], key[free]

        centers = 2.0 * math.pi * (col + 0.5) / W - math.pi
        p = (sgn[seg] * (centers - lon[seg])) % _TWO_PI
        p = np.where(p > _TWO_PI - _EPS, 0.0, p)          # rounding wrap at 0
        ok = p <= adel[seg] + _EPS
        seg, key, p, centers = seg[ok], key[ok], p[ok], centers[ok]
        src_dist = np.abs((source_lon[seg] - centers + math.pi) % _TWO_PI - math.pi)

        best = np.full(m * W, np.inf)
        np.minimum.at(best, key, src_dist)
        tie = np.flatnonzero(src_dist == best[key])
        pick = np.full(m * W, seg.size)
        np.minimum.at(pick, key[tie], tie)
        won = np.flatnonzero(pick < seg.size)
        n_contested += seg.size - won.size
        pick = pick[won]
        seg, p, centers = seg[pick], p[pick], centers[pick]

        t = np.minimum(p, adel[seg]) / adel[seg]
        # Columns exactly at a sample's longitude take that sample's latitude
        # verbatim; interpolation arithmetic would be a ulp off at the far end.
        at_start = centers == lon[seg]
        at_end = (centers == lon_b[seg]) | (t >= 1.0)
        interp = lat[seg] + t * (lat_b[seg] - lat[seg])
        out_lat[won] = np.where(at_start, lat[seg],
                                np.where(at_end, lat_b[seg], interp))
        out_valid[won] = gap_ok[seg]
        taken[won] = True
    return out_lat.reshape(m, W), out_valid.reshape(m, W), n_contested


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

    Sources go through the re-projection kernel _SOURCE_BLOCK at a time; one
    contested-crossing count is logged per target.
    """
    gap_max = DEFAULT_GAP_FACTOR * _TWO_PI / W
    n = len(polys)
    lat = np.empty((W, n))
    valid = np.empty((W, n), dtype=bool)
    n_contested = 0
    for i in range(0, n, _SOURCE_BLOCK):
        samples = np.stack([world_to_boundary_samples(p, dst_pose)
                            for p in polys[i:i + _SOURCE_BLOCK]])
        block_lat, block_valid, contested = _resample_batch(samples, W, gap_max)
        lat[:, i:i + _SOURCE_BLOCK] = block_lat.T
        valid[:, i:i + _SOURCE_BLOCK] = block_valid.T
        n_contested += contested
    if n_contested:
        logger.debug("resample: %d contested column crossings", n_contested)
    valid &= _lat_in_range(lat, kind)       # False on NaN entries
    empty = np.flatnonzero(~valid.any(axis=1))
    if empty.size:
        head = ", ".join(map(str, empty[:20]))
        more = f" (+{empty.size - 20} more)" if empty.size > 20 else ""
        raise CoverageError(
            f"target {target!r}: no valid {kind.value} entries for columns "
            f"{head}{more}")
    return BoundaryStack(target, lat, valid, kind, [p.source_view for p in polys])
