"""Re-projection of boundaries between views and per-column stack assembly.

Callers lift source boundaries to world coordinates (Scene.world_polylines)
and pass the lifts in. Each is mapped into the target camera, and the (lon,
lat) curve is resampled at the target's column centers. build_stacks yields
one stack per target, a resampled row per source view, target included.

build_stacks orders the (target, source) curves target-major and resamples
them in kernel calls of whole curves, up to _CALL_SAMPLES samples each, so
one call may span several small targets or a slice of one large target's
sources. Each call maps each of its targets' source slices through one
world-to-sphere transform and logs one contested-crossing count;
resample_to_columns is the kernel's one-curve case. The kernel expands only
the segments within the gap limit and picks one crossing per column with a
scatter-min keyed by column x curve, so no curve's result depends on the
others in its call. A stack entry is valid exactly where its lat is not
NaN.

The kernel takes longitudes in [-pi, pi]: world_to_boundary_samples returns
arctan2 values, which lie there, and resample_to_columns wraps any other
longitude into that range first. Each of the kernel's three angle wraps then
sees values in [-2*pi, 4*pi), where a conditional add or subtract of 2*pi
equals np.remainder bit for bit: fmod is exact, and x - 2*pi is exact on
[2*pi, 4*pi] by Sterbenz's lemma. Column indices likewise stay below 2*W and
wrap with one conditional subtract.

Importing the module frees one 16 MiB block, so that glibc keeps each
call's temporaries on the heap in library callers and the CLI alike.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError
from .geometry import BoundaryKind, CameraPose, WorldPolyline, column_longitudes, \
    world_to_boundary_samples, wrap_longitude
from .scene import Scene

logger = logging.getLogger(__name__)

# Columns whose bracketing samples are further apart than this many column
# widths are not interpolated; the source view contributes nothing there.
DEFAULT_GAP_FACTOR = 4.0

_TWO_PI = 2.0 * math.pi
# Slack for offsets that land a hair outside [0, |delta|] through rounding.
_EPS = 1e-9
# Samples (curves x W) per build_stacks kernel call: large enough that a
# call's fixed cost does not dominate (smaller calls were measurably slower,
# see CHANGES.md), small enough to bound the call's temporaries.
_CALL_SAMPLES = 2 ** 14
# A call's temporaries total a few MB. By default glibc mmaps every block
# above 128 KiB and trims the heap once 128 KiB lie free at its top, so each
# call would fault its pages in afresh. Freeing one mmapped block of at most
# 32 MiB raises the mmap threshold to its size and the trim threshold to twice
# that, for the whole process and its forks (mallopt(3), "dynamic mmap
# threshold"): here 16 and 32 MiB. Other allocators, and a host that has set
# these thresholds itself, ignore the freed block.
np.empty(2 ** 21)


@dataclass
class BoundaryStack:
    """Per-column re-projected latitudes for one target view.

    lat has shape (W, N): entry (theta, i) is view i's boundary re-projected
    to the target at column theta, NaN where invalid (valid is False): no
    gap-valid crossing, or a latitude on the wrong side of the horizon.
    """

    target_view: str
    lat: np.ndarray
    kind: BoundaryKind
    view_ids: list[str]

    @property
    def valid(self) -> np.ndarray:
        return ~np.isnan(self.lat)

    @property
    def width(self) -> int:
        return self.lat.shape[0]

    @property
    def n_views(self) -> int:
        return self.lat.shape[1]


def resample_to_columns(samples: np.ndarray, W: int, gap_max: float | None = None):
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
    logged as contested. Longitudes outside [-pi, pi] are wrapped into it
    first, and a NaN longitude makes both its segments gaps.

    Returns (lat, valid): (W,) float array and (W,) bool, ~np.isnan(lat).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise ValueError(f"samples must be (n, 2), got {samples.shape}")
    if samples.shape[0] < 2:
        raise ValueError("resampling needs at least 2 samples")
    lon = samples[:, 0]
    outside = ~((lon >= -math.pi) & (lon <= math.pi))
    if outside.any():
        # Only these are wrapped: in-range longitudes keep their bits.
        samples = samples.copy()
        samples[outside, 0] = wrap_longitude(lon[outside])
    lat = _resample_batch(samples[None], W, gap_max)[0]
    return lat, ~np.isnan(lat)


def _wrap_two_pi(x: np.ndarray) -> np.ndarray:
    """np.remainder(x, 2*pi), bit for bit, for x in [-2*pi, 4*pi).

    As fmod is exact, np.remainder returns x + 2*pi rounded once below 0,
    x itself on [0, 2*pi) and the exact x - 2*pi above. Here x gains 2*pi
    times a turn of +1, 0 or -1; the product is exact, and adding +0.0 turns
    -0.0 into +0.0 as np.remainder does.
    """
    turns = (x < 0.0).view(np.int8) - (x >= _TWO_PI).view(np.int8)
    return x + _TWO_PI * turns


def _resample_batch(samples: np.ndarray, W: int, gap_max: float | None):
    """resample_to_columns for m curves of n samples each in one call.

    samples is (m, n, 2) with longitudes in [-pi, pi]; gap_max None means
    DEFAULT_GAP_FACTOR column widths. Only segments within gap_max are
    expanded into candidate crossings, keyed by column * m + curve. Two
    scatter-mins pick one per key: the least source distance, then among
    equals the lowest candidate index, which follows segment order. Only
    the winners are interpolated. The gap-valid crossings that lose a
    column, summed over the curves, are logged once as the call's contested
    count when there are any.

    Returns lat (m, W), NaN where a column has no winner: a transposed view
    of a C-ordered (W, m) array, the layout stacks keep.
    """
    if gap_max is None:
        gap_max = DEFAULT_GAP_FACTOR * _TWO_PI / W
    m, n = samples.shape[:2]
    # Each curve is a row of n + 1 entries closed by a copy of its first
    # sample, so segment k runs from flat entry k to entry k + 1; the entries
    # k = n, 2n + 1, ... would join two curves and are never segments.
    ext = np.empty((2, m, n + 1))
    ext[:, :, :n] = np.moveaxis(samples, 2, 0)
    ext[:, :, n] = ext[:, :, 0]
    lon, lat = ext.reshape(2, -1)
    delta = _wrap_two_pi(lon[1:] - lon[:-1] + math.pi) - math.pi   # [-pi, pi]
    adel = np.abs(delta)
    in_gap = (adel > 0.0) & (adel <= gap_max)
    in_gap[n::n + 1] = False
    segs = np.flatnonzero(in_gap)
    curve, src_col = np.divmod(segs, n + 1)
    sgn, adel = np.sign(delta[segs]), adel[segs]
    lon_a, lon_b = lon[segs], lon[segs + 1]

    step = _TWO_PI / W
    # Enumerate covered columns per segment on a direction-normalized grid:
    # for sgn=-1 longitudes are mirrored, which maps the column grid onto
    # itself with index c -> W-1-c. Both segment endpoints use the same
    # grid-position expression, so consecutive same-direction segments tile
    # the columns without rounding gaps. Column indices before the wrap lie
    # in [0, 2W), so one conditional subtract stands in for % W.
    g_a = (sgn * lon_a + math.pi) / step - 0.5
    g_b = (sgn * lon_b + math.pi) / step - 0.5
    g_b = np.where(g_b < g_a, g_b + W, g_b)           # arc crosses the seam
    c_start = np.ceil(g_a)
    cnt = np.maximum(np.floor(g_b) - c_start + 1, 0).astype(np.int64)
    i = np.repeat(np.arange(segs.size), cnt)          # candidate -> segment
    c = (c_start.astype(np.int64) - (np.cumsum(cnt) - cnt))[i] + np.arange(i.size)
    c -= W * (c >= W)
    col = np.where(sgn[i] < 0, W - 1 - c, c)
    key = col * m + curve[i]

    centers = column_longitudes(W)[col]
    p = _wrap_two_pi(sgn[i] * (centers - lon_a[i]))
    p = np.where(p > _TWO_PI - _EPS, 0.0, p)              # rounding wrap at 0
    src_dist = np.abs(_wrap_two_pi(column_longitudes(n)[src_col[i]] - centers
                                   + math.pi) - math.pi)

    best = np.full(m * W, np.inf)
    np.minimum.at(best, key, src_dist)
    tie = np.flatnonzero(src_dist == best[key])
    pick = np.full(m * W, i.size)
    np.minimum.at(pick, key[tie], tie)
    won = np.flatnonzero(pick < i.size)
    pick = pick[won]
    i, p, centers = i[pick], p[pick], centers[pick]
    a = segs[i]
    lat_a, lat_b, adel = lat[a], lat[a + 1], adel[i]

    t = p / adel
    # Columns exactly at a sample's longitude take that sample's latitude
    # verbatim; interpolation arithmetic would be a ulp off at the far end.
    at_start = centers == lon_a[i]
    at_end = (centers == lon_b[i]) | (t >= 1.0)
    interp = lat_a + t * (lat_b - lat_a)
    out_lat = np.full(m * W, np.nan)
    out_lat[won] = np.where(at_start, lat_a, np.where(at_end, lat_b, interp))
    if key.size > won.size:
        logger.debug("resample: %d contested column crossings", key.size - won.size)
    return out_lat.reshape(W, m).T


def build_stacks(scene: Scene, polys: list[WorldPolyline],
                 targets: list[str] | None = None):
    """Yield the stack of each target (default: all views, in frame order).

    polys are the sources' lifts of one kind, from Scene.world_polylines. Each
    is re-projected into every target, the N x N step of 360-MLC, in the
    kernel calls the module docstring describes. A target's stack is built
    in a (W, N) buffer of its own and yielded after the call that completes
    it, so a caller that reduces each stack as it is yielded holds one
    call's stacks and one unfinished target at a time, not one per target.
    """
    if not polys:
        raise ValueError("no view carries a boundary of the requested kind")
    kind, W = polys[0].kind, scene.image_width
    points = np.concatenate([p.points for p in polys])
    sources = [p.source_view for p in polys]
    frames = scene.frames if targets is None else [scene.frame(t) for t in targets]
    n = len(sources)
    total, per_call = len(frames) * n, max(1, _CALL_SAMPLES // W)
    for start in range(0, total, per_call):
        stop = min(start + per_call, total)
        # Each target's piece of the call: its sources [a, b).
        pieces = [(t, max(start - t * n, 0), min(stop - t * n, n))
                  for t in range(start // n, (stop - 1) // n + 1)]
        curves = np.concatenate([world_to_boundary_samples(
            points[a * W:b * W], frames[t].pose) for t, a, b in pieces])
        lat = _resample_batch(curves.reshape(-1, W, 2), W, None)
        stacks = []
        for t, a, b in pieces:
            if a == 0:   # C-ordered: fusion's summation order follows the layout
                t_lat = np.empty((W, n))
            r = t * n - start   # the call's row of the target's source 0
            t_lat[:, a:b] = lat[r + a:r + b].T
            if b == n:
                stacks.append(_stack_from_polylines(t_lat, sources, frames[t].pose,
                                                    frames[t].view_id, kind))
        # Freed before the yield: held, they would raise the caller's peak memory.
        del curves, lat
        yield from stacks


def build_stack(scene: Scene, target: str, kind: BoundaryKind,
                view_ids: list[str] | None = None) -> BoundaryStack:
    """Assemble the W x N matrix of re-projected boundaries for one target.

    Every selected view (the target included when selected) is re-projected
    into the target camera and resampled at its column centers. Entries
    falling on the wrong side of the horizon are masked invalid. Raises
    CoverageError if any column ends up with no valid entry.
    """
    return next(build_stacks(scene, scene.world_polylines((kind,), view_ids), [target]))


def _stack_from_polylines(lat: np.ndarray, sources: list[str],
                          dst_pose: CameraPose, target: str,
                          kind: BoundaryKind) -> BoundaryStack:
    """One target's stack from its C-ordered (W, N) lat buffer, which it
    masks in place and keeps.

    Writes NaN where an entry lies on the wrong side of the horizon and raises
    CoverageError, naming the columns, where no entry is left. dst_pose is the
    target's pose, for callers that check the stack against its geometry.
    """
    s = kind.side * lat
    lat[~((s > 0.0) & (s < math.pi / 2))] = np.nan
    empty = np.flatnonzero(np.isnan(lat).all(axis=1))
    if empty.size:
        head = ", ".join(map(str, empty[:20]))
        more = f" (+{empty.size - 20} more)" if empty.size > 20 else ""
        raise CoverageError(
            f"target {target!r}: no valid {kind.value} entries for columns "
            f"{head}{more}")
    return BoundaryStack(target, lat, kind, list(sources))
