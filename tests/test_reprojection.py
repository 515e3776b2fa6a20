import dataclasses
import logging
import math
import platform
import re
import subprocess
import sys
import textwrap
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from panolayout import reprojection
from panolayout.errors import CoverageError
from panolayout.geometry import BoundaryKind, CameraPose, SphericalBoundary, \
    WorldPolyline, boundary_to_world, column_longitudes, world_to_boundary_samples
from panolayout.reprojection import build_stack, build_stacks, \
    resample_to_columns
from panolayout.scene import Scene, ViewFrame
from panolayout.sceneio import save_scene
from panolayout.selftrain import select_views
from panolayout.synth import NoiseSpec, generate_scene, lshape_room, ngon_room, \
    perturb, ray_distances, square_room

from conftest import child_env, coaxial_cylinder_scene, random_boundary, \
    random_pose, reference_world_to_boundary_samples, rotation_about_y


def upright(yaw, t, hf=1.6, hc=None):
    return CameraPose(rotation_about_y(yaw), np.asarray(t, float), hf, hc)


def reference_resample_to_columns(samples, W, gap_max=None):
    """Former lexsort/unique crossing selection, kept as the oracle.

    Returns (lat, valid, n_contested) where the library logs n_contested.
    """
    two_pi, eps = 2.0 * math.pi, 1e-9
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    if gap_max is None:
        gap_max = reprojection.DEFAULT_GAP_FACTOR * two_pi / W
    source_lon = column_longitudes(n)

    lon = samples[:, 0]
    lat = samples[:, 1]
    lon_b = np.roll(lon, -1)
    lat_b = np.roll(lat, -1)
    delta = (lon_b - lon + math.pi) % two_pi - math.pi
    sgn = np.sign(delta)
    adel = np.abs(delta)
    keep = adel > 0.0

    step = two_pi / W
    g_a = (sgn * lon + math.pi) / step - 0.5
    g_b = (sgn * lon_b + math.pi) / step - 0.5
    g_b = np.where(g_b < g_a, g_b + W, g_b)
    c_start = np.ceil(g_a)
    counts = np.where(keep, np.maximum(np.floor(g_b) - c_start + 1, 0),
                      0).astype(np.int64)

    total = int(counts.sum())
    if total == 0:
        return np.full(W, np.nan), np.zeros(W, dtype=bool), 0

    seg = np.repeat(np.arange(n), counts)
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    offset = np.arange(total) - np.repeat(first, counts)
    c_mirror = (c_start[seg].astype(np.int64) + offset) % W
    col = np.where(sgn[seg] < 0, W - 1 - c_mirror, c_mirror)

    centers = 2.0 * math.pi * (col + 0.5) / W - math.pi
    p = (sgn[seg] * (centers - lon[seg])) % two_pi
    p = np.where(p > two_pi - eps, 0.0, p)
    ok = p <= adel[seg] + eps
    seg, col, p, centers = seg[ok], col[ok], p[ok], centers[ok]

    t = np.minimum(p, adel[seg]) / adel[seg]
    at_start = centers == lon[seg]
    at_end = (centers == lon_b[seg]) | (t >= 1.0)
    interp = lat[seg] + t * (lat_b[seg] - lat[seg])
    cand_lat = np.where(at_start, lat[seg], np.where(at_end, lat_b[seg], interp))
    cand_gap_ok = adel[seg] <= gap_max
    src_dist = np.abs((source_lon[seg] - centers + math.pi) % two_pi - math.pi)

    order = np.lexsort((seg, src_dist, ~cand_gap_ok, col))
    col_sorted = col[order]
    uniq_col, uniq_pos = np.unique(col_sorted, return_index=True)

    out_lat = np.full(W, np.nan)
    out_valid = np.zeros(W, dtype=bool)
    chosen = order[uniq_pos]
    out_lat[uniq_col] = cand_lat[chosen]
    out_valid[uniq_col] = cand_gap_ok[chosen]
    return out_lat, out_valid, int(col.shape[0] - uniq_col.shape[0])


def reference_gap_valid_crossings(samples, W, gap_max=None):
    """How many of the oracle's candidate crossings lie on gap-valid segments.

    Enumerates columns with the oracle's expressions. The library logs this
    count minus the oracle's valid columns as contested.
    """
    two_pi, eps = 2.0 * math.pi, 1e-9
    if gap_max is None:
        gap_max = reprojection.DEFAULT_GAP_FACTOR * two_pi / W
    lon = np.asarray(samples, dtype=float)[:, 0]
    lon_b = np.roll(lon, -1)
    delta = (lon_b - lon + math.pi) % two_pi - math.pi
    seg = np.flatnonzero((np.abs(delta) > 0.0) & (np.abs(delta) <= gap_max))
    sgn, adel = np.sign(delta[seg]), np.abs(delta[seg])
    step = two_pi / W
    g_a = (sgn * lon[seg] + math.pi) / step - 0.5
    g_b = (sgn * lon_b[seg] + math.pi) / step - 0.5
    g_b = np.where(g_b < g_a, g_b + W, g_b)
    c_start = np.ceil(g_a)
    counts = np.maximum(np.floor(g_b) - c_start + 1, 0).astype(np.int64)
    k = np.repeat(np.arange(seg.size), counts)
    offset = np.arange(k.size) - np.repeat(np.cumsum(counts) - counts, counts)
    c_mirror = (c_start[k].astype(np.int64) + offset) % W
    col = np.where(sgn[k] < 0, W - 1 - c_mirror, c_mirror)
    centers = 2.0 * math.pi * (col + 0.5) / W - math.pi
    p = (sgn[k] * (centers - lon[seg[k]])) % two_pi
    p = np.where(p > two_pi - eps, 0.0, p)
    return int(np.count_nonzero(p <= adel[k] + eps))


@contextmanager
def logged_contested():
    """Collect the contested-crossing counts reprojection logs at DEBUG."""
    counts = []

    class Handler(logging.Handler):
        def emit(self, record):
            m = re.search(r"(\d+) contested column crossings", record.getMessage())
            counts.append(int(m.group(1)))

    logger = logging.getLogger("panolayout.reprojection")
    handler, level = Handler(logging.DEBUG), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield counts
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


# build_stacks as it was before calls packed (target, source) curves, kept as
# the oracle for the packing: consecutive targets grouped up to 2^13 samples,
# a larger target split by source into calls of at most 2^16 samples, and
# each stack a transposed copy of its kernel rows.
_REF_GROUP_SAMPLES = 2 ** 13
_REF_CHUNK_SAMPLES = 2 ** 16


def _reference_resample_sources(curves, W):
    m = curves.shape[0]
    per = max(1, _REF_CHUNK_SAMPLES // W)
    if m <= per:
        return reprojection._resample_batch(curves, W, None)
    lat = np.empty((W, m))   # the kernel's layout
    for s in range(0, m, per):
        lat[:, s:s + per] = reprojection._resample_batch(curves[s:s + per], W, None).T
    return lat.T


def reference_build_stacks(scene, polys, targets=None):
    if not polys:
        raise ValueError("no view carries a boundary of the requested kind")
    kind, W = polys[0].kind, scene.image_width
    merged = WorldPolyline(np.concatenate([p.points for p in polys]), "", kind)
    sources = [p.source_view for p in polys]
    frames = scene.frames if targets is None else [scene.frame(t) for t in targets]
    n = len(sources)
    per_call = max(1, _REF_GROUP_SAMPLES // (n * W))
    for g in range(0, len(frames), per_call):
        group = frames[g:g + per_call]
        samples = [world_to_boundary_samples(merged, f.pose) for f in group]
        # A one-target call takes its samples uncopied.
        batch = samples[0] if len(group) == 1 else np.concatenate(samples)
        lat = _reference_resample_sources(batch.reshape(-1, W, 2), W)
        stacks = [reprojection._stack_from_polylines(
            lat[j * n:(j + 1) * n].T.copy(), sources, f.pose, f.view_id, kind)
            for j, f in enumerate(group)]
        del samples, batch, lat
        yield from stacks


# Tiny (everything gap-invalid), the default, and huge (everything gap-valid).
_GAP_MAX = (1e-9, None, 0.5, 1e9)


@st.composite
def closed_curves(draw):
    """(samples, W, gap_max): closed (lon, lat) curves with zigzags, zero-length
    segments, seam crossings and duplicated samples."""
    n = draw(st.integers(2, 200))
    W = draw(st.integers(8, 512))
    gap_max = draw(st.sampled_from(_GAP_MAX))
    shift = draw(st.floats(-math.pi, math.pi))
    zigzag = draw(st.sampled_from((0.0, 0.01, 0.3, 3.0)))
    jitter = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=n,
                                      max_size=n)))
    lat = np.asarray(draw(st.lists(st.floats(-1.5, 1.5), min_size=n,
                                   max_size=n)))
    # Alternating offsets make the curve run back and forth in longitude.
    lon = column_longitudes(n) + shift + zigzag * jitter * (-1.0) ** np.arange(n)
    lon = (lon + math.pi) % (2.0 * math.pi) - math.pi
    ints = st.integers(0, n - 1)
    for i in draw(st.lists(ints, max_size=n // 4)):   # repeated longitudes
        lon[i] = lon[i - 1]
    for i in draw(st.lists(ints, max_size=4)):        # samples on the seam
        lon[i] = draw(st.sampled_from((-math.pi, math.pi)))
    samples = np.column_stack([lon, lat])
    if draw(st.booleans()):
        # Duplicated samples: the curve runs twice over the same longitudes,
        # so segments tie in source distance where columns sit halfway.
        half = samples[:(n + 1) // 2]
        lat2 = half[:, 1] if draw(st.booleans()) else half[::-1, 1]
        samples = np.concatenate([half, np.column_stack([half[:, 0], lat2])])[:n]
    return samples, W, gap_max


@st.composite
def noisy_scenes_and_orders(draw):
    """(scene, kind, order): a noisy room and a permutation of its views."""
    room = draw(st.sampled_from((square_room(4.0), lshape_room(4.0),
                                 ngon_room(7, 2.0))))
    n = draw(st.integers(2, 9))
    W = draw(st.sampled_from((24, 75, 128, 256)))
    seed = draw(st.integers(0, 2 ** 16))
    noise = NoiseSpec(boundary_std=draw(st.sampled_from((0.01, 0.05))),
                      outlier_rate=0.02, outlier_std=0.1, seed=seed)
    scene = perturb(generate_scene(room, n, W, seed=seed), noise)
    kind = draw(st.sampled_from((BoundaryKind.FLOOR, BoundaryKind.CEILING)))
    return scene, kind, draw(st.permutations(range(n)))


def _grouped_case(n, W, targets, room=None, kind=BoundaryKind.FLOOR, seed=0):
    noise = NoiseSpec(boundary_std=0.03, outlier_rate=0.02, outlier_std=0.1,
                      seed=seed)
    scene = perturb(generate_scene(room or lshape_room(4.0), n, W, seed=seed),
                    noise)
    ids = None if targets is None else [scene.view_ids[j] for j in targets]
    return scene, kind, ids


@st.composite
def grouped_stack_cases(draw):
    """(scene, kind, targets): sizes where kernel calls split targets (9 x 2048
    samples a target), hold several (6 x 128) or span target boundaries."""
    room = draw(st.sampled_from((square_room(4.0), lshape_room(4.0),
                                 ngon_room(7, 2.0))))
    n = draw(st.integers(2, 9))
    W = draw(st.sampled_from((24, 75, 256, 1024, 2048)))
    kind = draw(st.sampled_from((BoundaryKind.FLOOR, BoundaryKind.CEILING)))
    targets = None
    if draw(st.booleans()):
        targets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                unique=True))
    return _grouped_case(n, W, targets, room, kind, draw(st.integers(0, 2 ** 16)))


# Segments 1 and 2 both cross column 4 (longitude 0) at source distance pi/4
# from opposite sides; the lower segment index must win.
_TIE = (np.array([[-1.0, -0.4], [1.0, -0.6], [-1.0, -0.9], [1.0, -0.2]]), 9, None)
# Samples at -0.0 and 0.0 on column 4's center, which several segments cross.
_NEG_ZERO = (np.array([[-2.0, -0.4], [-0.0, -0.5], [2.0, -0.6], [0.0, -0.7],
                       [-math.pi, -0.3]]), 9, 1e9)


class TestReprojectBoundary:
    def test_identity_reprojection(self, rng):
        for _ in range(10):
            b = random_boundary(rng, 64)
            pose = random_pose(rng)
            samples = world_to_boundary_samples(boundary_to_world(b, pose), pose)
            assert np.max(np.abs(samples[:, 0] - column_longitudes(64))) < 1e-9
            assert np.max(np.abs(samples[:, 1] - b.lat)) < 1e-9

    def test_circular_room_distance_relation(self):
        # Source at the center of an analytic circular room; per re-projected
        # sample, tan(|lat|) must equal h over the dst-to-wall-point distance.
        r, h, W = 2.0, 1.6, 96
        src = upright(0.0, (0.0, 0.0, 0.0), hf=h)
        dst = upright(0.4, (0.5, 0.0, -0.3), hf=h)
        b = SphericalBoundary(np.full(W, -math.atan2(h, r)), BoundaryKind.FLOOR)
        samples = world_to_boundary_samples(boundary_to_world(b, src), dst)
        lon = column_longitudes(W)
        wall = np.stack([r * np.sin(lon), r * np.cos(lon)], axis=1)
        dist = np.linalg.norm(wall - np.array([0.5, -0.3]), axis=1)
        assert np.max(np.abs(np.tan(-samples[:, 1]) - h / dist)) < 1e-12

    def test_square_room_displaced_dst_oracle(self):
        # Brute-force oracle: ray-cast the walls from src, transform into the
        # displaced dst camera, compute angles with plain trig.
        room = square_room(4.0, h_floor=1.6)
        W = 128
        src = upright(0.4, (0.3, 0.0, -0.2))
        dst = upright(-0.2, (0.8, 0.0, -0.2))
        yaw_src = 0.4
        lon = column_longitudes(W)
        d = ray_distances(room.footprint, (0.3, -0.2), lon + yaw_src)
        b = SphericalBoundary(-np.arctan(1.6 / d), BoundaryKind.FLOOR)
        samples = world_to_boundary_samples(boundary_to_world(b, src), dst)
        world = np.stack([0.3 + d * np.sin(lon + yaw_src),
                          np.full(W, 1.6),
                          -0.2 + d * np.cos(lon + yaw_src)], axis=1)
        for k in range(W):
            q = dst.rotation.T @ (world[k] - dst.translation)
            n = np.linalg.norm(q)
            assert samples[k, 0] == pytest.approx(math.atan2(q[0], q[2]), abs=1e-9)
            assert samples[k, 1] == pytest.approx(math.asin(-q[1] / n), abs=1e-9)


class TestResampleToColumns:
    def test_samples_at_knots_pass_through(self, rng):
        # Non-power-of-two widths exercise the inexact 2*pi/W grid step.
        for W in (64, 12, 100, 360):
            lat_in = -rng.uniform(0.1, 1.2, W)
            samples = np.stack([column_longitudes(W), lat_in], axis=1)
            lat, valid = resample_to_columns(samples, W)
            assert valid.all()
            assert np.array_equal(lat, lat_in)

    def test_two_antipodal_samples(self):
        samples = np.array([[-math.pi / 2, -0.4], [math.pi / 2, -0.2]])
        lat, valid = resample_to_columns(samples, 4, gap_max=np.inf)
        assert valid.all()
        assert np.allclose(lat, [-0.35, -0.35, -0.25, -0.25], atol=1e-12)
        # Midpoint of the two interpolated halves sits at the -0.3 crossing.
        assert (lat[1] + lat[2]) / 2 == pytest.approx(-0.3, abs=1e-12)

    def test_dense_circle_matches_analytic_curve(self):
        # Camera offset by c inside an analytic circle of radius r: the exact
        # boundary latitude as a function of longitude is known in closed form.
        r, c, h = 2.0, 0.5, 1.6
        n_dense, W = 8192, 256

        def lat_of(lon):
            d = -c * np.cos(lon) + np.sqrt(r ** 2 - (c * np.sin(lon)) ** 2)
            return -np.arctan(h / d)

        lon_dense = column_longitudes(n_dense)
        samples = np.stack([lon_dense, lat_of(lon_dense)], axis=1)
        lat, valid = resample_to_columns(samples, W)
        assert valid.all()
        assert np.max(np.abs(lat - lat_of(column_longitudes(W)))) < 1e-6

    def test_gap_invalidation(self):
        # Samples covering only the front half of the circle: the back half
        # is bridged by one giant segment and must come out invalid.
        lon = np.linspace(-math.pi / 2, math.pi / 2, 9)
        samples = np.stack([lon, np.full(9, -0.5)], axis=1)
        lat, valid = resample_to_columns(samples, 16)
        centers = column_longitudes(16)
        front = np.abs(centers) < math.pi / 2
        assert valid[front].all()
        assert not valid[~front].any()
        assert np.allclose(lat[front], -0.5, atol=1e-12)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            resample_to_columns(np.array([[0.0, -0.5]]), 16)

    @settings(max_examples=400, deadline=None)
    @given(closed_curves())
    @example(_TIE)
    @example(_NEG_ZERO)
    def test_matches_reference_selection(self, case):
        # The oracle also resolves gap-invalid crossings; the library leaves
        # those columns NaN and counts only gap-valid contests.
        samples, W, gap_max = case
        ref_lat, ref_valid, _ = reference_resample_to_columns(samples, W, gap_max)
        contested = reference_gap_valid_crossings(samples, W, gap_max) \
            - int(ref_valid.sum())
        with logged_contested() as logged:
            lat, valid = resample_to_columns(samples, W, gap_max)
        assert np.array_equal(valid, ref_valid)
        assert np.array_equal(lat[valid], ref_lat[valid])
        assert np.isnan(lat[~valid]).all()
        assert logged == ([contested] if contested else [])

    @pytest.mark.parametrize("turns", (-2, -1, 1, 2))
    def test_longitudes_outside_pi_are_wrapped(self, turns, rng):
        # A curve shifted by whole turns is the same curve: the same valid
        # columns, latitudes equal up to the rounding of the shifted samples.
        for W, n, gap_max in ((64, 64, None), (100, 37, None), (48, 300, 1e9)):
            lon = column_longitudes(n) + rng.uniform(-0.3, 0.3)
            lon = (lon + math.pi) % (2.0 * math.pi) - math.pi
            samples = np.column_stack([lon, -rng.uniform(0.2, 1.2, n)])
            lat, valid = resample_to_columns(samples, W, gap_max)
            shifted = samples + [[turns * 2.0 * math.pi, 0.0]]
            kept = shifted.copy()
            lat_s, valid_s = resample_to_columns(shifted, W, gap_max)
            assert np.array_equal(shifted, kept)        # input left untouched
            ref_lat, ref_valid, _ = reference_resample_to_columns(shifted, W,
                                                                  gap_max)
            assert valid.any()
            assert np.array_equal(valid_s, valid)
            assert np.array_equal(valid_s, ref_valid)
            assert np.max(np.abs(lat_s[valid] - lat[valid])) < 1e-12
            assert np.max(np.abs(lat_s[valid] - ref_lat[valid])) < 1e-12

    def test_nan_longitude_leaves_a_gap(self):
        samples = np.stack([column_longitudes(32), np.full(32, -0.5)], axis=1)
        samples[10, 0] = math.nan
        lat, valid = resample_to_columns(samples, 32)
        # Column 10 sits on the NaN sample; its neighbours are still reached
        # by the segments beyond.
        assert np.flatnonzero(~valid).tolist() == [10]
        assert np.array_equal(lat[valid], np.full(31, -0.5))

    def test_source_distance_tie_goes_to_lowest_segment(self):
        samples, W, _ = _TIE
        center = column_longitudes(W)[4]
        src = column_longitudes(4)
        dist = np.abs((src - center + math.pi) % (2.0 * math.pi) - math.pi)
        assert center == 0.0 and dist[1] == dist[2] < dist[0] == dist[3]
        lat, valid = resample_to_columns(samples, W)
        assert valid[4] and lat[4] == -0.75         # segment 1, not -0.55


_TWO_PI = 2.0 * math.pi
_PI_FLOATS = st.floats(-math.pi, math.pi)


def assert_wrap_matches_remainder(x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    got = reprojection._wrap_two_pi(x)
    ref = np.remainder(x, _TWO_PI)
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


class TestWrapTwoPi:
    def test_special_values(self):
        # Neighbours outside the domain [-2*pi, 4*pi) are dropped.
        anchors = [0.0, -0.0, math.pi, -math.pi, _TWO_PI, -_TWO_PI,
                   3 * math.pi, 2 * _TWO_PI]
        values = []
        for a in anchors:
            values += [a, np.nextafter(a, -np.inf), np.nextafter(a, np.inf)]
        values = [v for v in values if -_TWO_PI <= v < 2 * _TWO_PI]
        assert_wrap_matches_remainder(values)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(-_TWO_PI, 2 * _TWO_PI, exclude_max=True))
    def test_stated_domain(self, x):
        assert_wrap_matches_remainder(x)

    @settings(max_examples=500, deadline=None)
    @given(_PI_FLOATS, _PI_FLOATS)
    def test_segment_delta_site(self, lon, lon_b):
        # (lon_b - lon) + pi for sample longitudes in [-pi, pi].
        assert_wrap_matches_remainder(np.float64(lon_b) - lon + math.pi)

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from((-1.0, 1.0)), st.integers(1, 4096), st.data())
    def test_arc_offset_site(self, sgn, W, data):
        # sgn * (center - lon) for a column center and a sample longitude.
        c = data.draw(st.integers(0, W - 1))
        lon = data.draw(_PI_FLOATS)
        center = column_longitudes(W)[c]
        assert_wrap_matches_remainder(sgn * (center - np.float64(lon)))

    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 4096), st.integers(1, 4096), st.data())
    def test_source_distance_site(self, n, W, data):
        # (source column longitude - center) + pi for two column grids.
        src = column_longitudes(n)[data.draw(st.integers(0, n - 1))]
        center = column_longitudes(W)[data.draw(st.integers(0, W - 1))]
        assert_wrap_matches_remainder(src - center + math.pi)


class TestBuildStack:
    def test_single_view_self_stack(self):
        scene = generate_scene(square_room(4.0), 1, 64, seed=3)
        vid = scene.view_ids[0]
        stack = build_stack(scene, vid, BoundaryKind.FLOOR)
        assert stack.valid.all()
        assert np.max(np.abs(stack.lat[:, 0]
                             - scene.frames[0].boundary_floor.lat)) < 1e-9

    def test_self_row_matches_own_boundary(self):
        scene = generate_scene(square_room(4.0), 5, 256, seed=0)
        for f in scene.frames:
            stack = build_stack(scene, f.view_id, BoundaryKind.FLOOR)
            i = stack.view_ids.index(f.view_id)
            row_valid = stack.valid[:, i]
            assert row_valid.all()
            assert np.max(np.abs(stack.lat[row_valid, i]
                                 - f.boundary_floor.lat[row_valid])) < 1e-9

    def test_square_room_spread_is_resampling_limited(self):
        # Piecewise-linear resampling cuts the room corners, so the exact
        # cross-view agreement is bounded by the interpolation error, about
        # 2.6e-2 rad at W=256 for wall-adjacent cameras (measured; the
        # corner sagitta argument gives the same magnitude). Float-exact
        # agreement on constant-latitude scenes is covered below.
        worst = 0.0
        for seed in range(3):
            scene = generate_scene(square_room(4.0), 5, 256, seed=seed)
            for f in scene.frames:
                stack = build_stack(scene, f.view_id, BoundaryKind.FLOOR)
                lat = np.where(stack.valid, stack.lat, np.nan)
                worst = max(worst, float(np.nanmax(np.nanmax(lat, axis=1)
                                                   - np.nanmin(lat, axis=1))))
        assert worst < 0.05

    def test_coaxial_scene_is_float_exact(self):
        scene = coaxial_cylinder_scene(W=256)
        for f in scene.frames:
            for kind in (BoundaryKind.FLOOR, BoundaryKind.CEILING):
                stack = build_stack(scene, f.view_id, kind)
                assert stack.valid.all()
                lat = stack.lat
                assert np.max(lat.max(axis=1) - lat.min(axis=1)) < 1e-12

    def test_perturbing_one_view_changes_one_row(self):
        scene = generate_scene(square_room(4.0), 5, 128, seed=11)
        target = scene.view_ids[0]
        moved = scene.view_ids[2]
        base = build_stack(scene, target, BoundaryKind.FLOOR)
        b = scene.frame(moved).boundary_floor
        bumped = SphericalBoundary(b.lat - 0.1, BoundaryKind.FLOOR)
        scene2 = scene.with_boundaries({moved: {BoundaryKind.FLOOR: bumped}})
        other = build_stack(scene2, target, BoundaryKind.FLOOR)
        j = base.view_ids.index(moved)
        for i in range(base.n_views):
            same_lat = np.array_equal(base.lat[:, i], other.lat[:, i],
                                      equal_nan=True)
            if i == j:
                assert not same_lat
            else:
                assert same_lat
                assert np.array_equal(base.valid[:, i], other.valid[:, i])

    def test_global_rigid_invariance(self, rng):
        scene = generate_scene(square_room(4.0), 4, 128, seed=5)
        g_R = rotation_about_y(1.1)
        g_t = np.array([2.0, 0.0, -1.5])
        frames = []
        for f in scene.frames:
            pose = CameraPose(g_R @ f.pose.rotation,
                              g_R @ f.pose.translation + g_t,
                              f.pose.floor_height, f.pose.ceil_height)
            frames.append(ViewFrame(f.view_id, pose, f.boundary_floor,
                                    f.boundary_ceiling))
        moved = Scene(frames, scene.image_width, scene.image_height)
        for vid in scene.view_ids:
            s1 = build_stack(scene, vid, BoundaryKind.FLOOR)
            s2 = build_stack(moved, vid, BoundaryKind.FLOOR)
            both = s1.valid & s2.valid
            assert np.max(np.abs(s1.lat[both] - s2.lat[both])) < 1e-9

    def test_horizon_masked_entries_are_nan(self):
        # View b sits 2 m below view a's floor plane, so a's floor boundary
        # lies above b's horizon: every column crosses gap-valid, and every
        # entry is masked by the horizon.
        W = 64
        lat = np.full(W, -0.6)
        scene = Scene([ViewFrame("a", upright(0.0, (0.0, 0.0, 0.0)),
                                 SphericalBoundary(lat, BoundaryKind.FLOOR)),
                       ViewFrame("b", upright(0.3, (0.5, 3.6, 0.2)),
                                 SphericalBoundary(lat, BoundaryKind.FLOOR))],
                      W, W // 2)
        stack = build_stack(scene, "b", BoundaryKind.FLOOR)
        assert stack.valid[:, 1].all() and not stack.valid[:, 0].any()
        assert np.isnan(stack.lat[:, 0]).all()

    def test_validity_is_the_nan_in_lat(self):
        # A stack stores no validity of its own: valid is lat's non-NaN mask.
        assert [f.name for f in dataclasses.fields(reprojection.BoundaryStack)] \
            == ["target_view", "lat", "kind", "view_ids"]
        scene = _grouped_case(6, 128, None)[0]
        for kind in (BoundaryKind.FLOOR, BoundaryKind.CEILING):
            stacks = list(build_stacks(scene, scene.world_polylines((kind,))))
            assert len(stacks) == 6
            assert any(not s.valid.all() for s in stacks)
            for s in stacks:
                assert s.valid.dtype == bool and s.valid.shape == s.lat.shape
                assert np.array_equal(s.valid, ~np.isnan(s.lat))

    def test_insufficient_coverage_names_columns(self):
        # A lone distant source view only covers a narrow longitude range of
        # the target panorama.
        W = 64
        near = upright(0.0, (0.0, 0.0, 0.0))
        far = upright(0.0, (12.0, 0.0, 0.0))
        b_near = SphericalBoundary(np.full(W, -0.6), BoundaryKind.FLOOR)
        b_far = SphericalBoundary(np.full(W, -0.6), BoundaryKind.FLOOR)
        scene = Scene([ViewFrame("a", near, b_near), ViewFrame("b", far, b_far)],
                      W, W // 2)
        with pytest.raises(CoverageError) as exc:
            build_stack(scene, "a", BoundaryKind.FLOOR, view_ids=["b"])
        assert "columns" in str(exc.value)


class TestBuildStacks:
    def test_matches_reference_stacks(self):
        scene = perturb(generate_scene(lshape_room(4.0), 16, 1024, seed=0),
                        NoiseSpec(boundary_std=0.05, outlier_rate=0.02, seed=101))
        for kind in (BoundaryKind.FLOOR, BoundaryKind.CEILING):
            polys = scene.world_polylines((kind,))
            with logged_contested() as logged:
                stacks = list(build_stacks(scene, polys))
            expected_logs = []
            for f, stack in zip(scene.frames, stacks):
                lat = np.empty((1024, len(polys)))
                valid = np.empty((1024, len(polys)), dtype=bool)
                contested = 0
                for i, poly in enumerate(polys):
                    samples = reference_world_to_boundary_samples(poly, f.pose)
                    lat[:, i], valid[:, i], _ = \
                        reference_resample_to_columns(samples, 1024)
                    contested += reference_gap_valid_crossings(samples, 1024) \
                        - int(valid[:, i].sum())
                sign = -1.0 if kind == BoundaryKind.FLOOR else 1.0
                in_range = (sign * lat > 0.0) & (sign * lat < math.pi / 2)
                valid &= np.where(np.isnan(lat), False, in_range)
                assert np.array_equal(stack.valid, valid)
                assert np.array_equal(stack.lat[valid], lat[valid])
                assert np.isnan(stack.lat[~valid]).all()
                if contested:
                    expected_logs.append(contested)
            assert logged == expected_logs and logged

    def test_kernel_calls_group_targets(self, monkeypatch):
        original = reprojection._resample_batch
        sizes = []

        def counting(samples, W, gap_max):
            sizes.append(samples.shape[:2])
            return original(samples, W, gap_max)

        monkeypatch.setattr(reprojection, "_resample_batch", counting)
        limit = reprojection._CALL_SAMPLES

        def calls(n, W):
            sizes.clear()
            scene = generate_scene(square_room(4.0), n, W, seed=1)
            list(build_stacks(scene, scene.world_polylines((BoundaryKind.FLOOR,))))
            return list(sizes)

        # 9 views x 64 columns: all 9 targets x 9 sources fit in one call.
        assert calls(9, 64) == [(81, 64)]
        # 16 x 1024 samples are exactly the limit: one call per target.
        assert 16 * 1024 == limit
        assert calls(16, 1024) == [(16, 1024)] * 16
        # 8 curves of 2048 columns a call, spanning target boundaries: the 25
        # curves of 5 targets x 5 sources take calls of 8, 8, 8 and 1.
        assert calls(5, 2048) == [(8, 2048)] * 3 + [(1, 2048)]
        assert all(m * W <= limit for m, W in sizes)

    @settings(max_examples=40, deadline=None)
    @given(noisy_scenes_and_orders())
    def test_source_order_permutes_columns(self, case):
        # A source's curve shares its transform and kernel call with other
        # sources in either order, so this checks that its column does not
        # depend on its neighbours.
        scene, kind, order = case
        ids = [scene.view_ids[j] for j in order]
        full = build_stacks(scene, scene.world_polylines((kind,)))
        part = build_stacks(scene, scene.world_polylines((kind,), ids))
        for s, p in zip(full, part):
            assert p.target_view == s.target_view and p.view_ids == ids
            assert np.array_equal(p.lat, s.lat[:, order], equal_nan=True)
            assert np.array_equal(p.valid, s.valid[:, order])

    def test_matches_per_target_build_stack(self):
        # Half-view subsets of a noisy L-room leave some targets with
        # uncovered columns; those raise CoverageError on both paths, and
        # build_stacks must equal build_stack on every other target.
        for seed in range(3):
            clean = generate_scene(lshape_room(4.0), 8, 128, seed=seed)
            noisy = perturb(clean, NoiseSpec(boundary_std=0.03, seed=seed + 1))
            ids = select_views(noisy.view_ids, 0.5)
            for kind in (BoundaryKind.FLOOR, BoundaryKind.CEILING):
                refs = {}
                for t in noisy.view_ids:
                    try:
                        refs[t] = build_stack(noisy, t, kind, ids)
                    except CoverageError:
                        pass
                polys = noisy.world_polylines((kind,), ids)
                if len(refs) == len(noisy.view_ids):
                    stacks = list(build_stacks(noisy, polys))
                else:
                    with pytest.raises(CoverageError):
                        list(build_stacks(noisy, polys))
                    stacks = list(build_stacks(noisy, polys, list(refs)))
                assert [s.target_view for s in stacks] == list(refs)
                for s in stacks:
                    ref = refs[s.target_view]
                    assert np.array_equal(s.lat, ref.lat, equal_nan=True)
                    assert np.array_equal(s.valid, ref.valid)
                    assert s.view_ids == ref.view_ids == ids

    @settings(max_examples=30, deadline=None)
    @given(grouped_stack_cases())
    @example(_grouped_case(9, 2048, None))           # targets split across calls
    @example(_grouped_case(6, 128, None))            # one call for all targets
    @example(_grouped_case(7, 512, [6, 0, 3, 4, 2]))  # a short last call
    def test_packed_calls_equal_grouped_and_chunked_calls(self, case):
        # Budgets below one curve and of exactly one (one curve a call either
        # way), of 2.5 curves (two whole curves a call), of all but one source
        # of a target, and the default.
        scene, kind, targets = case
        polys = scene.world_polylines((kind,))
        n, W = len(polys), scene.image_width

        def stacks(build):
            with logged_contested() as log:
                try:
                    return list(build(scene, polys, targets)), log
                except CoverageError as e:   # the same first uncovered target
                    return str(e), log

        ref, ref_log = stacks(reference_build_stacks)
        for budget in (1, W, 2 * W + W // 2, (n - 1) * W,
                       reprojection._CALL_SAMPLES):
            with mock.patch.object(reprojection, "_CALL_SAMPLES", budget):
                packed, log = stacks(build_stacks)
            if isinstance(ref, str):
                assert packed == ref
                continue
            assert sum(log) == sum(ref_log)
            assert len(packed) == len(ref)
            for g, s in zip(packed, ref):
                assert g.target_view == s.target_view and g.view_ids == s.view_ids
                assert g.lat.flags.c_contiguous and g.valid.flags.c_contiguous
                assert np.array_equal(g.lat, s.lat, equal_nan=True)
                assert np.array_equal(g.valid, s.valid)

    def test_large_target_peak_bounded(self):
        # One floor target of a noisy L-room with 128 sources x 2048 columns
        # (2^18 samples) took 28.0 MB traced when all its sources went through
        # one world-to-sphere transform; the lifts are made before tracing.
        scene = perturb(generate_scene(lshape_room(4.0), 128, 2048, seed=0),
                        NoiseSpec(boundary_std=0.05, outlier_rate=0.02, seed=1))
        polys = scene.world_polylines((BoundaryKind.FLOOR,))
        tracemalloc.start()
        try:
            stack = next(build_stacks(scene, polys, [scene.view_ids[0]]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stack.lat.shape == (2048, 128)
        assert peak < 16 * 2 ** 20

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="counts glibc's page faults")
    def test_library_calls_reuse_the_heap(self):
        # A fresh process that never imports the CLI. When glibc unmaps or
        # trims each kernel call's few MB of temporaries, every call faults
        # them back in: about 5,900 minor faults a call on this scene.
        code = textwrap.dedent("""
            import resource, statistics, sys
            from panolayout.geometry import BoundaryKind
            from panolayout.reprojection import build_stacks
            from panolayout.synth import NoiseSpec, generate_scene, lshape_room, perturb
            assert "panolayout.cli" not in sys.modules
            scene = perturb(generate_scene(lshape_room(4.0), 16, 1024, seed=7),
                            NoiseSpec(boundary_std=0.05, seed=7))
            polys = scene.world_polylines((BoundaryKind.FLOOR,))
            faults = []
            for _ in range(7):   # two warm-up calls, then five counted
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                for _ in build_stacks(scene, polys):
                    pass
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            print(statistics.median(faults[2:]))
        """)
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=child_env())
        assert res.returncode == 0, res.stderr
        assert float(res.stdout) <= 300

    def test_pseudo_label_lifts_each_contributor_once(self, tmp_path,
                                                      monkeypatch):
        # Count world lifts at every module binding of boundary_to_world, so
        # the count holds whichever module does the lifting.
        import sys

        from panolayout import cli, geometry

        n = 5
        path = tmp_path / "scene.json"
        save_scene(generate_scene(lshape_room(4.0), n, 64, seed=2), path)
        original = geometry.boundary_to_world
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2] if len(args) > 2 else kwargs.get("source_view"))
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("panolayout") and \
                    getattr(mod, "boundary_to_world", None) is original:
                monkeypatch.setattr(mod, "boundary_to_world", counting)
        for kind in ("floor", "ceiling"):
            calls.clear()
            rc = cli.main(["pseudo-label", "--scene", str(path), "--kind", kind,
                           "--out", str(tmp_path / f"labeled_{kind}.json")])
            assert rc == 0
            assert sorted(calls) == sorted(f"view{i:03d}" for i in range(n))
