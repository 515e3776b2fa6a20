import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from panolayout import evaluation
from panolayout.errors import GeometryError, MetricError
from panolayout.evaluation import _view_depth_metrics, depth_metrics, \
    evaluate_scene, floor_polygon, footprint_ious, footprint_truth, frame_ious, \
    iou2d, iou3d, layout_depth
from panolayout.geometry import BoundaryKind, CameraPose, SphericalBoundary, \
    column_longitudes, latitude_to_row, row_to_latitude
from panolayout.synth import NoiseSpec, generate_scene, lshape_room, ngon_room, \
    perturb, ray_distances, square_room

from conftest import dist_to_polygon_boundary

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def circle_boundaries(r=2.0, hf=1.6, hc=0.9, W=64):
    bf = SphericalBoundary(np.full(W, -math.atan2(hf, r)), BoundaryKind.FLOOR)
    bc = SphericalBoundary(np.full(W, math.atan2(hc, r)), BoundaryKind.CEILING)
    return bf, bc


class TestFloorPolygon:
    def test_circle(self):
        bf, _ = circle_boundaries()
        poly = floor_polygon(bf, CameraPose(np.eye(3), np.zeros(3), 1.6))
        assert np.allclose(np.linalg.norm(poly, axis=1), 2.0, atol=1e-12)

    def test_square_vertices_on_walls(self):
        room = square_room(4.0)
        W = 128
        d = ray_distances(room.footprint, (0.2, -0.1), column_longitudes(W))
        bf = SphericalBoundary(-np.arctan(1.6 / d), BoundaryKind.FLOOR)
        pose = CameraPose(np.eye(3), np.array([0.2, 0.0, -0.1]), 1.6)
        poly = floor_polygon(bf, pose)
        assert dist_to_polygon_boundary(poly, room.footprint).max() < 1e-9

    def test_translation_equivariance(self):
        bf, _ = circle_boundaries()
        p0 = floor_polygon(bf, CameraPose(np.eye(3), np.zeros(3), 1.6))
        p1 = floor_polygon(bf, CameraPose(np.eye(3), np.array([2.0, 0.0, -1.0]),
                                          1.6))
        assert np.allclose(p1 - p0, [2.0, -1.0], atol=1e-12)

    def test_rejects_ceiling(self):
        _, bc = circle_boundaries()
        with pytest.raises(ValueError):
            floor_polygon(bc, CameraPose(np.eye(3), np.zeros(3), 1.6))


class TestIou2d:
    def test_identical_is_one(self):
        assert iou2d(UNIT_SQUARE, UNIT_SQUARE) == 1.0

    def test_disjoint_is_zero(self):
        assert iou2d(UNIT_SQUARE, UNIT_SQUARE + [2.5, 0.0]) == 0.0

    def test_half_shifted_square(self):
        val = iou2d(UNIT_SQUARE, UNIT_SQUARE + [0.5, 0.0])
        assert val == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_symmetric(self, rng):
        a = UNIT_SQUARE * rng.uniform(0.5, 2.0)
        b = UNIT_SQUARE + rng.uniform(-0.5, 0.5, 2)
        assert iou2d(a, b) == pytest.approx(iou2d(b, a), abs=1e-12)

    def test_rigid_invariance(self, rng):
        a = UNIT_SQUARE
        b = UNIT_SQUARE + [0.3, 0.2]
        base = iou2d(a, b)
        for _ in range(5):
            ang = rng.uniform(-math.pi, math.pi)
            R = np.array([[math.cos(ang), -math.sin(ang)],
                          [math.sin(ang), math.cos(ang)]])
            t = rng.uniform(-3, 3, 2)
            assert iou2d(a @ R.T + t, b @ R.T + t) == pytest.approx(base, abs=0.01)

    def test_degenerate_union_rejected(self):
        line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(MetricError):
            iou2d(line, line)

    def test_raster_floor(self):
        with pytest.raises(ValueError):
            iou2d(UNIT_SQUARE, UNIT_SQUARE, raster=32)


class TestIou3d:
    def test_identical_prisms(self):
        assert iou3d(UNIT_SQUARE, (1.6, 0.9), UNIT_SQUARE, (1.6, 0.9)) == 1.0

    def test_nested_heights_volume_ratio(self):
        val = iou3d(UNIT_SQUARE, (1.0, 1.0), UNIT_SQUARE, (0.5, 0.5))
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_equal_heights_reduces_to_iou2d(self):
        shifted = UNIT_SQUARE + [0.5, 0.0]
        v3 = iou3d(UNIT_SQUARE, (1.6, 0.9), shifted, (1.6, 0.9))
        v2 = iou2d(UNIT_SQUARE, shifted)
        assert v3 == pytest.approx(v2, abs=1e-12)


class TestLayoutDepth:
    def test_circular_room_wall_rows(self):
        bf, bc = circle_boundaries(r=2.0, hf=1.6, hc=0.9, W=64)
        depth = layout_depth(bf, bc, H=32)
        lat_rows = row_to_latitude(np.arange(32), 32)
        wall = (lat_rows < bc.lat[0]) & (lat_rows > bf.lat[0])
        assert np.allclose(depth[wall], 2.0, atol=1e-12)
        floor_rows = lat_rows <= bf.lat[0]
        expected = 1.6 / np.tan(-lat_rows[floor_rows])
        assert np.allclose(depth[floor_rows], expected[:, None], atol=1e-12)

    def test_identity_metrics(self):
        bf, bc = circle_boundaries()
        depth = layout_depth(bf, bc)
        rmse, delta1 = depth_metrics(depth, depth)
        assert rmse == 0.0
        assert delta1 == 1.0

    def test_uniform_scale_break(self):
        bf, bc = circle_boundaries()
        depth = layout_depth(bf, bc)
        rmse, delta1 = depth_metrics(1.3 * depth, depth)
        assert delta1 == 0.0
        assert rmse == pytest.approx(0.3 * np.sqrt(np.mean(depth ** 2)), rel=1e-9)

    def test_delta1_monotone_in_scale(self):
        bf, bc = circle_boundaries()
        depth = layout_depth(bf, bc)
        vals = [depth_metrics(s * depth, depth)[1]
                for s in (1.0, 1.1, 1.2, 1.3, 1.5)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[0] == 1.0

    def test_rmse_triangle_inequality(self, rng):
        a, b, c = (rng.uniform(0.5, 5.0, (16, 32)) for _ in range(3))
        ab = depth_metrics(a, b)[0]
        bc = depth_metrics(b, c)[0]
        ac = depth_metrics(a, c)[0]
        assert ac <= ab + bc + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            depth_metrics(np.ones((4, 8)), np.ones((4, 9)))


def reference_layout_depth(b_floor, b_ceil, H=None, camera_height=1.6):
    """Reference depth map: the former full-map nested np.where."""
    W = b_floor.width
    if H is None:
        H = W // 2
    h_c = evaluation.ceiling_height(b_floor, b_ceil, camera_height)
    lat_rows = row_to_latitude(np.arange(H), H)[:, None]
    lat_f = b_floor.lat[None, :]
    lat_c = b_ceil.lat[None, :]
    with np.errstate(divide="ignore", over="ignore"):
        d_wall = camera_height / np.tan(-lat_f)
        depth = np.where(
            lat_rows <= lat_f, camera_height / np.tan(-lat_rows),
            np.where(lat_rows >= lat_c, h_c / np.tan(lat_rows),
                     np.broadcast_to(d_wall, (H, W))))
    bad = ~np.isfinite(depth)
    if np.any(bad):
        raise GeometryError(f"{int(bad.sum())} nonfinite depth pixels")
    return depth


def reference_depth_metrics(pred, gt, threshold=1.25):
    """Reference metrics: the former two-division formulas."""
    rmse = float(np.sqrt(np.mean((pred - gt) ** 2)))
    ratio = np.maximum(pred / gt, gt / pred)
    return rmse, float(np.mean(ratio < threshold))


class TestDepthAgainstReference:
    @pytest.mark.parametrize("room", ["square", "lshape", "ngon"])
    def test_noisy_scenes_bit_equal(self, room):
        from panolayout.synth import NoiseSpec, lshape_room, ngon_room, perturb
        shape = {"square": square_room(4.0), "lshape": lshape_room(),
                 "ngon": ngon_room(7, 2.5)}[room]
        scene = perturb(generate_scene(shape, 3, 256, seed=7),
                        NoiseSpec(boundary_std=0.05, outlier_rate=0.02, seed=3))
        for f in scene.frames:
            gt = scene.ground_truth[f.view_id]
            for H in (None, 128, 77, 1):
                p = layout_depth(f.boundary_floor, f.boundary_ceiling, H)
                g = layout_depth(gt[BoundaryKind.FLOOR], gt[BoundaryKind.CEILING], H)
                assert np.array_equal(p, reference_layout_depth(
                    f.boundary_floor, f.boundary_ceiling, H))
                assert np.array_equal(g, reference_layout_depth(
                    gt[BoundaryKind.FLOOR], gt[BoundaryKind.CEILING], H))
                assert depth_metrics(p, g) == reference_depth_metrics(p, g)
                assert depth_metrics(1.2 * p, g) == reference_depth_metrics(1.2 * p, g)

    def test_boundaries_on_row_centers(self):
        # A boundary latitude equal to a row's latitude puts that row on the
        # floor or ceiling side, as lat_row <= lat_f and lat_row >= lat_c say.
        H, W = 32, 24
        rows = np.arange(W) % 7
        bf = SphericalBoundary(row_to_latitude(H - 1 - rows, H), BoundaryKind.FLOOR)
        bc = SphericalBoundary(row_to_latitude(rows, H), BoundaryKind.CEILING)
        assert np.array_equal(layout_depth(bf, bc, H),
                              reference_layout_depth(bf, bc, H))

    @pytest.mark.parametrize("snap", [0.0, 0.5, 1.0])
    def test_row_limits_match_searchsorted(self, snap):
        # Noisy L-room boundaries, with some or all columns moved exactly
        # onto row centers, where the ceiling and floor sides differ.
        scene = perturb(generate_scene(lshape_room(), 3, 256, seed=7),
                        NoiseSpec(boundary_std=0.05, outlier_rate=0.02, seed=3))
        rng = np.random.default_rng(5)
        for f in scene.frames:
            for H in (1, 2, 7, 77, 128, 256, 1000):
                lat_f, lat_c = (_on_row_centers(b.lat, H, rng.random(b.width) < snap)
                                for b in (f.boundary_floor, f.boundary_ceiling))
                bf = SphericalBoundary(lat_f, BoundaryKind.FLOOR)
                bc = SphericalBoundary(lat_c, BoundaryKind.CEILING)
                rows = evaluation._depth_rows(bf, bc, H, 1.6)
                lat_rows = row_to_latitude(np.arange(H), H)
                assert np.array_equal(rows.kc, np.searchsorted(-lat_rows, -lat_c, "right"))
                assert np.array_equal(rows.kf, np.searchsorted(-lat_rows, -lat_f, "left"))

    def _overflowing_wall(self, monkeypatch, W=16):
        # One floor latitude so close to the horizon that its wall distance
        # overflows; ceiling_height would reject it, so it is pinned.
        monkeypatch.setattr(evaluation, "ceiling_height", lambda *a: 1.0)
        lat_f = np.full(W, -0.5)
        lat_f[3] = -1e-308
        return (SphericalBoundary(lat_f, BoundaryKind.FLOOR),
                SphericalBoundary(np.full(W, 0.4), BoundaryKind.CEILING))

    def test_nonfinite_depth_raises_geometry_error(self, monkeypatch):
        bf, bc = self._overflowing_wall(monkeypatch)
        with pytest.raises(GeometryError) as ref:
            reference_layout_depth(bf, bc, 8, camera_height=2.0)
        with pytest.raises(GeometryError) as got, np.errstate(over="ignore"):
            layout_depth(bf, bc, 8, camera_height=2.0)
        assert str(got.value) == str(ref.value)

    def test_unused_nonfinite_wall_distance_is_ignored(self, monkeypatch):
        # At H=2 the overflowing column has no wall row (rows sit at +-pi/4).
        bf, bc = self._overflowing_wall(monkeypatch)
        bc = SphericalBoundary(np.full(bf.width, 1e-308), BoundaryKind.CEILING)
        with np.errstate(over="ignore"):
            depth = layout_depth(bf, bc, 2, camera_height=2.0)
        assert np.array_equal(depth, reference_layout_depth(bf, bc, 2, 2.0))


_ROOMS = {"square": square_room(4.0), "lshape": lshape_room(),
          "ngon": ngon_room(7, 2.5)}
_VIEWS = {(room, W): generate_scene(shape, 1, W, seed=11).frames[0]
          for room, shape in _ROOMS.items() for W in (64, 256)}


def _on_row_centers(lat, H, snap):
    """lat with the columns in snap moved onto the nearest row center that
    keeps the latitude's sign away from the horizon."""
    centered = row_to_latitude(np.round(latitude_to_row(lat, H)), H)
    ok = snap & (np.sign(centered) == np.sign(lat)) & (np.abs(centered) > 0.01)
    return np.where(ok, centered, lat)


@st.composite
def view_pairs(draw):
    """(pred_floor, pred_ceil, gt_floor, gt_ceil, H) of one view.

    The prediction is the ground truth plus an offset and per-column noise,
    so its ceiling and floor rows lie above the ground truth's in some
    columns and below in others; some columns sit exactly on row centers.
    """
    room = draw(st.sampled_from(sorted(_ROOMS)))
    W = draw(st.sampled_from((64, 256)))
    H = draw(st.sampled_from((1, 7, 77, W // 2)))
    frame = _VIEWS[room, W]
    gt_f, gt_c = frame.boundary_floor.lat, frame.boundary_ceiling.lat
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from((0.0, 0.01, 0.1)))
    snap_p, snap_g = (rng.random((2, 2, W)) < draw(st.sampled_from((0.0, 0.5, 1.0))))
    pred_f = gt_f + draw(st.floats(-0.2, 0.2)) + scale * rng.standard_normal(W)
    pred_c = gt_c + draw(st.floats(-0.2, 0.2)) + scale * rng.standard_normal(W)
    pred_f, pred_c = np.clip(pred_f, -1.5, -0.01), np.clip(pred_c, 0.01, 1.5)
    floor, ceil = BoundaryKind.FLOOR, BoundaryKind.CEILING
    return (SphericalBoundary(_on_row_centers(pred_f, H, snap_p[0]), floor),
            SphericalBoundary(_on_row_centers(pred_c, H, snap_p[1]), ceil),
            SphericalBoundary(_on_row_centers(gt_f, H, snap_g[0]), floor),
            SphericalBoundary(_on_row_centers(gt_c, H, snap_g[1]), ceil), H)


class TestViewDepthMetrics:
    """_view_depth_metrics against depth_metrics of the two maps."""

    @settings(max_examples=200, deadline=None)
    @given(view_pairs())
    def test_matches_depth_maps(self, case):
        pred_f, pred_c, gt_f, gt_c, H = case
        got_rmse, got_delta1 = _view_depth_metrics(pred_f, pred_c, gt_f, gt_c, H)
        rmse, delta1 = depth_metrics(layout_depth(pred_f, pred_c, H),
                                     layout_depth(gt_f, gt_c, H))
        assert got_delta1 == delta1
        assert abs(got_rmse - rmse) <= 1e-12 * rmse

    @pytest.mark.parametrize("room", sorted(_ROOMS))
    def test_noisy_scenes(self, room):
        scene = perturb(generate_scene(_ROOMS[room], 3, 256, seed=7),
                        NoiseSpec(boundary_std=0.05, outlier_rate=0.02, seed=3))
        for f in scene.frames:
            gt = scene.ground_truth[f.view_id]
            for H in (1, 7, 77, 128, 256):
                got_rmse, got_delta1 = _view_depth_metrics(
                    f.boundary_floor, f.boundary_ceiling, gt[BoundaryKind.FLOOR],
                    gt[BoundaryKind.CEILING], H)
                rmse, delta1 = depth_metrics(
                    layout_depth(f.boundary_floor, f.boundary_ceiling, H),
                    layout_depth(gt[BoundaryKind.FLOOR], gt[BoundaryKind.CEILING], H))
                assert got_delta1 == delta1
                assert abs(got_rmse - rmse) <= 1e-12 * rmse

    def test_memory_does_not_grow_with_map_size(self):
        # One (2048, 4096) float64 depth map alone would take 64 MB.
        scene = perturb(generate_scene(_ROOMS["lshape"], 1, 4096, seed=2),
                        NoiseSpec(boundary_std=0.03, seed=1))
        f = scene.frames[0]
        gt = scene.ground_truth[f.view_id]
        args = (f.boundary_floor, f.boundary_ceiling, gt[BoundaryKind.FLOOR],
                gt[BoundaryKind.CEILING], 2048)
        tracemalloc.start()
        try:
            rmse, delta1 = _view_depth_metrics(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert 0.0 < rmse and 0.0 < delta1 < 1.0

    def _overflowing_wall(self, monkeypatch, W=16):
        # A floor latitude whose 1.6 m wall distance overflows;
        # ceiling_height would reject it first, so it is pinned.
        monkeypatch.setattr(evaluation, "ceiling_height", lambda *a: 1.0)
        lat_f = np.full(W, -0.5)
        lat_f[3] = -1e-309
        bf = SphericalBoundary(lat_f, BoundaryKind.FLOOR)
        gf = SphericalBoundary(np.full(W, -0.5), BoundaryKind.FLOOR)
        return bf, gf

    def test_nonfinite_depth_raises_geometry_error(self, monkeypatch):
        bf, gf = self._overflowing_wall(monkeypatch)
        bc = SphericalBoundary(np.full(bf.width, 0.4), BoundaryKind.CEILING)
        with pytest.raises(GeometryError) as ref, np.errstate(over="ignore"):
            reference_layout_depth(bf, bc, 8)
        with pytest.raises(GeometryError) as got, np.errstate(over="ignore"):
            _view_depth_metrics(bf, bc, gf, bc, 8)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("H", [0, -1])
    def test_no_rows_rejected_like_the_maps(self, H):
        f = _VIEWS["square", 64]
        args = (f.boundary_floor, f.boundary_ceiling)
        with pytest.raises(ValueError) as ref:
            depth_metrics(layout_depth(*args, H), layout_depth(*args, H))
        with pytest.raises(ValueError) as got:
            _view_depth_metrics(*args, *args, H)
        assert str(got.value) == str(ref.value)

    def test_unused_nonfinite_wall_distance_is_ignored(self, monkeypatch):
        # At H=2 no column has a wall row (rows sit at +-pi/4).
        bf, gf = self._overflowing_wall(monkeypatch)
        bc = SphericalBoundary(np.full(bf.width, 1e-3), BoundaryKind.CEILING)
        with np.errstate(over="ignore"):
            got = _view_depth_metrics(bf, bc, gf, bc, 2)
            expected = depth_metrics(reference_layout_depth(bf, bc, 2),
                                     reference_layout_depth(gf, bc, 2))
        assert got == expected


class TestEvaluationInputChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_footprint_heights_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="heights"):
            footprint_ious(UNIT_SQUARE, (1.6, bad), UNIT_SQUARE, (1.6, 0.9))
        with pytest.raises(ValueError, match="heights"):
            footprint_ious(UNIT_SQUARE, (1.6, 0.9), UNIT_SQUARE, (bad, 0.9))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -2.0])
    @pytest.mark.parametrize("side", ["pred", "gt", "both"])
    def test_depth_maps_must_be_positive_and_finite(self, bad, side):
        good = np.full((4, 8), 2.0)
        broken = good.copy()
        broken[1, 5] = bad
        pred = broken if side in ("pred", "both") else good
        gt = broken if side in ("gt", "both") else good
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite and positive"):
                depth_metrics(pred, gt)

    def test_empty_depth_maps_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty"):
                depth_metrics(np.ones((0, 8)), np.ones((0, 8)))

    def test_overflowing_squares_keep_infinite_rmse(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rmse, delta1 = depth_metrics(np.full((2, 2), 1e300), np.full((2, 2), 1e-300))
        assert rmse == math.inf and delta1 == 0.0


class TestEvaluateScene:
    def test_identity_scene_is_perfect(self):
        scene = generate_scene(square_room(4.0), 3, 128, seed=21)
        report = evaluate_scene(scene, raster=256)
        assert report.iou2d == 1.0
        assert report.iou3d == 1.0
        assert report.rmse == 0.0
        assert report.delta1 == 1.0
        assert len(report.per_view) == 3

    def test_noise_lowers_iou(self):
        from panolayout.synth import NoiseSpec, perturb
        clean = generate_scene(square_room(4.0), 3, 128, seed=22)
        noisy = perturb(clean, NoiseSpec(boundary_std=0.08, seed=5))
        report = evaluate_scene(noisy, raster=256)
        assert report.iou2d < 1.0
        assert report.rmse > 0.0

    def test_requires_ground_truth(self):
        scene = generate_scene(square_room(4.0), 2, 64, seed=1)
        scene.ground_truth = None
        with pytest.raises(ValueError):
            evaluate_scene(scene)


def per_edge_even_odd_mask(poly, bounds, raster):
    """Reference raster: the former one-edge-at-a-time even-odd fill."""
    xmin, xmax, ymin, ymax = bounds
    cw = (xmax - xmin) / raster
    ch = (ymax - ymin) / raster
    ys = ymin + (np.arange(raster) + 0.5) * ch
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    mask = np.zeros((raster, raster), dtype=np.int64)
    for e in range(poly.shape[0]):
        ya, yb = y1[e], y2[e]
        if ya == yb:
            continue
        lo, hi = (ya, yb) if ya < yb else (yb, ya)
        rows = np.nonzero((ys >= lo) & (ys < hi))[0]
        if rows.size == 0:
            continue
        xc = x1[e] + (ys[rows] - ya) * (x2[e] - x1[e]) / (yb - ya)
        cmin = np.floor((xc - xmin) / cw - 0.5).astype(np.int64) + 1
        ok = cmin < raster
        rows, cmin = rows[ok], np.clip(cmin[ok], 0, raster - 1)
        np.add.at(mask, (rows, cmin), 1)
    return (np.cumsum(mask, axis=1) % 2).astype(bool)


# Vertex modes: free, y snapped onto a cell-center row, y copied from the
# previous vertex (a horizontal edge).
_FREE, _ON_ROW, _FLAT = range(3)
_coord = st.floats(-0.5, 1.5, allow_nan=False)


def _draw_polygon(draw, raster):
    n = draw(st.integers(3, 64))
    xs = draw(st.lists(_coord, min_size=n, max_size=n))
    ys = draw(st.lists(_coord, min_size=n, max_size=n))
    modes = draw(st.lists(st.sampled_from((_FREE, _ON_ROW, _FLAT)),
                          min_size=n, max_size=n))
    rows = draw(st.lists(st.integers(0, raster - 1), min_size=n, max_size=n))
    centers = 0.0 + (np.arange(raster) + 0.5) * ((1.0 - 0.0) / raster)
    for i in range(n):
        if modes[i] == _ON_ROW:
            ys[i] = float(centers[rows[i]])
        elif modes[i] == _FLAT and i > 0:
            ys[i] = ys[i - 1]
    return np.column_stack([xs, ys])


@st.composite
def raster_cases(draw):
    """(poly, bounds, raster) with x spilling past both sides of the bounds."""
    raster = draw(st.integers(64, 300))
    return _draw_polygon(draw, raster), (0.0, 1.0, 0.0, 1.0), raster


@st.composite
def raster_pairs(draw):
    """(pred, gt, bounds, raster): two raster_cases polygons on one grid."""
    raster = draw(st.integers(64, 300))
    return (_draw_polygon(draw, raster), _draw_polygon(draw, raster),
            (0.0, 1.0, 0.0, 1.0), raster)


# Self-intersecting bow tie with a horizontal edge, vertices on cell-center
# rows and x reaching past both sides of the bounds.
_BOWTIE = (np.array([[-0.3, (10 + 0.5) / 64], [1.4, (10 + 0.5) / 64],
                     [-0.2, 0.9], [1.2, 0.9]]), (0.0, 1.0, 0.0, 1.0), 64)


# A triangle above the bounds: it crosses no cell-center row.
_OFF_GRID = np.array([[0.0, 2.0], [1.0, 2.0], [0.5, 3.0]])


def reference_counts(pred, gt, bounds, raster):
    ma = per_edge_even_odd_mask(pred, bounds, raster)
    mb = per_edge_even_odd_mask(gt, bounds, raster)
    return int(ma.sum()), int(mb.sum()), int((ma & mb).sum())


class TestEvenOddRaster:
    @settings(max_examples=300, deadline=None)
    @given(raster_cases())
    @example(_BOWTIE)
    def test_matches_per_edge_reference(self, case):
        poly, bounds, raster = case
        n = int(per_edge_even_odd_mask(poly, bounds, raster).sum())
        counts = evaluation._footprint_counts
        assert counts(poly, _OFF_GRID, bounds, raster) == (n, 0, 0)
        assert counts(_OFF_GRID, poly, bounds, raster) == (0, n, 0)
        assert counts(poly, poly, bounds, raster) == (n, n, n)

    @settings(max_examples=300, deadline=None)
    @given(raster_pairs())
    @example((_BOWTIE[0], _BOWTIE[0][:, ::-1], *_BOWTIE[1:]))
    @example((_BOWTIE[0], UNIT_SQUARE * 0.5 + 0.25, *_BOWTIE[1:]))
    def test_pair_counts_match_per_edge_reference(self, case):
        pred, gt, bounds, raster = case
        assert evaluation._footprint_counts(pred, gt, bounds, raster) == \
            reference_counts(pred, gt, bounds, raster)

    def test_bowtie_case_has_every_feature(self):
        poly, (xmin, xmax, _, _), raster = _BOWTIE
        ys = (np.arange(raster) + 0.5) / raster
        assert np.isin(poly[:, 1], ys).any()
        assert (poly[:, 1] == np.roll(poly[:, 1], -1)).any()
        assert poly[:, 0].min() < xmin and poly[:, 0].max() > xmax
        assert iou2d(poly, poly, raster) == 1.0

    def test_l_room_footprint(self):
        from panolayout.synth import NoiseSpec, lshape_room, perturb
        scene = perturb(generate_scene(lshape_room(), 2, 1024, seed=4),
                        NoiseSpec(boundary_std=0.05, seed=9))
        f = scene.frames[0]
        poly = floor_polygon(f.boundary_floor, f.pose)
        gt = floor_polygon(scene.ground_truth[f.view_id][BoundaryKind.FLOOR], f.pose)
        bounds = evaluation._union_bounds(poly, gt, 1024)
        for raster in (64, 512, 1024):
            assert evaluation._footprint_counts(poly, gt, bounds, raster) == \
                reference_counts(poly, gt, bounds, raster)

    def test_memory_does_not_grow_with_raster_squared(self):
        # A raster^2 int64 cell array alone would take 134 MB here.
        tracemalloc.start()
        try:
            assert iou2d(UNIT_SQUARE, UNIT_SQUARE + [0.5, 0.0], 4096) == \
                pytest.approx(1.0 / 3.0, abs=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


def two_pass_crossing_cells(poly, bounds, raster):
    """The former per-polygon crossing pass, kept verbatim as an oracle."""
    xmin, xmax, ymin, ymax = bounds
    cw = (xmax - xmin) / raster
    ch = (ymax - ymin) / raster
    ys = ymin + (np.arange(raster) + 0.5) * ch
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    start = np.searchsorted(ys, np.minimum(y1, y2), side="left")
    count = np.searchsorted(ys, np.maximum(y1, y2), side="left") - start
    edge = np.repeat(np.arange(poly.shape[0]), count)
    rows = np.arange(edge.size) + np.repeat(start - np.cumsum(count) + count, count)
    xc = x1[edge] + (ys[rows] - y1[edge]) * (x2 - x1)[edge] / (y2 - y1)[edge]
    cmin = np.floor((xc - xmin) / cw - 0.5).astype(np.int64) + 1
    ok = cmin < raster
    return rows[ok], np.clip(cmin[ok], 0, raster - 1)


def two_pass_footprint_counts(pred, gt, bounds, raster):
    """The former _footprint_counts: one crossing pass per polygon."""
    keys = []
    for tag, poly in enumerate((pred, gt)):
        rows, cmin = two_pass_crossing_cells(poly, bounds, raster)
        odd = np.flatnonzero(np.bincount(rows, minlength=raster) & 1)
        keys += [(rows * raster + cmin) << 1 | tag,
                 (odd * raster + raster) << 1 | tag]
    tagged = np.sort(np.concatenate(keys))
    is_gt = tagged & 1
    in_gt = np.cumsum(is_gt)[:-1] & 1
    in_pred = np.cumsum(is_gt ^ 1)[:-1] & 1
    run = np.diff(tagged >> 1)
    return int(run @ in_pred), int(run @ in_gt), int(run @ (in_pred & in_gt))


@st.composite
def touching_pairs(draw):
    """(pred, gt, bounds, raster): raster_pairs polygons made self-touching
    by repeating earlier vertices later in the ring."""
    pred, gt, bounds, raster = draw(raster_pairs())
    out = []
    for poly in (pred, gt):
        poly = list(poly)
        for _ in range(draw(st.integers(0, 4))):
            src = draw(st.integers(0, len(poly) - 1))
            dst = draw(st.integers(src + 2, len(poly) + 1))
            poly.insert(dst, poly[src])
        out.append(np.array(poly))
    return out[0], out[1], bounds, raster


class TestOnePassCrossings:
    @settings(max_examples=300, deadline=None)
    @given(touching_pairs())
    @example((_BOWTIE[0], _BOWTIE[0][:, ::-1], *_BOWTIE[1:]))
    @example((_BOWTIE[0], _OFF_GRID, *_BOWTIE[1:]))
    def test_equals_two_pass_counts(self, case):
        pred, gt, bounds, raster = case
        assert evaluation._footprint_counts(pred, gt, bounds, raster) == \
            two_pass_footprint_counts(pred, gt, bounds, raster)

    def test_one_crossing_pass_per_pair(self, monkeypatch):
        calls = []
        real = evaluation._crossing_cells

        def counting(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(evaluation, "_crossing_cells", counting)
        evaluate_scene(generate_scene(square_room(4.0), 3, 64, seed=5), raster=128)
        assert calls == [2, 2, 2]


class TestKeyWidths:
    @pytest.mark.parametrize("raster", [32767, 32768, 65536])
    def test_both_sides_of_the_int32_switch(self, raster):
        # Keys reach 2 raster^2 + 1, which fits int32 below raster 2^15. The
        # polygons span the bounds, so the last row and column hold keys.
        rng = np.random.default_rng(raster)
        angles = np.sort(rng.uniform(0, 2 * np.pi, 48))
        star = np.column_stack([np.cos(angles), np.sin(angles)]) \
            * rng.uniform(0.3, 1.0, (48, 1))
        square = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        for pred, gt in ((star, square), (square, star[::-1]), (star, star * 0.9)):
            bounds = evaluation._union_bounds(pred, gt, raster)
            assert evaluation._footprint_counts(pred, gt, bounds, raster) == \
                two_pass_footprint_counts(pred, gt, bounds, raster)


@st.composite
def grid_queries(draw):
    """(grid, values, guess): an ascending grid made like the cell-center
    rows, values on, between and beyond its points, and guesses of their
    positions from the grid's closed form, some far off or not finite.

    "offset" grids put a tiny step on a huge origin, so rounding repeats
    points and the closed form misses by many points; "repeats" grids
    repeat points outright."""
    n = draw(st.integers(1, 200))
    kind = draw(st.sampled_from(("even", "offset", "repeats")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "offset":
        origin, step = draw(st.sampled_from((1e6, -1e6, 1e15))), 1e-12
    else:
        origin, step = draw(st.floats(-10, 10)), draw(st.floats(1e-3, 10))
    grid = origin + (np.arange(n) + 0.5) * step
    if kind == "repeats":
        grid = np.sort(rng.choice(grid, n))
    m = draw(st.integers(0, 100))
    values = np.where(rng.random(m) < 0.5, rng.choice(grid, m),
                      rng.uniform(grid[0] - 2 * step, grid[-1] + 2 * step, m))
    extremes = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300, grid[0], grid[-1]])
    pick = rng.random(m) < 0.1
    values[pick] = rng.choice(extremes, pick.sum())
    with np.errstate(all="ignore"):
        guess = (values - origin) / step - 0.5
    guess += np.where(rng.random(m) < 0.2, rng.integers(-3, 4, m), 0)
    pick = rng.random(m) < 0.1
    guess[pick] = rng.choice([np.nan, np.inf, -np.inf, 1e300, -1e300], pick.sum())
    return grid, values, guess


class TestGridCount:
    @settings(max_examples=300, deadline=None)
    @given(grid_queries())
    def test_equals_searchsorted(self, case):
        grid, values, guess = case
        for side in ("left", "right"):
            got = evaluation._grid_count(grid, values, guess, side)
            assert np.array_equal(got, np.searchsorted(grid, values, side))

    def test_one_search_at_most(self, monkeypatch):
        # On a 1e-12 step at 1e6 the guesses miss by up to thousands of rows;
        # one np.searchsorted over the missed values places them all.
        calls = []
        real = np.searchsorted
        monkeypatch.setattr(np, "searchsorted",
                            lambda a, v, side: calls.append(len(v)) or real(a, v, side))
        grid = 1e6 + (np.arange(65536) + 0.5) * 1e-12
        values = np.linspace(grid[0], grid[-1], 1000)
        got = evaluation._grid_count(grid, values, (values - 1e6) / 1e-12 - 0.5, "left")
        assert np.array_equal(got, real(grid, values, "left"))
        assert len(calls) == 1 and 0 < calls[0] <= values.size

    def test_noisy_scene_needs_no_search(self, monkeypatch):
        # Off-grid values: every closed-form row is right the first time.
        calls = []
        monkeypatch.setattr(np, "searchsorted", lambda *a, **k: calls.append(1))
        scene = perturb(generate_scene(lshape_room(), 3, 256, seed=7),
                        NoiseSpec(boundary_std=0.05, outlier_rate=0.02, seed=3))
        report = evaluate_scene(scene, raster=1024)
        assert calls == [] and 0.0 < report.iou2d < 1.0


class TestFootprintIous:
    @settings(max_examples=50, deadline=None)
    @given(raster_cases(), raster_cases(),
           st.tuples(*[st.floats(0.5, 3.0)] * 4))
    def test_matches_reference_counts_and_wrappers(self, a, b, h):
        pred, gt, raster = a[0], b[0], a[2]
        hp, hg = (h[0], h[1]), (h[2], h[3])
        try:
            bounds = evaluation._union_bounds(pred, gt, raster)
        except MetricError:
            return
        ma = per_edge_even_odd_mask(pred, bounds, raster)
        mb = per_edge_even_odd_mask(gt, bounds, raster)
        union = int(np.sum(ma | mb))
        if union == 0:
            with pytest.raises(MetricError):
                footprint_ious(pred, hp, gt, hg, raster)
            return
        inter = int(np.sum(ma & mb))
        overlap = inter * (min(hp[0], hg[0]) + min(hp[1], hg[1]))
        vol_union = (int(np.sum(ma)) * sum(hp) + int(np.sum(mb)) * sum(hg)
                     - overlap)
        v2, v3 = footprint_ious(pred, hp, gt, hg, raster)
        assert v2 == float(np.sum(ma & mb) / union)
        assert v3 == float(overlap / vol_union)
        assert v2 == iou2d(pred, gt, raster)
        assert v3 == iou3d(pred, hp, gt, hg, raster)
        assert footprint_ious(pred, None, gt, None, raster) == (v2, None)
        assert footprint_ious(pred, hp, gt, None, raster) == (v2, None)

    def test_checks_and_messages(self):
        with pytest.raises(ValueError, match="raster"):
            footprint_ious(UNIT_SQUARE, None, UNIT_SQUARE, None, 32)
        with pytest.raises(ValueError, match="heights"):
            footprint_ious(UNIT_SQUARE, (1.6, 0.0), UNIT_SQUARE, (1.6, 0.9))
        line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(MetricError, match="degenerate"):
            footprint_ious(line, None, line, None)
        # Extents whose cell width or height underflows to 0 m at this raster.
        tri = np.array([[0.0, 0.0], [1e-320, 0.0], [0.0, 1e-320]])
        with pytest.raises(MetricError, match="degenerate"):
            footprint_ious(tri, None, 0.5 * tri, None, 65536)
        flat = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1e-320]])
        with pytest.raises(MetricError, match="degenerate"):
            footprint_ious(flat, None, flat * [0.5, 1.0], None, 65536)
        assert iou2d(flat * [1.0, 1e300], flat * [0.5, 1e300], 65536) == \
            pytest.approx(0.5, abs=1e-3)


class TestOneRasterPassPerPair:
    @pytest.fixture
    def raster_calls(self, monkeypatch):
        calls = []
        real = evaluation._footprint_counts

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(evaluation, "_footprint_counts", counting)
        return calls

    def test_evaluate_scene(self, raster_calls):
        scene = generate_scene(square_room(4.0), 3, 64, seed=5)
        evaluate_scene(scene, raster=128)
        assert len(raster_calls) == 3

    def test_trajectory_mean_iou(self, raster_calls):
        scene = generate_scene(square_room(4.0), 3, 64, seed=5)
        ious = list(frame_ious(scene, scene.world_polylines(),
                               footprint_truth(scene), 512))
        assert ious == [(1.0, 1.0)] * 3
        assert len(raster_calls) == 3
