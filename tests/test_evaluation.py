import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from panolayout import evaluation, selftrain
from panolayout.errors import MetricError
from panolayout.evaluation import depth_metrics, evaluate_scene, floor_polygon, \
    footprint_ious, iou2d, iou3d, layout_depth
from panolayout.geometry import BoundaryKind, CameraPose, SphericalBoundary, \
    column_longitudes, row_to_latitude
from panolayout.synth import generate_scene, ray_distances, square_room

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


@st.composite
def raster_cases(draw):
    """(poly, bounds, raster) with x spilling past both sides of the bounds."""
    raster = draw(st.integers(64, 300))
    n = draw(st.integers(3, 64))
    xs = draw(st.lists(_coord, min_size=n, max_size=n))
    ys = draw(st.lists(_coord, min_size=n, max_size=n))
    modes = draw(st.lists(st.sampled_from((_FREE, _ON_ROW, _FLAT)),
                          min_size=n, max_size=n))
    rows = draw(st.lists(st.integers(0, raster - 1), min_size=n, max_size=n))
    bounds = (0.0, 1.0, 0.0, 1.0)
    centers = 0.0 + (np.arange(raster) + 0.5) * ((1.0 - 0.0) / raster)
    for i in range(n):
        if modes[i] == _ON_ROW:
            ys[i] = float(centers[rows[i]])
        elif modes[i] == _FLAT and i > 0:
            ys[i] = ys[i - 1]
    return np.column_stack([xs, ys]), bounds, raster


# Self-intersecting bow tie with a horizontal edge, vertices on cell-center
# rows and x reaching past both sides of the bounds.
_BOWTIE = (np.array([[-0.3, (10 + 0.5) / 64], [1.4, (10 + 0.5) / 64],
                     [-0.2, 0.9], [1.2, 0.9]]), (0.0, 1.0, 0.0, 1.0), 64)


class TestEvenOddRaster:
    @settings(max_examples=300, deadline=None)
    @given(raster_cases())
    @example(_BOWTIE)
    def test_matches_per_edge_reference(self, case):
        poly, bounds, raster = case
        assert np.array_equal(evaluation._even_odd_mask(poly, bounds, raster),
                              per_edge_even_odd_mask(poly, bounds, raster))

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
        poly = floor_polygon(scene.frames[0].boundary_floor, scene.frames[0].pose)
        bounds = evaluation._union_bounds(poly, poly)
        for raster in (64, 512, 1024):
            assert np.array_equal(evaluation._even_odd_mask(poly, bounds, raster),
                                  per_edge_even_odd_mask(poly, bounds, raster))


class TestFootprintIous:
    @settings(max_examples=50, deadline=None)
    @given(raster_cases(), raster_cases(),
           st.tuples(*[st.floats(0.5, 3.0)] * 4))
    def test_matches_reference_counts_and_wrappers(self, a, b, h):
        pred, gt, raster = a[0], b[0], a[2]
        hp, hg = (h[0], h[1]), (h[2], h[3])
        try:
            bounds = evaluation._union_bounds(pred, gt)
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


class TestOneRasterPassPerPair:
    @pytest.fixture
    def raster_calls(self, monkeypatch):
        calls = []
        real = evaluation._even_odd_mask

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(evaluation, "_even_odd_mask", counting)
        return calls

    def test_evaluate_view(self, raster_calls):
        scene = generate_scene(square_room(4.0), 3, 64, seed=5)
        evaluate_scene(scene, raster=128)
        assert len(raster_calls) == 2 * 3

    def test_trajectory_mean_iou(self, raster_calls):
        scene = generate_scene(square_room(4.0), 3, 64, seed=5)
        iou_2d, iou_3d = selftrain._mean_iou(scene)
        assert iou_2d == 1.0 and iou_3d == 1.0
        assert len(raster_calls) == 2 * 3
