import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panolayout.errors import GeometryError
from panolayout.geometry import LAT_MIN, BoundaryKind, CameraPose, \
    SphericalBoundary, WorldPolyline, boundary_to_world, ceiling_height, \
    column_longitudes, pixel_to_spherical, world_to_boundary_samples, \
    wrap_longitude
from panolayout.synth import ray_distances, square_room

from conftest import dist_to_polygon_boundary, random_boundary, random_pose, \
    reference_world_to_boundary_samples, rotation_about_y


def identity_pose(h_floor=1.6, h_ceil=None, t=(0.0, 0.0, 0.0)):
    return CameraPose(np.eye(3), np.asarray(t, float), h_floor, h_ceil)


class TestPixelToSpherical:
    def test_convention_corners(self):
        assert pixel_to_spherical(0, 0, 4, 2) == (-3 * math.pi / 4, math.pi / 4)
        assert pixel_to_spherical(2, 1, 4, 2) == (math.pi / 4, -math.pi / 4)
        lon, lat = pixel_to_spherical(511, 255, 512, 256)
        assert lon == pytest.approx(math.pi - math.pi / 512, abs=1e-15)
        assert lat == pytest.approx(-math.pi / 2 + math.pi / 512, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pixel_to_spherical(4, 0, 4, 2)
        with pytest.raises(ValueError):
            pixel_to_spherical(0, -1, 4, 2)

    def test_array_inputs(self):
        lon, lat = pixel_to_spherical(np.arange(4), np.zeros(4, dtype=int), 4, 2)
        assert np.allclose(lon, column_longitudes(4))
        assert np.allclose(lat, math.pi / 4)


class TestBoundaryToWorld:
    def test_circular_room_inverts_exactly(self):
        W = 64
        lat = np.full(W, -math.atan2(1.6, 2.0))
        poly = boundary_to_world(SphericalBoundary(lat, BoundaryKind.FLOOR),
                                 identity_pose())
        radii = np.hypot(poly.points[:, 0], poly.points[:, 2])
        assert np.allclose(radii, 2.0, atol=1e-12)
        assert np.allclose(poly.points[:, 1], 1.6, atol=1e-15)

    def test_square_room_points_on_walls(self):
        # Oracle: analytic ray-segment intersection from the synth module.
        room = square_room(4.0, h_floor=1.0)
        W = 128
        d = ray_distances(room.footprint, (0.0, 0.0), column_longitudes(W))
        b = SphericalBoundary(-np.arctan(1.0 / d), BoundaryKind.FLOOR)
        poly = boundary_to_world(b, identity_pose(h_floor=1.0))
        dist = dist_to_polygon_boundary(poly.points[:, [0, 2]], room.footprint)
        assert dist.max() < 1e-9
        assert np.allclose(poly.points[:, 1], 1.0, atol=1e-12)

    def test_translated_pose_composes_with_oracle(self):
        room = square_room(4.0, h_floor=1.0)
        W = 128
        origin = (1.0, 0.0)
        d = ray_distances(room.footprint, origin, column_longitudes(W))
        b = SphericalBoundary(-np.arctan(1.0 / d), BoundaryKind.FLOOR)
        poly = boundary_to_world(b, identity_pose(h_floor=1.0, t=(1.0, 0.0, 0.0)))
        # Oracle points: origin + d * direction, still on the walls.
        lon = column_longitudes(W)
        expected = np.stack([origin[0] + d * np.sin(lon),
                             np.ones(W),
                             origin[1] + d * np.cos(lon)], axis=1)
        assert np.max(np.abs(poly.points - expected)) < 1e-9
        assert dist_to_polygon_boundary(poly.points[:, [0, 2]],
                                        room.footprint).max() < 1e-9

    def test_ceiling_uses_resolved_height(self):
        W = 32
        lat = np.full(W, math.atan2(0.9, 2.0))
        b = SphericalBoundary(lat, BoundaryKind.CEILING)
        poly = boundary_to_world(b, identity_pose(h_ceil=0.9))
        assert np.allclose(poly.points[:, 1], -0.9, atol=1e-15)
        with pytest.raises(GeometryError):
            boundary_to_world(b, identity_pose())  # ceil height unresolved

    def test_horizon_guard(self):
        lat = np.full(16, -0.3)
        lat[5] = -5e-5
        with pytest.raises(GeometryError):
            boundary_to_world(SphericalBoundary(lat, BoundaryKind.FLOOR),
                              identity_pose())


class TestWorldToBoundary:
    def test_round_trip_identity(self, rng):
        for _ in range(50):
            W = int(rng.integers(8, 160))
            kind = BoundaryKind.FLOOR if rng.random() < 0.5 else BoundaryKind.CEILING
            b = random_boundary(rng, W, kind)
            pose = random_pose(rng)
            samples = world_to_boundary_samples(boundary_to_world(b, pose), pose)
            assert np.max(np.abs(samples[:, 0] - column_longitudes(W))) < 1e-9
            assert np.max(np.abs(samples[:, 1] - b.lat)) < 1e-9

    def test_circular_polyline_constant_lat(self):
        ang = np.linspace(0, 2 * math.pi, 48, endpoint=False)
        pts = np.stack([2.0 * np.sin(ang), np.full(48, 1.6), 2.0 * np.cos(ang)],
                       axis=1)
        poly = WorldPolyline(pts, "", BoundaryKind.FLOOR)
        samples = world_to_boundary_samples(poly, identity_pose())
        assert np.allclose(samples[:, 1], -math.atan2(1.6, 2.0), atol=1e-12)

    def test_matches_per_point_trig_oracle(self, rng):
        # Square-room polyline viewed from a second pose inside the room.
        room = square_room(4.0, h_floor=1.2)
        W = 64
        d = ray_distances(room.footprint, (0.0, 0.0), column_longitudes(W))
        b = SphericalBoundary(-np.arctan(1.2 / d), BoundaryKind.FLOOR)
        poly = boundary_to_world(b, identity_pose(h_floor=1.2))
        pose2 = CameraPose(rotation_about_y(0.7), np.array([0.5, 0.0, -0.3]), 1.2)
        samples = world_to_boundary_samples(poly, pose2)
        for k in range(W):
            q = pose2.rotation.T @ (poly.points[k] - pose2.translation)
            n = math.sqrt(q[0] ** 2 + q[1] ** 2 + q[2] ** 2)
            assert samples[k, 0] == pytest.approx(math.atan2(q[0], q[2]), abs=1e-12)
            assert samples[k, 1] == pytest.approx(math.asin(-q[1] / n), abs=1e-12)

    def test_point_at_camera_center_rejected(self):
        pts = np.zeros((8, 3))
        pts[:, 1] = 1.0
        pts[3] = (0.0, 0.0, 0.0)
        poly = WorldPolyline(pts, "", BoundaryKind.FLOOR)
        with pytest.raises(GeometryError):
            world_to_boundary_samples(poly, identity_pose())


def _tilt(ax: float, az: float) -> np.ndarray:
    """Rotation about X by ax, then about Z by az."""
    cx, sx, cz, sz = math.cos(ax), math.sin(ax), math.cos(az), math.sin(az)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    return rz @ rx


_angle = st.floats(-0.3, 0.3)
_offset = st.floats(-5.0, 5.0)
_height = st.floats(0.3, 4.0)


@st.composite
def posed_boundaries(draw):
    """(boundary, pose): yaw, a small tilt, translation and both heights."""
    W = draw(st.integers(8, 256))
    kind = draw(st.sampled_from(list(BoundaryKind)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mag = rng.uniform(LAT_MIN, 1.5, W)
    R = rotation_about_y(draw(st.floats(-math.pi, math.pi))) @ \
        _tilt(draw(_angle), draw(_angle))
    pose = CameraPose(R, np.array([draw(_offset) for _ in range(3)]),
                      draw(_height), draw(_height))
    lat = -mag if kind == BoundaryKind.FLOOR else mag
    return SphericalBoundary(lat, kind), pose


@settings(max_examples=200, deadline=None)
@given(posed_boundaries())
def test_se3_round_trip_returns_columns_and_latitudes(case):
    b, pose = case
    samples = world_to_boundary_samples(boundary_to_world(b, pose), pose)
    lon_err = wrap_longitude(samples[:, 0] - column_longitudes(b.width))
    assert np.max(np.abs(lon_err)) < 1e-9
    assert np.max(np.abs(samples[:, 1] - b.lat)) < 1e-9


class TestRigidEquivariance:
    def test_world_points_commute_with_rigid_motion(self, rng):
        for _ in range(20):
            b = random_boundary(rng, 32)
            pose = random_pose(rng)
            g_R = rotation_about_y(rng.uniform(-math.pi, math.pi))
            g_t = rng.uniform(-2, 2, 3)
            moved = CameraPose(g_R @ pose.rotation, g_R @ pose.translation + g_t,
                               pose.floor_height, pose.ceil_height)
            lhs = boundary_to_world(b, moved).points
            rhs = boundary_to_world(b, pose).points @ g_R.T + g_t
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_upright_pose_floor_points_share_y(self, rng):
        for _ in range(10):
            b = random_boundary(rng, 24)
            pose = random_pose(rng, upright=True)
            pts = boundary_to_world(b, pose).points
            assert np.ptp(pts[:, 1]) < 1e-9
            assert pts[0, 1] == pytest.approx(
                pose.translation[1] + pose.floor_height, abs=1e-12)


class TestCeilingHeight:
    def test_circular_room_exact(self):
        r, hf, hc = 2.0, 1.6, 0.8
        W = 32
        bf = SphericalBoundary(np.full(W, -math.atan2(hf, r)), BoundaryKind.FLOOR)
        bc = SphericalBoundary(np.full(W, math.atan2(hc, r)), BoundaryKind.CEILING)
        assert ceiling_height(bf, bc, hf) == pytest.approx(hc, abs=1e-12)

    def test_quarter_pi_case(self):
        W = 16
        bf = SphericalBoundary(np.full(W, -math.pi / 4), BoundaryKind.FLOOR)
        bc = SphericalBoundary(np.full(W, math.pi / 4), BoundaryKind.CEILING)
        assert ceiling_height(bf, bc, 1.6) == pytest.approx(1.6, abs=1e-12)

    def test_square_room_recovery(self):
        room = square_room(4.0, h_floor=1.6, h_ceil=1.2)
        W = 96
        d = ray_distances(room.footprint, (0.4, -0.2), column_longitudes(W))
        bf = SphericalBoundary(-np.arctan(1.6 / d), BoundaryKind.FLOOR)
        bc = SphericalBoundary(np.arctan(1.2 / d), BoundaryKind.CEILING)
        assert ceiling_height(bf, bc, 1.6) == pytest.approx(1.2, abs=1e-9)

    def test_column_permutation_invariant(self, rng):
        W = 40
        bf = random_boundary(rng, W, BoundaryKind.FLOOR)
        bc = random_boundary(rng, W, BoundaryKind.CEILING)
        perm = rng.permutation(W)
        h1 = ceiling_height(bf, bc, 1.6)
        h2 = ceiling_height(SphericalBoundary(bf.lat[perm], BoundaryKind.FLOOR),
                            SphericalBoundary(bc.lat[perm], BoundaryKind.CEILING),
                            1.6)
        assert h1 == pytest.approx(h2, rel=1e-12)

    def test_mismatched_pair_rejected(self):
        bf = SphericalBoundary(np.full(16, -0.5), BoundaryKind.FLOOR)
        bc = SphericalBoundary(np.full(8, 0.5), BoundaryKind.CEILING)
        with pytest.raises(ValueError):
            ceiling_height(bf, bc, 1.6)
        with pytest.raises(ValueError):
            ceiling_height(bf, bf, 1.6)


class TestTypeInvariants:
    def test_boundary_validation(self):
        with pytest.raises(ValueError):
            SphericalBoundary(np.full(4, -0.5), BoundaryKind.FLOOR)  # W < 8
        with pytest.raises(ValueError):
            SphericalBoundary(np.zeros(16), BoundaryKind.FLOOR)  # not below horizon
        with pytest.raises(ValueError):
            SphericalBoundary(np.full(16, -0.5), BoundaryKind.CEILING)
        lat = np.full(16, -0.5)
        lat[3] = np.nan
        with pytest.raises(ValueError):
            SphericalBoundary(lat, BoundaryKind.FLOOR)

    def test_pose_validation(self):
        with pytest.raises(ValueError):
            CameraPose(np.eye(3) * 1.001, np.zeros(3))
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            CameraPose(refl, np.zeros(3))
        with pytest.raises(ValueError):
            CameraPose(np.eye(3), np.zeros(3), floor_height=0.0)


@st.composite
def posed_points(draw):
    """(polyline, pose): tilted or axis-aligned poses, translations up to the
    loader's 1e6 m bound, and points from just outside the camera-center
    guard out to 1e6 m, some of them on the camera axes."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        R = rotation_about_y(draw(st.floats(-math.pi, math.pi))) @ \
            _tilt(draw(st.floats(-math.pi, math.pi)),
                  draw(st.floats(-math.pi, math.pi)))
    else:
        R = np.eye(3)
    t = np.array([draw(st.floats(-1e6, 1e6)) for _ in range(3)])
    dirs = rng.normal(size=(n, 3))
    on_axis = rng.random(n) < draw(st.sampled_from((0.0, 0.3)))
    dirs[on_axis] = np.eye(3)[rng.integers(0, 3, on_axis.sum())] \
        * rng.choice((-1.0, 1.0), (on_axis.sum(), 1))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    dist = 10.0 ** rng.uniform(draw(st.sampled_from((-8.5, -3.0, 0.0))), 6.0, n)
    pts = t + (dirs * dist[:, None]) @ R.T
    return WorldPolyline(pts, "", BoundaryKind.FLOOR), CameraPose(R, t)


def _samples_or_error(fn, poly, pose):
    try:
        return fn(poly, pose)
    except GeometryError:
        return None


@settings(max_examples=300, deadline=None)
@given(posed_points())
def test_world_to_boundary_samples_matches_reference_bits(case):
    poly, pose = case
    ref = _samples_or_error(reference_world_to_boundary_samples, poly, pose)
    # The polyline and its bare points array give the same bits or error.
    for arg in (poly, poly.points):
        got = _samples_or_error(world_to_boundary_samples, arg, pose)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert np.array_equal(got, ref, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_world_to_boundary_samples_guard_matches_reference():
    # Points at the camera center and at distances about the 1e-9 guard.
    pose = CameraPose(rotation_about_y(0.4), np.array([3.0, -1.0, 2.0]))
    for d in (0.0, 5e-10, 1e-9, 2e-9):
        pts = pose.translation + np.array([[0.0, 1.0, 0.0], [d, 0.0, 0.0]])
        poly = WorldPolyline(pts, "", BoundaryKind.FLOOR)
        got = _samples_or_error(world_to_boundary_samples, poly, pose)
        ref = _samples_or_error(reference_world_to_boundary_samples, poly, pose)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert np.array_equal(got, ref)
