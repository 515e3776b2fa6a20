import math

import numpy as np
import pytest

from panolayout.errors import CoverageError
from panolayout.geometry import BoundaryKind, CameraPose, SphericalBoundary, \
    column_longitudes
from panolayout.reprojection import build_stack, build_stacks, \
    reproject_boundary, resample_to_columns
from panolayout.scene import Scene, ViewFrame
from panolayout.sceneio import save_scene
from panolayout.selftrain import select_views
from panolayout.synth import NoiseSpec, generate_scene, lshape_room, perturb, \
    ray_distances, square_room

from conftest import coaxial_cylinder_scene, random_boundary, random_pose, \
    rotation_about_y


def upright(yaw, t, hf=1.6, hc=None):
    return CameraPose(rotation_about_y(yaw), np.asarray(t, float), hf, hc)


class TestReprojectBoundary:
    def test_identity_reprojection(self, rng):
        for _ in range(10):
            b = random_boundary(rng, 64)
            pose = random_pose(rng)
            samples = reproject_boundary(b, pose, pose)
            assert np.max(np.abs(samples[:, 0] - column_longitudes(64))) < 1e-9
            assert np.max(np.abs(samples[:, 1] - b.lat)) < 1e-9

    def test_circular_room_distance_relation(self):
        # Source at the center of an analytic circular room; per re-projected
        # sample, tan(|lat|) must equal h over the dst-to-wall-point distance.
        r, h, W = 2.0, 1.6, 96
        src = upright(0.0, (0.0, 0.0, 0.0), hf=h)
        dst = upright(0.4, (0.5, 0.0, -0.3), hf=h)
        b = SphericalBoundary(np.full(W, -math.atan2(h, r)), BoundaryKind.FLOOR)
        samples = reproject_boundary(b, src, dst)
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
        samples = reproject_boundary(b, src, dst)
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
            lat, valid = resample_to_columns(samples, W, BoundaryKind.FLOOR)
            assert valid.all()
            assert np.array_equal(lat, lat_in)

    def test_two_antipodal_samples(self):
        samples = np.array([[-math.pi / 2, -0.4], [math.pi / 2, -0.2]])
        lat, valid = resample_to_columns(samples, 4, BoundaryKind.FLOOR,
                                         gap_max=np.inf)
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
        lat, valid = resample_to_columns(samples, W, BoundaryKind.FLOOR)
        assert valid.all()
        assert np.max(np.abs(lat - lat_of(column_longitudes(W)))) < 1e-6

    def test_gap_invalidation(self):
        # Samples covering only the front half of the circle: the back half
        # is bridged by one giant segment and must come out invalid.
        lon = np.linspace(-math.pi / 2, math.pi / 2, 9)
        samples = np.stack([lon, np.full(9, -0.5)], axis=1)
        lat, valid = resample_to_columns(samples, 16, BoundaryKind.FLOOR)
        centers = column_longitudes(16)
        front = np.abs(centers) < math.pi / 2
        assert valid[front].all()
        assert not valid[~front].any()
        assert np.allclose(lat[front], -0.5, atol=1e-12)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            resample_to_columns(np.array([[0.0, -0.5]]), 16, BoundaryKind.FLOOR)


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
                if len(refs) == len(noisy.view_ids):
                    stacks = build_stacks(noisy, kind, ids)
                else:
                    with pytest.raises(CoverageError):
                        build_stacks(noisy, kind, ids)
                    stacks = build_stacks(noisy, kind, ids, list(refs))
                assert [s.target_view for s in stacks] == list(refs)
                for s in stacks:
                    ref = refs[s.target_view]
                    assert np.array_equal(s.lat, ref.lat, equal_nan=True)
                    assert np.array_equal(s.valid, ref.valid)
                    assert s.view_ids == ref.view_ids == ids

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
