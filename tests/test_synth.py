import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panolayout import geometry
from panolayout.errors import GeometryError
from panolayout.geometry import BoundaryKind, CameraPose, boundary_to_world, \
    ceiling_height, column_longitudes
from panolayout.pseudolabel import fuse
from panolayout.reprojection import build_stack, build_stacks
from panolayout.scene import Scene, ViewFrame
from panolayout.sceneio import dumps_document, scene_to_document
from panolayout.synth import NoiseSpec, RoomSpec, exact_boundary, generate_scene, \
    _self_intersects, kernel_clearance, lshape_room, ngon_room, perturb, \
    ray_distances, scene_from_poses, square_room

from conftest import dist_to_polygon_boundary


class TestRoomSpec:
    def test_factories_are_valid(self):
        for room in (square_room(4.0), lshape_room(4.0), ngon_room(6, 2.0),
                     ngon_room(64, 2.0)):
            assert room.footprint.shape[1] == 2

    def test_clockwise_rejected(self):
        with pytest.raises(ValueError):
            RoomSpec(np.array([[0, 0], [0, 1], [1, 1], [1, 0]]), 1.6, 0.9)

    def test_self_intersection_rejected(self):
        bowtie = np.array([[0, 0], [1, 1], [1, 0], [0, 1]])
        with pytest.raises(ValueError):
            RoomSpec(bowtie, 1.6, 0.9)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_regular_polygons_simple_until_a_chain_is_reversed(self, data):
        # A regular n-gon, rotated, scaled and moved, is simple. Reversing the
        # chain v[i], ..., v[i+k-1] joins v[i-1] to v[i+k-1] and v[i] to
        # v[i+k]: chords with interleaved ends, which cross.
        n = data.draw(st.integers(3, 256))
        ang = 2.0 * math.pi * np.arange(n) / n + data.draw(st.floats(0.0, 2.0 * math.pi))
        scale = data.draw(st.floats(0.1, 100.0))
        offset = [data.draw(st.floats(-100.0, 100.0)) for _ in range(2)]
        poly = scale * np.column_stack([np.cos(ang), np.sin(ang)]) + offset
        assert not _self_intersects(poly)
        if n >= 5:
            k = data.draw(st.integers(2, n - 3))
            i = data.draw(st.integers(1, n - k - 1))
            poly[i:i + k] = poly[i:i + k][::-1].copy()
            assert _self_intersects(poly)

    def test_edges_sharing_a_point_intersect(self):
        def crosses(*vertices):
            return _self_intersects(np.array(vertices, dtype=float))
        assert crosses((0, 0), (1, 1), (1, 0), (0, 1))              # bow-tie
        # Vertex (2, 0) on the edge (0, 0)-(4, 0), touching it from its left.
        assert crosses((0, 0), (4, 0), (4, 4), (2, 0), (0, 4))
        # T-junction from the right: (2, 0) on the same edge, reached from below.
        assert crosses((0, 0), (4, 0), (4, 2), (-1, 2), (-1, -2), (3, -2),
                       (2, 0), (1, -1))
        # Collinear overlapping edges: (3, 0)-(1, 0) runs back along (0, 0)-(4, 0).
        assert crosses((0, 0), (4, 0), (4, 1), (6, 1), (6, -1), (3, -1),
                       (3, 0), (1, 0), (1, -2), (-1, -2))
        # Collinear edges that do not overlap, and edges that only come close.
        assert not crosses((0, 0), (1, 0), (1, 1), (2, 1), (2, 0), (3, 0),
                           (3, 2), (0, 2))
        assert not crosses((0, 0), (4, 0), (4, 2), (2, 1e-9), (0, 2))
        with pytest.raises(ValueError, match="simple polygon"):
            RoomSpec([[0, 0], [4, 0], [4, 2], [-1, 2], [-1, -2], [3, -2],
                      [2, 0], [1, -1]], 1.6, 0.9)

    def test_bad_heights_rejected(self):
        with pytest.raises(ValueError):
            square_room(4.0, h_floor=0.0)

    @pytest.mark.parametrize("make", [
        lambda: square_room(2.1e6),                   # beyond the loader's 1e6 m
        lambda: lshape_room(float("nan")),
        lambda: square_room(4.0, h_floor=1.1e6),
        lambda: square_room(4.0, h_ceil=math.inf),
        lambda: ngon_room(257),                       # O(sides^2) validation
        lambda: square_room(2e4),                     # walls near the horizon
        lambda: square_room(20.0, h_ceil=1e-3),
    ])
    def test_sizes_beyond_bounds_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_largest_sizes_accepted(self):
        assert ngon_room(256, 1e6 / 2, 1e6, 1e6).footprint.shape == (256, 2)
        square_room(2e6, 1e6, 1e6)

    def test_widest_room_for_default_heights_lifts(self):
        # 9,000 m is 0.9 / tan(LAT_MIN): a footprint spanning less keeps every
        # wall above LAT_MIN, one spanning more is rejected up front.
        with pytest.raises(ValueError, match="too wide"):
            square_room(9001.0 / math.sqrt(2.0))
        scene = generate_scene(square_room(8990.0 / math.sqrt(2.0)), 3, 64, seed=0)
        assert len(scene.world_polylines()) == 6


class TestExactBoundary:
    def test_ngon64_center_nearly_constant(self):
        room = ngon_room(64, 2.0, h_floor=1.6)
        pose = CameraPose(np.eye(3), np.zeros(3), 1.6, 0.9)
        b = exact_boundary(room, pose, 128, BoundaryKind.FLOOR)
        assert np.max(np.abs(b.lat - (-math.atan2(1.6, 2.0)))) < 1e-3

    def test_square_corner_ray(self):
        # W=12 puts column 7 exactly at longitude pi/4, aimed at the corner.
        room = square_room(4.0, h_floor=1.6)
        pose = CameraPose(np.eye(3), np.zeros(3), 1.6, 0.9)
        b = exact_boundary(room, pose, 12, BoundaryKind.FLOOR)
        assert column_longitudes(12)[7] == pytest.approx(math.pi / 4, abs=1e-15)
        assert b.lat[7] == pytest.approx(-math.atan(1.6 / (2 * math.sqrt(2))),
                                         abs=1e-12)

    def test_boundary_lands_on_walls(self):
        # Self-consistency oracle for several rooms and offsets.
        rooms = [square_room(4.0), ngon_room(5, 2.0), ngon_room(9, 1.5),
                 lshape_room(4.0)]
        for room in rooms:
            scene = generate_scene(room, 3, 128, seed=17)
            for f in scene.frames:
                poly = boundary_to_world(f.boundary_floor, f.pose)
                d = dist_to_polygon_boundary(poly.points[:, [0, 2]],
                                             room.footprint)
                assert d.max() < 1e-9

    def test_ceiling_height_recovery(self):
        room = square_room(4.0, h_floor=1.6, h_ceil=1.2)
        scene = generate_scene(room, 4, 128, seed=3)
        for f in scene.frames:
            h = ceiling_height(f.boundary_floor, f.boundary_ceiling, 1.6)
            assert h == pytest.approx(1.2, abs=1e-9)

    def test_ray_misses_outside_origin(self):
        room = square_room(4.0)
        with pytest.raises(GeometryError):
            ray_distances(room.footprint, (10.0, 0.0), np.array([0.0]))


class TestGenerateScene:
    def test_deterministic(self):
        a = generate_scene(square_room(4.0), 4, 64, seed=5)
        b = generate_scene(square_room(4.0), 4, 64, seed=5)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.boundary_floor.lat, fb.boundary_floor.lat)
            assert np.array_equal(fa.pose.rotation, fb.pose.rotation)
            assert np.array_equal(fa.pose.translation, fb.pose.translation)
        c = generate_scene(square_room(4.0), 4, 64, seed=6)
        assert not np.array_equal(a.frames[0].pose.translation,
                                  c.frames[0].pose.translation)

    def test_cameras_in_kernel_with_clearance(self):
        room = lshape_room(4.0)
        scene = generate_scene(room, 8, 64, seed=2)
        for f in scene.frames:
            p = (f.pose.translation[0], f.pose.translation[2])
            assert kernel_clearance(room.footprint, p) >= 0.2

    @pytest.mark.parametrize("room,n,W", [
        (lshape_room(4.0), 5, 256), (square_room(4.0), 5, 256),
        (ngon_room(20, 2.0), 4, 1024)])
    def test_boundaries_match_per_view_oracle(self, room, n, W):
        # One ray cast per view serves both kinds; each must equal the
        # per-kind exact_boundary bit for bit, in the frames and the truth.
        scene = generate_scene(room, n, W, seed=3)
        for f in scene.frames:
            for kind in (BoundaryKind.FLOOR, BoundaryKind.CEILING):
                want = exact_boundary(room, f.pose, W, kind).lat
                assert np.array_equal(f.boundary(kind).lat, want)
                assert np.array_equal(scene.ground_truth[f.view_id][kind].lat, want)

    def test_placement_matches_kernel_clearance_oracle(self):
        # The per-attempt rejection rule, redone with the public
        # kernel_clearance: the same draws must place the same cameras.
        room, n, seed = lshape_room(4.0), 8, 2
        scene = generate_scene(room, n, 64, seed)
        lo, hi = room.footprint.min(axis=0), room.footprint.max(axis=0)
        for f, child in zip(scene.frames, np.random.SeedSequence(seed).spawn(n)):
            rng = np.random.default_rng(child)
            p = rng.uniform(lo, hi)
            while kernel_clearance(room.footprint, p) < 0.2:
                p = rng.uniform(lo, hi)
            pose = CameraPose.from_yaw(rng.uniform(-math.pi, math.pi),
                                       (p[0], 0.0, p[1]), 1.6, 0.9)
            assert np.array_equal(f.pose.translation, pose.translation)
            assert np.array_equal(f.pose.rotation, pose.rotation)

    def test_convex_room_all_columns_defined(self):
        scene = generate_scene(ngon_room(7, 2.0), 5, 256, seed=4)
        for f in scene.frames:
            assert np.all(np.isfinite(f.boundary_floor.lat))
            assert np.all(f.boundary_floor.lat < 0)

    def test_too_small_room_fails_placement(self):
        tiny = square_room(0.3)
        with pytest.raises(GeometryError):
            generate_scene(tiny, 1, 64, seed=0)

    @pytest.mark.parametrize("n_views,W", [(0, 64), (1025, 64), (1, 7), (1, 16385)])
    def test_sizes_beyond_bounds_rejected(self, n_views, W):
        with pytest.raises(ValueError, match="must lie in"):
            generate_scene(square_room(4.0), n_views, W, seed=0)

    def test_metadata_records_rng(self):
        scene = generate_scene(square_room(4.0), 2, 64, seed=9)
        assert scene.meta["rng"] == "numpy-pcg64-seedsequence"
        assert scene.meta["seed"] == 9

    def test_each_pose_checked_once(self, monkeypatch):
        # scene_from_poses used to rebuild each pose with dataclasses.replace,
        # which ran CameraPose's rotation check a second time per view.
        calls = []
        real = geometry.is_rotation
        monkeypatch.setattr(geometry, "is_rotation",
                            lambda R: calls.append(R) or real(R))
        generate_scene(square_room(4.0), 5, 64, seed=3)
        assert len(calls) == 5

    @pytest.mark.parametrize("h_floor,h_ceil", [(1.6, 0.9), (2, 1), (1, 1.25)])
    def test_same_scene_as_replaced_poses(self, h_floor, h_ceil):
        # The former body of scene_from_poses, kept as the reference; an int
        # height must give the same floor_height and the same scene bytes.
        room = RoomSpec(square_room(4.0).footprint, h_floor, h_ceil)
        poses = [CameraPose.from_yaw(0.3 * i, (0.2 * i, 0.0, -0.1 * i), 1.3, 0.7)
                 for i in range(3)]
        frames, gt = [], {}
        for i, pose in enumerate(poses):
            pose = dataclasses.replace(pose, floor_height=h_floor, ceil_height=h_ceil)
            bf, bc = (exact_boundary(room, pose, 64, kind)
                      for kind in (BoundaryKind.FLOOR, BoundaryKind.CEILING))
            frames.append(ViewFrame(f"view{i:03d}", pose, bf, bc))
            gt[frames[-1].view_id] = {BoundaryKind.FLOOR: bf, BoundaryKind.CEILING: bc}
        expected = Scene(frames, 64, 32, ground_truth=gt, meta={"k": 1})
        scene = scene_from_poses(room, poses, 64, meta={"k": 1})
        assert dumps_document(scene_to_document(scene)) == \
            dumps_document(scene_to_document(expected))
        for f, e in zip(scene.frames, expected.frames):
            for field in dataclasses.fields(CameraPose):
                got, want = getattr(f.pose, field.name), getattr(e.pose, field.name)
                assert type(got) is type(want) and np.array_equal(got, want)
        assert [p.floor_height for p in poses] == [1.3] * 3


class TestPerturb:
    def test_zero_noise_is_identity(self):
        scene = generate_scene(square_room(4.0), 3, 64, seed=1)
        out = perturb(scene, NoiseSpec(seed=7))
        for f0, f1 in zip(scene.frames, out.frames):
            assert np.array_equal(f0.boundary_floor.lat, f1.boundary_floor.lat)
            assert np.array_equal(f0.boundary_ceiling.lat, f1.boundary_ceiling.lat)
            assert np.array_equal(f0.pose.rotation, f1.pose.rotation)
            assert np.array_equal(f0.pose.translation, f1.pose.translation)

    def test_deterministic_given_seed(self):
        scene = generate_scene(square_room(4.0), 3, 64, seed=1)
        spec = NoiseSpec(boundary_std=0.02, pose_trans_std=0.05, seed=11)
        a = perturb(scene, spec)
        b = perturb(scene, spec)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.boundary_floor.lat, fb.boundary_floor.lat)
            assert np.array_equal(fa.pose.translation, fb.pose.translation)

    def test_outlier_columns_redrawn(self):
        scene = generate_scene(square_room(4.0), 1, 512, seed=2)
        out = perturb(scene, NoiseSpec(outlier_rate=0.3, outlier_std=0.3, seed=3))
        delta = np.abs(out.frames[0].boundary_floor.lat
                       - scene.frames[0].boundary_floor.lat)
        frac_moved = np.mean(delta > 1e-12)
        assert 0.2 < frac_moved < 0.4

    def test_pose_noise_moves_horizontally(self):
        scene = generate_scene(square_room(4.0), 3, 64, seed=1)
        out = perturb(scene, NoiseSpec(pose_trans_std=0.1, pose_rot_std=0.05,
                                       seed=13))
        for f0, f1 in zip(scene.frames, out.frames):
            assert f0.pose.translation[1] == f1.pose.translation[1]
            assert not np.array_equal(f0.pose.translation, f1.pose.translation)
            assert not np.array_equal(f0.pose.rotation, f1.pose.rotation)
            # still a pure yaw rotation: the Y row/column stay untouched
            assert np.allclose(f1.pose.rotation[1], [0, 1, 0], atol=1e-15)

    def test_pose_noise_matches_former_yaw_matrix(self):
        # perturb's yaw matrix written out as it was before it came from
        # CameraPose.from_yaw, with the same random draws, frame by frame.
        scene = generate_scene(lshape_room(4.0), 4, 64, seed=1)
        spec = NoiseSpec(boundary_std=0.01, pose_trans_std=0.1,
                         pose_rot_std=0.05, seed=13)
        out = perturb(scene, spec)
        children = np.random.SeedSequence(spec.seed).spawn(len(scene.frames))
        for child, f0, f1 in zip(children, scene.frames, out.frames):
            rng = np.random.default_rng(child)
            for _ in range(2):   # floor and ceiling draws
                rng.normal(0.0, 1.0, 64), rng.random(64), rng.normal(0.0, 1.0, 64)
            dt = rng.normal(0.0, 1.0, 2) * spec.pose_trans_std
            dyaw = float(rng.normal(0.0, 1.0)) * spec.pose_rot_std
            c, s = math.cos(dyaw), math.sin(dyaw)
            Ry = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
            assert dyaw != 0.0
            assert np.array_equal(f1.pose.rotation, Ry @ f0.pose.rotation)
            assert np.array_equal(f1.pose.translation,
                                  f0.pose.translation + np.array([dt[0], 0.0, dt[1]]))

    def test_error_grows_with_boundary_noise(self):
        # Monte-Carlo: pseudo-label error vs noise level, 10 seeds each.
        room = square_room(4.0)

        def label_err(level, seed):
            clean = generate_scene(room, 5, 128, seed=seed)
            noisy = perturb(clean, NoiseSpec(boundary_std=level, seed=seed + 77))
            target = noisy.view_ids[0]
            label = fuse(build_stack(noisy, target, BoundaryKind.FLOOR))
            truth = clean.ground_truth[target][BoundaryKind.FLOOR].lat
            return float(np.mean(np.abs(label.lat_bar - truth)))

        means = [np.mean([label_err(lv, s) for s in range(10)])
                 for lv in (0.01, 0.02, 0.05)]
        assert means[0] < means[1] < means[2]

    def test_stale_pseudo_labels_dropped(self):
        scene = generate_scene(square_room(4.0), 3, 64, seed=1)
        scene.pseudo_labels = {s.target_view: fuse(s)
                               for s in build_stacks(
                                   scene, scene.world_polylines((BoundaryKind.FLOOR,)))}
        assert perturb(scene, NoiseSpec(boundary_std=0.02, seed=3)).pseudo_labels is None

    def test_translation_beyond_loader_bound_rejected(self):
        scene = generate_scene(square_room(4.0), 2, 64, seed=1)
        with pytest.raises(ValueError, match="1e6 m"):
            perturb(scene, NoiseSpec(pose_trans_std=1e7, seed=3))

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(outlier_rate=1.0)
        with pytest.raises(ValueError):
            NoiseSpec(boundary_std=-0.1)

    @pytest.mark.parametrize("name", ["boundary_std", "outlier_std",
                                      "pose_trans_std", "pose_rot_std"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -0.1])
    def test_std_must_be_finite_and_non_negative(self, name, value):
        # An infinite boundary std used to clamp every latitude to a bound.
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            NoiseSpec(**{name: value})
