import errno
import itertools
import math
import multiprocessing
import os
import platform
import signal
import threading
import tracemalloc
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest

from panolayout import selftrain
from panolayout.consistency import data_bounds, density_map, mlc_entropy
from panolayout.errors import CoverageError
from panolayout.evaluation import floor_polygon, footprint_ious, \
    footprint_truth, frame_ious
from panolayout.geometry import BoundaryKind, CameraPose, SphericalBoundary, \
    ceiling_height
from panolayout.scene import Scene, ViewFrame
from panolayout.sceneio import dumps_document, scene_to_document, \
    write_trajectory_csv
from panolayout.pseudolabel import l1_loss, wbc_loss
from panolayout.selftrain import IterationRecord, TrainConfig, TrainTrajectory, \
    fuse_labels, run, select_views, self_train_step
from panolayout.synth import NoiseSpec, generate_scene, lshape_room, perturb, \
    square_room

from conftest import coaxial_cylinder_scene


def identical_pose_scene(n=4, W=64, r=2.0, hf=1.6, hc=0.9):
    """n copies of the same camera: stacks are bitwise constant per column,
    the one configuration where the consensus fixed point is exact."""
    frames, gt = [], {}
    bf = SphericalBoundary(np.full(W, -math.atan2(hf, r)), BoundaryKind.FLOOR)
    bc = SphericalBoundary(np.full(W, math.atan2(hc, r)), BoundaryKind.CEILING)
    for i in range(n):
        pose = CameraPose(np.eye(3), np.zeros(3), hf, hc)
        frames.append(ViewFrame(f"v{i}", pose, bf, bc))
        gt[f"v{i}"] = {BoundaryKind.FLOOR: bf, BoundaryKind.CEILING: bc}
    return Scene(frames, W, W // 2, ground_truth=gt)


def mean_floor_error(scene, truth_scene):
    errs = [np.abs(f.boundary_floor.lat
                   - truth_scene.ground_truth[f.view_id][BoundaryKind.FLOOR].lat).mean()
            for f in scene.frames]
    return float(np.mean(errs))


def mean_floor_iou(scene, truth_scene, raster=512):
    ious = frame_ious(scene, scene.world_polylines((BoundaryKind.FLOOR,)),
                      footprint_truth(truth_scene), raster)
    return float(np.mean([iou_2d for iou_2d, _ in ious]))


class TestSelectViews:
    def test_full_fraction_keeps_all(self):
        ids = [f"v{i}" for i in range(10)]
        assert select_views(ids, 1.0) == ids

    def test_half_fraction_evenly_spaced(self):
        ids = [f"v{i}" for i in range(10)]
        assert select_views(ids, 0.5) == ["v0", "v2", "v4", "v6", "v8"]

    def test_at_least_one_view(self):
        assert select_views(["a", "b", "c"], 0.01) == ["a"]


class TestSelfTrainStep:
    def test_fixed_point_at_float_precision(self):
        # The algebraic fixed point (label == boundary -> zero loss, no-op
        # update) is exact and covered in the pseudolabel tests; through the
        # full projection chain the round trip reproduces latitudes to ~1 ulp,
        # which the 1/sigma^2 weighting amplifies to ~1e-9.
        scene = identical_pose_scene()
        cfg = TrainConfig(max_iters=1, damping=0.7)
        out, (wbc, l1) = self_train_step(scene, cfg, scene.world_polylines())
        assert wbc < 1e-8
        assert l1 < 1e-13
        for f0, f1 in zip(scene.frames, out.frames):
            assert np.max(np.abs(f0.boundary_floor.lat
                                 - f1.boundary_floor.lat)) < 1e-15
            assert np.max(np.abs(f0.boundary_ceiling.lat
                                 - f1.boundary_ceiling.lat)) < 1e-15

    def test_coaxial_scene_near_fixed_point(self):
        scene = coaxial_cylinder_scene(W=128)
        out, (wbc, l1) = self_train_step(scene, TrainConfig(damping=1.0),
                                         scene.world_polylines())
        assert l1 < 1e-12
        for f0, f1 in zip(scene.frames, out.frames):
            assert np.max(np.abs(f0.boundary_floor.lat
                                 - f1.boundary_floor.lat)) < 1e-12

    def test_full_step_lands_on_pseudo_labels(self):
        from panolayout.pseudolabel import fuse
        from panolayout.reprojection import build_stack
        clean = generate_scene(square_room(4.0), 5, 64, seed=8)
        noisy = perturb(clean, NoiseSpec(boundary_std=0.03, seed=9))
        cfg = TrainConfig(damping=1.0, loss="l1")
        out, _ = self_train_step(noisy, cfg, noisy.world_polylines())
        for f in noisy.frames:
            label = fuse(build_stack(noisy, f.view_id, BoundaryKind.FLOOR))
            assert np.array_equal(out.frame(f.view_id).boundary_floor.lat,
                                  label.lat_bar)

    def test_update_is_convex_combination(self):
        clean = generate_scene(square_room(4.0), 5, 64, seed=8)
        noisy = perturb(clean, NoiseSpec(boundary_std=0.05, seed=10))
        for loss in ("wbc", "l1"):
            out, _ = self_train_step(noisy, TrainConfig(damping=0.4, loss=loss),
                                     noisy.world_polylines())
            from panolayout.pseudolabel import fuse
            from panolayout.reprojection import build_stack
            for f in noisy.frames:
                label = fuse(build_stack(noisy, f.view_id, BoundaryKind.FLOOR))
                old = f.boundary_floor.lat
                new = out.frame(f.view_id).boundary_floor.lat
                lo = np.minimum(old, label.lat_bar) - 1e-15
                hi = np.maximum(old, label.lat_bar) + 1e-15
                assert np.all(new >= lo) and np.all(new <= hi)

    def test_noisy_error_strictly_decreases(self):
        clean = generate_scene(square_room(4.0), 9, 128, seed=0)
        state = perturb(clean, NoiseSpec(boundary_std=0.05, seed=1))
        cfg = TrainConfig(damping=0.5)
        errs = [mean_floor_error(state, clean)]
        for _ in range(5):
            state, _ = self_train_step(state, cfg, state.world_polylines())
            errs.append(mean_floor_error(state, clean))
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_step_memory_grows_with_one_stack(self):
        # Each stack is fused as it is built, so a step holds one (W, N) stack
        # and the per-target labels, not every target's stack of a kind: the
        # 64 stacks of 64 x 1024 entries alone take 38 MB.
        scene = perturb(generate_scene(lshape_room(4.0), 64, 1024, seed=0),
                        NoiseSpec(boundary_std=0.05, outlier_rate=0.02, seed=101))
        polys = scene.world_polylines()
        tracemalloc.start()
        try:
            self_train_step(scene, TrainConfig(), polys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32e6


    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="counts glibc's page faults")
    def test_step_reuses_the_heap(self):
        # A whole step, in this process. Without the block that importing
        # reprojection frees, glibc maps and trims each kernel call's
        # temporaries and faults them back in: about 17,000 minor faults a
        # step here.
        import resource
        scene = perturb(generate_scene(lshape_room(4.0), 16, 1024, seed=0),
                        NoiseSpec(boundary_std=0.05, outlier_rate=0.02, seed=101))
        polys, cfg = scene.world_polylines(), TrainConfig()
        faults = []
        for _ in range(5):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            self_train_step(scene, cfg, polys)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert max(faults[2:]) < 1000, faults

class TestRun:
    def test_one_lift_per_state(self, monkeypatch):
        # Fusion and entropy share each state's lift: 3 states, 2 kinds.
        import panolayout.scene
        n = 5
        scene = perturb(generate_scene(lshape_room(4.0), n, 64, seed=2),
                        NoiseSpec(boundary_std=0.02, seed=3))
        original = panolayout.scene.boundary_to_world
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(panolayout.scene, "boundary_to_world", counting)
        run(scene, TrainConfig(max_iters=2, grid_size=64))
        assert len(calls) == 6 * n

    def test_noise_free_entropy_constant_best_zero(self):
        scene = coaxial_cylinder_scene(W=128)
        traj, best = run(scene, TrainConfig(max_iters=6, damping=0.5,
                                            eval_every=2, grid_size=128))
        hs = [r.h_mlc for r in traj.records if r.h_mlc is not None]
        assert all(h == hs[0] for h in hs)
        assert traj.best_iter == 0
        for f0, f1 in zip(scene.frames, best.frames):
            assert np.max(np.abs(f0.boundary_floor.lat
                                 - f1.boundary_floor.lat)) < 1e-12

    def test_noisy_entropy_improves_and_is_bit_stable(self):
        clean = generate_scene(square_room(4.0), 9, 128, seed=0)
        noisy = perturb(clean, NoiseSpec(boundary_std=0.05, seed=1))
        cfg = TrainConfig(max_iters=10, damping=0.5, eval_every=5, grid_size=256)
        traj, best = run(noisy, cfg)
        recorded = {r.iteration: r.h_mlc for r in traj.records
                    if r.h_mlc is not None}
        assert recorded[traj.best_iter] < recorded[0]  # strict for std >= 0.02
        assert traj.best_iter == min(recorded, key=lambda k: (recorded[k], k))
        # Re-evaluating the returned snapshot on the frozen grid reproduces
        # the recorded minimum exactly.
        bounds = data_bounds(noisy.world_polylines())
        grid = density_map(best.world_polylines(), 256, 256, bounds=bounds)
        assert mlc_entropy(grid) == recorded[traj.best_iter]

    def test_losses_recorded_every_iteration(self):
        scene = coaxial_cylinder_scene(W=64)
        traj, _ = run(scene, TrainConfig(max_iters=4, eval_every=2, grid_size=64))
        assert [r.iteration for r in traj.records] == [0, 1, 2, 3, 4]
        evaluated = [r.iteration for r in traj.records if r.h_mlc is not None]
        assert evaluated == [0, 2, 4]

    def test_median_beats_mean_with_outlier_views(self):
        # Two of ten views badly corrupted: the median consensus should end
        # closer to the truth (three trials, majority).
        wins = 0
        for seed in range(3):
            clean = generate_scene(square_room(4.0), 10, 96, seed=seed)
            rng = np.random.default_rng(seed + 100)
            frames = {}
            for i, f in enumerate(clean.frames):
                std = 0.3 if i < 2 else 0.01
                noise = rng.normal(0.0, std, clean.image_width)
                lat = np.clip(f.boundary_floor.lat + noise, -1.5, -1e-4)
                frames[f.view_id] = {BoundaryKind.FLOOR:
                                     SphericalBoundary(lat, BoundaryKind.FLOOR)}
            noisy = clean.with_boundaries(frames)
            finals = {}
            for estimator in ("median", "mean"):
                cfg = TrainConfig(max_iters=6, damping=0.5, estimator=estimator,
                                  eval_every=6, grid_size=128)
                _, best = run(noisy, cfg)
                finals[estimator] = mean_floor_iou(best, clean, raster=256)
            if finals["median"] > finals["mean"]:
                wins += 1
        assert wins >= 2

    def test_view_fraction_restricts_contributors(self):
        clean = generate_scene(square_room(4.0), 6, 64, seed=4)
        noisy = perturb(clean, NoiseSpec(boundary_std=0.03, seed=5))
        polys = noisy.world_polylines()
        full, _ = self_train_step(noisy, TrainConfig(view_fraction=1.0), polys)
        half, _ = self_train_step(noisy, TrainConfig(view_fraction=0.5), polys)
        changed = any(
            not np.array_equal(full.frame(v).boundary_floor.lat,
                               half.frame(v).boundary_floor.lat)
            for v in noisy.view_ids)
        assert changed


# The former _mean_iou and run, kept verbatim as the oracle for the flat run:
# closures, a snapshot per evaluated iteration and a separate final pass.
_TRAJECTORY_IOU_RASTER = 512


def _mean_iou(scene: Scene) -> tuple[float, float]:
    vals = []
    for f in scene.frames:
        gt = scene.view_ground_truth(f.view_id)
        gt_f, gt_c = gt[BoundaryKind.FLOOR], gt.get(BoundaryKind.CEILING)
        poly_p = floor_polygon(f.boundary_floor, f.pose)
        poly_g = floor_polygon(gt_f, f.pose)
        heights_p = heights_g = None
        if f.boundary_ceiling is not None and gt_c is not None:
            hf = f.pose.floor_height
            heights_p = (hf, ceiling_height(f.boundary_floor, f.boundary_ceiling, hf))
            heights_g = (hf, ceiling_height(gt_f, gt_c, hf))
        vals.append(footprint_ious(poly_p, heights_p, poly_g, heights_g,
                                   _TRAJECTORY_IOU_RASTER))
    vals3 = [v3 for _, v3 in vals if v3 is not None]
    iou_2d = float(np.mean([v2 for v2, _ in vals]))
    return iou_2d, (float(np.mean(vals3)) if vals3 else None)


def reference_run(scene: Scene, cfg: TrainConfig):
    """Refine for max_iters steps with entropy-based early stopping.

    Returns (TrainTrajectory, best scene). The entropy grid bounds are
    frozen at iteration zero; the snapshot returned is the one recorded at
    the entropy minimum (ties go to the earliest iteration).
    """
    frozen_bounds = data_bounds(scene.world_polylines())
    track_iou = scene.ground_truth is not None

    def entropy_of(s: Scene) -> float:
        grid = density_map(s.world_polylines(), cfg.grid_size, cfg.grid_size,
                           cfg.padding, bounds=frozen_bounds)
        return mlc_entropy(grid)

    records: list[IterationRecord] = []
    snapshots: dict[int, Scene] = {}
    state = scene
    best_iter, best_h = 0, math.inf

    def record(iteration: int, losses, evaluated: bool) -> None:
        nonlocal best_iter, best_h
        rec = IterationRecord(iteration, losses[0], losses[1])
        if evaluated:
            rec.h_mlc = entropy_of(state)
            if track_iou:
                rec.iou2d, rec.iou3d = _mean_iou(state)
            snapshots[iteration] = state
            if rec.h_mlc < best_h:
                best_h, best_iter = rec.h_mlc, iteration
        records.append(rec)

    for k in range(cfg.max_iters):
        next_state, losses = self_train_step(state, cfg, state.world_polylines())
        record(k, losses, evaluated=k % cfg.eval_every == 0)
        state = next_state
    # Final state needs one label pass of its own for the loss record.
    final_labels = fuse_labels(state, state.world_polylines(), state.kinds(), cfg)
    pairs = [(state.frame(vid).boundary(kind), pl)
             for kind, per_view in final_labels.items() for vid, pl in per_view.items()]
    record(cfg.max_iters, (float(np.mean([wbc_loss(b, pl) for b, pl in pairs])),
                           float(np.mean([l1_loss(b, pl) for b, pl in pairs]))),
           evaluated=True)

    return TrainTrajectory(records, best_iter), snapshots[best_iter]


def reference_train_step(scene: Scene, cfg: TrainConfig, polys):
    """The former self_train_step, kept as the oracle for the one-pass step:
    a loss pass over the labels, then an update pass frame by frame."""
    labels = fuse_labels(scene, polys, scene.kinds(), cfg)
    pairs = [(scene.frame(vid).boundary(kind), pl)
             for kind, per_view in labels.items() for vid, pl in per_view.items()]
    losses = (float(np.mean([wbc_loss(b, pl) for b, pl in pairs])),
              float(np.mean([l1_loss(b, pl) for b, pl in pairs])))
    updates = {}
    for f in scene.frames:
        per_kind = {}
        for kind in scene.kinds():
            pl = labels[kind][f.view_id]
            lat = f.boundary(kind).lat
            if cfg.loss == "wbc":
                sigma_ref = float(np.median(pl.sigma))
                step = cfg.damping * np.minimum(1.0, (sigma_ref / pl.sigma) ** 2)
            else:
                step = np.full_like(lat, cfg.damping)
            new_lat = np.where(step >= 1.0, pl.lat_bar, lat + step * (pl.lat_bar - lat))
            per_kind[kind] = SphericalBoundary(new_lat, kind)
        updates[f.view_id] = per_kind
    return scene.with_boundaries(updates), losses


def _run_variants():
    """A noisy square room with and without ceilings and ground truth."""
    noisy = perturb(generate_scene(square_room(4.0), 4, 64, seed=3),
                    NoiseSpec(boundary_std=0.03, seed=4))
    floors = Scene([ViewFrame(f.view_id, f.pose, f.boundary_floor)
                    for f in noisy.frames], noisy.image_width, noisy.image_height,
                   {v: {BoundaryKind.FLOOR: gt[BoundaryKind.FLOOR]}
                    for v, gt in noisy.ground_truth.items()})
    return {(ceil, gt): s if gt else replace(s, ground_truth=None)
            for ceil, s in ((True, noisy), (False, floors)) for gt in (True, False)}


_VARIANTS = _run_variants()


def _bits(records):
    return [tuple(v.hex() if isinstance(v, float) else v for v in astuple(r))
            for r in records]


class TestStepAgainstReference:
    @pytest.mark.parametrize("loss,damping,ceilings", list(
        itertools.product(("wbc", "l1"), (0.5, 1.0), (True, False))))
    def test_same_losses_and_boundaries(self, loss, damping, ceilings):
        scene = _VARIANTS[ceilings, False]
        cfg = TrainConfig(damping=damping, loss=loss)
        polys = scene.world_polylines()
        out, losses = self_train_step(scene, cfg, polys)
        ref, ref_losses = reference_train_step(scene, cfg, polys)
        assert [v.hex() for v in losses] == [v.hex() for v in ref_losses]
        for f, f_ref in zip(out.frames, ref.frames):
            assert f.view_id == f_ref.view_id
            assert np.array_equal(f.boundary_floor.lat, f_ref.boundary_floor.lat)
            assert (f.boundary_ceiling is None) == (f_ref.boundary_ceiling is None)
            if f.boundary_ceiling is not None:
                assert np.array_equal(f.boundary_ceiling.lat,
                                      f_ref.boundary_ceiling.lat)


class TestRunAgainstReference:
    @pytest.mark.parametrize("max_iters,eval_every,loss,ceilings,gt", list(
        itertools.product((0, 1, 3), (1, 2, 4), ("wbc", "l1"), (True, False),
                          (True, False))))
    def test_same_records_and_best_state(self, max_iters, eval_every, loss,
                                         ceilings, gt):
        scene = _VARIANTS[ceilings, gt]
        cfg = TrainConfig(max_iters=max_iters, eval_every=eval_every, loss=loss,
                          grid_size=128)
        ref_traj, ref_best = reference_run(scene, cfg)
        traj, best = run(scene, cfg)
        assert _bits(traj.records) == _bits(ref_traj.records)
        assert traj.best_iter == ref_traj.best_iter
        for f_ref, f in zip(ref_best.frames, best.frames):
            assert np.array_equal(f.boundary_floor.lat, f_ref.boundary_floor.lat)
            assert (f.boundary_ceiling is None) == (f_ref.boundary_ceiling is None)
            if f.boundary_ceiling is not None:
                assert np.array_equal(f.boundary_ceiling.lat,
                                      f_ref.boundary_ceiling.lat)

    def test_entropy_tie_goes_to_iteration_zero(self, monkeypatch):
        monkeypatch.setattr(selftrain, "density_entropy", lambda *a, **k: 1.0)
        scene = _VARIANTS[True, True]
        traj, best = run(scene, TrainConfig(max_iters=3, grid_size=128))
        assert traj.best_iter == 0
        assert [r.h_mlc for r in traj.records] == [1.0] * 4
        for f0, f1 in zip(scene.frames, best.frames):
            assert np.array_equal(f0.boundary_floor.lat, f1.boundary_floor.lat)


def _gt_variants():
    """Ground truth present, with and without ceilings on either side."""
    noisy = _VARIANTS[True, True]
    floors = _VARIANTS[False, True]
    gt_floors = {v: {BoundaryKind.FLOOR: gt[BoundaryKind.FLOOR]}
                 for v, gt in noisy.ground_truth.items()}
    return {(ceil, gt_ceil): replace(s, ground_truth=s.ground_truth if gt_ceil
                                     else gt_floors)
            for ceil, s in ((True, noisy), (False, replace(
                floors, ground_truth=noisy.ground_truth)))
            for gt_ceil in (True, False)}


class TestRunWithGroundTruth:
    @pytest.mark.parametrize("ceilings,gt_ceilings", list(
        itertools.product((True, False), (True, False))))
    @pytest.mark.parametrize("max_iters,eval_every", [(0, 1), (3, 1), (3, 2)])
    def test_rows_and_best_scene_bytes_match_reference(
            self, tmp_path, ceilings, gt_ceilings, max_iters, eval_every):
        scene = _gt_variants()[ceilings, gt_ceilings]
        assert all((f.boundary_ceiling is not None) == ceilings
                   for f in scene.frames)
        assert all((BoundaryKind.CEILING in gt) == gt_ceilings
                   for gt in scene.ground_truth.values())
        cfg = TrainConfig(max_iters=max_iters, eval_every=eval_every,
                          grid_size=128)
        out = {}
        for name, fn in (("ref", reference_run), ("run", run)):
            traj, best = fn(scene, cfg)
            write_trajectory_csv(traj.records, tmp_path / f"{name}.csv")
            out[name] = (_bits(traj.records), traj.best_iter,
                         (tmp_path / f"{name}.csv").read_bytes(),
                         dumps_document(scene_to_document(best)))
        assert out["run"] == out["ref"]
        assert all((r.iou2d is None) == (r.h_mlc is None) for r in traj.records)
        assert all((r.iou3d is None) == (r.h_mlc is None or not gt_ceilings
                                         or not ceilings) for r in traj.records)

    def test_ground_truth_floors_lifted_once_per_run(self, monkeypatch):
        # Count world lifts at every module binding of boundary_to_world.
        import sys

        from panolayout import geometry

        scene = _gt_variants()[True, True]
        original = geometry.boundary_to_world
        lifted = []

        def counting(*args, **kwargs):
            lifted.append(args[0])
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("panolayout") and \
                    getattr(mod, "boundary_to_world", None) is original:
                monkeypatch.setattr(mod, "boundary_to_world", counting)
        traj, _ = run(scene, TrainConfig(max_iters=3, eval_every=1, grid_size=128))
        assert all(r.iou2d is not None for r in traj.records)
        for gt in scene.ground_truth.values():
            for kind, b in gt.items():
                expected = 1 if kind == BoundaryKind.FLOOR else 0
                assert sum(x is b for x in lifted) == expected
        # 4 states x N views x 2 kinds, and one lift per ground-truth floor.
        n = len(scene.frames)
        assert len(lifted) == 4 * n * 2 + n

    def test_iteration_zero_iou_is_evaluate_scene_mean(self):
        from panolayout.evaluation import evaluate_scene
        scene = _gt_variants()[True, True]
        traj, _ = run(scene, TrainConfig(max_iters=0, grid_size=128))
        per_view = evaluate_scene(scene, raster=512).per_view
        assert traj.records[0].iou2d == float(np.mean([r["iou2d"] for r in per_view]))
        assert traj.records[0].iou3d == float(np.mean([r["iou3d"] for r in per_view]))


class TestUndefinedIoU:
    """An iteration whose IoU is undefined records none, and refining goes on.

    Outliers lift some floor columns far away, so at raster 512 both
    footprints of a view fall between cell centers at iteration 0.
    """

    @pytest.fixture(scope="class")
    def scene(self):
        return perturb(generate_scene(lshape_room(), 16, 1024, seed=1),
                       NoiseSpec(boundary_std=0.05, outlier_rate=0.02,
                                 outlier_std=0.3, seed=1))

    def test_run_records_blank_iou_and_warns(self, scene, caplog):
        with caplog.at_level("WARNING", logger="panolayout.selftrain"):
            traj, _ = run(scene, TrainConfig(max_iters=2))
        assert [(r.iou2d is None, r.iou3d is None) for r in traj.records] == \
            [(True, True), (False, False), (False, False)]
        assert all(r.h_mlc is not None for r in traj.records)
        assert [r.getMessage() for r in caplog.records] == [
            "iteration 0: IoU not recorded: empty polygon union; IoU undefined"]

    def test_cli_refine_exits_0(self, scene, tmp_path, caplog):
        from panolayout import cli
        from panolayout.sceneio import save_scene
        save_scene(scene, tmp_path / "scene.json")
        traj = tmp_path / "traj.csv"
        assert cli.main(["refine", "--scene", str(tmp_path / "scene.json"),
                         "--iters", "2", "--out-traj", str(traj),
                         "--out-scene", str(tmp_path / "best.json")]) == 0
        rows = traj.read_text().splitlines()
        assert rows[0] == "iter,h_mlc,wbc,l1,iou2d,iou3d"
        assert rows[1].endswith(",,") and len(rows) == 4
        assert not any(r.endswith(",") for r in rows[2:])
        assert any("iteration 0" in r.getMessage() for r in caplog.records)


def _serial_run(scene: Scene, cfg: TrainConfig):
    """run kept in this process whatever its size."""
    with mock.patch.object(selftrain, "_WORKER_SAMPLES", math.inf):
        return run(scene, cfg)


def _scene_bytes(scene: Scene) -> str:
    return dumps_document(scene_to_document(scene))


def _open_fds():
    """This process's open fds, or None where /proc is absent."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") \
        else None


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestFuseWorker:
    """run's forked fusion worker, forced on small scenes by a zero sample
    threshold and two usable CPUs. The parent fuses the first half of each
    step's (kind, target) pairs and the worker the second half."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Force the worker; record the pid of each os.fork caller."""
        monkeypatch.setattr(selftrain, "_WORKER_SAMPLES", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        calls, fork = [], os.fork

        def counted_fork():
            calls.append(os.getpid())
            return fork()
        monkeypatch.setattr(os, "fork", counted_fork)
        return calls

    @staticmethod
    def spy_fuse(monkeypatch, fail=None):
        """Patch selftrain.fuse to record the (kind, target) pairs fused in
        this process and to run fail(stack), which may raise, first."""
        seen, fuse = [], selftrain.fuse

        def spy(stack, *args):
            if fail is not None:
                fail(stack)
            seen.append((stack.kind, stack.target_view))
            return fuse(stack, *args)
        monkeypatch.setattr(selftrain, "fuse", spy)
        return seen

    @staticmethod
    def floor_only():
        noisy = _VARIANTS[True, False]
        return Scene([ViewFrame(f.view_id, f.pose, f.boundary_floor)
                      for f in noisy.frames[:3]], noisy.image_width,
                     noisy.image_height)

    @staticmethod
    def lroom():
        return perturb(generate_scene(lshape_room(), 5, 64, seed=1),
                       NoiseSpec(boundary_std=0.04, seed=2))

    @pytest.mark.parametrize("make", ["lroom", "floor_only"])
    def test_same_bits_as_serial_with_half_fused_here(self, make, forks,
                                                      monkeypatch):
        scene, cfg = getattr(self, make)(), TrainConfig(max_iters=3, grid_size=128)
        ref_traj, ref_best = _serial_run(scene, cfg)
        assert forks == []
        seen = self.spy_fuse(monkeypatch)
        traj, best = run(scene, cfg)
        _assert_no_child()
        assert forks == [os.getpid()]
        assert _bits(traj.records) == _bits(ref_traj.records)
        assert traj.best_iter == ref_traj.best_iter
        assert _scene_bytes(best) == _scene_bytes(ref_best)
        pairs = [(k, f.view_id) for k in scene.kinds() for f in scene.frames]
        assert seen == pairs[:len(pairs) // 2] * (cfg.max_iters + 1)

    @pytest.mark.parametrize("make", ["lroom", "floor_only"])
    def test_labels_keep_serial_order_and_bits(self, make, forks):
        scene, cfg = getattr(self, make)(), TrainConfig()
        polys = scene.world_polylines()
        want = fuse_labels(scene, polys, scene.kinds(), cfg)
        worker = selftrain._FuseWorker(
            scene, cfg, [(k, f.view_id) for k in scene.kinds() for f in scene.frames])
        try:
            got = worker.fuse_labels(scene, polys, cfg)
        finally:
            worker.close()
        _assert_no_child()
        assert forks == [os.getpid()]
        assert [(k, list(v)) for k, v in got.items()] == \
            [(k, list(v)) for k, v in want.items()]
        for kind, labels in want.items():
            for view, pl in labels.items():
                for a, b in zip(astuple(got[kind][view]), astuple(pl)):
                    assert np.array_equal(a, b)

    def test_worker_exception_is_the_serial_one(self, forks, monkeypatch):
        scene, cfg = self.lroom(), TrainConfig(max_iters=2, grid_size=128)
        last = (BoundaryKind.CEILING, scene.frames[-1].view_id)

        def fail(stack):
            if (stack.kind, stack.target_view) == last:
                raise CoverageError(f"no cover for {stack.target_view!r}")
        seen = self.spy_fuse(monkeypatch, fail)
        with pytest.raises(CoverageError) as ref:
            _serial_run(scene, cfg)
        seen.clear()
        with pytest.raises(CoverageError) as got:
            run(scene, cfg)
        _assert_no_child()
        assert forks == [os.getpid()]
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value) == "no cover for 'view004'"
        assert last not in seen   # raised in the worker, not fused again here

    def test_parent_half_exception_propagates(self, forks, monkeypatch):
        scene, cfg = self.lroom(), TrainConfig(max_iters=2, grid_size=128)

        def fail(stack):
            if stack.target_view == "view001":
                raise ZeroDivisionError("first floor half")
        self.spy_fuse(monkeypatch, fail)
        with pytest.raises(ZeroDivisionError, match="first floor half"):
            run(scene, cfg)
        _assert_no_child()
        assert forks == [os.getpid()]

    def test_worker_that_exits_without_reply_is_replaced_here(self, forks,
                                                               monkeypatch):
        scene, cfg = self.lroom(), TrainConfig(max_iters=3, grid_size=128)
        ref_traj, ref_best = _serial_run(scene, cfg)
        parent = os.getpid()

        def fail(stack):
            if os.getpid() != parent:
                os._exit(3)
        seen = self.spy_fuse(monkeypatch, fail)
        traj, best = run(scene, cfg)
        _assert_no_child()
        assert forks == [parent]
        assert _bits(traj.records) == _bits(ref_traj.records)
        assert _scene_bytes(best) == _scene_bytes(ref_best)
        # Step 0 fuses its own half, then the dead worker's; later steps all.
        assert len(seen) == 2 * len(scene.frames) * (cfg.max_iters + 1)

    @staticmethod
    def assert_serial_result(scene, cfg, ref):
        """run gives ref, the one-process result, closes every fd it opened
        and leaves no child; the fd part needs /proc."""
        ref_traj, ref_best = ref
        fds = _open_fds()
        traj, best = run(scene, cfg)
        assert _open_fds() == fds
        _assert_no_child()
        assert _bits(traj.records) == _bits(ref_traj.records)
        assert traj.best_iter == ref_traj.best_iter
        assert _scene_bytes(best) == _scene_bytes(ref_best)

    def test_failed_fork_fuses_here(self, forks, monkeypatch):
        def no_fork():
            forks.append(os.getpid())
            raise OSError(errno.EAGAIN, "no fork")
        scene, cfg = self.lroom(), TrainConfig(max_iters=2, grid_size=128)
        ref = _serial_run(scene, cfg)
        monkeypatch.setattr(os, "fork", no_fork)
        self.assert_serial_result(scene, cfg, ref)
        assert forks == [os.getpid()]
        # The pipe is closed at once, not when the worker is collected.
        fds = _open_fds()
        worker = selftrain._FuseWorker(scene, cfg, selftrain._pairs(scene, scene.kinds()))
        assert worker.pid is None and _open_fds() == fds

    def test_failed_pipe_fuses_here(self, forks, monkeypatch):
        pipes = []

        def no_pipe(*args):
            pipes.append(args)
            raise OSError(errno.EMFILE, "no pipe")
        scene, cfg = self.lroom(), TrainConfig(max_iters=2, grid_size=128)
        ref = _serial_run(scene, cfg)
        monkeypatch.setattr(multiprocessing, "Pipe", no_pipe)
        self.assert_serial_result(scene, cfg, ref)
        assert pipes == [()] and forks == []

    def test_worker_killed_between_steps_is_replaced_here(self, forks,
                                                           monkeypatch):
        scene, cfg = self.lroom(), TrainConfig(max_iters=3, grid_size=128)
        ref = _serial_run(scene, cfg)
        step, killed = selftrain.self_train_step, []

        def kill_at_step_2(state, cfg, polys, worker):
            if len(killed) == 2:
                os.kill(worker.pid, signal.SIGKILL)
                # Wait for the death but leave the reaping to close.
                os.waitid(os.P_PID, worker.pid, os.WEXITED | os.WNOWAIT)
            killed.append(worker.pid)
            return step(state, cfg, polys, worker)
        monkeypatch.setattr(selftrain, "self_train_step", kill_at_step_2)
        self.assert_serial_result(scene, cfg, ref)
        assert forks == [os.getpid()]
        assert killed[2] is not None and killed[3] is None   # closed at step 2

    def test_no_fork_while_another_thread_runs(self, forks):
        scene, cfg = self.lroom(), TrainConfig(max_iters=1, grid_size=128)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            traj, best = run(scene, cfg)
        finally:
            stop.set()
            other.join()
        assert forks == []
        ref_traj, ref_best = _serial_run(scene, cfg)
        assert _bits(traj.records) == _bits(ref_traj.records)

    def test_cli_refine_same_bytes_on_one_cpu(self, tmp_path, monkeypatch):
        # At the real threshold: 3 iterations x 2 kinds x 16 x 16 x 1024
        # samples start the worker only when a second CPU is usable.
        from panolayout import cli
        forks, fork = [], os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()
        monkeypatch.setattr(os, "fork", counted_fork)
        src = tmp_path / "scene.json"
        assert cli.main(["synth", "--room", "lshape", "--n-views", "16",
                         "--width", "1024", "--seed", "7",
                         "--noise-boundary-std", "0.05", "--out", str(src)]) == 0
        outs = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c)
            traj = tmp_path / f"traj{len(cpus)}.csv"
            best = tmp_path / f"best{len(cpus)}.json"
            assert cli.main(["refine", "--scene", str(src), "--iters", "2",
                             "--out-traj", str(traj), "--out-scene", str(best)]) == 0
            outs.append((traj.read_bytes(), best.read_bytes()))
            assert len(forks) == len(cpus) - 1
        _assert_no_child()
        assert outs[0] == outs[1]
