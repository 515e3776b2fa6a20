import contextlib
import csv
import glob
import json
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from panolayout.sceneio import load_scene

from conftest import child_env


def run_cli(*args, env_extra=None, cwd=None):
    return subprocess.run([sys.executable, "-m", "panolayout", *args],
                          capture_output=True, text=True,
                          env=child_env(**(env_extra or {})), cwd=cwd)


@pytest.fixture
def scene_path(tmp_path):
    path = tmp_path / "scene.json"
    res = run_cli("synth", "--room", "square", "--size", "4", "--n-views", "5",
                  "--width", "64", "--seed", "7", "--out", str(path))
    assert res.returncode == 0, res.stderr
    return path


class TestSynth:
    def test_writes_scene_with_ground_truth(self, scene_path):
        scene = load_scene(scene_path)
        assert len(scene.frames) == 5
        assert scene.ground_truth is not None
        assert scene.meta["seed"] == 7

    def test_rooms_and_noise(self, tmp_path):
        for room in ("square", "lshape", "ngon"):
            out = tmp_path / f"{room}.json"
            res = run_cli("synth", "--room", room, "--size", "4",
                          "--n-views", "3", "--width", "64", "--seed", "1",
                          "--noise-boundary-std", "0.02", "--out", str(out))
            assert res.returncode == 0, res.stderr
            assert load_scene(out).meta["noise"]["boundary_std"] == 0.02

    @pytest.mark.parametrize("room", ["square", "lshape", "ngon"])
    def test_negative_size_exits_2(self, tmp_path, room):
        # A negative extent used to build the point-reflected room.
        out = tmp_path / "scene.json"
        res = run_cli("synth", "--room", room, "--size", "-4", "--out", str(out))
        assert res.returncode == 2
        err = json.loads(res.stderr.strip().splitlines()[-1])["error"]
        assert err["type"] == "ValueError"
        assert err["message"].endswith(("got -4.0", "got 6 and -2.0"))
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--noise-boundary-std", "--noise-pose-rot-std"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_noise_exits_2_naming_the_field(self, tmp_path, flag, value):
        out = tmp_path / "scene.json"
        res = run_cli("synth", "--n-views", "3", "--width", "64", flag, value,
                      "--out", str(out))
        assert res.returncode == 2
        err = json.loads(res.stderr.strip().splitlines()[-1])["error"]
        name = flag.removeprefix("--noise-").replace("-", "_")
        assert err == {"type": "ValueError",
                       "message": f"{name} must be finite and >= 0, got {value}"}
        assert not out.exists()


class TestReproject:
    def test_stack_csv(self, scene_path, tmp_path):
        out = tmp_path / "stack.csv"
        scene = load_scene(scene_path)
        res = run_cli("reproject", "--scene", str(scene_path),
                      "--target", scene.view_ids[0], "--out", str(out))
        assert res.returncode == 0, res.stderr
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["column", "view", "lat", "valid"]
        assert len(rows) == 1 + 64 * 5


    @pytest.mark.parametrize("kind", ["floor", "ceiling"])
    def test_lat_blank_exactly_where_invalid(self, tmp_path, kind):
        scene = tmp_path / "noisy.json"
        res = run_cli("synth", "--room", "lshape", "--n-views", "6", "--width",
                      "128", "--seed", "2", "--noise-boundary-std", "0.05",
                      "--out", str(scene))
        assert res.returncode == 0, res.stderr
        out = tmp_path / "stack.csv"
        res = run_cli("reproject", "--scene", str(scene), "--target", "view000",
                      "--kind", kind, "--out", str(out))
        assert res.returncode == 0, res.stderr
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        invalid = [r["valid"] == "0" for r in rows]
        assert any(invalid) and not all(invalid)
        assert [r["lat"] == "" for r in rows] == invalid


class TestPseudoLabel:
    def test_single_view_label_equals_boundary(self, tmp_path):
        scene_path = tmp_path / "one.json"
        run_cli("synth", "--n-views", "1", "--width", "64", "--seed", "3",
                "--out", str(scene_path))
        out = tmp_path / "labeled.json"
        res = run_cli("pseudo-label", "--scene", str(scene_path),
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        scene = load_scene(out)
        vid = scene.view_ids[0]
        pl = scene.pseudo_labels[vid]
        assert np.max(np.abs(pl.lat_bar
                             - scene.frames[0].boundary_floor.lat)) < 1e-9
        assert np.allclose(pl.sigma, 1e-3)
        assert (pl.support == 1).all()

    def test_csv_directory_export(self, scene_path, tmp_path):
        out = tmp_path / "labeled.json"
        csv_dir = tmp_path / "labels"
        res = run_cli("pseudo-label", "--scene", str(scene_path),
                      "--out", str(out), "--out-csv", str(csv_dir))
        assert res.returncode == 0, res.stderr
        files = sorted(csv_dir.glob("*.csv"))
        assert len(files) == 5

    def test_out_csv_naming_a_file_is_2_and_writes_no_out(self, scene_path,
                                                          tmp_path, capsys):
        from panolayout import cli
        out, csv_file = tmp_path / "labeled.json", tmp_path / "labels"
        csv_file.write_text("not a directory")
        assert cli.main(["pseudo-label", "--scene", str(scene_path), "--out", str(out),
                         "--out-csv", str(csv_file)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "FileExistsError"
        assert not out.exists()
        assert csv_file.read_text() == "not a directory"

    def test_view_id_naming_a_path_is_2_and_writes_nothing(self, scene_path,
                                                             tmp_path, capsys):
        # Each CSV is <view id>.csv inside --out-csv, so an id holding a path
        # would write outside it; the check runs before any output is written.
        from panolayout import cli
        doc = json.loads(scene_path.read_text())
        absolute = str(tmp_path / "absolute")
        ids = {doc["frames"][0]["id"]: "../escaped", doc["frames"][1]["id"]: absolute}
        for entry in doc["frames"] + doc["ground_truth"]:
            entry["id"] = ids.get(entry["id"], entry["id"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out, csv_dir = tmp_path / "labeled.json", tmp_path / "out" / "labels"
        assert cli.main(["pseudo-label", "--scene", str(bad), "--out", str(out),
                         "--out-csv", str(csv_dir)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "ValueError"
        assert "'../escaped'" in err["error"]["message"]
        assert not (tmp_path / "out").exists() and not out.exists()
        assert not (tmp_path / "absolute.csv").exists()
        # Without --out-csv no file is named after a view id.
        assert cli.main(["pseudo-label", "--scene", str(bad), "--out", str(out)]) == 0
        assert list(load_scene(out).pseudo_labels)[:2] == ["../escaped", absolute]

    def test_ceiling_labels_from_frames_that_carry_one(self, scene_path, tmp_path):
        from panolayout import cli
        doc = json.loads(scene_path.read_text())
        del doc["frames"][-1]["boundary_ceiling"]
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps(doc))
        for kind, n_sources in (("floor", 5), ("ceiling", 4)):
            out = tmp_path / f"labeled_{kind}.json"
            assert cli.main(["pseudo-label", "--scene", str(partial), "--kind", kind,
                             "--out", str(out)]) == 0
            labels = load_scene(out).pseudo_labels
            assert list(labels) == load_scene(partial).view_ids
            assert max(int(pl.support.max()) for pl in labels.values()) == n_sources


class TestMetric:
    def test_stdout_format_and_noise_ordering(self, tmp_path):
        h_vals = {}
        for std, name in ((0.0, "clean"), (0.05, "noisy")):
            path = tmp_path / f"{name}.json"
            run_cli("synth", "--n-views", "5", "--width", "256", "--seed", "7",
                    "--noise-boundary-std", str(std), "--out", str(path))
            res = run_cli("metric", "--scene", str(path))
            assert res.returncode == 0, res.stderr
            assert res.stdout.startswith("H_MLC=")
            h_vals[name] = float(res.stdout.strip().split("=", 1)[1])
        # Same room and seed: the noisy variant is less consistent. The two
        # grids share bounds only approximately, but the gap is large.
        assert h_vals["clean"] < h_vals["noisy"]

    def test_writes_map_and_csv(self, scene_path, tmp_path):
        pgm = tmp_path / "map.pgm"
        cells = tmp_path / "cells.csv"
        res = run_cli("metric", "--scene", str(scene_path), "--grid", "64", "64",
                      "--out-map", str(pgm), "--out", str(cells))
        assert res.returncode == 0, res.stderr
        assert pgm.read_bytes().startswith(b"P5\n64 64\n255\n")
        with open(cells, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["u", "v", "phi"]
        assert float(sum(float(r[2]) for r in rows[1:])) == pytest.approx(1.0)


class TestEvaluate:
    def test_identity_report(self, scene_path, tmp_path):
        out = tmp_path / "report.json"
        out_csv = tmp_path / "report.csv"
        res = run_cli("evaluate", "--scene", str(scene_path), "--raster", "256",
                      "--out", str(out), "--out-csv", str(out_csv))
        assert res.returncode == 0, res.stderr
        report = json.loads(out.read_text())
        assert report["iou2d"] == 1.0
        assert report["iou3d"] == 1.0
        assert report["rmse"] == 0.0
        assert report["delta1"] == 1.0
        assert len(report["per_view"]) == 5
        with open(out_csv, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["view_id", "iou2d", "iou3d", "rmse", "delta1"]
        assert len(rows) == 6
        assert rows[1][1] == "1"


class TestRefine:
    def test_outputs_and_improvement(self, tmp_path):
        noisy = tmp_path / "noisy.json"
        run_cli("synth", "--n-views", "6", "--width", "96", "--seed", "5",
                "--noise-boundary-std", "0.05", "--out", str(noisy))
        traj = tmp_path / "traj.csv"
        best = tmp_path / "best.json"
        res = run_cli("refine", "--scene", str(noisy), "--iters", "6",
                      "--lambda", "0.5", "--eval-every", "3",
                      "--grid", "256", "256",
                      "--out-traj", str(traj), "--out-scene", str(best))
        assert res.returncode == 0, res.stderr
        with open(traj, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["iter", "h_mlc", "wbc", "l1", "iou2d", "iou3d"]
        assert len(rows) == 1 + 7  # iterations 0..6
        h = {int(r[0]): float(r[1]) for r in rows[1:] if r[1]}
        assert set(h) == {0, 3, 6}
        assert min(h.values()) <= h[0]
        load_scene(best)  # parses and validates


    @pytest.fixture(scope="class")
    def labeled_path(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("labeled")
        run_cli("synth", "--room", "lshape", "--n-views", "5", "--width", "128",
                "--noise-boundary-std", "0.03", "--out", str(tmp / "noisy.json"))
        res = run_cli("pseudo-label", "--scene", str(tmp / "noisy.json"),
                      "--out", str(tmp / "labeled.json"))
        assert res.returncode == 0, res.stderr
        return tmp / "labeled.json"

    @pytest.mark.parametrize("iters", ["4", "0"])
    def test_best_scene_keeps_labels_only_at_iteration_0(self, labeled_path,
                                                         tmp_path, iters):
        traj, best = tmp_path / "traj.csv", tmp_path / "best.json"
        res = run_cli("refine", "--scene", str(labeled_path), "--iters", iters,
                      "--out-traj", str(traj), "--out-scene", str(best))
        assert res.returncode == 0, res.stderr
        with open(traj, newline="") as f:
            h = [float(r["h_mlc"]) for r in csv.DictReader(f)]
        best_iter = h.index(min(h))
        assert (best_iter > 0) == (iters == "4")
        labels = load_scene(best).pseudo_labels
        if best_iter:
            assert labels is None
        else:
            assert labels.keys() == load_scene(labeled_path).pseudo_labels.keys()


class TestRenderDensity:
    def test_pgm_output(self, scene_path, tmp_path):
        out = tmp_path / "density.pgm"
        res = run_cli("render-density", "--scene", str(scene_path),
                      "--grid", "32", "32", "--out", str(out))
        assert res.returncode == 0, res.stderr
        data = out.read_bytes()
        assert data.startswith(b"P5\n32 32\n255\n")
        assert len(data) == len(b"P5\n32 32\n255\n") + 32 * 32


class TestErrorHandling:
    def test_usage_error_is_2(self):
        res = run_cli("reproject")  # missing required flags
        assert res.returncode == 2
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"]["type"] == "ArgumentError"
        assert "--scene" in err["error"]["message"]

    @pytest.mark.parametrize("argv,word", [
        (["refine", "--iters", "abc"], "--iters"),
        (["metric", "--grid", "4"], "--grid"),
        (["nope"], "invalid choice"),
    ])
    def test_usage_error_in_process_writes_json(self, capsys, argv, word):
        from panolayout import cli
        assert cli.main(argv) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert word in err["error"]["message"]

    def test_memory_error_is_2(self, scene_path, tmp_path, capsys, monkeypatch):
        from panolayout import cli, selftrain

        def exhausted(scene, cfg):
            raise MemoryError("Unable to allocate 2.4 GiB")

        monkeypatch.setattr(selftrain, "run", exhausted)
        assert cli.main(["refine", "--scene", str(scene_path),
                         "--out-traj", str(tmp_path / "traj.csv"),
                         "--out-scene", str(tmp_path / "best.json")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == {"type": "MemoryError",
                                "message": "Unable to allocate 2.4 GiB"}

    def test_parser_built_once_and_writes_to_current_streams(self):
        import contextlib
        import io
        from panolayout import cli
        assert cli._parser() is cli._parser()
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["--help"]) == 0
            with contextlib.redirect_stderr(err):
                assert cli.main(["refine", "--iters", "abc"]) == 2
            assert out.getvalue().startswith("usage: panolayout")
            assert "--iters" in json.loads(err.getvalue().splitlines()[-1])[
                "error"]["message"]

    @pytest.mark.parametrize("command", ["refine", "pseudo-label"])
    @pytest.mark.parametrize("over", [0, 1])
    def test_step_sample_limit_checked_before_any_lift(
            self, scene_path, tmp_path, capsys, monkeypatch, command, over):
        from panolayout import cli, selftrain
        from panolayout.scene import Scene
        lifts = []
        real = Scene.world_polylines

        def counting(*args, **kwargs):
            lifts.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(Scene, "world_polylines", counting)
        # The scene has 5 views of 64 columns: 5 x 5 x 64 samples a kind.
        monkeypatch.setattr(selftrain, "MAX_STEP_SAMPLES", 5 * 5 * 64 - over)
        out = tmp_path / "out"
        argv = {"refine": ["--iters", "0", "--grid", "32", "32", "--out-traj",
                           str(out), "--out-scene", str(tmp_path / "best.json")],
                "pseudo-label": ["--out", str(out)]}[command]
        rc = cli.main([command, "--scene", str(scene_path), *argv])
        if over:
            assert rc == 2
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert "1600 samples per kind" in err["error"]["message"]
            assert lifts == [] and not out.exists()
        else:
            assert rc == 0 and lifts and out.exists()

    def test_256_views_of_4096_columns_end_within_seconds(self, tmp_path):
        # Unbounded, one refine step here ran for over 4 minutes.
        path = tmp_path / "big.json"
        res = run_cli("synth", "--room", "lshape", "--n-views", "256",
                      "--width", "4096", "--out", str(path))
        assert res.returncode == 0, res.stderr
        t0 = time.perf_counter()
        res = run_cli("refine", "--scene", str(path), "--iters", "1",
                      "--out-traj", str(tmp_path / "traj.csv"),
                      "--out-scene", str(tmp_path / "best.json"))
        elapsed = time.perf_counter() - t0
        path.unlink()  # 85 MB
        assert elapsed < 60.0
        if res.returncode != 0:
            assert res.returncode == 2
            err = json.loads(res.stderr.strip().splitlines()[-1])
            assert "samples per kind" in err["error"]["message"]

    def test_room_too_wide_for_its_heights_is_2(self, tmp_path):
        # At 2e4 m the walls would lie within LAT_MIN of the horizon, and no
        # later command could lift the scene.
        out = tmp_path / "wide.json"
        res = run_cli("synth", "--size", "2e4", "--out", str(out))
        assert res.returncode == 2, res.stderr
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"]["type"] == "ValueError"
        assert "too wide" in err["error"]["message"]
        assert not out.exists()

    def test_underflowing_ceiling_depths_are_2(self, scene_path, tmp_path):
        # The IoU and ceiling height accept this view, but its ceiling-row
        # depths underflow to 0, which only the map-level depth check in
        # evaluation._view_depth_metrics reports.
        doc = json.loads(scene_path.read_text())
        W = doc["image_width"]
        doc["frames"][0]["boundary_ceiling"] = [1e-322] * W
        doc["frames"][0]["boundary_floor"] = [-1.5] * W
        bad = tmp_path / "underflow.json"
        bad.write_text(json.dumps(doc))
        res = run_cli("evaluate", "--scene", str(bad), "--raster", "64",
                      "--out", str(tmp_path / "report.json"))
        assert res.returncode == 2, res.stderr
        err = json.loads(res.stderr)
        assert err["error"]["message"] == "depths must be finite and positive"

    def test_format_error_is_3(self, scene_path, tmp_path):
        doc = json.loads(scene_path.read_text())
        doc["version"] = "99"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        res = run_cli("metric", "--scene", str(bad))
        assert res.returncode == 3
        err = json.loads(res.stderr)
        assert err["error"]["type"] == "SceneFormatError"

    def test_geometry_error_is_4(self, scene_path, tmp_path):
        doc = json.loads(scene_path.read_text())
        W = doc["image_width"]
        doc["frames"][0]["boundary_floor"] = [-5e-5] * W  # horizon-grazing
        bad = tmp_path / "grazing.json"
        bad.write_text(json.dumps(doc))
        res = run_cli("metric", "--scene", str(bad))
        assert res.returncode == 4
        err = json.loads(res.stderr)
        assert err["error"]["type"] == "GeometryError"

    def test_missing_file_is_2(self, tmp_path):
        res = run_cli("metric", "--scene", str(tmp_path / "nope.json"))
        assert res.returncode == 2

    def test_unknown_reproject_target_is_2(self, scene_path, tmp_path):
        res = run_cli("reproject", "--scene", str(scene_path),
                      "--target", "nope", "--out", str(tmp_path / "stack.csv"))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        err = json.loads(res.stderr)
        assert "nope" in err["error"]["message"]

    @pytest.mark.parametrize("fraction", ["3", "0"])
    def test_out_of_range_view_fraction_is_2(self, scene_path, tmp_path, fraction):
        out = tmp_path / "labeled.json"
        res = run_cli("pseudo-label", "--scene", str(scene_path),
                      "--view-fraction", fraction, "--out", str(out))
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert "view_fraction" in err["error"]["message"]
        assert not out.exists()

    def test_non_square_refine_grid_is_2(self, scene_path, tmp_path):
        res = run_cli("refine", "--scene", str(scene_path), "--iters", "1",
                      "--grid", "64", "32",
                      "--out-traj", str(tmp_path / "traj.csv"),
                      "--out-scene", str(tmp_path / "best.json"))
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert "grid" in err["error"]["message"]
        assert not (tmp_path / "traj.csv").exists()


    @pytest.mark.parametrize("command,flag,value", [
        ("metric", "--padding", "-1"),
        ("metric", "--padding", "inf"),
        ("render-density", "--padding", "-0.4"),
        ("render-density", "--padding", "inf"),
        ("refine", "--padding", "-1"),
        ("refine", "--padding", "inf"),
        ("refine", "--sigma-floor", "inf"),
        ("pseudo-label", "--sigma-floor", "inf"),
        ("refine", "--sigma-floor", "1e-200"),
    ])
    def test_bad_padding_or_sigma_floor_is_2(self, scene_path, tmp_path,
                                              command, flag, value):
        out = tmp_path / "out"
        outputs = {"metric": ["--out", str(out)],
                   "render-density": ["--out", str(out)],
                   "refine": ["--iters", "1", "--grid", "32", "32",
                              "--out-traj", str(out),
                              "--out-scene", str(tmp_path / "best.json")],
                   "pseudo-label": ["--out", str(out)]}
        res = run_cli(command, "--scene", str(scene_path), flag, value,
                      *outputs[command])
        assert res.returncode == 2, res.stderr
        err = json.loads(res.stderr)
        assert flag[2:].replace("-", "_") in err["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["refine", "pseudo-label"])
    def test_control_character_frame_id_is_3(self, scene_path, tmp_path, capsys,
                                             command):
        # The writer rejects such an id, so it must fail before any work.
        from panolayout import cli
        doc = json.loads(scene_path.read_text())
        old = doc["frames"][0]["id"]
        for entry in doc["frames"] + doc["ground_truth"]:
            if entry["id"] == old:
                entry["id"] = "v\x01"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        outs = [tmp_path / name for name in ("traj.csv", "best.json", "labeled.json")]
        argv = {"refine": ["--iters", "1", "--grid", "32", "32",
                           "--out-traj", str(outs[0]), "--out-scene", str(outs[1])],
                "pseudo-label": ["--out", str(outs[2])]}[command]
        assert cli.main([command, "--scene", str(bad), *argv]) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "SceneFormatError"
        assert "control characters" in err["error"]["message"]
        assert not any(p.exists() for p in outs)

    @pytest.mark.parametrize("command,flags,word", [
        ("refine", ["--grid", "1", "1"], "grid"),
        ("refine", ["--padding", "-1"], "padding"),
        ("refine", ["--sigma-floor", "0"], "sigma_floor"),
        ("pseudo-label", ["--sigma-floor", "inf"], "sigma_floor"),
        ("pseudo-label", ["--sigma-floor", "1e-200"], "sigma_floor"),
    ])
    def test_bad_flags_rejected_before_any_stack(self, scene_path, tmp_path,
                                                  capsys, monkeypatch,
                                                  command, flags, word):
        from panolayout import cli, reprojection, selftrain
        calls = []
        real = reprojection.build_stacks

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for module in (reprojection, selftrain):
            monkeypatch.setattr(module, "build_stacks", counting)
        out = tmp_path / "out"
        argv = {"refine": ["--iters", "1", "--out-traj", str(out),
                           "--out-scene", str(tmp_path / "best.json")],
                "pseudo-label": ["--out", str(out)]}[command]
        assert cli.main([command, "--scene", str(scene_path), *flags, *argv]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert word in err["error"]["message"]
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("argv,outs", [
        (["refine", "--iters", "20", "--out-traj", "nodir/t.csv",
          "--out-scene", "b.json"], ["b.json"]),
        (["refine", "--out-traj", "t.csv", "--out-scene", "nodir/b.json"],
         ["t.csv"]),
        (["metric", "--out-map", "m.pgm", "--out", "nodir/c.csv"], ["m.pgm"]),
        (["evaluate", "--out", "r.json", "--out-csv", "nodir/r.csv"], ["r.json"]),
    ])
    def test_missing_output_directory_is_2_before_any_work(
            self, scene_path, tmp_path, capsys, monkeypatch, argv, outs):
        from panolayout import cli, selftrain
        steps = []

        def failing(scene, cfg):
            steps.append(1)
            raise AssertionError("refine ran a step")

        monkeypatch.setattr(selftrain, "run", failing)
        monkeypatch.chdir(tmp_path)
        assert cli.main([argv[0], "--scene", str(scene_path), *argv[1:]]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "FileNotFoundError"
        assert "nodir" in err["error"]["message"]
        assert steps == []
        assert not any((tmp_path / name).exists() for name in outs)

    def test_keyboard_interrupt_is_130(self, scene_path, tmp_path, capsys,
                                       monkeypatch):
        from panolayout import cli, selftrain

        def interrupted(scene, cfg):
            raise KeyboardInterrupt

        monkeypatch.setattr(selftrain, "run", interrupted)
        assert cli.main(["refine", "--scene", str(scene_path),
                         "--out-traj", str(tmp_path / "traj.csv"),
                         "--out-scene", str(tmp_path / "best.json")]) == 130
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "KeyboardInterrupt"

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
    def test_sigint_to_refine_is_130_and_leaves_no_process(self, tmp_path):
        path = tmp_path / "large.json"
        res = run_cli("synth", "--room", "lshape", "--n-views", "16",
                      "--width", "1024", "--seed", "7",
                      "--noise-boundary-std", "0.05", "--out", str(path))
        assert res.returncode == 0, res.stderr
        traj = str(tmp_path / "traj.csv")
        # A background job may start with SIGINT ignored; the child must not.
        child = subprocess.Popen(
            [sys.executable, "-m", "panolayout", "refine", "--scene", str(path),
             "--iters", "50", "--out-traj", traj,
             "--out-scene", str(tmp_path / "best.json")],
            stderr=subprocess.PIPE, text=True, env=child_env(),
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        time.sleep(1.5)
        child.send_signal(signal.SIGINT)
        err = child.communicate(timeout=60)[1]
        assert child.returncode == 130, err
        assert json.loads(err.strip().splitlines()[-1])["error"]["type"] == \
            "KeyboardInterrupt"

        def left():   # the worker is a fork: it has the same command line
            pids = []
            for cmdline in glob.glob("/proc/[0-9]*/cmdline"):
                with contextlib.suppress(OSError), open(cmdline, "rb") as f:
                    if traj.encode() in f.read():
                        pids.append(cmdline)
            return pids

        deadline = time.monotonic() + 2.0
        while left() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert left() == []


def _drop_gt_floor(doc):
    del doc["ground_truth"][0]["boundary_floor"]


def _null_gt_floor(doc):
    doc["ground_truth"][0]["boundary_floor"] = None


def _inf_floor_height(doc):
    doc["frames"][1]["floor_height"] = float("inf")


def _drop_gt_frame(doc):
    del doc["ground_truth"][2]


_PARTIAL_INPUTS = [
    (_drop_gt_floor, {"metric": 3, "evaluate": 3, "refine": 3}, "boundary_floor"),
    (_null_gt_floor, {"metric": 3, "evaluate": 3, "refine": 3}, "boundary_floor"),
    (_inf_floor_height, {"metric": 3, "evaluate": 3, "refine": 3,
                         "pseudo-label": 3}, "floor_height"),
    (_drop_gt_frame, {"metric": 0, "evaluate": 2, "refine": 2},
     "no ground truth for view 'view002'"),
]


class TestPartialInputs:
    @pytest.mark.parametrize("mutate,codes,message", _PARTIAL_INPUTS,
                             ids=["gt-floor-absent", "gt-floor-null",
                                  "floor-height-inf", "gt-frame-missing"])
    def test_exit_code_and_json_error(self, scene_path, tmp_path, capsys,
                                      mutate, codes, message):
        from panolayout import cli
        doc = json.loads(scene_path.read_text())
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        argv = {"metric": ["--grid", "32", "32"],
                "evaluate": ["--raster", "64", "--out", out],
                "refine": ["--iters", "1", "--grid", "32", "32", "--out-traj", out,
                           "--out-scene", str(tmp_path / "best.json")],
                "pseudo-label": ["--out", out]}
        for command, code in codes.items():
            assert cli.main([command, "--scene", str(bad), *argv[command]]) == code
            err = capsys.readouterr().err.strip().splitlines()
            if code:
                assert message in json.loads(err[-1])["error"]["message"]


class TestDeterminism:
    def test_thread_cap_does_not_change_bytes(self, tmp_path):
        outs = []
        for cap in ("1", "8"):
            out = tmp_path / f"scene_{cap}.json"
            res = run_cli("synth", "--n-views", "4", "--width", "64",
                          "--seed", "3", "--out", str(out),
                          env_extra={"MLC_THREADS": cap})
            assert res.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
