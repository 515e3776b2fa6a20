import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from panolayout.sceneio import load_scene


def run_cli(*args, env_extra=None, cwd=None):
    import os
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "panolayout", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


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
