import csv
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from panolayout import cli
from panolayout.errors import SceneFormatError
from panolayout.geometry import BoundaryKind
from panolayout.pseudolabel import PseudoLabel
from panolayout.sceneio import boundary_to_rows, document_to_scene, dumps_document, \
    format_float, load_scene, save_scene, scene_to_document, write_pseudolabel_csv, \
    write_stack_csv, write_trajectory_csv
from panolayout.selftrain import IterationRecord
from panolayout.synth import generate_scene, square_room


@pytest.fixture
def scene():
    return generate_scene(square_room(4.0), 3, 64, seed=12)


class TestFloatFormat:
    def test_round_trip_exact(self, rng):
        for x in rng.uniform(-10, 10, 200):
            assert float(format_float(float(x))) == x

    def test_zero_signs(self):
        assert format_float(0.0) == "0.0"
        assert format_float(-0.0) == "-0.0"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            format_float(float("nan"))


class TestSceneRoundTrip:
    def test_save_load_save_is_byte_identical(self, scene, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_scene(scene, p1)
        save_scene(load_scene(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_survive_round_trip(self, scene, tmp_path):
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        loaded = load_scene(path)
        for f0, f1 in zip(scene.frames, loaded.frames):
            assert np.array_equal(f0.boundary_floor.lat, f1.boundary_floor.lat)
            assert np.array_equal(f0.boundary_ceiling.lat, f1.boundary_ceiling.lat)
            assert np.array_equal(f0.pose.rotation, f1.pose.rotation)
            assert np.array_equal(f0.pose.translation, f1.pose.translation)
            assert f0.pose.floor_height == f1.pose.floor_height
        assert loaded.ground_truth is not None
        assert loaded.meta["seed"] == 12

    def test_pseudo_labels_round_trip(self, scene, tmp_path):
        W = scene.image_width
        scene.pseudo_labels = {
            scene.view_ids[0]: PseudoLabel(np.full(W, -0.4), np.full(W, 1e-3),
                                           np.full(W, 3)),
        }
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        loaded = load_scene(path)
        pl = loaded.pseudo_labels[scene.view_ids[0]]
        assert np.array_equal(pl.lat_bar, np.full(W, -0.4))
        assert (pl.support == 3).all()

    def test_pixel_rows_import(self, scene, tmp_path):
        doc = scene_to_document(scene)
        H = scene.image_height
        for rf, f in zip(doc["frames"], scene.frames):
            rf["boundary_floor"] = [float(v) for v in
                                    boundary_to_rows(f.boundary_floor, H)]
            rf["boundary_ceiling"] = [float(v) for v in
                                      boundary_to_rows(f.boundary_ceiling, H)]
        doc.pop("ground_truth")
        path = tmp_path / "rows.json"
        path.write_text(dumps_document(doc))
        loaded = load_scene(path, pixel_rows=True)
        for f0, f1 in zip(scene.frames, loaded.frames):
            assert np.max(np.abs(f0.boundary_floor.lat
                                 - f1.boundary_floor.lat)) < 1e-12


_TOKEN = re.compile(r'"\\u0000(\d+)\\u0000"')


def reference_dumps_document(doc) -> str:
    """Reference writer: the former per-float placeholder substitution."""
    floats = []

    def encode(obj):
        if isinstance(obj, float):
            floats.append(obj)
            return f"\x00{len(floats) - 1}\x00"
        if isinstance(obj, dict):
            return {k: encode(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [encode(v) for v in obj]
        if isinstance(obj, str) and any(ord(c) < 0x20 for c in obj):
            raise ValueError("control characters are not allowed in strings")
        return obj

    text = json.dumps(encode(doc), ensure_ascii=True, separators=(",", ":"))
    return _TOKEN.sub(lambda m: format_float(floats[int(m.group(1))]), text) + "\n"


_finite = st.floats(allow_nan=False, allow_infinity=False)
_float_lists = st.lists(st.one_of(_finite, st.sampled_from([0.0, -0.0, 1.0, 1e16])))
_leaves = st.one_of(st.none(), st.booleans(), st.integers(), _finite,
                    st.text(st.characters(min_codepoint=0x20)), _float_lists)
_documents = st.recursive(_leaves, lambda children: st.one_of(
    st.lists(children, max_size=5), st.dictionaries(st.text(), children, max_size=5)),
    max_leaves=30)


class TestWriterAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(_documents)
    @example([0.0, -0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e17, 0.1])
    @example({"a": [1, 2.5, True, None, "x"], "b": [], "c": {}, "d": (1.0, -0.0)})
    def test_same_bytes_as_reference(self, doc):
        assert dumps_document(doc) == reference_dumps_document(doc)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_scene_documents(self, seed):
        from panolayout.pseudolabel import fuse
        from panolayout.reprojection import build_stacks
        from panolayout.synth import NoiseSpec, lshape_room, perturb
        scene = perturb(generate_scene(lshape_room(), 4, 128, seed=seed),
                        NoiseSpec(boundary_std=0.03, pose_trans_std=0.05,
                                  pose_rot_std=0.01, seed=seed))
        scene.pseudo_labels = {s.target_view: fuse(s)
                               for s in build_stacks(scene, BoundaryKind.FLOOR)}
        doc = scene_to_document(scene)
        assert dumps_document(doc) == reference_dumps_document(doc)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        for doc in ([1.0, bad], {"k": [bad, 0.0]}, bad):
            with pytest.raises(ValueError, match="non-finite"):
                dumps_document(doc)


class TestValidation:
    def doc(self, scene):
        return scene_to_document(scene)

    def test_unknown_version(self, scene):
        doc = self.doc(scene)
        doc["version"] = "2"
        with pytest.raises(SceneFormatError):
            document_to_scene(doc)

    def test_wrong_boundary_length(self, scene):
        doc = self.doc(scene)
        doc["frames"][0]["boundary_floor"] = [-0.5] * 10
        with pytest.raises(SceneFormatError):
            document_to_scene(doc)

    def test_rotation_orthonormality_gate(self, scene):
        doc = self.doc(scene)
        doc["frames"][0]["pose"]["rotation"] = [1.1, 0, 0, 0, 1, 0, 0, 0, 1]
        with pytest.raises(SceneFormatError):
            document_to_scene(doc)

    def test_mildly_denormalized_rotation_is_repaired(self, scene):
        doc = self.doc(scene)
        R = np.asarray(doc["frames"][0]["pose"]["rotation"]).reshape(3, 3)
        doc["frames"][0]["pose"]["rotation"] = \
            [float(v) for v in (R * (1 + 2e-8)).reshape(-1)]
        loaded = document_to_scene(doc)
        R2 = loaded.frames[0].pose.rotation
        assert np.max(np.abs(R2.T @ R2 - np.eye(3))) <= 1e-9

    def test_floor_height_defaults_with_null(self, scene):
        doc = self.doc(scene)
        doc["frames"][0]["floor_height"] = None
        loaded = document_to_scene(doc)
        assert loaded.frames[0].pose.floor_height == 1.6

    def test_wrong_side_boundary_rejected(self, scene):
        doc = self.doc(scene)
        doc["frames"][0]["boundary_floor"] = [0.5] * scene.image_width
        with pytest.raises(SceneFormatError):
            document_to_scene(doc)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SceneFormatError):
            load_scene(path)

    @pytest.mark.parametrize("mutate", [
        lambda d: d["frames"].__setitem__(0, [1, 2]),
        lambda d: d["frames"][0].__setitem__("pose", [1, 2, 3]),
        lambda d: d.__setitem__("ground_truth", 5),
        lambda d: d["ground_truth"].__setitem__(0, ["view000"]),
        lambda d: d["frames"][0]["pose"].__setitem__("translation", ["a", 0, 0]),
        lambda d: d["frames"][0]["pose"].__setitem__("rotation", ["a"] * 9),
        lambda d: d["frames"][0].__setitem__("boundary_floor", ["a"] * 64),
        lambda d: d["frames"][0].__setitem__("floor_height", True),
        lambda d: d.__setitem__("image_height", True),
        lambda d: d["ground_truth"][0].__setitem__("id", "no-such-view"),
        lambda d: d.__setitem__("pseudo_labels", 5),
        lambda d: d.__setitem__("pseudo_labels", [{
            "id": "no-such-view", "lat_bar": [-0.5] * 64, "sigma": [0.1] * 64,
            "support": [1] * 64}]),
        lambda d: d.__setitem__("pseudo_labels", [{
            "id": "view000", "lat_bar": [float("nan")] * 64, "sigma": [0.1] * 64,
            "support": [1] * 64}]),
        lambda d: d.__setitem__("pseudo_labels", [{
            "id": "view000", "lat_bar": [-0.5] * 64, "sigma": [0.1] * 64,
            "support": [2.5] * 64}]),
        lambda d: d.__setitem__("meta", [1]),
        lambda d: d["ground_truth"][0].pop("boundary_floor"),
        lambda d: d["ground_truth"][0].__setitem__("boundary_floor", None),
        lambda d: d["frames"][0].__setitem__("floor_height", float("inf")),
        lambda d: d["frames"][0].__setitem__("floor_height", float("nan")),
        lambda d: d["frames"][0].__setitem__("floor_height", 3e154),
        lambda d: d["frames"][0]["pose"].__setitem__("translation", [0.0, -2e6, 0.0]),
        lambda d: d["frames"][0]["pose"].__setitem__("translation", [10 ** 400, 0, 0]),
        lambda d: d.__setitem__("image_height", 1_000_000_000),
        lambda d: d.__setitem__("image_height", d["image_width"] + 1),
        lambda d: d.__setitem__("image_height", 0),
        lambda d: d["frames"][0].__setitem__("id", "v\x01"),
        lambda d: d.__setitem__("meta", {"note\n": "x"}),
        lambda d: d.__setitem__("meta", {"note": ["ok", {"deep": "a\x1fb"}]}),
    ], ids=["frame-list", "pose-list", "ground-truth-int", "ground-truth-entry-list",
            "translation-text", "rotation-text", "boundary-text",
            "floor-height-bool", "image-height-bool", "ground-truth-unknown-id",
            "pseudo-labels-int", "pseudo-labels-unknown-id",
            "pseudo-labels-nan", "pseudo-labels-fractional-support", "meta-list",
            "ground-truth-floor-absent", "ground-truth-floor-null",
            "floor-height-inf", "floor-height-nan", "floor-height-huge",
            "translation-huge", "translation-int-beyond-float", "image-height-huge",
            "image-height-above-width", "image-height-zero", "frame-id-control",
            "meta-key-control", "meta-value-control"])
    def test_malformed_field_exits_3_with_json_error(self, scene, tmp_path,
                                                     capsys, mutate):
        doc = self.doc(scene)
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SceneFormatError):
            load_scene(path)
        assert cli.main(["metric", "--scene", str(path)]) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "SceneFormatError"

    def test_control_characters_rejected_on_save(self):
        with pytest.raises(ValueError):
            dumps_document({"id": "a\x00b"})

    def test_rejected_scene_leaves_no_file(self, scene, tmp_path):
        scene.frames[0].view_id = "a\x01b"
        path = tmp_path / "scene.json"
        with pytest.raises(ValueError, match="control"):
            save_scene(scene, path)
        assert not path.exists()


class TestCsvWriters:
    def test_stack_csv(self, scene, tmp_path):
        from panolayout.reprojection import build_stack
        stack = build_stack(scene, scene.view_ids[0], BoundaryKind.FLOOR)
        path = tmp_path / "stack.csv"
        write_stack_csv(stack, path)
        raw = path.read_bytes()
        assert b"\r\n" in raw
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["column", "view", "lat", "valid"]
        assert len(rows) == 1 + stack.width * stack.n_views
        first = rows[1]
        assert float(first[2]) == stack.lat[0, 0]

    def test_pseudolabel_csv(self, tmp_path):
        pl = PseudoLabel(np.array([-0.5] * 8), np.array([1e-3] * 8),
                         np.array([4] * 8))
        path = tmp_path / "pl.csv"
        write_pseudolabel_csv(pl, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["column", "lat_bar", "sigma", "support"]
        assert rows[1] == ["0", "-0.5", "0.001", "4"]

    def test_trajectory_csv(self, tmp_path):
        recs = [IterationRecord(0, 1.5, 2.5, h_mlc=7.25, iou2d=0.875, iou3d=0.75),
                IterationRecord(1, 1.0, 2.0)]
        path = tmp_path / "traj.csv"
        write_trajectory_csv(recs, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["iter", "h_mlc", "wbc", "l1", "iou2d", "iou3d"]
        assert rows[1] == ["0", "7.25", "1.5", "2.5", "0.875", "0.75"]
        assert rows[2] == ["1", "", "1", "2", "", ""]
