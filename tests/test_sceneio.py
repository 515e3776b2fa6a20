import base64
import csv
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from panolayout import cli
from panolayout.errors import SceneFormatError
from panolayout.geometry import BoundaryKind, latitude_to_row
from panolayout.pseudolabel import PseudoLabel
from panolayout.reprojection import BoundaryStack
from panolayout.scene import has_control
from panolayout.sceneio import document_to_scene, dumps_document, format_float, \
    load_scene, save_scene, scene_to_document, write_density_csv, \
    write_pseudolabel_csv, write_report_csv, write_report_json, write_stack_csv, \
    write_trajectory_csv
from panolayout.selftrain import IterationRecord
from panolayout.synth import generate_scene, square_room

from conftest import float_neighbours, text_document


@pytest.fixture
def scene():
    return generate_scene(square_room(4.0), 3, 64, seed=12)


def reference_format_float(x) -> str:
    """The former format_float, before _float_array held the rule."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if x == 0.0:
        return "-0.0" if math.copysign(1.0, x) < 0 else "0.0"
    return format(x, ".17g")


# NaN, +-inf, the largest double, where %.17g turns to exponent notation, and
# the neighbours of +-0.0, of the smallest normal double, of pi/2 and of 1e-4.
_FLOAT_EDGES = [math.nan, math.inf, -math.inf, 1.7976931348623157e308, 1e16, 1e17,
                *(s * v for x in (0.0, 2.2250738585072014e-308, math.pi / 2, 1e-4)
                  for v in float_neighbours(x) for s in (1.0, -1.0))]


def _formatted(fn, x):
    """fn(x), or the message of the ValueError it raised."""
    try:
        return fn(x)
    except ValueError as e:
        return str(e)


class TestFloatFormat:
    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(st.sampled_from(_FLOAT_EDGES), st.floats(width=64)))
    def test_matches_reference_bit_for_bit(self, x):
        assert _formatted(format_float, x) == _formatted(reference_format_float, x)

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
                                    latitude_to_row(f.boundary_floor.lat, H)]
            rf["boundary_ceiling"] = [float(v) for v in
                                      latitude_to_row(f.boundary_ceiling.lat, H)]
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
    return _TOKEN.sub(lambda m: reference_format_float(floats[int(m.group(1))]),
                      text) + "\n"


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
    @example({"f8": 'a"b\\c'})   # a hand-built payload is escaped
    def test_same_bytes_as_reference(self, doc):
        assert dumps_document(doc) == reference_dumps_document(doc)

    @pytest.mark.parametrize("seed, width, edit", [
        (0, 128, None), (1, 128, None), (2, 128, "no-ground-truth"),
        (3, 128, "frame-without-ceiling"), (4, 8, None)],
        ids=["0", "1", "no-ground-truth", "frame-without-ceiling", "width8"])
    def test_scene_documents(self, seed, width, edit, tmp_path):
        from panolayout.pseudolabel import fuse
        from panolayout.reprojection import build_stacks
        from panolayout.synth import NoiseSpec, lshape_room, perturb
        scene = perturb(generate_scene(lshape_room(), 4, width, seed=seed),
                        NoiseSpec(boundary_std=0.03, pose_trans_std=0.05,
                                  pose_rot_std=0.01, seed=seed))
        if edit == "no-ground-truth":
            scene.ground_truth = None
        elif edit == "frame-without-ceiling":
            scene.frames[1].boundary_ceiling = None
        scene.pseudo_labels = {s.target_view: fuse(s)
                               for s in build_stacks(
                                   scene, scene.world_polylines((BoundaryKind.FLOOR,)))}
        doc = scene_to_document(scene)
        assert dumps_document(doc) == reference_dumps_document(doc)
        save_scene(scene, tmp_path / "scene.json")
        assert (tmp_path / "scene.json").read_bytes() == \
            dumps_document(doc).encode("ascii")

    def test_save_scene_joins_no_document_string(self, tmp_path):
        # 20 views x 1024 columns, boundaries packed: 3.41 MB traced when the
        # pieces were joined into one string before the write, 1.73 MB
        # written piece by piece.
        import tracemalloc
        from panolayout.synth import NoiseSpec, ngon_room, perturb
        scene = perturb(generate_scene(ngon_room(), 20, 1024, seed=0),
                        NoiseSpec(boundary_std=0.03, seed=1))
        path = tmp_path / "scene.json"
        tracemalloc.start()
        try:
            save_scene(scene, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2 ** 20
        assert path.read_bytes() == \
            dumps_document(scene_to_document(scene)).encode("ascii")

    def test_save_scene_checks_no_packed_payload(self, tmp_path, monkeypatch):
        # The writer's own base64 holds no control character and nothing JSON
        # escapes, so it skips has_control; it used to scan each payload.
        from panolayout import sceneio
        from panolayout.synth import NoiseSpec, perturb
        scene = perturb(generate_scene(square_room(4.0), 3, 1024, seed=0),
                        NoiseSpec(boundary_std=0.03, seed=1))
        payloads = {r[k]["f8"] for key in ("frames", "ground_truth")
                    for r in scene_to_document(scene)[key]
                    for k in ("boundary_floor", "boundary_ceiling")}
        seen = []
        monkeypatch.setattr(sceneio, "has_control",
                            lambda s: seen.append(s) or has_control(s))
        save_scene(scene, tmp_path / "scene.json")
        assert len(payloads) == 12 and "view000" in seen
        assert not payloads.intersection(seen)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        for doc in ([1.0, bad], {"k": [bad, 0.0]}, bad, [0.5, bad, -float("inf")]):
            with pytest.raises(ValueError) as e:
                dumps_document(doc)
            assert str(e.value) == f"cannot serialize non-finite float {bad!r}"


def _with_meta(doc, value: str) -> bytes:
    """The document's JSON with meta {"x": value}, value written verbatim."""
    return json.dumps({**doc, "meta": {"x": "@"}}).replace('"@"', value).encode()


class TestValidation:
    def doc(self, scene):
        return scene_to_document(scene)

    def test_unknown_version(self, scene):
        doc = self.doc(scene)
        doc["version"] = "99"
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
        lambda d: d.__setitem__("meta", {"x": float("nan")}),
        lambda d: d.__setitem__("meta", {"x": [1, {"y": float("-inf")}]}),
        # A mutation that returns bytes replaces the whole file.
        lambda d: _with_meta(d, "1e999"),
        lambda d: _with_meta(d, "9" * 5000),
        lambda d: b"[" * 100_000 + b"]" * 100_000,
        lambda d: json.dumps(d).encode("utf-16"),
    ], ids=["frame-list", "pose-list", "ground-truth-int", "ground-truth-entry-list",
            "translation-text", "rotation-text", "boundary-text",
            "floor-height-bool", "image-height-bool", "ground-truth-unknown-id",
            "pseudo-labels-int", "pseudo-labels-unknown-id",
            "pseudo-labels-nan", "pseudo-labels-fractional-support", "meta-list",
            "ground-truth-floor-absent", "ground-truth-floor-null",
            "floor-height-inf", "floor-height-nan", "floor-height-huge",
            "translation-huge", "translation-int-beyond-float", "image-height-huge",
            "image-height-above-width", "image-height-zero", "frame-id-control",
            "meta-key-control", "meta-value-control", "meta-nan", "meta-infinity",
            "meta-1e999", "meta-int-beyond-digit-limit", "nested-100000-deep",
            "not-utf8"])
    def test_malformed_field_exits_3_with_json_error(self, scene, tmp_path,
                                                     capsys, mutate):
        doc = self.doc(scene)
        data = mutate(doc)
        path = tmp_path / "bad.json"
        path.write_bytes(data if isinstance(data, bytes) else json.dumps(doc).encode())
        with pytest.raises(SceneFormatError):
            load_scene(path)
        assert cli.main(["metric", "--scene", str(path)]) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "SceneFormatError"

    def test_control_characters_rejected_on_save(self):
        with pytest.raises(ValueError):
            dumps_document({"id": "a\x00b"})
        with pytest.raises(ValueError):   # a hand-built payload is checked
            dumps_document({"f8": "a\x01b"})

    def test_rejected_scene_leaves_no_file(self, scene, tmp_path):
        scene.frames[0].view_id = "a\x01b"
        path = tmp_path / "scene.json"
        with pytest.raises(ValueError, match="control"):
            save_scene(scene, path)
        assert not path.exists()

    def _metric_error(self, doc, tmp_path, capsys) -> str:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["metric", "--scene", str(path)]) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "SceneFormatError"
        return err["error"]["message"]

    @staticmethod
    def _label(vid="view000"):
        return {"id": vid, "lat_bar": [-0.5] * 64, "sigma": [0.1] * 64,
                "support": [1] * 64}

    @pytest.mark.parametrize("key", ["ground_truth", "pseudo_labels"])
    def test_repeated_id_rejected(self, scene, tmp_path, capsys, key):
        # A repeated record used to replace the earlier one without a word.
        doc = self.doc(scene)
        if key == "ground_truth":
            doc[key].append({"id": "view000", "boundary_floor": [-0.5] * 64})
        else:
            doc[key] = [self._label(), self._label("view001"), self._label()]
        message = self._metric_error(doc, tmp_path, capsys)
        assert message == f"{key} 'view000': id repeated"

    @pytest.mark.parametrize("field, mutate", [
        ("translation", lambda d: d["frames"][0]["pose"].__setitem__(
            "translation", [False, False, True])),
        ("rotation", lambda d: d["frames"][0]["pose"].__setitem__(
            "rotation", [True, False, False, False, True, False, False, False, True])),
        ("boundary_floor", lambda d: d["frames"][1].__setitem__(
            "boundary_floor", [-0.5] * 5 + [False] + [-0.5] * 58)),
        ("boundary_ceiling", lambda d: d["ground_truth"][2].__setitem__(
            "boundary_ceiling", [True] * 64)),
        ("lat_bar", lambda d: d["pseudo_labels"][0]["lat_bar"].__setitem__(0, True)),
        ("sigma", lambda d: d["pseudo_labels"][0].__setitem__("sigma", [True] * 64)),
        ("support", lambda d: d["pseudo_labels"][0].__setitem__(
            "support", [True] * 64)),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_booleans_in_numeric_arrays_rejected(self, scene, tmp_path, capsys,
                                                 field, mutate):
        # numpy reads true and false as 1.0 and 0.0; a scene file may not.
        doc = self.doc(scene)
        doc["pseudo_labels"] = [self._label()]
        mutate(doc)
        message = self._metric_error(doc, tmp_path, capsys)
        assert message.endswith(f": {field} must be numeric, not true or false")


def _pack(values) -> dict:
    return {"f8": base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()}


def _boundary_bytes(scene) -> list[bytes]:
    out = [b.lat.tobytes() for f in scene.frames
           for b in (f.boundary_floor, f.boundary_ceiling) if b is not None]
    for gt in (scene.ground_truth or {}).values():
        out += [gt[k].lat.tobytes() for k in BoundaryKind if k in gt]
    return out


class TestPackedArrays:
    def test_writer_packs_boundaries_and_nothing_else(self, scene):
        scene.pseudo_labels = {scene.view_ids[0]: PseudoLabel(
            np.full(64, -0.4), np.full(64, 1e-3), np.full(64, 3))}
        doc = scene_to_document(scene)
        assert doc["version"] == "2"
        for record in doc["frames"] + doc["ground_truth"]:
            for key in ("boundary_floor", "boundary_ceiling"):
                assert list(record[key]) == ["f8"]
                assert len(base64.b64decode(record[key]["f8"])) == 64 * 8
        label = doc["pseudo_labels"][0]
        assert all(isinstance(label[k], list) for k in ("lat_bar", "sigma", "support"))
        pose = doc["frames"][0]["pose"]
        assert isinstance(pose["rotation"], list)
        assert isinstance(pose["translation"], list)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        from panolayout.pseudolabel import fuse
        from panolayout.reprojection import build_stacks
        from panolayout.synth import NoiseSpec, lshape_room, perturb
        scene = perturb(generate_scene(lshape_room(), 4, 128, seed=0),
                        NoiseSpec(boundary_std=0.03, pose_trans_std=0.05,
                                  pose_rot_std=0.01, seed=0))
        scene.pseudo_labels = {s.target_view: fuse(s)
                               for s in build_stacks(
                                   scene, scene.world_polylines((BoundaryKind.FLOOR,)))}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_scene(scene, p1)
        loaded = load_scene(p1)
        save_scene(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert _boundary_bytes(loaded) == _boundary_bytes(scene)
        for vid, pl in scene.pseudo_labels.items():
            got = loaded.pseudo_labels[vid]
            assert got.lat_bar.tobytes() == pl.lat_bar.tobytes()
            assert got.sigma.tobytes() == pl.sigma.tobytes()
            assert np.array_equal(got.support, pl.support)
            assert got.support.dtype == np.int64

    def test_version_1_text_loads_as_its_packed_save(self, scene, tmp_path):
        text, packed = tmp_path / "v1.json", tmp_path / "v2.json"
        text.write_text(dumps_document(text_document(scene_to_document(scene))))
        assert b'"version":"1"' in text.read_bytes()
        assert b'"f8"' not in text.read_bytes()
        from_text = load_scene(text)
        save_scene(from_text, packed)
        from_packed = load_scene(packed)
        assert _boundary_bytes(from_text) == _boundary_bytes(from_packed) \
            == _boundary_bytes(scene)
        # The packed save of the text file is the packed save of the scene.
        save_scene(scene, tmp_path / "direct.json")
        assert packed.read_bytes() == (tmp_path / "direct.json").read_bytes()

    def test_loaded_array_is_owned_and_writable(self, scene):
        lat = document_to_scene(scene_to_document(scene)).frames[0].boundary_floor.lat
        assert lat.flags.owndata and lat.flags.writeable
        assert lat.dtype == np.float64

    def test_pixel_rows_same_from_packed_and_text(self, scene, tmp_path):
        doc = scene_to_document(scene)
        for record in doc["frames"] + doc["ground_truth"]:
            for key in ("boundary_floor", "boundary_ceiling"):
                lat = np.frombuffer(base64.b64decode(record[key]["f8"]), "<f8")
                record[key] = _pack(latitude_to_row(lat, scene.image_height))
        packed, text = tmp_path / "packed.json", tmp_path / "text.json"
        packed.write_text(dumps_document(doc))
        text.write_text(dumps_document(text_document(doc)))
        assert _boundary_bytes(load_scene(packed, pixel_rows=True)) == \
            _boundary_bytes(load_scene(text, pixel_rows=True))
        for path in (packed, text):
            assert cli.main(["evaluate", "--scene", str(path), "--pixel-rows",
                             "--raster", "64", "--out", f"{path}.report"]) == 0
        assert (tmp_path / "packed.json.report").read_bytes() == \
            (tmp_path / "text.json.report").read_bytes()

    @pytest.mark.parametrize("record", ["frames", "ground_truth"])
    @pytest.mark.parametrize("bad", [
        lambda f8, lat: {"f8": f8[:10] + "*" + f8[11:]},
        lambda f8, lat: {"f8": f8[:10] + "é" + f8[11:]},
        lambda f8, lat: {"f8": f8[:-1]},
        lambda f8, lat: {"f8": f8 + "A==="},
        lambda f8, lat: {"f8": base64.b64encode(bytes(8 * 64 - 1)).decode()},
        lambda f8, lat: _pack(lat[:-1]),
        lambda f8, lat: _pack(np.append(lat, lat[0])),
        lambda f8, lat: {"f8": f8, "n": 64},
        lambda f8, lat: {"f4": f8},
        lambda f8, lat: {},
        lambda f8, lat: {"f8": 1},
        lambda f8, lat: {"f8": [f8]},
        lambda f8, lat: {"f8": None},
        lambda f8, lat: _pack(np.where(np.arange(64) == 3, np.nan, lat)),
        lambda f8, lat: _pack(np.where(np.arange(64) == 3, np.inf, lat)),
        lambda f8, lat: _pack(-lat),
    ], ids=["non-alphabet", "non-ascii", "truncated", "trailing-after-padding",
            "bytes-not-multiple-of-8", "width-short", "width-long", "extra-key",
            "unknown-key", "empty-object", "f8-int", "f8-list", "f8-null", "nan",
            "inf", "wrong-side"])
    def test_malformed_packed_array_exits_3(self, scene, tmp_path, capsys,
                                            record, bad):
        doc = scene_to_document(scene)
        target = doc[record][1]
        lat = np.frombuffer(base64.b64decode(target["boundary_floor"]["f8"]), "<f8")
        target["boundary_floor"] = bad(target["boundary_floor"]["f8"], lat)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SceneFormatError):
            load_scene(path)
        assert cli.main(["metric", "--scene", str(path)]) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "SceneFormatError"
        ctx = {"frames": "frame", "ground_truth": "ground_truth"}[record]
        assert err["error"]["message"].startswith(f"{ctx} 'view001': ")


class TestHasControl:
    @staticmethod
    def reference(s: str) -> bool:
        """The former per-character form."""
        return any(ord(c) < 0x20 for c in s)

    def test_every_ascii_code_point(self):
        for i in range(0x80):
            for s in (chr(i), f"ab{chr(i)}", f"{chr(i)}z", f"x{chr(i)}y"):
                assert has_control(s) == self.reference(s), hex(i)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.text(), st.text(st.characters(max_codepoint=0x7f))))
    def test_matches_reference(self, s):
        assert has_control(s) == self.reference(s)


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


# The former table and report writers, kept verbatim as byte oracles for the
# ones built on one CSV helper and on dataclasses.asdict.
def _open_csv(path):
    return open(path, "w", encoding="utf-8", newline="")


def reference_write_stack_csv(stack: BoundaryStack, path) -> None:
    """Stack dump: one row per (column, view) with lat and validity."""
    with _open_csv(path) as f:
        w = csv.writer(f)
        w.writerow(["column", "view", "lat", "valid"])
        for theta in range(stack.width):
            for i, vid in enumerate(stack.view_ids):
                lat = stack.lat[theta, i]
                w.writerow([theta, vid,
                            "" if np.isnan(lat) else format_float(float(lat)),
                            int(stack.valid[theta, i])])


def reference_write_pseudolabel_csv(pl: PseudoLabel, path) -> None:
    with _open_csv(path) as f:
        w = csv.writer(f)
        w.writerow(["column", "lat_bar", "sigma", "support"])
        for i in range(pl.width):
            w.writerow([i, format_float(float(pl.lat_bar[i])),
                        format_float(float(pl.sigma[i])), int(pl.support[i])])


def reference_write_trajectory_csv(records, path) -> None:
    with _open_csv(path) as f:
        w = csv.writer(f)
        w.writerow(["iter", "h_mlc", "wbc", "l1", "iou2d", "iou3d"])
        for r in records:
            w.writerow([
                r.iteration,
                "" if r.h_mlc is None else format_float(r.h_mlc),
                format_float(r.wbc), format_float(r.l1),
                "" if r.iou2d is None else format_float(r.iou2d),
                "" if r.iou3d is None else format_float(r.iou3d),
            ])


def reference_write_density_csv(cells: np.ndarray, path) -> None:
    """Occupied density cells as (u, v, phi) rows."""
    with _open_csv(path) as f:
        w = csv.writer(f)
        w.writerow(["u", "v", "phi"])
        for u, v, phi in cells:
            w.writerow([int(u), int(v), format_float(float(phi))])


def reference_write_report_csv(report, path) -> None:
    """One metric row per evaluated view."""
    with _open_csv(path) as f:
        w = csv.writer(f)
        w.writerow(["view_id", "iou2d", "iou3d", "rmse", "delta1"])
        for r in report.per_view:
            w.writerow([r["view_id"], format_float(float(r["iou2d"])),
                        format_float(float(r["iou3d"])),
                        format_float(float(r["rmse"])),
                        format_float(float(r["delta1"]))])


def reference_write_report_json(report, path) -> None:
    doc = {
        "iou2d": float(report.iou2d), "iou3d": float(report.iou3d),
        "rmse": float(report.rmse), "delta1": float(report.delta1),
        "per_view": [{
            "view_id": r["view_id"], "iou2d": float(r["iou2d"]),
            "iou3d": float(r["iou3d"]), "rmse": float(r["rmse"]),
            "delta1": float(r["delta1"]),
        } for r in report.per_view],
    }
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(dumps_document(doc))


class TestWritersAgainstReference:
    def same_bytes(self, tmp_path, writer, reference, obj):
        ours, ref = tmp_path / "ours", tmp_path / "ref"
        writer(obj, ours)
        reference(obj, ref)
        assert ours.read_bytes() == ref.read_bytes()

    def test_stack_with_nan_entries(self, tmp_path):
        lat = np.array([[-0.5, np.nan, -0.25], [np.nan, np.nan, -1e-300],
                        [-0.0, -0.1, np.nan]])
        stack = BoundaryStack("b", lat, BoundaryKind.FLOOR, ["a", "b", "c,d"])
        self.same_bytes(tmp_path, write_stack_csv, reference_write_stack_csv, stack)

    def test_real_stack(self, tmp_path):
        from panolayout.reprojection import build_stack
        from panolayout.synth import NoiseSpec, lshape_room, perturb
        scene = perturb(generate_scene(lshape_room(), 4, 64, seed=2),
                        NoiseSpec(boundary_std=0.05, seed=3))
        stack = build_stack(scene, scene.view_ids[1], BoundaryKind.CEILING)
        self.same_bytes(tmp_path, write_stack_csv, reference_write_stack_csv, stack)

    def test_trajectory_with_none_fields(self, tmp_path):
        recs = [IterationRecord(0, 1.5, 2.5, h_mlc=7.25, iou2d=0.875, iou3d=0.75),
                IterationRecord(1, 0.1, 1e-17),
                IterationRecord(2, 0.0, -0.0, h_mlc=6.5, iou2d=1 / 3),
                IterationRecord(3, 2.0, 3.0, h_mlc=6.0)]
        self.same_bytes(tmp_path, write_trajectory_csv,
                        reference_write_trajectory_csv, recs)

    def test_density_cells(self, tmp_path):
        from panolayout.consistency import density_cells
        scene = generate_scene(square_room(4.0), 3, 64, seed=1)
        u, v, phi = density_cells(scene.world_polylines(), 64, 64)
        write_density_csv(u, v, phi, tmp_path / "ours")
        # The reference takes the former (k, 3) float rows.
        reference_write_density_csv(
            np.stack([u.astype(float), v.astype(float), phi], axis=1), tmp_path / "ref")
        assert (tmp_path / "ours").read_bytes() == (tmp_path / "ref").read_bytes()

    def test_pseudolabel(self, tmp_path):
        from panolayout.pseudolabel import fuse
        from panolayout.reprojection import build_stack
        from panolayout.synth import NoiseSpec, perturb
        scene = perturb(generate_scene(square_room(4.0), 4, 64, seed=5),
                        NoiseSpec(boundary_std=0.03, seed=6))
        pl = fuse(build_stack(scene, scene.view_ids[0], BoundaryKind.FLOOR))
        self.same_bytes(tmp_path, write_pseudolabel_csv,
                        reference_write_pseudolabel_csv, pl)

    def test_evaluate_report(self, tmp_path):
        from panolayout.evaluation import evaluate_scene
        from panolayout.synth import NoiseSpec, perturb
        clean = generate_scene(square_room(4.0), 3, 64, seed=7)
        noisy = perturb(clean, NoiseSpec(boundary_std=0.03, seed=8))
        for scene in (clean, noisy):
            report = evaluate_scene(scene, raster=128)
            self.same_bytes(tmp_path, write_report_json,
                            reference_write_report_json, report)
            self.same_bytes(tmp_path, write_report_csv,
                            reference_write_report_csv, report)
