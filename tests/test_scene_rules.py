"""Scene and CameraPose own the rules of a valid scene.

A scene built through the constructors either raises there, or saves, loads
and saves again byte for byte: the loader adds only rules about the JSON
document itself.
"""

import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panolayout import geometry
from panolayout.errors import SceneFormatError
from panolayout.geometry import BoundaryKind, CameraPose, SphericalBoundary, \
    ceiling_height, is_rotation
from panolayout.pseudolabel import PseudoLabel
from panolayout.scene import Scene, ViewFrame
from panolayout.sceneio import document_to_scene, load_scene, save_scene, \
    scene_to_document
from panolayout.synth import generate_scene, square_room

from conftest import rotation_about_y

W = 64


def _frame(vid="v0", translation=(0.0, 0.0, 0.0), floor_height=1.6):
    pose = CameraPose(rotation_about_y(0.3), np.asarray(translation), floor_height)
    return ViewFrame(vid, pose, SphericalBoundary(np.full(W, -0.5), BoundaryKind.FLOOR))


class TestConstructorsRaise:
    """Each of these used to build and save, and then fail to load."""

    @pytest.mark.parametrize("build", [
        lambda: Scene([_frame("")], W, W // 2),
        lambda: Scene([_frame()], W, W + 1),
        lambda: Scene([_frame()], W, 0),
        lambda: Scene([_frame()], W, W // 2, meta={"a\x01": 1}),
        lambda: Scene([_frame()], W, W // 2, ground_truth={
            "v9": {BoundaryKind.FLOOR: _frame().boundary_floor}}),
    ], ids=["empty-frame-id", "image-height-above-width", "image-height-zero",
            "meta-key-control", "ground-truth-names-no-frame"])
    def test_scene_rule(self, build):
        with pytest.raises(SceneFormatError):
            build()

    @pytest.mark.parametrize("meta, message", [
        ({1: "x"}, "keys must be strings"),
        ({"x": [{"y": {2: 3}}]}, "keys must be strings"),
        ({"x": {1, 2}}, "type set has no JSON form"),
        ({"x": b"x"}, "type bytes has no JSON form"),
        ({"x": (1, object())}, "type object has no JSON form"),
        ({"x": 10 ** 5000}, "an int too long to write"),
    ], ids=["int-key", "nested-int-key", "set", "bytes", "object", "int-5001-digits"])
    def test_meta_value_types(self, meta, message):
        # These used to build, and then fail to save with a TypeError or a
        # ValueError.
        with pytest.raises(SceneFormatError, match=f"meta: {message}"):
            Scene([_frame("v0"), _frame("v1")], W, W // 2, meta=meta)

    @pytest.mark.parametrize("lat_bar, sigma, support, message", [
        (-0.5, 1e-3, 7, "support must be whole view counts"),
        (-0.5, 1e-3, -1, "support must be whole view counts"),
        (-0.5, 1e-3, 1.5, "support must be whole view counts"),
        (-0.5, 1e-3, math.nan, "support must be whole view counts"),
        (math.nan, 1e-3, 1, "lat_bar and sigma must be finite"),
        (-0.5, math.inf, 1, "lat_bar and sigma must be finite"),
    ], ids=["support-above-frames", "support-negative", "support-fractional",
            "support-nan", "lat-bar-nan", "sigma-inf"])
    def test_pseudo_label_values(self, lat_bar, sigma, support, message):
        # These used to build and save, and then fail to load.
        label = PseudoLabel(np.full(W, lat_bar), np.full(W, sigma), np.full(W, support))
        with pytest.raises(SceneFormatError, match=f"pseudo_labels 'v0': {message}"):
            Scene([_frame("v0"), _frame("v1")], W, W // 2, pseudo_labels={"v0": label})

    @pytest.mark.parametrize("kwargs", [{"translation": (2e6, 0.0, 0.0)},
                                        {"floor_height": 2e6}],
                             ids=["translation-2e6", "floor-height-2e6"])
    def test_pose_rule(self, kwargs):
        with pytest.raises(ValueError, match="1e6 m"):
            _frame(**kwargs)


class TestRotationRule:
    @pytest.mark.parametrize("scale", [1 + 4.5e-10, 1 + 4.5e-8])
    def test_loader_repairs_exactly_what_camera_pose_rejects(self, scale, caplog):
        # 1 + 4.5e-10: orthonormality defect 9.0e-10, det - 1 = 1.35e-9. The
        # loader used to skip the repair, and CameraPose then rejected it.
        scene = generate_scene(square_room(4.0), 2, W, seed=1)
        doc = scene_to_document(scene)
        R = np.asarray(doc["frames"][0]["pose"]["rotation"]).reshape(3, 3) * scale
        assert not is_rotation(R)
        with pytest.raises(ValueError, match="rotation"):
            CameraPose(R, np.zeros(3))
        doc["frames"][0]["pose"]["rotation"] = [float(v) for v in R.reshape(-1)]
        with caplog.at_level(logging.WARNING, logger="panolayout.sceneio"):
            loaded = document_to_scene(doc)
        assert "re-orthonormalized" in caplog.text
        assert is_rotation(loaded.frames[0].pose.rotation)

    @pytest.mark.parametrize("entry", [1e300, math.inf, math.nan])
    def test_huge_or_non_finite_entry_rejected_without_warning(self, entry):
        # R^T R of a 1e300 entry used to overflow, a RuntimeWarning here.
        R = np.eye(3)
        R[0, 1] = entry
        with pytest.raises(ValueError, match="rotation"):
            CameraPose(R, np.zeros(3))
        doc = scene_to_document(generate_scene(square_room(4.0), 2, W, seed=1))
        doc["frames"][1]["pose"]["rotation"] = [float(v) for v in R.reshape(-1)]
        with pytest.raises(SceneFormatError, match="rotation not orthonormal"):
            document_to_scene(doc)

    def test_exact_rotations_keep_their_bits(self):
        scene = generate_scene(square_room(4.0), 3, W, seed=2)
        loaded = document_to_scene(scene_to_document(scene))
        for f0, f1 in zip(scene.frames, loaded.frames):
            assert np.array_equal(f0.pose.rotation, f1.pose.rotation)


_RULES = ("width", "height", "ids", "rotation", "translation", "floor_height",
          "kinds", "boundary_width", "ground_truth", "pseudo_labels", "label_width",
          "label_support")
_ids = st.sampled_from(["a", "b", "c", "", "e\x01"])
# Keys and values that no scene file can hold: an int key, values of types
# JSON lacks, and ints beyond the interpreter's 4300-digit limit.
_meta_keys = _ids | st.just(1)
_meta_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(st.sampled_from("x\x1f\u00e9\ud800"), max_size=3),
    st.sampled_from([b"x", frozenset()]), st.builds(object), st.sets(st.integers()),
    st.integers(4300, 4400).map(lambda n: 10 ** n))
_meta = st.dictionaries(_meta_keys, st.recursive(
    _meta_leaves, lambda c: st.one_of(st.lists(c, max_size=3),
                                      st.dictionaries(_meta_keys, c, max_size=3)),
    max_leaves=8), max_size=3)


@st.composite
def _scenes(draw):
    """A thunk building a Scene from constructor arguments that break none,
    one or two of the rules (meta may break its own at any time)."""
    broken = draw(st.frozensets(st.sampled_from(_RULES), max_size=2))

    def pick(rule, valid, *bad):
        return draw(st.sampled_from(bad)) if rule in broken else valid

    width = pick("width", draw(st.sampled_from([8, 16])), 7, 8.0, True)
    columns = int(width)
    height = pick("height", draw(st.integers(1, 8)), -1, 0, 17, 10 ** 400)
    ids = draw(st.lists(_ids, min_size=1, max_size=3) if "ids" in broken
               else st.lists(st.sampled_from("abc"), min_size=1, max_size=3,
                             unique=True))
    frames = [(vid, draw(st.floats(-math.pi, math.pi)),
               pick("rotation", 1.0, 1 + 4.5e-10, 1 + 1e-8),
               pick("translation", draw(st.sampled_from([(-2.5, 0.0, 1.0),
                                                         (1e6, -1e6, 0.0)])),
                    (2e6, 0.0, 0.0), (0.0, math.nan, 0.0)),
               pick("floor_height", draw(st.sampled_from([1.6, 2, 1e6])),
                    2e6, 0.0, math.inf),
               pick("kinds", draw(st.sampled_from([tuple(BoundaryKind),
                                                   (BoundaryKind.FLOOR,)])),
                    (BoundaryKind.CEILING,)),
               pick("boundary_width", columns, 9, 17)) for vid in ids]
    names = [*ids, *(["zz"] if "ground_truth" in broken else [])]
    gt = draw(st.none() | st.sets(st.sampled_from(names)))
    names = [*ids, *(["zz"] if "pseudo_labels" in broken else [])]
    labels = draw(st.none() | st.sets(st.sampled_from(names)))
    label_width = pick("label_width", columns, 9, 17)
    label_support = pick("label_support", len(frames), len(frames) + 1, -1, 0.5)
    meta = draw(_meta)

    def boundary(kind, n):
        return SphericalBoundary(np.full(n, kind.side * 0.4), kind)

    def build():
        views = []
        for vid, yaw, scale, t, h, kinds, n in frames:
            pose = CameraPose(rotation_about_y(yaw) * scale, np.asarray(t), h)
            b = {k: boundary(k, n) for k in kinds}
            views.append(ViewFrame(vid, pose, b.get(BoundaryKind.FLOOR),
                                   b.get(BoundaryKind.CEILING)))
        truth = None if gt is None else {
            vid: {BoundaryKind.FLOOR: boundary(BoundaryKind.FLOOR, columns)}
            for vid in sorted(gt)}
        fused = None if labels is None else {
            vid: PseudoLabel(np.full(label_width, -0.5), np.full(label_width, 1e-3),
                             np.full(label_width, label_support))
            for vid in sorted(labels)}
        return Scene(views, width, height, truth, fused, meta)

    return build


@settings(max_examples=300, deadline=None)
@given(_scenes())
def test_built_scene_raises_or_round_trips(tmp_path_factory, build):
    try:
        scene = build()
    except (SceneFormatError, ValueError):   # a scene rule, or a pose or boundary one
        return
    tmp = tmp_path_factory.mktemp("scene")
    save_scene(scene, tmp / "a.json")
    save_scene(load_scene(tmp / "a.json"), tmp / "b.json")
    assert (tmp / "a.json").read_bytes() == (tmp / "b.json").read_bytes()


class TestResolvedPose:
    def test_ceiling_lift_checks_no_rotation(self, monkeypatch):
        # A lift used to rebuild each ceiling pose with dataclasses.replace,
        # which ran CameraPose's rotation check once per frame.
        scene = generate_scene(square_room(4.0), 3, W, seed=3)
        calls = []
        real = geometry.is_rotation
        monkeypatch.setattr(geometry, "is_rotation",
                            lambda R: calls.append(R) or real(R))
        assert len(scene.world_polylines()) == 6
        assert calls == []

    def test_same_pose_as_replace(self):
        scene = generate_scene(square_room(4.0), 3, W, seed=3)
        for f in scene.frames:
            before = f.pose.ceil_height
            pose = scene.resolved_pose(f, BoundaryKind.CEILING)
            h_c = ceiling_height(f.boundary_floor, f.boundary_ceiling,
                                 f.pose.floor_height)
            expected = dataclasses.replace(f.pose, ceil_height=h_c)
            assert pose is not f.pose and f.pose.ceil_height == before
            for field in dataclasses.fields(CameraPose):
                assert np.array_equal(getattr(pose, field.name),
                                      getattr(expected, field.name))
            assert scene.resolved_pose(f, BoundaryKind.FLOOR) is f.pose
