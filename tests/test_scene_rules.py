"""Scene and CameraPose own the rules of a valid scene.

A scene built through the constructors either raises there, or saves, loads
and saves again byte for byte: the loader adds only rules about the JSON
document itself.
"""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panolayout.errors import SceneFormatError
from panolayout.geometry import BoundaryKind, CameraPose, SphericalBoundary, \
    is_rotation
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
          "kinds", "boundary_width", "ground_truth", "pseudo_labels", "label_width")
_ids = st.sampled_from(["a", "b", "c", "", "e\x01"])
_meta_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(st.sampled_from("x\x1f\u00e9\ud800"), max_size=3))
_meta = st.dictionaries(_ids, st.recursive(
    _meta_leaves, lambda c: st.one_of(st.lists(c, max_size=3),
                                      st.dictionaries(_ids, c, max_size=3)),
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
                             np.full(label_width, len(frames), dtype=np.int64))
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
