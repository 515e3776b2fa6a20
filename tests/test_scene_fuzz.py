"""Loader fuzz test: mutated scene documents through metric, evaluate, refine.

Each case takes a valid scene document, replaces, deletes or retypes one
value somewhere in it, and runs the CLI in-process; metric and evaluate run
a second time with --pixel-rows, which reads every boundary as pixel rows. Every run must end in
exit 0, 2, 3 or 4, with a JSON error object as the last stderr line when
it fails; an uncaught exception fails the test with its traceback.

The documents are the writer's, whose boundaries are packed ({"f8": base64
of float64}), and the same documents with every boundary as a JSON list. A
second test truncates a packed boundary, changes one of its characters, or
makes its "f8" value a number.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from panolayout import cli
from panolayout.geometry import BoundaryKind
from panolayout.pseudolabel import fuse
from panolayout.reprojection import build_stacks
from panolayout.sceneio import scene_to_document
from panolayout.synth import NoiseSpec, generate_scene, lshape_room, perturb, \
    square_room

from conftest import text_document


def _base_documents():
    plain = generate_scene(square_room(4.0), 3, 16, seed=3)
    labeled = perturb(generate_scene(lshape_room(), 3, 16, seed=4),
                      NoiseSpec(boundary_std=0.02, seed=1))
    labeled.pseudo_labels = {s.target_view: fuse(s)
                             for s in build_stacks(
                                 labeled, labeled.world_polylines((BoundaryKind.FLOOR,)))}
    packed = [scene_to_document(plain), scene_to_document(labeled)]
    return packed + [text_document(doc) for doc in packed]


# Bases 0 and 1 are packed, 2 and 3 the same documents as text.
BASES = _base_documents()

# The loader bounds image_height by image_width, and evaluate builds no
# (image_height, W) depth map, so a huge int is an input like any other;
# 10**400 does not fit a float.
_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10_000), st.just(10 ** 9),
    st.just(10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True), st.floats(-1.6, 1.6),
    st.floats(1e-12, 1e12), st.text(max_size=4),
    st.lists(st.floats(-2.0, 2.0), max_size=20), st.just({}), st.just([]))

# A path step is a key (dict) or index (list); a drawn int picks the child
# at that position modulo the child count.
_paths = st.lists(st.integers(0, 63), max_size=6)
_mutations = st.tuples(st.integers(0, len(BASES) - 1), _paths,
                       st.sampled_from(["replace", "delete", "retype"]), _values)


def _retype(v):
    if isinstance(v, dict):
        return list(v.values())
    if isinstance(v, list):
        return {str(i): x for i, x in enumerate(v)}
    if isinstance(v, str):
        return [v]
    if v is None:
        return {}
    return str(v).lower()


def mutate(doc, path, op, value):
    """Apply op at the end of path; a path stops early at a leaf.

    At the root (an empty path) delete acts as replace.
    """
    parent, key, node = None, None, doc
    for step in path:
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = list(node) if isinstance(node, dict) else range(len(node))
        k = step if isinstance(step, str) else keys[step % len(keys)]
        parent, key, node = node, k, node[k]
    if parent is None:
        return _retype(doc) if op == "retype" else value
    if op == "delete":
        del parent[key]
    else:
        parent[key] = _retype(node) if op == "retype" else value
    return doc


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(_mutations)
@example((0, ["ground_truth", 0, "boundary_floor"], "delete", None))
@example((1, ["ground_truth", 1, "boundary_floor"], "replace", None))
@example((0, ["frames", 2, "floor_height"], "replace", float("inf")))
@example((1, ["ground_truth", 2], "delete", None))
@example((0, ["frames", 0, "floor_height"], "replace", 3e154))
@example((0, ["image_height"], "replace", 10 ** 9))
@example((0, ["image_height"], "replace", 10 ** 400))
@example((1, ["frames", 0, "boundary_floor", 3], "replace", 1.7976931348623157e308))
@example((3, ["frames", 0, "boundary_floor", 3], "replace", 1.7976931348623157e308))
def test_mutated_scene_ends_in_documented_exit(mutation):
    base, path, op, value = mutation
    _check_exits(mutate(copy.deepcopy(BASES[base]), path, op, value))


_BASE64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="
_packed_mutations = st.tuples(
    st.integers(0, 1), st.sampled_from(["frames", "ground_truth"]),
    st.integers(0, 63), st.sampled_from(["boundary_floor", "boundary_ceiling"]),
    st.sampled_from(["truncate", "flip", "f8-int"]), st.integers(0, 10_000),
    st.sampled_from(_BASE64 + "*-_ é\n"))


def mutate_packed(doc, records, index, key, op, position, char):
    """Truncate a packed boundary at position, set its character there to
    char, or replace it with {"f8": 1}."""
    record = doc[records][index % len(doc[records])]
    packed = record[key]["f8"]
    position %= len(packed)
    record[key] = {"f8": {"truncate": packed[:position],
                          "flip": packed[:position] + char + packed[position + 1:],
                          "f8-int": 1}[op]}
    return doc


@settings(max_examples=300, deadline=None)
@given(_packed_mutations)
@example((0, "frames", 1, "boundary_floor", "truncate", 5, "A"))
@example((1, "ground_truth", 2, "boundary_ceiling", "flip", 7, "/"))
@example((0, "frames", 0, "boundary_ceiling", "f8-int", 0, "A"))
@example((1, "frames", 0, "boundary_floor", "flip", 73, "H"))   # a signaling NaN
def test_mutated_packed_array_ends_in_documented_exit(mutation):
    base, *where = mutation
    _check_exits(mutate_packed(copy.deepcopy(BASES[base]), *where))


def _check_exits(doc) -> None:
    """Each command on doc ends in exit 0, 2, 3 or 4, failing with a JSON
    error as its last stderr line."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scene = tmp / "scene.json"
        scene.write_text(json.dumps(doc))
        for argv in (
                ["metric", "--grid", "32", "32"],
                ["evaluate", "--raster", "64", "--out", str(tmp / "report.json")],
                ["metric", "--pixel-rows", "--grid", "32", "32"],
                ["evaluate", "--pixel-rows", "--raster", "64",
                 "--out", str(tmp / "report.json")],
                ["refine", "--iters", "1", "--grid", "32", "32",
                 "--out-traj", str(tmp / "traj.csv"),
                 "--out-scene", str(tmp / "best.json")]):
            code, err = _run([argv[0], "--scene", str(scene), *argv[1:]])
            assert code in (0, 2, 3, 4), (argv[0], code, err)
            if code:
                lines = err.strip().splitlines()
                assert lines and "error" in json.loads(lines[-1]), (argv[0], err)
