"""CLI fuzz test: one numeric flag of a valid command line set to a bad value.

For every subcommand with a numeric flag, one flag of a valid argv takes a
value from a fixed set: 0, -1, a power of ten, NaN, +-inf or text. The CLI
runs in-process. Every run must end in exit 0, 2, 3 or 4, no exception may
escape, and a failure must leave a JSON error object as the last stderr
line. A synth run that succeeds must write a scene the loader accepts.
`reproject` has no numeric flag and is left out.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from panolayout import cli
from panolayout.sceneio import load_scene, save_scene
from panolayout.synth import NoiseSpec, generate_scene, lshape_room, perturb

_VALUES = ["0", "-1", *(str(10 ** k) for k in (1, 2, 3, 4, 6, 7, 9, 12)),
           "nan", "inf", "-inf", "abc"]
# Large iteration counts are valid and slow.
_ITER_VALUES = ["0", "-1", "1", "2", "nan", "inf", "abc"]

# subcommand -> (argv after the subcommand, numeric flags). Every flag in a
# base argv has a working value there; absent flags are appended.
_GRID = ["--grid", "32", "32"]
_COMMANDS = {
    "synth": (["--room", "ngon", "--n-views", "3", "--width", "32",
               "--noise-boundary-std", "0.01", "--noise-outlier-rate", "0.1",
               "--noise-outlier-std", "0.05", "--noise-pose-trans-std", "0.01",
               "--noise-pose-rot-std", "0.01"],
              ["--size", "--sides", "--n-views", "--width", "--seed",
               "--floor-height", "--ceil-height", "--noise-boundary-std",
               "--noise-outlier-rate", "--noise-outlier-std",
               "--noise-pose-trans-std", "--noise-pose-rot-std", "--noise-seed"]),
    "pseudo-label": ([], ["--sigma-floor", "--view-fraction"]),
    "metric": (_GRID, ["--grid", "--padding"]),
    "evaluate": (["--raster", "64"], ["--raster"]),
    "refine": (["--iters", "1", *_GRID],
               ["--iters", "--lambda", "--eval-every", "--sigma-floor",
                "--view-fraction", "--grid", "--padding"]),
    "render-density": (_GRID, ["--grid", "--padding"]),
}
_CASES = [(cmd, flag) for cmd, (_, flags) in _COMMANDS.items() for flag in flags]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_fuzz")
    scene = perturb(generate_scene(lshape_room(), 3, 32, seed=1),
                    NoiseSpec(boundary_std=0.02, seed=2))
    save_scene(scene, tmp / "scene.json")
    return tmp


def _argv(command, flag, value, tmp):
    args, _ = _COMMANDS[command]
    args = list(args)
    values = [value] * (2 if flag == "--grid" else 1)
    if flag in args:
        at = args.index(flag) + 1
        args[at:at + len(values)] = values
    else:
        args += [flag, *values]
    if command != "synth":
        args = ["--scene", str(tmp / "scene.json"), *args]
    outs = {"refine": ["--out-traj", str(tmp / "traj.csv"),
                       "--out-scene", str(tmp / "best.json")],
            "metric": []}.get(command, ["--out", str(tmp / f"{command}.out")])
    return [command, *args, *outs]


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


@st.composite
def _flag_values(draw):
    command, flag = draw(st.sampled_from(_CASES))
    pool = _ITER_VALUES if flag == "--iters" else _VALUES
    return command, flag, draw(st.sampled_from(pool))


@settings(max_examples=500, deadline=None)
@given(_flag_values())
@example(("evaluate", "--raster", "100000000000"))
@example(("metric", "--grid", "1000000"))
@example(("metric", "--padding", "1e308"))
@example(("render-density", "--grid", "1000000"))
@example(("refine", "--grid", "1000000"))
@example(("synth", "--width", "100000000000"))
@example(("synth", "--sides", "100000"))
@example(("synth", "--size", "10000000"))
@example(("synth", "--size", "inf"))
@example(("synth", "--floor-height", "2000000"))
@example(("synth", "--noise-pose-trans-std", "10000000"))
@example(("refine", "--iters", "abc"))
def test_bad_numeric_flag_ends_in_documented_exit(workdir, case):
    command, flag, value = case
    argv = _argv(command, flag, value, workdir)
    code, err = _run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code:
        lines = err.strip().splitlines()
        error = json.loads(lines[-1])["error"]
        assert set(error) == {"type", "message"}, (argv, err)
    elif command == "synth":
        load_scene(workdir / "synth.out")
