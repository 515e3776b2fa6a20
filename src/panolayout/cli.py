"""Command-line pipeline: synth, reproject, pseudo-label, metric, evaluate,
refine, render-density.

Exit codes: 0 success, 2 usage error or MemoryError, 3 scene format or
validation error, 4 numeric or degenerate-geometry error, 130 interrupted
(SIGINT). Every failure, usage errors too, ends in a machine-readable JSON
object as the last stderr line. All subcommands are deterministic given their
flags and seeds.

main builds its parser once per process. Before a subcommand loads anything,
it checks every output file path (exit 2): its directory exists, it is not a
directory, and no other output flag names the same file. So a mistyped path
costs no work and leaves no partial outputs.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import logging
import os
import sys

from . import consistency, evaluation, pseudolabel, selftrain, sceneio, synth
from .errors import LayoutError, SceneFormatError
from .geometry import BoundaryKind
from .reprojection import build_stack

_ROOMS = ("square", "lshape", "ngon")
_TRAIN = selftrain.TrainConfig()  # refine and pseudo-label flag defaults


def _load(args):
    return sceneio.load_scene(args.scene, pixel_rows=args.pixel_rows)


def cmd_synth(args) -> int:
    if args.room == "square":
        room = synth.square_room(args.size, args.floor_height, args.ceil_height)
    elif args.room == "lshape":
        room = synth.lshape_room(args.size, args.floor_height, args.ceil_height)
    else:
        room = synth.ngon_room(args.sides, args.size / 2.0,
                               args.floor_height, args.ceil_height)
    scene = synth.generate_scene(room, args.n_views, args.width, args.seed)
    noise = synth.NoiseSpec(
        boundary_std=args.noise_boundary_std,
        outlier_rate=args.noise_outlier_rate,
        outlier_std=args.noise_outlier_std,
        pose_trans_std=args.noise_pose_trans_std,
        pose_rot_std=args.noise_pose_rot_std,
        seed=args.seed if args.noise_seed is None else args.noise_seed)
    if (noise.boundary_std or noise.outlier_rate or noise.pose_trans_std
            or noise.pose_rot_std):
        scene = synth.perturb(scene, noise)
    sceneio.save_scene(scene, args.out)
    return 0


def cmd_reproject(args) -> int:
    scene = _load(args)
    if args.target not in scene.view_ids:
        raise ValueError(f"target view {args.target!r} not in scene")
    stack = build_stack(scene, args.target, BoundaryKind(args.kind))
    sceneio.write_stack_csv(stack, args.out)
    return 0


def cmd_pseudo_label(args) -> int:
    cfg = selftrain.TrainConfig(estimator=args.estimator, sigma_floor=args.sigma_floor,
                                view_fraction=args.view_fraction)
    scene = _load(args)
    selftrain.check_step(scene, cfg)
    escaping = [v for v in scene.view_ids if os.path.basename(v) != v]
    if args.csv_dir and escaping:   # each CSV is <view id>.csv in --out-csv
        raise ValueError(f"view id {escaping[0]!r} is not a file name for --out-csv")
    if args.csv_dir:   # before --out is written, so a bad directory writes nothing
        os.makedirs(args.csv_dir, exist_ok=True)
    kind = BoundaryKind(args.kind)
    scene.pseudo_labels = labels = selftrain.fuse_labels(
        scene, scene.world_polylines((kind,)), [kind], cfg)[kind]
    sceneio.save_scene(scene, args.out)
    if args.csv_dir:
        for vid, pl in labels.items():
            sceneio.write_pseudolabel_csv(
                pl, os.path.join(args.csv_dir, f"{vid}.csv"))
    return 0


def _density_cells(scene, args):
    """(U, V, u, v, phi): the --grid sides and consistency.density_cells."""
    polys = scene.world_polylines((BoundaryKind.FLOOR,)) if args.floor_only \
        else scene.world_polylines()
    U, V = args.grid
    return (U, V, *consistency.density_cells(polys, U, V, args.padding))


def cmd_metric(args) -> int:
    U, V, u, v, phi = _density_cells(_load(args), args)
    if args.out_map:
        consistency.write_density_pgm(args.out_map, U, V, u, v, phi)
    if args.out:
        sceneio.write_density_csv(u, v, phi, args.out)
    sys.stdout.write(f"H_MLC={sceneio.format_float(consistency.cell_entropy(phi))}\n")
    return 0


def cmd_evaluate(args) -> int:
    scene = _load(args)
    if scene.ground_truth is None:
        raise SceneFormatError("evaluate requires a ground_truth block")
    report = evaluation.evaluate_scene(scene, raster=args.raster)
    sceneio.write_report_json(report, args.out)
    if args.out_csv:
        sceneio.write_report_csv(report, args.out_csv)
    return 0


def cmd_refine(args) -> int:
    if args.grid[0] != args.grid[1]:
        raise ValueError(f"refine needs a square entropy grid, got --grid "
                         f"{args.grid[0]} {args.grid[1]}")
    cfg = selftrain.TrainConfig(
        max_iters=args.iters, damping=args.damping, estimator=args.estimator,
        loss=args.loss, sigma_floor=args.sigma_floor,
        view_fraction=args.view_fraction, eval_every=args.eval_every,
        grid_size=args.grid[0], padding=args.padding)
    scene = _load(args)
    trajectory, best = selftrain.run(scene, cfg)
    sceneio.write_trajectory_csv(trajectory.records, args.out_traj)
    sceneio.save_scene(best, args.out_scene)
    return 0


def cmd_render_density(args) -> int:
    consistency.write_density_pgm(args.out, *_density_cells(_load(args), args))
    return 0


def _add_scene_arg(p):
    p.add_argument("--scene", required=True, help="scene JSON path")
    p.add_argument("--pixel-rows", action="store_true",
                   help="boundaries in the scene file are pixel rows, not radians")


def _add_grid_args(p, floor_only: bool = False):
    p.add_argument("--grid", nargs=2, type=int,
                   default=[consistency.GRID_SIZE_DEFAULT] * 2,
                   metavar=("U", "V"), help="density grid size")
    p.add_argument("--padding", type=float, default=consistency.PADDING_DEFAULT,
                   help="bounding-box padding fraction")
    if floor_only:
        p.add_argument("--floor-only", action="store_true",
                       help="use floor boundaries only")


def _add_fusion_args(p):
    p.add_argument("--estimator", choices=pseudolabel.ESTIMATORS,
                   default=_TRAIN.estimator)
    p.add_argument("--sigma-floor", type=float, default=_TRAIN.sigma_floor)
    p.add_argument("--view-fraction", type=float, default=_TRAIN.view_fraction)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a JSON error line, as for every failure
        self.print_usage(sys.stderr)
        _emit_error(argparse.ArgumentError(None, message))
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="panolayout",
        description="Multi-view layout-consistency pipeline for 360 panoramas")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic multi-view scene")
    p.add_argument("--room", choices=_ROOMS, default="square")
    p.add_argument("--size", type=float, default=4.0,
                   help="room extent in meters (ngon: diameter)")
    p.add_argument("--sides", type=int, default=6, help="ngon side count")
    p.add_argument("--n-views", type=int, default=5)
    p.add_argument("--width", type=int, default=256, help="panorama columns W")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--floor-height", type=float, default=1.6)
    p.add_argument("--ceil-height", type=float, default=0.9)
    p.add_argument("--noise-boundary-std", type=float, default=0.0)
    p.add_argument("--noise-outlier-rate", type=float, default=0.0)
    p.add_argument("--noise-outlier-std", type=float, default=0.0)
    p.add_argument("--noise-pose-trans-std", type=float, default=0.0)
    p.add_argument("--noise-pose-rot-std", type=float, default=0.0)
    p.add_argument("--noise-seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("reproject", help="dump one target view's boundary stack")
    _add_scene_arg(p)
    p.add_argument("--target", required=True, help="target view id")
    p.add_argument("--kind", choices=("floor", "ceiling"), default="floor")
    p.add_argument("--out", required=True, help="stack CSV path")
    p.set_defaults(func=cmd_reproject)

    p = sub.add_parser("pseudo-label", help="fuse pseudo-labels for every view")
    _add_scene_arg(p)
    _add_fusion_args(p)
    p.add_argument("--kind", choices=("floor", "ceiling"), default="floor")
    p.add_argument("--out", required=True, help="scene JSON with pseudo_labels")
    p.add_argument("--out-csv", dest="csv_dir", default=None,
                   help="directory for per-view pseudo-label CSVs")
    p.set_defaults(func=cmd_pseudo_label)

    p = sub.add_parser("metric", help="print the multi-view consistency entropy")
    _add_scene_arg(p)
    _add_grid_args(p, floor_only=True)
    p.add_argument("--out-map", default=None, help="density map PGM path")
    p.add_argument("--out", default=None, help="occupied-cell CSV path")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("evaluate", help="layout metrics against ground truth")
    _add_scene_arg(p)
    p.add_argument("--raster", type=int, default=evaluation.RASTER_DEFAULT)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--out-csv", default=None, help="per-view metric CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("refine", help="consensus self-training with early stopping")
    _add_scene_arg(p)
    p.add_argument("--iters", type=int, default=_TRAIN.max_iters)
    p.add_argument("--lambda", dest="damping", type=float, default=_TRAIN.damping)
    p.add_argument("--loss", choices=selftrain.LOSSES, default=_TRAIN.loss)
    p.add_argument("--eval-every", type=int, default=_TRAIN.eval_every)
    _add_fusion_args(p)
    _add_grid_args(p)
    p.add_argument("--out-traj", required=True, help="trajectory CSV path")
    p.add_argument("--out-scene", required=True, help="best snapshot JSON path")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("render-density", help="write the density map as PGM")
    _add_scene_arg(p)
    _add_grid_args(p, floor_only=True)
    p.add_argument("--out", required=True, help="PGM path")
    p.set_defaults(func=cmd_render_density)

    return ap


def _emit_error(exc: Exception) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(payload) + "\n")


_parser = functools.cache(build_parser)  # one parser per process


def _check_outputs(args) -> None:
    """Raise OSError for an output file whose directory is missing or that is
    a directory, ValueError for two output flags naming one path.

    --scene may name an output (an in-place update). pseudo-label's
    --out-csv (dest csv_dir) is a directory it makes, so only its path counts."""
    seen = [os.path.realpath(args.csv_dir)] if getattr(args, "csv_dir", None) else []
    for path in filter(None, (getattr(args, dest, None) for dest in (
            "out", "out_map", "out_csv", "out_traj", "out_scene"))):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, "no such output directory", path)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, "output path is a directory", path)
        if os.path.realpath(path) in seen:
            raise ValueError(f"two output flags name one path: {path}")
        seen.append(os.path.realpath(path))


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:  # a usage error (2), already reported, or --help
        return e.code
    try:
        _check_outputs(args)
        return args.func(args)
    except KeyboardInterrupt:   # SIGINT; run's finally has reaped any worker
        _emit_error(KeyboardInterrupt("interrupted"))
        return 130
    except SceneFormatError as e:
        _emit_error(e)
        return 3
    except LayoutError as e:
        _emit_error(e)
        return 4
    except (ValueError, OSError, MemoryError) as e:
        _emit_error(e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
