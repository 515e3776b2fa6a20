"""The benchmark's workloads: synthetic scenes made from a seed, and the fixed
list of CLI jobs each pass runs on them.

Why each workload exists (perfbench/README.md has the full table):

- refine-noisy: one noisy L-shaped room refined for two steps with the ground
  truth held back. Re-projection is about 90% of a step and IoU tracking does
  no work, so a faster re-projection kernel or a different crossing rule shows
  here.
- evaluate-large: one n-gon room evaluated at raster 1024. The even-odd IoU
  raster does almost all of the work and re-projection none, so it isolates
  the raster and is the no-change control for re-projection work.
- batch-small: six small rooms, each taken through pseudo-label, metric,
  refine (ground truth present, IoU tracked at raster 512) and evaluate
  (raster 512). Many short jobs, so per-call overhead and scene file I/O
  carry weight, and re-projection runs as many small calls instead of a few
  large ones.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SceneSpec:
    room: str               # "square", "lshape" or "ngon"
    n_views: int
    width: int
    boundary_std: float = 0.0
    # Outlier columns redraw their noise with the CLI's default outlier std
    # of 0. A std large enough to matter (>= 0.15 rad) pushes ceiling columns
    # across the horizon, where synth clamps them to LAT_MIN; their points
    # land kilometres away and collapse H_MLC to ~0.
    outlier_rate: float = 0.0
    hold_ground_truth: bool = False
    # Camera layout seed. None draws the layout from the run's seed; a fixed
    # value keeps the layout and lets the run's seed draw only the noise.
    layout_seed: int | None = None


@dataclass
class Job:
    name: str               # unique within the pass, e.g. "s03.refine"
    sub: str                # CLI subcommand
    argv: list[str]
    scene: str              # scene key in the Inputs dicts
    view_passes: int
    iters: int = 0
    files: dict = field(default_factory=dict)   # role -> path the checks read


@dataclass
class Inputs:
    jobs: list[Job]
    rooms: dict             # scene key -> RoomSpec
    ground_truth: dict      # scene key -> ground-truth block (kept in memory)
    n_views: dict           # scene key -> N
    raster: int             # raster of the benchmark's own IoU scoring


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenes: tuple           # SceneSpec per scene
    full: dict              # per-scale sizes: n_views, width, iters, raster
    tiny: dict


WORKLOADS = {
    "refine-noisy": Workload(
        "refine-noisy",
        "noisy L-room refine with GT held back: re-projection-bound, no IoU work",
        # Re-projection work grows with the contested crossings, and those
        # depend on where the cameras sit: over random layouts their count
        # spreads by ~19% (quartile distance over median), over noise draws
        # on one layout by ~2%. A fixed layout keeps runs comparable.
        (SceneSpec("lshape", 16, 1024, 0.05, 0.02, hold_ground_truth=True,
                   layout_seed=0),),
        {"iters": 2, "raster": 1024}, {"n_views": 4, "width": 64, "iters": 1,
                                        "raster": 128}),
    "evaluate-large": Workload(
        "evaluate-large",
        "n-gon evaluate at raster 1024: even-odd IoU raster bound, no re-projection",
        (SceneSpec("ngon", 20, 1024, 0.03),),
        {"raster": 1024}, {"n_views": 4, "width": 64, "raster": 128}),
    "batch-small": Workload(
        "batch-small",
        "6 small rooms, 24 jobs a pass (pseudo-label, metric, refine with IoU "
        "tracking, evaluate): per-call overhead, scene I/O, small re-projections",
        # Every room shape once noise-free and once noisy.
        tuple(SceneSpec(("square", "lshape", "ngon")[i % 3], 5, 256,
                        0.03 if i % 2 else 0.0) for i in range(6)),
        {"iters": 4, "raster": 512}, {"n_views": 3, "width": 64, "iters": 1,
                                       "raster": 128, "n_scenes": 2}),
}


def _room(synth, name: str):
    return {"square": synth.square_room, "lshape": synth.lshape_room,
            "ngon": synth.ngon_room}[name]()


def make_inputs(pl, workload: Workload, seed: int, workdir: str,
                tiny: bool = False) -> Inputs:
    """Generate, perturb and save the workload's scenes; build its job list.

    Scene i draws its noise, and unless the spec fixes it its camera layout,
    from seed * 1000 + i, so the same seed always gives the same inputs.
    Everything the CLI reads is written under workdir.
    """
    synth, sceneio = pl.synth, pl.sceneio
    size = workload.tiny if tiny else workload.full
    specs = workload.scenes[:size.get("n_scenes", len(workload.scenes))]
    iters, raster = size.get("iters", 0), size["raster"]
    inputs = Inputs([], {}, {}, {}, raster)

    def path(name):
        return os.path.join(workdir, name)

    def job(name, sub, key, passes, *argv, iters=0, **files):
        inputs.jobs.append(Job(name, sub, [sub, *argv], key, passes, iters, files))

    for i, spec in enumerate(specs):
        key = f"s{i:02d}"
        n = size.get("n_views", spec.n_views)
        w = size.get("width", spec.width)
        scene_seed = seed * 1000 + i
        room = _room(synth, spec.room)
        layout = scene_seed if spec.layout_seed is None else spec.layout_seed
        scene = synth.generate_scene(room, n, w, layout)
        if spec.boundary_std or spec.outlier_rate:
            scene = synth.perturb(scene, synth.NoiseSpec(
                boundary_std=spec.boundary_std, outlier_rate=spec.outlier_rate,
                seed=scene_seed))
        inputs.rooms[key] = room
        inputs.ground_truth[key] = scene.ground_truth
        inputs.n_views[key] = n
        if spec.hold_ground_truth:
            scene.ground_truth = None
        src = path(f"{key}.json")
        sceneio.save_scene(scene, src)

        if workload.name == "refine-noisy":
            job(f"{key}.refine", "refine", key, n * (iters + 1), "--scene", src,
                "--iters", str(iters), "--out-traj", path(f"{key}.traj.csv"),
                "--out-scene", path(f"{key}.best.json"), iters=iters,
                traj=path(f"{key}.traj.csv"), best=path(f"{key}.best.json"))
        elif workload.name == "evaluate-large":
            job(f"{key}.evaluate", "evaluate", key, n, "--scene", src,
                "--raster", str(raster), "--out", path(f"{key}.report.json"),
                report=path(f"{key}.report.json"), src=src)
        else:
            labeled, best = path(f"{key}.pl.json"), path(f"{key}.best.json")
            job(f"{key}.pseudo-label", "pseudo-label", key, n, "--scene", src,
                "--out", labeled, scene_out=labeled)
            job(f"{key}.metric", "metric", key, n, "--scene", labeled,
                "--out-map", path(f"{key}.pgm"), pgm=path(f"{key}.pgm"))
            job(f"{key}.refine", "refine", key, n * (iters + 1), "--scene", labeled,
                "--iters", str(iters), "--out-traj", path(f"{key}.traj.csv"),
                "--out-scene", best, iters=iters,
                traj=path(f"{key}.traj.csv"), best=best)
            job(f"{key}.evaluate", "evaluate", key, n, "--scene", best,
                "--raster", str(raster), "--out", path(f"{key}.report.json"),
                report=path(f"{key}.report.json"), src=best)
    return inputs
