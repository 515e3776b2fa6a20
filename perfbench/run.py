"""Run one benchmark workload against the panolayout in ``src/`` of this
checkout and print its metrics.

    python3 perfbench/run.py --workload refine-noisy --seed 1 --seconds 30 --trace 0

The workload's scenes are generated from --seed and saved (set-up, repeated
and timed). Then the workload's fixed job list runs back to back through
``panolayout.cli.main(argv)`` in this one process, pass after pass, until
--seconds have gone by. Every job's outputs are checked. The last stdout line
is one JSON object with keys correct, attempted, failed and metrics:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1 (which
alternates untraced and traced passes; perfbench/README.md has the tables).
A fuller record (machine info, checksums, samples) goes to
``.perfbench_out/results/``.

Exit status 2, without a result line, when the checkout has no panolayout
package; any other set-up error ends with a traceback and status 1.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 7
PACKAGE = "panolayout"

E2E_UNITS = {"wall_s": "s", "job_gmean_s": "s", "views_per_s": "1/s",
             "setup_s": "s", "peak_rss_mb": "MB", "h_mlc_best": "nats",
             "iou2d": "ratio"}


class BenchError(Exception):
    pass


def import_panolayout():
    """Fresh import of the checkout's panolayout (cli included)."""
    for name in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pl = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if Path(pl.__file__).resolve().parent != SRC / PACKAGE:
        raise BenchError(f"imported {pl.__file__}, not the checkout's {SRC / PACKAGE}")
    return pl


def machine_info(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "system": f"{platform.system()} {platform.release()} {platform.machine()}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS + ("MLC_THREADS",)},
        "seed": seed,
    }


def run_job(pl, job, tracer=None):
    """(exit code or exception text, seconds, stdout, stderr) of one CLI job."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                rc = pl.cli.main(job.argv)
            else:
                with tracer.span(f"cli.{job.sub}"):
                    rc = pl.cli.main(job.argv)
    except (Exception, SystemExit) as e:  # a crashing job is a failed job
        rc = f"{type(e).__name__}: {e}"
    return rc, perf_counter() - t0, out.getvalue(), err.getvalue()


def run_pass(pl, inputs, tracer=None):
    results = []
    for job in inputs.jobs:
        if tracer is not None:
            tracer.job = job.name
            tracer.context["room"] = inputs.rooms[job.scene]
        results.append((job, *run_job(pl, job, tracer)))
    return results


def traced(tracer, pl, fn):
    """Run fn() with the tracer's wrappers installed, restoring them after."""
    from perfbench import layers
    tracer.context["synth"] = pl.synth
    tracer.install(PACKAGE, layers.SPECS)
    try:
        return fn()
    finally:
        tracer.restore()


def measure(args, workload, workdir):
    from perfbench import checks, layers, tracer as tracing, workloads

    # Set-up is repeated between passes, so its samples spread over the run
    # like the pass samples do: on a shared machine CPU speed can drift over
    # tens of seconds, and back-to-back set-ups all land in one phase of it.
    setup_reps = 2 if args.tiny else SETUP_REPS
    setup_s = []

    def set_up():
        t0 = perf_counter()
        pl = import_panolayout()
        inputs = workloads.make_inputs(pl, workload, args.seed, workdir, args.tiny)
        setup_s.append(perf_counter() - t0)
        return pl, inputs

    pl, inputs = set_up()
    setup_tracer = tracing.Tracer()
    if args.trace:
        inputs = traced(setup_tracer, pl, lambda: workloads.make_inputs(
            pl, workload, args.seed, workdir, args.tiny))

    score_entropy = not any(j.sub == "refine" for j in inputs.jobs)
    cache, first_digest, failures = {}, {}, []
    passes = []        # (traced, wall seconds, job seconds, view passes)
    pass_tracers = []
    quality = {}
    attempted = failed = 0
    t_start = perf_counter()
    while True:
        want_trace = bool(args.trace) and len(passes) % 2 == 1
        tracer = tracing.Tracer() if want_trace else None
        if tracer is not None:
            results = traced(tracer, pl, lambda: run_pass(pl, inputs, tracer))
            pass_tracers.append(tracer)
        else:
            results = run_pass(pl, inputs)
        leftover = tracing.leftover_wrappers(PACKAGE)
        if leftover:
            raise BenchError(f"tracer wrappers left installed: {leftover}")
        times = []
        for job, rc, dt, stdout, stderr in results:
            attempted += 1
            times.append(dt)
            v = checks.check_job(pl, job, rc, stdout, stderr, inputs, cache,
                                 score_entropy)
            if v.ok and first_digest.setdefault(job.name, v.digest) != v.digest:
                v = checks.Verdict(False, "output differs from the first pass", v.digest)
            if not v.ok:
                failed += 1
                failures.append({"job": job.name, "pass": len(passes), "reason": v.reason})
            else:
                quality[job.name] = v.quality
        passes.append((want_trace, sum(times), times,
                       sum(j.view_passes for j in inputs.jobs)))
        done = perf_counter() - t_start >= args.seconds
        if len(setup_s) < setup_reps:
            pl, inputs = set_up()
        if done and (not args.trace or len(passes) >= 2):
            break
    while len(setup_s) < setup_reps:
        set_up()

    untraced = [p for p in passes if not p[0]]
    walls = [p[1] for p in untraced]
    job_times = [t for p in untraced for t in p[2]]
    refine_q = [q for q in quality.values() if "h_mlc_best" in q]
    # Without refine jobs, the entropy of the evaluated input scenes.
    h_values = ([q["h_mlc_best"] for q in refine_q] or
                [q["h_mlc_input"] for q in quality.values() if "h_mlc_input" in q])
    ious = [q["iou2d"] for q in quality.values() if "iou2d" in q]
    e2e = {
        "wall_s": statistics.median(walls),
        "job_gmean_s": statistics.median(
            statistics.geometric_mean(p[2]) for p in untraced),
        "views_per_s": statistics.median(p[3] / p[1] for p in untraced),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "h_mlc_best": statistics.fmean(h_values) if h_values else 0.0,
        "iou2d": statistics.fmean(ious) if ious else 0.0,
    }
    record = {
        "workload": workload.name, "why": workload.why,
        "machine": machine_info(args.seed), "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "failures": failures[:50],
        "samples": {"setup_s": setup_s, "pass_wall_s": walls,
                    "jobs": len(job_times), "passes": len(passes)},
        "checksums": dict(sorted(first_digest.items())),
        "quality": quality,
        "end_to_end": e2e,
    }
    if args.trace:
        traced_walls = [p[1] for p in passes if p[0]]
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        best_iters = [q["best_iter"] for q in refine_q]
        per_layer = layers.per_layer_metrics(pass_tracers, setup_tracer,
                                             best_iters, overhead)
        record["per_layer"] = {k: v for k, (v, _) in per_layer.items()}
        record["trace_missing"] = sorted(set(pass_tracers[0].missing))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        last = pass_tracers[-1]
        record["spans_last_pass"] = [
            [s.name, s.job, s.start - last.spans[0].start, s.end - s.start, s.parent]
            for s in last.spans]
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def parse_args(argv):
    from perfbench.workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure for this long (at least one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (a few views, W=64)")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    # Single-threaded numerics: set before anything imports numpy.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no {PACKAGE} package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        result, record = measure(args, WORKLOADS[args.workload], workdir)
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / "results" / f"{name}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(f"# machine {json.dumps(record['machine'], sort_keys=True)}")
    print(f"# samples passes={record['samples']['passes']} "
          f"jobs={record['samples']['jobs']} failed_frac={record['failed_frac']}")
    for failure in record["failures"][:5]:
        print(f"# FAILED {failure['job']} (pass {failure['pass']}): {failure['reason']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
