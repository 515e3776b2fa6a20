"""Smoke test of the benchmark at a tiny size (a few views, W=64).

Each run is a subprocess, as the benchmark re-imports panolayout during
set-up. The tracer is also exercised in-process to check that restore()
leaves no wrapper bound.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import layers, tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seed=3):
    res = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_out" / "results" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(workload, trace):
    result, record = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0 and record["failed_frac"] == 0.0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert isinstance(m["value"], (int, float))
    if trace:
        assert record["trace_missing"] == []
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_checksums():
    first = _run("refine-noisy", 0, seed=5)[1]["checksums"]
    assert first and _run("refine-noisy", 0, seed=5)[1]["checksums"] == first


def test_restore_unbinds_every_wrapper():
    pl = pytest.importorskip("panolayout")
    import panolayout.cli  # noqa: F401
    original = pl.pseudolabel.fuse
    t = tracer.Tracer()
    t.context["synth"] = pl.synth
    t.install("panolayout", layers.SPECS)
    try:
        assert pl.selftrain.fuse is not original
        assert "panolayout.selftrain.fuse" in tracer.leftover_wrappers("panolayout")
        scene = pl.synth.generate_scene(pl.synth.square_room(), 2, 32, 0)
        assert [s.name for s in t.spans] == ["synth.generate_scene"]
    finally:
        t.restore()
    assert tracer.leftover_wrappers("panolayout") == []
    assert pl.selftrain.fuse is original and pl.pseudolabel.fuse is original
    assert scene.image_width == 32
