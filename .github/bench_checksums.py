"""Compare the benchmark jobs' output checksums and quality numbers of two
checkouts.

Usage: python .github/bench_checksums.py BASE_DIR HEAD_DIR

In each checkout it runs that checkout's own perfbench/run.py once for each
workload its BENCHMARK.json lists (seed 101, one full-size pass, no
tracing), and reads the per-job checksums and quality numbers from the
result record that the run writes. It then prints a Markdown table with one
row per job and two status columns: "same", "differs", "new" (HEAD only) or
"gone" (base only), or "run failed" for a workload whose run failed on that
side. It only reports: its exit status is 0 whatever the table says.

The checksum hashes each output file's bytes, scene files included, so a
change of scene format marks every job that writes a scene "differs". The
quality column reads no file: it compares the record's quality numbers,
h_mlc_best, iou2d and best_iter for a refine job and iou2d (and h_mlc_input
in a workload without refine jobs) for an evaluate job, exactly. Metric and
pseudo-label jobs carry no quality numbers, so their quality column reads
"same" and cannot show a value change; only their checksum can.
"""

import json
import subprocess
import sys
from pathlib import Path

SEED = "101"


def workloads(root: Path) -> list[str]:
    """The workload names in root's BENCHMARK.json; none when it has none."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return []
    return [w["name"] for w in json.loads(path.read_text(encoding="utf-8"))["workloads"]]


def record(root: Path, workload: str) -> dict | None:
    """The workload's result record at root, or None when its run fails."""
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", SEED,
         "--seconds", "0.01", "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    path = root / ".perfbench_out" / "results" / f"{workload}-seed{SEED}-trace0.json"
    if res.returncode != 0 or not path.is_file():
        sys.stderr.write(f"{root}: {workload} exited {res.returncode}\n"
                         f"{res.stderr[-2000:]}\n")
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def status(base: dict, head: dict, job: str) -> str:
    return ("gone" if job not in head else "new" if job not in base
            else "same" if base[job] == head[job] else "differs")


def rows(base: dict | None, head: dict | None) -> list[tuple[str, str, str]]:
    """(job, checksum status, quality status) for every job of one workload
    on either side."""
    if base is None or head is None:
        failed = "run failed at " + ("base" if base is None else "HEAD")
        return [("(all jobs)", failed, failed)]
    return [(job, status(base["checksums"], head["checksums"], job),
             status(base["quality"], head["quality"], job))
            for job in sorted(base["checksums"].keys() | head["checksums"].keys())]


def main(argv: list[str]) -> None:
    base_root, head_root = map(Path, argv)
    names = list(dict.fromkeys(workloads(head_root) + workloads(base_root)))
    table = ["| workload | job | checksum | quality |", "|---|---|---|---|"]
    for name in names:
        for job, *statuses in rows(record(base_root, name), record(head_root, name)):
            table.append(f"| {name} | {job} | {' | '.join(statuses)} |")
    print("\n".join(table))


if __name__ == "__main__":
    main(sys.argv[1:])
