"""Compare the benchmark jobs' output checksums of two checkouts.

Usage: python .github/bench_checksums.py BASE_DIR HEAD_DIR

In each checkout it runs that checkout's own perfbench/run.py once for each
workload its BENCHMARK.json lists (seed 101, one full-size pass, no
tracing), and reads the per-job checksums from the result record that the
run writes. It then prints a Markdown table with one row per job: "same",
"differs", "new" (HEAD only) or "gone" (base only), or "run failed" for a
workload whose run failed on that side. It only reports: its exit status is
0 whatever the table says.
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


def checksums(root: Path, workload: str) -> dict | None:
    """The workload's {job: checksum} at root, or None when its run fails."""
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", SEED,
         "--seconds", "0.01", "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    record = root / ".perfbench_out" / "results" / f"{workload}-seed{SEED}-trace0.json"
    if res.returncode != 0 or not record.is_file():
        sys.stderr.write(f"{root}: {workload} exited {res.returncode}\n"
                         f"{res.stderr[-2000:]}\n")
        return None
    return json.loads(record.read_text(encoding="utf-8"))["checksums"]


def rows(base: dict | None, head: dict | None) -> list[tuple[str, str]]:
    """(job, status) for every job of one workload on either side."""
    if base is None or head is None:
        return [("(all jobs)", "run failed at " + ("base" if base is None else "HEAD"))]
    return [(job, "gone" if job not in head else "new" if job not in base
             else "same" if base[job] == head[job] else "differs")
            for job in sorted(base.keys() | head.keys())]


def main(argv: list[str]) -> None:
    base_root, head_root = map(Path, argv)
    names = list(dict.fromkeys(workloads(head_root) + workloads(base_root)))
    table = ["| workload | job | checksum |", "|---|---|---|"]
    for name in names:
        for job, status in rows(checksums(base_root, name), checksums(head_root, name)):
            table.append(f"| {name} | {job} | {status} |")
    print("\n".join(table))


if __name__ == "__main__":
    main(sys.argv[1:])
