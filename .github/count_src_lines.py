"""Count the lines of src/panolayout/*.py at one or two git revisions.

Usage: python .github/count_src_lines.py REV [BASE]

For each revision it prints every module's lines (as wc -l counts them) and
its code lines: the non-blank lines that are neither comments nor docstrings,
so that comment and docstring edits do not count as code. Given BASE, it
then prints REV's totals minus BASE's.
"""

import ast
import subprocess
import sys


def git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, check=True,
                          encoding="utf-8").stdout


def code_lines(src: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for i, line in enumerate(src.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and i not in docs)


def count(rev: str) -> tuple[int, int]:
    """Print rev's per-module counts; return its (lines, code lines) totals."""
    print(f"{rev}:\n{'lines':>7} {'code':>7}")
    lines = code = 0
    for path in sorted(git("ls-tree", "--name-only", rev, "src/panolayout/").split()):
        if path.endswith(".py"):
            src = git("show", f"{rev}:{path}")
            n, c = src.count("\n"), code_lines(src)
            print(f"{n:7d} {c:7d} {path}")
            lines, code = lines + n, code + c
    print(f"{lines:7d} {code:7d} total (code: non-blank, not comments or docstrings)\n")
    return lines, code


def main(argv: list[str]) -> None:
    head = count(argv[0])
    if len(argv) > 1:
        base = count(argv[1])
        print(f"{argv[0]} against {argv[1]}: {head[0] - base[0]:+d} lines, "
              f"{head[1] - base[1]:+d} code lines")


if __name__ == "__main__":
    main(sys.argv[1:])
