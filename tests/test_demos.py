"""Every script in demos/ runs to completion from a scratch directory."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # cwd is tmp_path: demo 03 writes demo_out/ relative to it.
    res = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                         env=child_env(), capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
