"""Every demo script runs to completion without writing to stderr."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_present():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs_clean(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, path], capture_output=True, text=True,
                         env=env, cwd=ROOT, timeout=120)
    assert (res.returncode, res.stderr) == (0, ""), res.stderr
    assert res.stdout
