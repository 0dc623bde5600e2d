"""Smoke test: every script in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import onebit

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a fresh interpreter in a temp cwd, so files a demo writes land there
    env = dict(os.environ)
    pkg_parent = str(Path(onebit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_parent, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         env=env, cwd=tmp_path, timeout=300)
    assert out.returncode == 0, out.stderr
