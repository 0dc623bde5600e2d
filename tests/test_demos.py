"""Smoke test: every script in demos/ runs to completion."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    # in-process, under the suite's warning filters, in a temp cwd so files a
    # demo writes land there
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    capsys.readouterr()
