"""The benchmark in perfbench/ looks up onebit functions by module attribute.

These tests keep those lookups working: the benchmark's self-test must pass
against the library as it stands, and every layer the traced run wraps must
still exist under the name the benchmark wraps it by.
"""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _layer_wraps():
    # read LAYER_WRAPS from the source: importing run.py would set the BLAS
    # thread count in this process's environment
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYER_WRAPS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no LAYER_WRAPS")


def test_layer_wraps_resolve():
    wraps = _layer_wraps()
    assert wraps
    for module, attr, _ in wraps:
        assert callable(getattr(importlib.import_module(f"onebit.{module}"), attr))


def test_perfbench_selftest_passes():
    out = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "7/7 self-test cases behaved" in out.stdout


def test_recover_takes_the_selftest_arguments():
    # perfbench/selftest.py calls recover(ens, y, tol) positionally; without
    # the third parameter its scaled-x_hat stub would raise TypeError and the
    # check it exercises would never see a wrong output
    from onebit.harness import recover

    inspect.signature(recover).bind(object(), object(), None)


def test_layer_info_attributes():
    # the attributes perfbench/run.py's _layer_info reads in traced runs
    from onebit.measurement import gen_gaussian_ensemble
    from onebit.recovery import build_recovery_lp, solve_lp

    ens = gen_gaussian_ensemble(12, 4, seed=1)
    y = np.sign(ens.rows @ np.array([1.0, -0.5, 0.0, 0.0]))
    lp = build_recovery_lp(ens, y)
    assert lp.eq_lhs.shape[0] + lp.ineq_lhs.shape[0] == 8
    assert lp.num_vars == 13
    assert isinstance(solve_lp(lp).iterations, int)
