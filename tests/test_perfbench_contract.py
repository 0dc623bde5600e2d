"""The benchmark in perfbench/ looks up onebit functions by module attribute.

These tests keep those lookups working: the benchmark's self-test must pass
against the library as it stands, and every layer the traced run wraps must
still exist under the name the benchmark wraps it by.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    from onebit.harness import gen_instance, recover

    inspect.signature(recover).bind(object(), object(), None)
    # but it is no setting: anything other than None is refused
    x, ens = gen_instance(8, 2, 16, 5, "gaussian", "unit_gaussian")
    with pytest.raises(TypeError, match="tol must be None"):
        recover(ens, np.sign(ens.rows @ x), object())


def test_layer_info_attributes():
    # the attributes perfbench/run.py's _layer_info reads in traced runs
    from onebit.measurement import gen_gaussian_ensemble
    from onebit.recovery import build_recovery_lp, solve_lp

    ens = gen_gaussian_ensemble(12, 4, seed=1)
    y = np.sign(ens.rows @ np.array([1.0, -0.5, 0.0, 0.0]))
    lp = build_recovery_lp(ens, y)
    assert lp.eq_lhs.shape[0] + lp.ineq_lhs.shape[0] == 4   # one range row per coordinate
    assert lp.num_vars == 13
    assert isinstance(solve_lp(lp).iterations, int)


TRACED_ROUND = """
import json, sys
from pathlib import Path

import onebit.cli
import run, workloads
from spans import Tracer

out = {}
for name in ("sweep-gaussian", "sweep-zero-signs"):
    workload = workloads.make(name, Path(sys.argv[1]))
    tracer = Tracer()
    workload.install(tracer)
    run.run_round(tracer, workload, 0, workload.round_seed(1, 0), True, onebit.cli.main)
    tracer.unwrap()
    metrics = run.layer_metrics(tracer, workload, [0], [])
    out[name] = {"ops": len(workload.ops),
                 "problems": [p for op in workload.ops for p in op.problems]
                 + workload.run_problems(),
                 "lp_rows": metrics["recovery.lp_rows"][0]}
print(json.dumps(out))
"""


def test_traced_round_reads_the_recovery_lp(tmp_path):
    # one traced round of each sweep: _layer_info reads the built LP's rows
    # and columns, which the untraced self-test never does.  A subprocess,
    # because importing run.py sets the BLAS thread variables
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    out = subprocess.run([sys.executable, "-c", TRACED_ROUND, str(tmp_path)], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    for name, got in json.loads(out.stdout.splitlines()[-1]).items():
        assert got["ops"] > 0 and got["problems"] == [], (name, got)
        assert got["lp_rows"] == 128, (name, got)   # n range rows at n = 128
