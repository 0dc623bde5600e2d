"""Importing onebit loads no scipy: each command imports only the scipy it uses.

The test process has scipy loaded already, so every check runs in a fresh
interpreter that imports this checkout's onebit.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import onebit
from onebit.cli import main
from onebit.harness import gen_instance
from onebit.measurement import gen_sparse_signal, normal_grid, sign_quantize
from onebit.recovery import recover

SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def _fresh(code: str, cwd) -> object:
    """Run code in a fresh interpreter; return the JSON of its last stdout line."""
    env = dict(os.environ)
    pkg_parent = str(Path(onebit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_parent, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=cwd, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _scipy_after_main(argv, cwd) -> tuple:
    """main(argv)'s exit code and the scipy modules it left loaded."""
    code = ("import contextlib, io, json, sys\n"
            "from onebit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            f"print(json.dumps([code, {SCIPY_LOADED}]))")
    return tuple(_fresh(code, cwd))


def test_import_loads_no_scipy(tmp_path):
    assert _fresh(f"import json, sys, onebit, onebit.cli\nprint(json.dumps({SCIPY_LOADED}))",
                  tmp_path) == []


@pytest.mark.parametrize("argv, exit_code", [
    (["--version"], 0),
    (["sweep", "--help"], 0),
    (["sweep", "--m", "0"], 2),
])
def test_commands_that_draw_nothing_load_no_scipy(tmp_path, argv, exit_code):
    assert _scipy_after_main(argv, tmp_path) == (exit_code, [])


def test_recover_loads_only_blas(tmp_path, capsys):
    argv = ["gen", "--n", "32", "--s", "3", "--m", "120", "--out", str(tmp_path / "inst")]
    assert main(argv) == 0
    capsys.readouterr()
    code, loaded = _scipy_after_main(["recover", "--matrix", "inst_matrix.txt",
                                      "--signs", "inst_signs.txt",
                                      "--signal", "inst_signal.txt"], tmp_path)
    assert code == 0
    assert "scipy.linalg.blas" in loaded
    assert not [m for m in loaded if m.startswith("scipy.special")]


def test_verify_loads_only_special(tmp_path):
    code, loaded = _scipy_after_main(["verify", "--check", "bernoulli-counterexample",
                                      "--n", "8", "--m", "100", "--trials", "5"], tmp_path)
    assert code == 0
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith("scipy.linalg")]


def test_first_use_draws_and_solves_the_same_bytes(tmp_path):
    # the deferred imports run on the fresh process's first normal draw and
    # first solve, and give exactly the bytes of a process that has scipy
    code = ("import hashlib, json, sys\n"
            "from onebit.harness import gen_instance\n"
            "from onebit.measurement import gen_sparse_signal, normal_grid, sign_quantize\n"
            "from onebit.recovery import recover\n"
            f"assert {SCIPY_LOADED} == []\n"
            "grid = hashlib.sha256(normal_grid(3, 500, 64).tobytes()).hexdigest()\n"
            "signal = gen_sparse_signal(64, 4, 5).tobytes().hex()\n"
            "x, ens = gen_instance(64, 4, 100, 11, 'gaussian', 'unit_gaussian')\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "res = recover(ens, sign_quantize(ens.rows @ x))\n"
            "print(json.dumps([grid, signal, res.x_hat.tobytes().hex(), "
            "res.lp_solution.iterations]))")
    x, ens = gen_instance(64, 4, 100, 11, "gaussian", "unit_gaussian")
    res = recover(ens, sign_quantize(ens.rows @ x))
    assert _fresh(code, tmp_path) == [hashlib.sha256(normal_grid(3, 500, 64).tobytes()).hexdigest(),
                                      gen_sparse_signal(64, 4, 5).tobytes().hex(),
                                      res.x_hat.tobytes().hex(), res.lp_solution.iterations]
