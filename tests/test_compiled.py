"""csgames loads scipy's HiGHS and LAPACK modules by file, so importing and
using it leaves scipy.optimize and scipy.linalg unimported; whichever side
imports first, both use the same compiled objects, and each is an attribute
of its package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import csgames
from csgames import _compiled

SRC = str(Path(csgames.__file__).resolve().parents[1])
HEAVY = ("scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.special")


def run_fresh(code):
    """Run `code` in a fresh interpreter that imports this csgames, and
    return the JSON it prints last."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cold_import_leaves_scipy_optimize_and_linalg_out():
    loaded = run_fresh(
        "import json, sys\n"
        "import csgames, csgames.cli\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n")
    assert loaded == []


def test_caratheodory_and_singular_solve_leave_scipy_optimize_and_linalg_out():
    # The two paths that once imported scipy.linalg: the Caratheodory
    # reduction behind markov_replacement, and a solve that meets an exactly
    # zero pivot.
    checks = run_fresh(
        "import json, sys\n"
        "import numpy as np\n"
        "from csgames import evaluation, sample_games, transform\n"
        "reduce, calls = transform.caratheodory_reduce, []\n"
        "transform.caratheodory_reduce = lambda *a: calls.append(a) or reduce(*a)\n"
        "game, partition = sample_games.random_cell_constant_game(\n"
        "    np.random.default_rng(5), n_cells=3, n_players=1, n_actions=(2,))\n"
        "rows = np.random.default_rng(6).dirichlet(np.ones(2), size=game.n_states)\n"
        "transform.markov_replacement(game, partition, 0, [], rows, 3)\n"
        "try:\n"
        "    evaluation._discounted_solve(2.0 * np.eye(3), 0.5, np.ones(3))\n"
        "    error = None\n"
        "except RuntimeError as exc:\n"
        "    error = str(exc)\n"
        f"loaded = [m for m in {HEAVY!r} if m in sys.modules]\n"
        "print(json.dumps([len(calls) > 0, error, loaded]))\n")
    assert checks == [True, "policy evaluation matrix is singular: pivot 1 is exactly zero", []]


@pytest.mark.parametrize("first", ["csgames", "scipy"])
def test_csgames_and_scipy_share_the_compiled_objects(first):
    imports = ["import csgames", "import scipy.optimize, scipy.linalg.lapack"]
    if first == "scipy":
        imports.reverse()
    checks = run_fresh("\n".join(imports + [
        "import json",
        "from csgames import best_response, evaluation",
        "from scipy.optimize._highspy import _core",
        "getrf, getrs = scipy.linalg.lapack.get_lapack_funcs(('getrf', 'getrs'), dtype=float)",
        "lp = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])",
        "print(json.dumps({",
        "    'highs': best_response._h._Highs is _core._Highs,",
        "    'getrf': evaluation._GETRF is getrf,",
        "    'getrs': evaluation._GETRS is getrs,",
        "    'linprog': best_response.linprog is scipy.optimize.linprog,",
        "    'flapack attribute': scipy.linalg._flapack is evaluation._flapack,",
        "    'core attribute': scipy.optimize._highspy._core is best_response._h,",
        "    'lp': [lp.status, lp.fun, lp.x.tolist()],",
        "}))",
    ]))
    assert checks == {"highs": True, "getrf": True, "getrs": True, "linprog": True,
                      "flapack attribute": True, "core attribute": True,
                      "lp": [0, 1.0, [1.0, 0.0]]}


def test_load_binds_the_module_to_a_package_already_imported():
    # A stand-in for scipy.linalg, imported before csgames loads _flapack:
    # the module is bound to it at once, and no finder waits for it.
    checks = run_fresh(
        "import json, sys, types\n"
        "import scipy\n"
        "linalg = sys.modules['scipy.linalg'] = types.ModuleType('scipy.linalg')\n"
        "from csgames import _compiled, evaluation\n"
        "print(json.dumps([linalg._flapack is evaluation._flapack,\n"
        "                  any(isinstance(f, _compiled._BindOnImport)\n"
        "                      and f.package == 'scipy.linalg' for f in sys.meta_path)]))\n")
    assert checks == [True, False]


def test_load_returns_the_imported_module_and_refuses_a_missing_one():
    from scipy.linalg import _flapack

    assert _compiled.load("scipy.linalg._flapack") is _flapack
    with pytest.raises(ImportError, match="scipy.linalg._no_such_module") as exc:
        _compiled.load("scipy.linalg._no_such_module")
    assert Path(exc.value.path) == Path(_flapack.__file__).parent
