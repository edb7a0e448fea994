"""numpy is imported only where arrays are made.

The exact verifier, `qrsk verify`, the Bernoulli samplers and, at q = 1/2,
every q-geometric step and `qrsk simulate` run in a fresh interpreter without
loading numpy: their sampling tables have at most 64 points.  A longer table
and the replica axis load it, and every run gives its golden values.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qrsk import dynamics, qnum

_CHILD = r"""
import contextlib, io, json, os, random, sys, tempfile
from fractions import Fraction as F

import qrsk
import qrsk.cli
from qrsk import dynamics, moments, particles

out = {"after_import": "numpy" in sys.modules}
squares = {}
for kind, rule in dynamics.KINDS.items():
    if rule.exact:
        squares[kind] = dynamics.main_equation_sweep(kind, 2, 2, F(1, 3), F(1), F(1, 2))
out["squares"] = squares
query = moments.MomentQuery(2, (2, 1), 2, F(1, 2), F(1, 3), (F(1), F(2, 3)))
out["moment"] = str(moments.nested_moment_residues(query))
out["oracle"] = str(moments.exact_qmoment(query))
with contextlib.redirect_stdout(io.StringIO()):
    out["verify_exit"] = qrsk.cli.main(["verify", "main-eq", "--levels", "2", "--max-part", "1"])
rng = random.Random(5)
for kind in (dynamics.ROW_BETA, dynamics.COL_BETA):
    spec = dynamics.DynamicsSpec(kind, 0.5, 0.4, (1.0, 0.9, 0.8))
    dynamics.sample_step(spec, qrsk.gt.zero_array(3), rng)
for step in (particles.bernoulli_qpush_step, particles.bernoulli_qtasep_step):
    step((-1, -2, -3), 0.4, [1.0, 0.9, 0.8], 0.5, rng)
    step((-1, -2, -3), F(2, 5), [F(1), F(9, 10), F(4, 5)], F(1, 2), rng)
out["after_exact_and_bernoulli"] = "numpy" in sys.modules

# q-geometric steps at q = 1/2: first the seeded run of the golden test in test_dynamics
spec = dynamics.DynamicsSpec(dynamics.ROW_ALPHA, 0.5, 0.35, (1.0, 0.9, 0.8))
rng = random.Random(3000 + len(dynamics.ROW_ALPHA))
arr = qrsk.gt.zero_array(3)
for _ in range(300):
    arr = dynamics.sample_step(spec, arr, rng)
out["row_alpha"] = arr
out["after_row_alpha_steps"] = "numpy" in sys.modules
for kind in (dynamics.COL_ALPHA, dynamics.PUSH_BLOCK_ALPHA):
    spec = dynamics.DynamicsSpec(kind, 0.5, 0.35, (1.0, 0.9, 0.8))
    arr = qrsk.gt.zero_array(3)
    for _ in range(10):
        arr = dynamics.sample_step(spec, arr, rng)
for step in (particles.geometric_qpush_step, particles.geometric_qtasep_step):
    x = particles.step_config(3)
    for _ in range(20):
        x = step(x, 0.35, [1.0, 0.9, 0.8], 0.5, rng)
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    out["simulate_exit"] = qrsk.cli.main(
        ["simulate", "row-alpha", "-N", "3", "-T", "20", "--out", os.path.join(tmp, "run")])
out["after_q_geometric_steps"] = "numpy" in sys.modules

# a scalar draw whose table is longer than 64 points builds it with numpy
from qrsk import qnum
qnum.sample_q_geometric(0.99, 0.5, rng)
out["after_long_table"] = "numpy" in sys.modules
"""


def _run_child(code):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    # the child runs with the parent's -O, so the -O test step checks the library under -O
    flags = ["-O"] * sys.flags.optimize
    res = subprocess.run([sys.executable, *flags, "-c", code + "\nprint(json.dumps(out))"],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_exact_verifier_and_bernoulli_samplers_run_without_numpy():
    out = _run_child(_CHILD)
    assert not out["after_import"]
    assert set(out["squares"]) == {k for k, rule in dynamics.KINDS.items() if rule.exact}
    assert all(n > 0 for n in out["squares"].values())
    assert out["moment"] == out["oracle"] == "6781/1936"
    assert out["verify_exit"] == 0
    assert not out["after_exact_and_bernoulli"]
    # at q = 1/2 the q-geometric steps' tables are short, built in plain Python
    assert not out["after_row_alpha_steps"]
    assert out["simulate_exit"] == 0 and not out["after_q_geometric_steps"]
    # the RowAlpha N = 3 entry of test_dynamics._GOLDEN_FINAL_ARRAYS
    assert tuple(map(tuple, out["row_alpha"])) == ((304,), (305, 249), (307, 257, 200))
    # a table of more than 64 points is built with numpy
    assert out["after_long_table"]


def test_scaled_arrays_load_numpy_and_keep_their_golden_sums():
    code = r"""
import json, math, random, sys
from qrsk.polymers import scaled_row_arrays

out = {"before": "numpy" in sys.modules}
eps, t = 1e-2, 3
row = scaled_row_arrays(3, t, [0.5, 1.0, 1.5], [0.75, 1.25, 2.0], eps, 50, random.Random(7))
out["after"] = "numpy" in sys.modules
log_inv_eps = math.log(1 / eps)
out["sums"] = [[j, k, sum(round((x + (t + j - 2 * k + 1) * log_inv_eps) / eps) for x in xs)]
               for (j, k), xs in sorted(row.items())]
"""
    out = _run_child(code)
    assert not out["before"] and out["after"]
    # the row sums of test_dynamics.test_seeded_scaled_arrays_are_unchanged
    assert {(j, k): s for j, k, s in out["sums"]} == {
        (1, 1): 67720, (2, 1): 92613, (2, 2): 35200,
        (3, 1): 114791, (3, 2): 57048, (3, 3): 13945}


# Counts and exponents as the samplers see them: Python ints, numpy int64
# scalars (not arrays) and int64 arrays over replicas, a 0-d one included.
_VALUES = [0, 1, 7, np.int64(0), np.int64(3), np.array([0, 2], dtype=np.int64),
           np.zeros(0, dtype=np.int64), np.array(5, dtype=np.int64)]


@pytest.mark.parametrize("x", _VALUES, ids=repr)
def test_array_check_gives_the_isinstance_answer(x):
    assert qnum.is_array(x) == isinstance(x, np.ndarray)
    assert dynamics._draws(x) == (isinstance(x, np.ndarray) or x != 0)
    assert qnum._finite(x) == (isinstance(x, np.ndarray) or x != qnum.INF)


def test_array_check_of_infinity_and_none():
    assert not qnum.is_array(qnum.INF) and not qnum._finite(qnum.INF)
    assert not qnum.is_array(None)


def test_the_lazy_module_is_numpy():
    assert qnum.np.ndarray is np.ndarray
    assert qnum.np.random.default_rng is np.random.default_rng
    # after the first read numpy's names are plain attributes, submodules included
    assert vars(qnum.np)["exp"] is np.exp and vars(qnum.np)["random"] is np.random
    with pytest.raises(AttributeError):
        qnum.np.no_such_name
