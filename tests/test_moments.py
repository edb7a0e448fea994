import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrsk.moments import (
    MomentDivergenceError,
    MomentQuery,
    exact_qmoment,
    nested_moment_residues,
)

Q = F(1, 2)
BETA = F(1, 3)
A = (F(1), F(2, 3), F(1, 2))


def test_one_step_hand_computation():
    # E q^{x_1(1)+1}: stay (prob 1/(1+ba)) contributes 1, jump contributes 1/q
    qy = MomentQuery(1, (1,), 1, Q, BETA, A[:1])
    x = BETA * A[0]
    hand = 1 / (1 + x) + (x / (1 + x)) / Q
    assert nested_moment_residues(qy) == exact_qmoment(qy) == hand


def test_time_zero_is_one():
    for k, ns in [(1, (1,)), (1, (2,)), (2, (2, 1))]:
        qy = MomentQuery(k, ns, 0, Q, BETA, A)
        assert nested_moment_residues(qy) == exact_qmoment(qy) == 1


def test_q_one_would_be_one():
    # q = 1 trivializes the observable; the oracle side sums probabilities
    d = exact_qmoment(MomentQuery(1, (2,), 2, F(1), BETA, A[:2]))
    assert d == 1


def test_k2_frozen_example():
    qy = MomentQuery(2, (2, 1), 2, Q, BETA, (F(1), F(2, 3)))
    val = nested_moment_residues(qy)
    assert val == exact_qmoment(qy)
    assert val == F(6781, 1936)  # frozen from the trajectory oracle


def test_grid_small():
    for k, ns in [(1, (1,)), (1, (3,)), (2, (2, 1)), (2, (3, 3))]:
        for t in (1, 2):
            qy = MomentQuery(k, ns, t, Q, BETA, A)
            assert nested_moment_residues(qy) == exact_qmoment(qy), (k, ns, t)


def test_two_part_process():
    for k, ns in [(1, (2,)), (2, (2, 1))]:
        for tr, tl in [(1, 1), (2, 1), (0, 2)]:
            qy = MomentQuery(k, ns, tr, Q, BETA, system="TwoPart", t_left=tl)
            assert nested_moment_residues(qy) == exact_qmoment(qy), (k, ns, tr, tl)


def test_two_part_order_symmetric_integrand():
    # the integrand is a product, so exchanging the step counts of the two
    # factors with themselves is trivially stable; swapping right/left counts
    # changes the law but each evaluation matches its own oracle
    qy = MomentQuery(1, (2,), 2, Q, BETA, system="TwoPart", t_left=1)
    qz = MomentQuery(1, (2,), 1, Q, BETA, system="TwoPart", t_left=2)
    assert nested_moment_residues(qy) == exact_qmoment(qy)
    assert nested_moment_residues(qz) == exact_qmoment(qz)


def test_geometric_push_small():
    qg = MomentQuery(1, (1,), 1, Q, F(1, 5), (F(1),), system="GeometricPush")
    r = nested_moment_residues(qg)
    assert abs(float(r) - exact_qmoment(qg)) < 1e-9
    qg2 = MomentQuery(1, (2,), 1, Q, F(1, 5), (F(1), F(2, 3)), system="GeometricPush")
    assert abs(float(nested_moment_residues(qg2)) - exact_qmoment(qg2)) < 1e-8


def test_geometric_push_divergence_detected():
    qg = MomentQuery(2, (1, 1), 1, Q, F(4, 5), (F(1),), system="GeometricPush")
    with pytest.raises(MomentDivergenceError):
        exact_qmoment(qg)


def test_rejects_bad_queries():
    with pytest.raises(ValueError):
        MomentQuery(2, (1, 2), 1, Q, BETA, A)  # not weakly decreasing
    with pytest.raises(ValueError):
        MomentQuery(1, (4,), 1, Q, BETA, A)  # index beyond particle count
    with pytest.raises(ValueError):
        MomentQuery(1, (1,), 1, Q, BETA, (F(1), F(1)))  # coinciding a_i


def test_equal_a_recovered_by_perturbation():
    # the a_i-equal case evaluates stably at a_i = 1 + i * delta for tiny delta
    d = F(1, 10 ** 6)
    vals = []
    for scale in (1, 2):
        a = (1 + d * scale, 1 + 2 * d * scale)
        vals.append(float(nested_moment_residues(MomentQuery(1, (2,), 2, Q, BETA, a))))
    assert abs(vals[0] - vals[1]) < 1e-5


@pytest.mark.parametrize(
    "qy",
    [
        MomentQuery(3, (2, 1, 1), 1, Q, BETA, A),
        MomentQuery(3, (3, 2, 1), 2, Q, BETA, A),
        MomentQuery(3, (2, 2, 1), 1, Q, BETA, system="TwoPart", t_left=1),
    ],
    ids=["push-211-t1", "push-321-t2", "twopart-221-t1+1"],
)
def test_k3_matches_oracle(qy):
    assert nested_moment_residues(qy) == exact_qmoment(qy)


def test_coincident_poles():
    # q a_1 = a_2: the residue of z_1 at q z_2 turns 1/(1 - a_1 z_1) into
    # 1/(1 - a_2 z_2), so with n_2 = 2 the pole at z_2 = 1/a_2 = 2 has order 2
    a = (F(1), F(1, 2))
    for t in (1, 2):
        qy = MomentQuery(2, (2, 2), t, F(1, 2), BETA, a)
        assert nested_moment_residues(qy) == exact_qmoment(qy), t


@st.composite
def _moment_queries(draw):
    """Small k <= 2 queries with rational q, beta and distinct a_i."""
    q = draw(st.fractions(F(1, 10), F(9, 10), max_denominator=10))
    beta = draw(st.fractions(F(1, 10), 3, max_denominator=10))
    k = draw(st.integers(1, 2))
    t = draw(st.integers(0, 2))
    if draw(st.booleans()):
        n = tuple(sorted(draw(st.lists(st.integers(1, 3), min_size=k, max_size=k)), reverse=True))
        return MomentQuery(k, n, t, q, beta, system="TwoPart", t_left=draw(st.integers(0, 2)))
    a = tuple(
        draw(
            st.lists(
                st.fractions(F(1, 5), 2, max_denominator=6), min_size=1, max_size=3, unique=True
            )
        )
    )
    n = tuple(sorted(draw(st.lists(st.integers(1, len(a)), min_size=k, max_size=k)), reverse=True))
    return MomentQuery(k, n, t, q, beta, a)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_moment_queries())
def test_residues_match_oracle_property(qy):
    assert nested_moment_residues(qy) == exact_qmoment(qy)


def test_import_does_not_load_sympy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-c", "import qrsk, sys; assert 'sympy' not in sys.modules"],
        env=env,
        check=True,
    )
