import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrsk import qnum, whittaker
from qrsk.dynamics import _v_strips_above
from qrsk.gt import enumerate_arrays_with_top, enumerate_signatures, weight
from qrsk.identities import skew_cauchy_dual
from qrsk.qnum import ExactModeError, q_pochhammer, q_pochhammer_inf
from qrsk.whittaker import (
    SpecParams,
    check_gibbs,
    gibbs_factor,
    link_weight,
    p_poly,
    phi_coef,
    pi_norm,
    process_weight,
    psi,
    psi_prime,
    q_poly_alpha,
    q_poly_dual,
    univariate_step_prob,
)


def schur_poly(lam, xs):
    """Bialternant-determinant Schur polynomial oracle (small sizes)."""
    import itertools

    n = len(xs)
    lam = tuple(lam) + (0,) * (n - len(lam))

    def det(m):
        total = F(0)
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = list(perm)
            for i in range(n):
                for j in range(i + 1, n):
                    if seen[i] > seen[j]:
                        sign = -sign
            prod = F(1)
            for i in range(n):
                prod *= m[i][perm[i]]
            total += sign * prod
        return total

    num = [[xs[i] ** (lam[j] + n - 1 - j) for j in range(n)] for i in range(n)]
    den = [[xs[i] ** (n - 1 - j) for j in range(n)] for i in range(n)]
    return det(num) / det(den)


def test_psi_examples():
    q = F(1, 2)
    assert psi((3, 1), (3, 1), q) == 1
    assert psi((2, 0), (1,), q) == 1 + q  # binom(2,1)_q
    assert psi((2, 0), (1,), F(1, 2)) == F(3, 2)
    assert psi((2, 1), (3,), q) == 0  # not interlacing


def test_psi_schur_degeneration():
    # at q = 0 both branching weights are indicators of the strip relation
    rnd = random.Random(0)
    for _ in range(40):
        lam = tuple(sorted((rnd.randint(0, 4) for _ in range(3)), reverse=True))
        mu = tuple(sorted((rnd.randint(0, 4) for _ in range(2)), reverse=True))
        from qrsk.gt import interlaces_h

        ind = 1 if interlaces_h(mu, lam) else 0
        assert psi(lam, mu, F(0)) == ind
        mu3 = mu + (0,)
        ind3 = 1 if interlaces_h(mu3, lam) else 0
        assert phi_coef(lam, mu3, F(0)) == ind3


def test_phi_coef_single_row():
    q = F(1, 3)
    for n in range(5):
        assert phi_coef((n,), (0,), q) == 1 / q_pochhammer(q, q, n)
    assert phi_coef((), (), q) == 1


def test_psi_prime_examples():
    q = F(1, 2)
    assert psi_prime((3, 1), (2, 1), q) == 1  # only the first part grows
    assert psi_prime((2, 1), (2, 0), q) == 1 - q ** 2
    assert psi_prime((2, 1), (2, 0), F(1, 2)) == F(3, 4)
    assert psi_prime((3, 0), (1, 0), q) == 0  # not a vertical strip


def test_p_poly_elementary_cases():
    q = F(1, 2)
    a = (F(2, 3), F(1, 5))
    assert p_poly((1, 0), a, q) == a[0] + a[1]
    assert p_poly((4,), (F(2, 3),), q) == F(2, 3) ** 4
    assert p_poly((2, 1, 1), a, q) == 0  # too long


def test_p_poly_schur_at_q0():
    a = (F(2, 3), F(1, 5))
    assert p_poly((2, 1), a, F(0)) == schur_poly((2, 1), a) == a[0] * a[1] * (a[0] + a[1])
    a3 = (F(1, 2), F(1, 3), F(1, 7))
    assert p_poly((2, 1, 0), a3, F(0)) == schur_poly((2, 1, 0), a3)


def test_q_poly_alpha_basics():
    q = F(1, 2)
    assert q_poly_alpha((), (F(1, 3), F(1, 4)), q) == 1
    n = 3
    al = F(1, 3)
    assert q_poly_alpha((n,), (al,), q) == al ** n / q_pochhammer(q, q, n)


def test_q_poly_alpha_symmetric():
    q = F(1, 2)
    als = (F(1, 3), F(1, 5), F(2, 7))
    import itertools

    for lam in [(1,), (2, 1), (3,), (1, 1, 1), (2, 1, 0)]:
        vals = {q_poly_alpha(lam, perm, q) for perm in itertools.permutations(als)}
        assert len(vals) == 1


def test_q_poly_dual_symmetric():
    q = F(1, 2)
    bts = (F(1, 3), F(2, 5))
    for lam in [(1, 0), (1, 1), (2, 1)]:
        assert q_poly_dual(lam, bts, q) == q_poly_dual(lam, tuple(reversed(bts)), q)


def test_pi_norm():
    q = F(1, 2)
    a = (F(1), F(1, 2))
    spec = SpecParams.betas(F(1, 3), F(1, 4))
    expect = F(1)
    for aj in a:
        expect *= (1 + F(1, 3) * aj) * (1 + F(1, 4) * aj)
    assert pi_norm(a, spec, q) == expect
    # multiplicativity over unions of dual specializations
    s1, s2 = SpecParams.betas(F(1, 3)), SpecParams.betas(F(1, 4))
    union = SpecParams.betas(F(1, 3), F(1, 4))
    assert pi_norm(a, union, q) == pi_norm(a, s1, q) * pi_norm(a, s2, q)
    with pytest.raises(ExactModeError):
        pi_norm(a, SpecParams.alphas(F(1, 3)), q)


def test_process_weight_one_level():
    q = F(1, 2)
    beta = F(1, 3)
    a = (F(4, 5),)
    spec = SpecParams.betas(beta)
    assert process_weight(((0,),), a, spec, q) == 1 / (1 + beta * a[0])
    assert process_weight(((1,),), a, spec, q) == beta * a[0] / (1 + beta * a[0])


def test_process_weights_sum_to_one():
    # dual specs have finite support: parts <= number of beta parameters
    q = F(1, 2)
    a = (F(1), F(2, 3), F(1, 2))
    spec = SpecParams.betas(F(1, 3), F(1, 4))
    total = F(0)
    for top in enumerate_signatures(2, 3):
        for arr in enumerate_arrays_with_top(top):
            total += process_weight(arr, a, spec, q)
    assert total == 1


def test_check_gibbs():
    q = F(1, 2)
    a = (F(1), F(2, 3))
    spec = SpecParams.betas(F(1, 3), F(1, 4))
    weights = {}
    for top in enumerate_signatures(2, 2):
        for arr in enumerate_arrays_with_top(top):
            weights[arr] = process_weight(arr, a, spec, q)
    assert check_gibbs(weights, a, q)
    # uniform weights are Gibbs at q = 0 with unit level parameters
    uni = {arr: F(1) for arr in weights}
    assert check_gibbs(uni, (F(1), F(1)), F(0))
    # a perturbed table is not
    bad = dict(weights)
    bad[((0,), (1, 0))] = bad[((0,), (1, 0))] * 2
    assert not check_gibbs(bad, a, q)


def test_univariate_beta_one_level_values():
    q = F(1, 2)
    beta = F(1, 3)
    a = (F(4, 5),)
    assert univariate_step_prob("beta", (0,), (1,), a, beta, q) == beta * a[0] / (1 + beta * a[0])
    assert univariate_step_prob("beta", (0,), (0,), a, beta, q) == 1 / (1 + beta * a[0])


def test_univariate_beta_row_sums():
    q = F(1, 2)
    beta = F(1, 3)
    a = (F(1), F(2, 3))
    cache = {}
    for lam in enumerate_signatures(2, 2):
        total = F(0)
        for nu in _v_strips_above(lam):
            total += univariate_step_prob("beta", lam, nu, a, beta, q, cache)
        assert total == 1, lam


def test_univariate_alpha_row_sums_float():
    q, alpha = 0.5, 0.3
    a = (1.0, 0.7)
    cache = {}
    for lam in [(0, 0), (2, 1)]:
        total = 0.0
        # horizontal strips above lam with a generous cap; the tail is geometric
        from qrsk.gt import signatures_between

        uppers = [lam[0] + 40, lam[0]]
        total = sum(
            float(univariate_step_prob("alpha", lam, nu, a, alpha, q, cache))
            for nu in signatures_between(lam, uppers)
        )
        assert abs(total - 1) < 1e-9, (lam, total)


def test_skew_cauchy_dual_exact():
    checked = 0
    for kind, instance, lhs, rhs in skew_cauchy_dual(F(1, 2), F(2, 3), F(1, 3), 3, 3):
        assert lhs == rhs, instance
        checked += 1
    assert checked == 200


def test_skew_cauchy_usual_float():
    # alpha side: the nu-sum is truncated; the tail decays q-geometrically
    q, aj, alpha = 0.5, 0.75, 0.3
    from qrsk.gt import signatures_between

    lam = (2, 1, 0)
    nu_bar = (2, 0)
    lhs = 0.0
    for lam_bar in enumerate_signatures(3, 2):
        lhs += (
            float(psi(lam, lam_bar, q))
            * aj ** (weight(lam) - weight(lam_bar))
            * float(phi_coef(nu_bar, lam_bar, q))
            * alpha ** (weight(nu_bar) - weight(lam_bar))
        )
    rhs = 0.0
    cap = weight(lam) + weight(nu_bar) + 20
    for nu in signatures_between(lam, [lam[0] + cap, lam[0], lam[1]]):
        rhs += (
            float(psi(nu, nu_bar, q))
            * aj ** (weight(nu) - weight(nu_bar))
            * float(phi_coef(nu, lam, q))
            * alpha ** (weight(nu) - weight(lam))
        )
    rhs *= q_pochhammer_inf(alpha * aj, q)
    assert abs(lhs - rhs) < 1e-10


def test_pieri_expansion():
    # P_lam(a) prod_j (1 + beta a_j) expands over vertical strips with psi'
    q = F(1, 2)
    beta = F(1, 5)
    a = (F(1), F(2, 3), F(1, 2))
    for lam in [(0, 0, 0), (1, 0, 0), (2, 1, 0), (1, 1, 1), (3, 0, 0)]:
        cache = {}
        lhs = p_poly(lam, a, q, cache)
        for aj in a:
            lhs *= 1 + beta * aj
        rhs = F(0)
        for nu in _v_strips_above(lam):
            rhs += psi_prime(nu, lam, q) * beta ** (weight(nu) - weight(lam)) * p_poly(nu, a, q, cache)
        assert lhs == rhs, lam


def test_intertwining_with_links():
    # transition operator then link equals link then lower transition operator
    q = F(1, 2)
    beta = F(1, 3)
    a = (F(1), F(2, 3), F(1, 2))
    cache = {}
    for lam in enumerate_signatures(2, 3):
        for mu_bar in enumerate_signatures(3, 2):
            lhs = F(0)
            for nu in _v_strips_above(lam):
                lhs += univariate_step_prob("beta", lam, nu, a, beta, q, cache) * link_weight(
                    nu, mu_bar, a, q, cache
                )
            rhs = F(0)
            for lam_bar in enumerate_signatures(3, 2):
                rhs += link_weight(lam, lam_bar, a, q, cache) * univariate_step_prob(
                    "beta", lam_bar, mu_bar, a[:2], beta, q, cache
                )
            assert lhs == rhs, (lam, mu_bar)


def test_gibbs_factor_matches_process_weight_ratio():
    q = F(1, 2)
    a = (F(1), F(2, 3))
    spec = SpecParams.betas(F(1, 3))
    arrs = list(enumerate_arrays_with_top((1, 0)))
    w = [process_weight(arr, a, spec, q) / gibbs_factor(arr, a, q) for arr in arrs]
    assert w[0] == w[1]


def test_process_weight_usual_spec_float():
    # usual (alpha) specializations need the infinite product: floating mode;
    # the weights over a generous support cap sum to ~1
    q, al = 0.5, 0.3
    a = (1.0, 0.8)
    spec = SpecParams.alphas(al)
    total = 0.0
    for top in enumerate_signatures(22, 2):
        for arr in enumerate_arrays_with_top(top):
            total += process_weight(arr, a, spec, q)
    assert abs(total - 1) < 1e-9  # tail beyond the cap is ~0.3^23


MEMOISED = {psi: whittaker._psi, psi_prime: whittaker._psi_prime, phi_coef: whittaker._phi_coef}


def test_memoised_weights_are_bounded_and_typed():
    for cached in MEMOISED.values():
        assert cached.cache_parameters() == {"maxsize": qnum.MEMO_SIZE, "typed": True}


@pytest.mark.parametrize("first, second", [
    (F(1, 2), 0.5), (0.5, F(1, 2)), (0, F(0)), (F(0), 0),
])
def test_memoised_weights_keep_the_type_of_q(first, second):
    lam, mu = (3, 1), (2, 1)
    for fn, cached in MEMOISED.items():
        cached.cache_clear()
        for q in (first, second):
            value = fn(lam, mu, q)
            expected = cached.__wrapped__(lam, mu, q)
            assert value == expected and type(value) is type(expected), (fn.__name__, q)
            if not isinstance(q, int):
                assert type(value) is type(q), (fn.__name__, q)


def test_float_weights_skip_the_memo():
    for fn, cached in MEMOISED.items():
        cached.cache_clear()
        assert fn((3, 1), (2, 1), 0.5) == float(fn((3, 1), (2, 1), F(1, 2)))
        assert cached.cache_info().currsize == 1, fn.__name__


def test_memoised_weights_take_list_arguments():
    q = F(1, 3)
    cases = (
        (psi, [3, 1], [2], lambda lam, mu: lam.__setitem__(1, 2)),
        (phi_coef, [3, 1], [2], lambda lam, mu: lam.__setitem__(1, 2)),
        (psi_prime, [2, 2], [2, 1], lambda lam, mu: mu.__setitem__(1, 2)),
    )
    for fn, lam, mu, mutate in cases:
        before = fn(lam, mu, q)
        mutate(lam, mu)
        after = fn(lam, mu, q)
        assert after == MEMOISED[fn].__wrapped__(tuple(lam), tuple(mu), q) != before, fn.__name__


@st.composite
def _strip_pairs(draw):
    """(lam, mu, q): signatures with parts up to 5, len(mu) in {len(lam) - 1, len(lam)}."""
    j = draw(st.integers(1, 4))
    lam = sorted(draw(st.lists(st.integers(0, 5), min_size=j, max_size=j)), reverse=True)
    k = draw(st.integers(j - 1, j))
    mu = sorted(draw(st.lists(st.integers(0, 5), min_size=k, max_size=k)), reverse=True)
    return lam, mu, draw(st.fractions(0, F(9, 10), max_denominator=12))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_strip_pairs())
def test_memoised_weights_equal_their_originals(case):
    lam, mu, q = case
    for fn, cached in MEMOISED.items():
        for a, b in ((lam, mu), (mu, lam)):
            expected = cached.__wrapped__(tuple(a), tuple(b), q)
            for _ in range(2):  # a miss, then a hit
                assert fn(a, b, q) == expected, (fn.__name__, a, b, q)


@pytest.mark.parametrize("m", [3000, 2000, 324])
def test_float_phi_coef_past_the_float_range_raises_overflow(m):
    # at q = 0.999, (q;q)_m underflows to 0.0 for m = 2000 and 3000, and is subnormal
    # for m = 324, where its reciprocal is past the float range
    with pytest.raises(OverflowError, match="float range"):
        phi_coef((m,), (0,), 0.999)
    with pytest.raises(OverflowError, match="float range"):
        phi_coef((m + 3, 2), (3,), 0.999)  # a q-binomial factor >= 1 cannot bring it back


def test_float_phi_coef_in_the_float_range_is_the_plain_quotient():
    # (q;q)_323 is subnormal too, but its reciprocal is still a float
    for m in (10, 322, 323):
        assert phi_coef((m,), (0,), 0.999) == 1 / q_pochhammer(0.999, 0.999, m)


def test_float_psi_past_the_float_range_raises_overflow():
    # each q-binomial factor is a float, but their product (log10 about 356.7) is not
    lam, mu, q = (2271, 917, 473), (1201, 632), 0.999
    factors = [qnum.q_binomial(2271 - 917, 2271 - 1201, q), qnum.q_binomial(917 - 473, 917 - 632, q),
               qnum.q_binomial(473, 473, q)]
    assert all(f < float("inf") for f in factors)
    with pytest.raises(OverflowError, match="float range"):
        psi(lam, mu, q)


def test_float_psi_in_the_float_range_is_the_plain_product():
    q = 0.999  # the first two are about 2.5e297 and 4.0e270
    for lam, mu in [((2271, 917, 473), (2100, 632)), ((2271, 917, 473), (1201, 900)), ((5, 3, 1), (4, 2))]:
        padded_lam = (*lam, 0)
        plain = 1.0
        for upper, lower, m in zip(padded_lam, padded_lam[1:], (*mu, 0)):
            plain *= qnum.q_binomial(upper - lower, upper - m, q)
        assert psi(lam, mu, q) == plain
