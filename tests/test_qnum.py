import math
import operator
import random
from decimal import Decimal, localcontext
from fractions import Fraction as F
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrsk import qnum
from qrsk.qnum import (
    INF,
    ExactModeError,
    PhiParams,
    QSampler,
    ZeroMassError,
    phi_pmf,
    phi_sample,
    phi_support,
    phi_weight,
    q_binomial,
    q_geometric_pmf,
    q_pochhammer,
    q_pochhammer_inf,
    qpow,
    sample_q_geometric,
)

SIGMAS = 6.0


def qbinom_recurrence(n, k, q):
    """Independent Pascal-type oracle for the Gaussian binomial."""
    if k < 0 or k > n:
        return F(0)
    if k == 0 or k == n:
        return F(1)
    return qbinom_recurrence(n - 1, k - 1, q) + q ** k * qbinom_recurrence(n - 1, k, q)


def test_pochhammer_zero_length():
    assert q_pochhammer(F(7, 3), F(1, 2), 0) == 1


def test_pochhammer_two_factors():
    assert q_pochhammer(F(1, 2), F(1, 2), 2) == F(3, 8)


def test_pochhammer_negative_branch():
    # (1/2; 1/3)_{-1} = 1 / (1 - (1/2) * 3) = -2
    assert q_pochhammer(F(1, 2), F(1, 3), -1) == -2


def test_pochhammer_negative_branch_zero_factor():
    with pytest.raises(ZeroDivisionError):
        q_pochhammer(F(1, 2), F(1, 2), -1)


def test_pochhammer_concatenation():
    rnd = random.Random(0)
    for _ in range(30):
        q = F(rnd.randint(1, 5), rnd.randint(6, 9))
        a = F(rnd.randint(0, 5), rnd.randint(6, 9))
        m, mp = rnd.randint(0, 5), rnd.randint(0, 5)
        lhs = q_pochhammer(a, q, m) * q_pochhammer(a * q ** m, q, mp)
        assert lhs == q_pochhammer(a, q, m + mp)


def test_pochhammer_inf_value():
    # high-precision product oracle: prod (1 - 2^-k-1) = 0.28878809508660242...
    assert abs(q_pochhammer_inf(0.5, 0.5) - 0.2887880950866024) < 1e-9


def test_pochhammer_inf_telescopes():
    for a, q in [(0.5, 0.5), (0.25, 0.75), (0.9, 0.3)]:
        lhs = q_pochhammer_inf(a, q)
        rhs = (1 - a) * q_pochhammer_inf(a * q, q)
        assert abs(lhs - rhs) < 1e-12


def test_pochhammer_inf_rejects_exact():
    with pytest.raises(ExactModeError):
        q_pochhammer_inf(F(1, 2), F(1, 2))


def test_q_binomial_against_recurrence():
    # binom(4,2)_q = 1 + q + 2q^2 + q^3 + q^4
    q = F(1, 3)
    poly = 1 + q + 2 * q ** 2 + q ** 3 + q ** 4
    assert q_binomial(4, 2, q) == poly == qbinom_recurrence(4, 2, q)
    rnd = random.Random(1)
    for _ in range(25):
        n = rnd.randint(0, 7)
        k = rnd.randint(0, n)
        qq = F(rnd.randint(1, 4), rnd.randint(5, 9))
        assert q_binomial(n, k, qq) == qbinom_recurrence(n, k, qq)


def test_q_binomial_edge_and_errors():
    assert q_binomial(5, 0, F(1, 2)) == 1
    with pytest.raises(ValueError):
        q_binomial(3, 4, F(1, 2))


def test_q_binomial_base_inversion():
    # binom(n,k)_{1/q} = q^{-k(n-k)} binom(n,k)_q at (5, 2, 1/2)
    q = F(1, 2)
    assert q_binomial(5, 2, 1 / q) == q ** (-2 * 3) * q_binomial(5, 2, q)


def test_q_binomial_infinite_n():
    q = 0.5
    assert abs(q_binomial(INF, 3, q) - 1 / q_pochhammer(q, q, 3)) < 1e-12
    with pytest.raises(ExactModeError):
        q_binomial(INF, 2, F(1, 2))


def test_qpow_conventions():
    assert qpow(F(1, 2), INF) == 0
    assert qpow(F(0), 0) == 1
    assert qpow(F(0), 3) == 0


def test_phi_direct_sums_to_one_exactly():
    p = PhiParams.direct(F(1, 2), F(1, 3), F(1, 4), 5)
    assert sum(w for _, w in phi_pmf(p)) == 1


def test_phi_sums_to_one_randomized():
    rnd = random.Random(2)
    for _ in range(40):
        q = F(rnd.randint(0, 5), rnd.randint(6, 10))
        if rnd.random() < 0.5:
            eta = F(rnd.randint(0, 4), rnd.randint(8, 12))
            xi = eta + F(rnd.randint(0, 3), rnd.randint(8, 12))
            p = PhiParams.direct(q, xi, eta, rnd.randint(0, 6))
        else:
            b = rnd.choice([rnd.randint(2, 8), INF])
            a = rnd.randint(0, b if b != INF else 6)
            c = rnd.randint(0, b if b != INF else 6)
            p = PhiParams.inverse(q, a, b, c)
        total = sum(w for _, w in phi_pmf(p))
        assert total == 1, p
        assert all(w >= 0 for _, w in phi_pmf(p)), p


def test_phi_inverse_support_rule():
    # phi_{q^-1, q^a, q^b}(s | c) = 0 when s > b - a or c - s > a
    p = PhiParams.inverse(F(1, 2), 2, 5, 4)
    assert phi_support(p) == range(2, 4)
    assert phi_weight(p, 1) == 0
    assert phi_weight(p, 4) == 0


def test_phi_inverse_q_to_zero_concentrates():
    # mass concentrates on s = max(c - a, 0) as q -> 0
    p = PhiParams.inverse(1e-6, 2, 5, 4)
    assert phi_weight(p, 2) >= 1 - 1e-4
    p0 = PhiParams.inverse(0.0, 2, 5, 4)
    assert phi_weight(p0, 2) == 1


def test_phi_inverse_a_zero_forces_full_move():
    # xi = q^0 = 1 degenerate case: all mass passes right
    p = PhiParams.inverse(F(1, 2), 0, 7, 3)
    assert phi_weight(p, 3) == 1
    rng = random.Random(3)
    assert all(phi_sample(PhiParams.inverse(0.4, 0, 7, 3), rng) == 3 for _ in range(20))


def test_phi_qgeometric_consistency():
    # phi_{q, alpha a, 0}(n | inf) equals the q-geometric pmf
    q, x, n = 0.5, 0.25, 2
    p = PhiParams.direct(q, x, 0.0, INF)
    direct = x ** n / (q_pochhammer(q, q, n)) * q_pochhammer_inf(x, q)
    assert abs(phi_weight(p, n) - direct) < 1e-12
    assert abs(phi_weight(p, n) - q_geometric_pmf(x, q, n)) < 1e-12


def test_phi_sample_degenerate_and_frequencies():
    rng = random.Random(4)
    assert phi_sample(PhiParams.direct(0.5, 0.3, 0.25, 0), rng) == 0
    p = PhiParams.direct(F(1, 2), F(1, 3), F(1, 4), 5)
    probs = {s: float(w) for s, w in phi_pmf(p)}
    counts = {s: 0 for s in probs}
    n = 100_000
    pf = PhiParams.direct(0.5, 1 / 3, 0.25, 5)
    for _ in range(n):
        counts[phi_sample(pf, rng)] += 1
    for s, pr in probs.items():
        sd = math.sqrt(pr * (1 - pr) * n)
        assert abs(counts[s] - pr * n) <= 4 * sd, (s, counts[s], pr * n)


@pytest.mark.parametrize("q, xi, eta, y", [
    (F(9, 10), F(4, 5), F(1, 5), 12), (F(9, 10), F(7, 8), F(0), 30),
])
def test_phi_sample_direct_from_an_interior_mode_matches_pmf(q, xi, eta, y):
    # modes 8 and 19: the walk starts inside the support and visits both sides
    probs = {s: float(w) for s, w in phi_pmf(PhiParams.direct(q, xi, eta, y))}
    assert qnum._phi_direct_mode(float(q), float(xi), float(eta), y)[0] == max(probs, key=probs.get)
    rng = random.Random(9)
    pf = PhiParams.direct(float(q), float(xi), float(eta), y)
    n = 40_000
    counts = {s: 0 for s in probs}
    for _ in range(n):
        counts[phi_sample(pf, rng)] += 1
    for s, pr in probs.items():
        assert abs(counts[s] - pr * n) <= SIGMAS * math.sqrt(pr * (1 - pr) * n) + 1, (s, counts[s], pr * n)


def test_phi_sample_inverse_matches_pmf():
    rng = random.Random(5)
    p = PhiParams.inverse(0.6, 3, 7, 5)
    probs = {s: float(phi_weight(p, s)) for s in phi_support(p)}
    counts = {s: 0 for s in probs}
    n = 50_000
    for _ in range(n):
        counts[phi_sample(p, rng)] += 1
    for s, pr in probs.items():
        sd = math.sqrt(max(pr * (1 - pr), 1e-12) * n)
        assert abs(counts[s] - pr * n) <= 4 * sd


def test_sample_q_geometric_frequencies():
    rng = random.Random(6)
    alpha, q = 0.4, 0.5
    n = 50_000
    counts = {}
    for _ in range(n):
        v = sample_q_geometric(alpha, q, rng)
        counts[v] = counts.get(v, 0) + 1
    for v in range(5):
        pr = q_geometric_pmf(alpha, q, v)
        sd = math.sqrt(pr * (1 - pr) * n)
        assert abs(counts.get(v, 0) - pr * n) <= 4 * sd


# ---------------------------------------------------------------------------
# floating-mode samplers near q = 1 (weights far below the float range)
# ---------------------------------------------------------------------------

def q_geometric_mean_var(alpha, q):
    """The q-geometric law is a sum of independent geometric variables with
    ratios alpha q^i: mean sum r/(1-r), variance sum r/(1-r)^2."""
    m = v = 0.0
    r = alpha
    while r > 1e-18:
        m += r / (1 - r)
        v += r / (1 - r) ** 2
        r *= q
    return m, v


@pytest.mark.parametrize("eps", [2e-3, 5e-4])
def test_q_geometric_mean_where_the_weights_underflow(eps, monkeypatch):
    # log (alpha;q)_inf is below -745 here, so pmf(0) = (alpha;q)_inf, where a
    # walk from n = 0 would start, underflows to 0.0 in floating point
    q, alpha = math.exp(-eps), math.exp(-2.1 * eps)
    assert qnum.log_q_pochhammer_inf(alpha, q) < -745
    mean, var = q_geometric_mean_var(alpha, q)
    monkeypatch.setattr(qnum, "_SAMPLERS", {})  # fresh tables
    rng = random.Random(17)
    for draws in (4000, 150):
        xs = [sample_q_geometric(alpha, q, rng) for _ in range(draws)]
        assert abs(sum(xs) / draws - mean) <= SIGMAS * math.sqrt(var / draws), (eps, draws)


def _exact_ratio_pmf(qe, a, b, c):
    """{s: pmf} of the inverse-regime weight from the exact Fraction ratios
    phi(s+1)/phi(s), each rounded to float once and chained in log space."""
    sup = phi_support(PhiParams.inverse(qe, a, b, c))
    logs = [0.0]
    for r in sup[:-1]:
        logs.append(logs[-1] + math.log(qnum._phi_inverse_ratio(qe, a, b, c, r)))
    top = max(logs)
    ws = [math.exp(v - top) for v in logs]
    total = math.fsum(ws)
    return {s: w / total for s, w in zip(sup, ws)}


@pytest.mark.parametrize("a, b, c", [(600, INF, 600), (520, 1500, 700)])
def test_phi_inverse_float_matches_exact_pmf_at_large_c(a, b, c, monkeypatch):
    qe = F(999, 1000)
    qf = float(qe)
    exact = _exact_ratio_pmf(qe, a, b, c)
    pf = PhiParams.inverse(qf, a, b, c)
    # the closed-form float weight, pointwise
    for s, pr in exact.items():
        if pr > 1e-12:
            assert phi_weight(pf, s) == pytest.approx(pr, rel=1e-9), s
    # the draws, bin by bin and in the mean
    monkeypatch.setattr(qnum, "_SAMPLERS", {})  # fresh tables
    rng = random.Random(23)
    n = 20_000
    draws = [phi_sample(pf, rng) for _ in range(n)]
    counts = {}
    for s in draws:
        counts[s] = counts.get(s, 0) + 1
    assert set(counts) <= set(exact)
    for s, pr in exact.items():
        if pr * n >= 10:
            assert abs(counts.get(s, 0) - pr * n) <= 5 * math.sqrt(pr * (1 - pr) * n), s
    mean = sum(s * pr for s, pr in exact.items())
    var = sum((s - mean) ** 2 * pr for s, pr in exact.items())
    assert abs(sum(draws) / n - mean) <= SIGMAS * math.sqrt(var / n)
    # and 300 draws from the warm tables have the same law
    again = [phi_sample(pf, rng) for _ in range(300)]
    assert abs(sum(again) / 300 - mean) <= SIGMAS * math.sqrt(var / 300)


def test_phi_inverse_float_closed_form_and_mode_against_exact():
    rnd = random.Random(29)
    for _ in range(400):
        q = F(rnd.randint(1, 9), 10)
        b = rnd.choice([rnd.randint(0, 14), INF])
        cap = 14 if b == INF else b
        a, c = rnd.randint(0, cap), rnd.randint(0, cap)
        p = PhiParams.inverse(q, a, b, c)
        pf = PhiParams.inverse(float(q), a, b, c)
        sup = phi_support(p)
        ws = [phi_weight(p, s) for s in sup]
        for s, w in zip(sup, ws):
            assert phi_weight(pf, s) == pytest.approx(float(w), rel=1e-12, abs=1e-300)
        mode = qnum._phi_inverse_mode(float(q), a, b, c, sup[0], sup[-1])
        assert ws[mode - sup[0]] == max(ws), (q, a, b, c)


def test_a_sampler_keeps_a_bounded_set_of_walk_starts_that_change_no_draw(monkeypatch):
    # each draw's start (the mode and its weight) is kept per (a, b, c) and reused;
    # a draw through a warm sampler is the draw of a fresh one, and the kept
    # starts stop growing at MEMO_SIZE
    q = 0.7
    monkeypatch.setattr(qnum, "_SAMPLERS", {})
    warm = qnum._shared_sampler(q)
    rnd = random.Random(37)
    # supports of two points or more; b = a + c + 1 or inf: one (a, c), weights far apart
    triples = [(a, b, c) for a in range(1, 41) for c in range(1, 15) for b in (INF, a + c + 1)]
    for a, b, c in triples[:qnum.MEMO_SIZE + 50] * 2:
        p = PhiParams.inverse(q, a, b, c)
        seed = rnd.random()
        drawn = phi_sample(p, random.Random(seed))
        with monkeypatch.context() as fresh:
            fresh.setattr(qnum, "_SAMPLERS", {})
            assert drawn == phi_sample(p, random.Random(seed)), (a, b, c)
        mode, w_mode = warm._phi_starts[a, b, c]
        assert w_mode == math.exp(warm.log_phi_inverse(a, b, c, mode))
        assert len(warm._phi_starts) <= qnum.MEMO_SIZE


def test_zero_mass_raises_instead_of_returning_a_constant():
    rng = random.Random(31)
    q = math.exp(-1e-3)
    # (xi;q)_inf = e^-1645 and (xi;q)_5000 underflow to 0.0, but the direct
    # walk starts at the mode, whose weight is taken in log space.  At y = inf
    # and xi = q the law is q-geometric with parameter q.
    mean = var = 0.0
    x = q
    while x > 1e-18:
        mean += x / (1 - x)
        var += x / (1 - x) ** 2
        x *= q
    n = 400
    draws = [phi_sample(PhiParams.direct(q, q, 0.0, INF), rng) for _ in range(n)]
    assert abs(sum(draws) / n - mean) <= SIGMAS * math.sqrt(var / n)
    # y = 5000: pmf(s) = q^s (q;q)_y / (q;q)_s, in six bins of about equal mass
    y = 5000
    log_qpoch = list(accumulate((math.log1p(-q ** i) for i in range(1, y + 1)), initial=0.0))
    pmf = [math.exp(s * math.log(q) + log_qpoch[y] - log_qpoch[s]) for s in range(y + 1)]
    assert abs(math.fsum(pmf) - 1) < 1e-9
    cdf = list(accumulate(pmf))
    edges = [0] + [next(s for s, c in enumerate(cdf) if c >= k / 6) + 1 for k in range(1, 6)] + [y + 1]
    n = 2000
    draws = [phi_sample(PhiParams.direct(q, q, 0.0, y), rng) for _ in range(n)]
    for lo, hi in zip(edges, edges[1:]):
        p = math.fsum(pmf[lo:hi])
        count = sum(lo <= d < hi for d in draws)
        assert abs(count - n * p) <= SIGMAS * math.sqrt(n * p * (1 - p)), (lo, hi, count, n * p)
    # the walk itself refuses a mode weight with no mass
    with pytest.raises(ZeroMassError):
        qnum._chop_down(0.5, 3, 0, 10, 0.0, lambda s: 1.0)


def test_q_geometric_table_is_per_sampler_and_agrees_with_the_walk():
    q, alpha = 0.5, 0.4
    s1, s2 = QSampler(q), QSampler(q)
    lo, cdf = s1.q_geometric_cdf(alpha)
    assert lo == 0 and cdf[-1] == 1.0 and not s2._cdfs
    for n in range(6):
        lower = cdf[n - 1] if n else 0.0
        assert cdf[n] - lower == pytest.approx(q_geometric_pmf(alpha, q, n), rel=1e-12)


MEMOISED = (qnum.q_binomial, qnum.q_pochhammer, qnum._phi_inverse_weight, qnum.log_q_pochhammer_inf)


def test_memoised_weights_are_bounded_and_typed():
    for fn in MEMOISED:
        assert fn.cache_parameters() == {"maxsize": qnum.MEMO_SIZE, "typed": True}


@pytest.mark.parametrize("first, second", [
    (F(1, 2), 0.5), (0.5, F(1, 2)), (0, F(0)), (F(0), 0),
])
def test_memoised_weights_keep_the_type_of_q(first, second):
    # Fraction(1, 2) == 0.5 and 0 == Fraction(0), with equal hashes: only the
    # argument types tell the cache entries apart
    calls = (
        (qnum.q_binomial, lambda q: (5, 2, q)),
        (qnum.q_pochhammer, lambda q: (q, q, 3)),
        (qnum._phi_inverse_weight, lambda q: (q, 2, 4, 3, 1)),
    )
    for fn, args_of in calls:
        fn.cache_clear()
        for q in (first, second):
            value = fn(*args_of(q))
            expected = fn.__wrapped__(*args_of(q))
            assert value == expected and type(value) is type(expected), (fn.__name__, q)
            if not isinstance(q, int):
                assert type(value) is type(q), (fn.__name__, q)


_RATIONAL_Q = st.fractions(0, F(9, 10), max_denominator=12)


@st.composite
def _phi_inverse_args(draw):
    a = draw(st.integers(0, 6))
    b = draw(st.one_of(st.just(INF), st.integers(a, 10)))
    c = draw(st.integers(0, 8 if b == INF else b))
    return a, b, c, draw(st.integers(0, c))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(0, 9), st.integers(0, 9), _RATIONAL_Q,
       st.fractions(F(-2), F(2), max_denominator=7), st.integers(0, 6), _phi_inverse_args())
def test_memoised_weights_equal_their_originals(n, k, q, x, m, phi_args):
    k = min(k, n)
    cases = (
        (qnum.q_binomial, (n, k, q)),
        (qnum.q_pochhammer, (x, q, m)),
        (qnum._phi_inverse_weight, (q, *phi_args)),
    )
    for fn, args in cases:
        expected = fn.__wrapped__(*args)
        for _ in range(2):  # a miss, then a hit
            assert fn(*args) == expected, (fn.__name__, args)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.floats(0.0, 0.999), st.floats(0.0, 0.999))
def test_memoised_log_q_pochhammer_inf_equals_its_original(a, q):
    qnum.log_q_pochhammer_inf.cache_clear()
    expected = qnum.log_q_pochhammer_inf.__wrapped__(a, q)
    for _ in range(2):  # a miss, then a hit
        assert qnum.log_q_pochhammer_inf(a, q) == expected, (a, q)


@pytest.mark.parametrize("a, q", [(1.0, 0.5), (0.5, 1.0), (-0.1, 0.5)])
def test_a_repeated_bad_log_q_pochhammer_inf_call_raises_each_time(a, q):
    for _ in range(2):
        with pytest.raises(ValueError):
            qnum.log_q_pochhammer_inf(a, q)


def test_the_shared_samplers_and_their_tables_keep_their_bounds(monkeypatch):
    monkeypatch.setattr(qnum, "_SAMPLERS", {})
    rng = random.Random(41)
    qs = [0.5 + i / 100 for i in range(qnum.Q_MEMO_SIZE + 3)]
    for q in qs:
        sample_q_geometric(0.3, q, rng)
        assert len(qnum._SAMPLERS) <= qnum.Q_MEMO_SIZE
    # the last Q_MEMO_SIZE values of q keep their samplers
    assert list(qnum._SAMPLERS) == qs[-qnum.Q_MEMO_SIZE:]
    # one sampler of q for every draw, whatever the type of q
    q = 0.5
    sampler = qnum._shared_sampler(q)
    assert qnum._shared_sampler(F(1, 2)) is sampler
    phi_sample(PhiParams.inverse(q, 2, INF, 3), rng)
    assert (2, INF, 3) in sampler._phi_starts
    # each sampler keeps at most MEMO_SIZE tables of each kind
    for i in range(qnum.MEMO_SIZE + 5):
        sample_q_geometric(0.1 + i / 2e4, q, rng)
        assert len(sampler._cdfs) <= qnum.MEMO_SIZE
    assert sampler._cdfs and qnum._shared_sampler(q) is sampler


def test_prefix_values_are_a_function_of_q_and_n_alone():
    # one q in numpy blocks, and q = 0.5, whose cap (60) is below 64: one block in plain Python
    for q in (math.exp(-1e-3), 0.5):
        stepwise, at_once, scalar = (qnum._LogQPochPrefix(q) for _ in range(3))
        stepwise.grow(100)
        stepwise.grow(20_000)
        at_once.grow(20_000)
        for n in (7, 100, 101, 4_000, 20_000):  # scalar reads grow the prefix, in another order
            scalar.at(n)
        n = 20_001
        tables = [np.asarray(prefix.table)[:n] for prefix in (stepwise, at_once, scalar)]
        assert tables[0].tobytes() == tables[1].tobytes() == tables[2].tobytes()
        assert [scalar.at(k) for k in range(len(tables[0]))] == tables[0].tolist()
        with pytest.raises(ValueError):  # read by every draw at q: read-only
            at_once.upto(10)[3] = 0.0
        # and they are log (q;q)_n, constant past the cap
        for n in (1, 64, 65, 1_000, 20_000):
            oracle = math.fsum(math.log1p(-q ** k) for k in range(1, n + 1))
            assert at_once.at(n) == pytest.approx(oracle, rel=1e-12, abs=1e-12), (q, n)


@pytest.mark.parametrize("q", [0.0, 0.5, math.exp(-1e-2), math.exp(-1e-3)])
def test_scalar_and_array_log_qpoch_agree_bit_for_bit(q):
    sampler = QSampler(q)  # a sampler owns its prefix: this one starts cold
    cap = sampler._prefix.cap
    ns = sorted({0, 1, 2, 63, 64, 65, 200, cap // 2, cap, cap + 1, 3 * cap + 5})
    scalar = [sampler.log_qpoch(n) for n in ns]  # grows the prefix through the list
    array = QSampler(q).prefix_reader()(np.array(ns))  # a cold prefix grown through the array
    assert array.tolist() == scalar
    assert [QSampler(q).prefix_reader()(n) for n in ns] == scalar
    assert sampler.log_qpoch(INF) == scalar[ns.index(cap)]


@pytest.mark.parametrize("q, alpha", [
    (0.5, 0.35),  # a table of 41 points, built in plain Python
    (0.5, 0.51),  # 64 points: the longest table built in plain Python
    (0.5, 0.515),  # 65 points: the shortest built with numpy
    (0.5, 0.99),  # a tail that runs far past the prefix's cap
    (0.9, 0.3),
    (math.exp(-1e-2), math.exp(-2.1e-2)),
    (math.exp(-5e-3), math.exp(-1.05e-2)),
    (math.exp(-1e-3), 0.999),
])
def test_q_geometric_table_covers_the_points_above_the_cut(q, alpha):
    sampler = QSampler(q)
    lo, cdf = sampler.q_geometric_cdf(alpha)
    hi = lo + cdf.size - 1
    # a table of at most 64 points is built and kept as a list, in plain Python
    assert (type(sampler._cdfs[alpha][1]) is list) == (cdf.size <= 64)
    # log pmf(n) - log pmf(mode) from an fsum oracle of log (q;q)_n
    mode = qnum._q_geometric_mode(alpha, q)
    logs = [0.0] + [math.log1p(-q ** k) for k in range(1, hi + 2)]

    def rel(n):
        return (n - mode) * math.log(alpha) - math.fsum(logs[mode + 1:n + 1]) + math.fsum(logs[n + 1:mode + 1])

    cut = -60 * math.log(2)
    assert rel(lo) >= cut and rel(hi) >= cut and rel(hi + 1) < cut
    assert lo == 0 or rel(lo - 1) < cut
    mass = np.diff(cdf, prepend=0.0)
    for n in (lo, mode, (mode + hi) // 2, hi):
        assert mass[n - lo] / mass[mode - lo] == pytest.approx(math.exp(rel(n)), rel=1e-9), n
    assert cdf[-1] == 1.0


@pytest.mark.parametrize("draw", [
    lambda q, rng: qnum._phi_inverse_weight.__wrapped__(q, 3000, INF, 2500, 2400),
    lambda q, rng: sample_q_geometric(q * q, q, rng),
    lambda q, rng: phi_sample(PhiParams.inverse(q, 3000, INF, 2500), rng),
], ids=["phi_inverse_weight", "sample_q_geometric", "phi_sample"])
def test_a_second_one_shot_call_at_the_same_q_grows_no_prefix(draw, monkeypatch):
    q = math.exp(-1e-3)
    monkeypatch.setattr(qnum, "_SAMPLERS", {})  # a cold prefix
    rng = random.Random(0)
    draw(q, rng)
    prefix = qnum._shared_sampler(q)._prefix
    table, size = prefix.table, len(prefix.table)
    assert size > 1
    draw(q, rng)
    assert qnum._shared_sampler(q)._prefix is prefix
    assert prefix.table is table and len(table) == size


def _read_only_array(x) -> bool:
    return isinstance(x, np.ndarray) and not x.flags.writeable


def test_each_q_geometric_table_is_kept_in_one_form(monkeypatch):
    monkeypatch.setattr(qnum, "_SAMPLERS", {})
    sampler = qnum._shared_sampler(0.5)
    rng = random.Random(3)
    # 4146 points: built as an array, which scalar draws and a batch both read
    long_alpha = 0.99
    scalar = [sample_q_geometric(long_alpha, 0.5, rng) for _ in range(20)]
    lo, cdf = sampler._cdfs[long_alpha]
    assert _read_only_array(cdf) and cdf.size == 4146
    batch = sample_q_geometric(long_alpha, 0.5, np.random.default_rng(3), size=50)
    assert sampler._cdfs[long_alpha][1] is cdf and sampler.q_geometric_cdf(long_alpha)[1] is cdf
    assert min(scalar) >= lo and batch.min() >= lo
    # 41 points: built as a list, which stays a list after a batch
    short_alpha = 0.35
    sample_q_geometric(short_alpha, 0.5, rng)
    sample_q_geometric(short_alpha, 0.5, np.random.default_rng(3), size=50)
    assert type(sampler._cdfs[short_alpha][1]) is list
    assert set(sampler._cdfs) == {long_alpha, short_alpha}


def test_a_long_prefix_read_by_scalars_is_one_array():
    sampler = QSampler(0.9)  # a cold prefix
    prefix = sampler._prefix
    assert prefix.cap > 64 and prefix.table == [0.0]
    values = [sampler.log_qpoch(n) for n in (3, 65, 200, INF)]
    assert _read_only_array(prefix.table) and len(prefix.table) == prefix.cap + 1
    assert all(type(v) is float for v in values)
    assert values == [prefix.table[n] for n in (3, 65, 200, prefix.cap)]
    # a short prefix is one list
    short = qnum._LogQPochPrefix(0.5)
    short.at(10)
    assert type(short.table) is list and len(short.table) == short.cap + 1


class _GivenUniforms:
    """Hands out the given uniforms in order, as `random()` of a `random.Random`
    (one a call) or of a numpy Generator (`size` at a time) would."""

    def __init__(self, u):
        self.u = list(u)

    def random(self, size=None):
        if size is None:
            return self.u.pop(0)
        n = int(np.prod(size))
        out, self.u = np.array(self.u[:n]).reshape(size), self.u[n:]
        return out


@pytest.mark.parametrize("alpha, q", [
    (0.4, 0.5), (0.0, 0.5), (math.exp(-2e-2), math.exp(-1e-2)), (math.exp(-2.1e-3), math.exp(-1e-3)),
])
def test_batch_q_geometric_draws_equal_the_scalar_table_draws(alpha, q, monkeypatch):
    monkeypatch.setattr(qnum, "_SAMPLERS", {})
    sampler = qnum._shared_sampler(q)
    u = np.random.default_rng(5).random(3000)
    batch = sample_q_geometric(alpha, q, np.random.default_rng(5), size=u.size)
    if alpha:
        # uniforms on the table's own points test the side of each bisect
        lo, cdf = sampler.q_geometric_cdf(alpha)
        u = np.concatenate((u, cdf[:-1:max(1, cdf.size // 50)]))
        batch = np.concatenate((batch, sample_q_geometric(
            alpha, q, _GivenUniforms(u[3000:]), size=u.size - 3000)))
    scalar = [sample_q_geometric(alpha, q, _GivenUniforms([x])) for x in u]
    assert batch.dtype == np.int64 and batch.tolist() == scalar


def _phi_inverse_ratio_terms(qe, a, b, c, r):
    """(numerator, denominator): exact integers whose quotient is phi(r+1)/phi(r)
    of the inverse-regime weight at rational q = p/m (an oracle apart from qnum):

        q^(a+2r+1-c) (1-q^(b-a-r)) (1-q^(c-r)) / ((1-q^(a-c+r+1)) (1-q^(r+1))),

    every exponent at least 1 on the support.
    """
    p, m = qe.numerator, qe.denominator
    e_top, e_b, e_c, e_d, e_r = a + 2 * r + 1 - c, b - a - r, c - r, a - c + r + 1, r + 1
    num = p ** e_top * (m ** e_c - p ** e_c) * m ** (e_d + e_r)
    den = m ** (e_top + e_c) * (m ** e_d - p ** e_d) * (m ** e_r - p ** e_r)
    if b != INF:
        num *= m ** e_b - p ** e_b
        den *= m ** e_b
    return num, den


def _oracle_cdf(qe, a, b, c):
    """(first point, CDF) of the inverse-regime weight, as floats.

    On a support of at most 64 points this is the exact Fraction CDF,
    rounded once.  A wider support near q = 1 makes those Fractions far too
    long, so there the weights are chained from the exact ratios, each
    rounded to float once, over the points within `reach` of the mode.  The
    log weight has second differences at most 2 log q, so a point d steps
    from the mode weighs at most q^(d(d-1)) of the mode, below 1e-20 past
    `reach` steps.
    """
    sup = phi_support(PhiParams.inverse(qe, a, b, c))
    if len(sup) <= 64:
        ratios = (F(*_phi_inverse_ratio_terms(qe, a, b, c, r)) for r in sup[:-1])
        ws = list(accumulate(ratios, operator.mul, initial=F(1)))
        total = sum(ws)
        return sup[0], [float(v / total) for v in accumulate(ws)]
    mode = qnum._phi_inverse_mode(float(qe), a, b, c, sup[0], sup[-1])
    reach = math.isqrt(math.ceil(46.1 / -math.log(qe))) + 2
    lo, hi = max(sup[0], mode - reach), min(sup[-1], mode + reach)
    ratios = (operator.truediv(*_phi_inverse_ratio_terms(qe, a, b, c, r)) for r in range(lo, hi))
    logs = list(accumulate(map(math.log, ratios), initial=0.0))
    top = max(logs)
    ws = [math.exp(v - top) for v in logs]
    total = math.fsum(ws)
    return lo, list(accumulate(w / total for w in ws))


def _batch_phi_cases(rnd, count):
    """(q, a, b, c) triples; every fifth has a support at least 1000 points wide,
    and q near 1 spreads its mass over many points."""
    for i in range(count):
        if i % 5 == 0:
            qe = rnd.choice((F(19, 20), F(99, 100)))
            a = rnd.randint(1000, 1400)
            c = rnd.choice((a + rnd.randint(-30, 30), rnd.randint(1000, 1800)))
            b = rnd.choice([INF, a + c + rnd.randint(0, 200)])
            assert len(phi_support(PhiParams.inverse(qe, a, b, c))) >= 1000
        else:
            qe = rnd.choice((F(1, 2), F(3, 4), F(9, 10), F(19, 20)))
            a = rnd.randint(0, 30)
            b = rnd.choice([INF, rnd.randint(a, 60)])
            c = rnd.randint(0, 30 if b == INF else min(30, b))
        yield qe, a, b, c


def test_batch_phi_inverse_draw_is_the_inverse_cdf():
    """Each batch draw is the support point whose CDF interval holds its
    uniform, on a grid of uniforms kept 1e-9 away from the CDF jumps, where
    the rounding of the oracle's CDF cannot change the point."""
    grid = [(k + 0.5) / 64 for k in range(64)]
    groups = {}
    for qe, a, b, c in _batch_phi_cases(random.Random(41), 200):
        lo, cdf = _oracle_cdf(qe, a, b, c)
        rows = groups.setdefault((qe, b == INF), [])
        for u in grid:
            if all(abs(u - v) > 1e-9 for v in cdf):
                rows.append((a, b, c, u, lo + sum(v < u for v in cdf)))
    for (qe, b_inf), rows in groups.items():
        a, b, c, u, expected = (np.array(col) for col in zip(*rows))
        p = PhiParams.inverse(float(qe), a, INF if b_inf else b, c)
        draws = phi_sample(p, _GivenUniforms(u))
        assert draws.dtype == np.int64
        wrong = np.flatnonzero(draws != expected)
        assert wrong.size == 0, [rows[i] + (int(draws[i]),) for i in wrong[:5]]


def test_batch_phi_sample_checks_its_parameters():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        PhiParams.inverse(0.5, np.array([3, 4]), 3, np.array([1, 1]))
    with pytest.raises(TypeError):
        phi_sample(PhiParams.direct(0.5, 0.4, 0.2, np.array([3, 4])), rng)
    # q = 0 is the point mass at max(c - a, 0)
    p = PhiParams.inverse(0.0, np.array([1, 5]), INF, np.array([4, 2]))
    assert phi_sample(p, rng).tolist() == [3, 0]


def test_float_q_binomial_past_the_underflow_of_its_products():
    # at q = 0.999 the denominator product of binom(700, 350) is subnormal and
    # that of binom(1000, 500) underflows to 0.0
    with localcontext() as ctx:  # the value at q = 999/1000, to about 55 digits
        ctx.prec = 60
        qd = Decimal(999) / 1000
        exact = Decimal(1)
        for i in range(1, 351):
            exact *= (1 - qd ** (350 + i)) / (1 - qd ** i)
        assert abs(Decimal(q_binomial(700, 350, 0.999)) / exact - 1) < Decimal("1e-12")
    q = 0.999
    log_value = math.fsum(math.log1p(-q ** (500 + i)) - math.log1p(-q ** i) for i in range(1, 501))
    assert math.log(q_binomial(1000, 500, q)) == pytest.approx(log_value, rel=1e-12)
    # about 1e418
    with pytest.raises(OverflowError):
        q_binomial(2000, 1000, q)


def test_one_point_batch_phi_returns_its_support_after_drawing_its_uniforms(monkeypatch):
    def no_window(*args):
        raise AssertionError("a one-point support needs no inverse-CDF window")

    monkeypatch.setattr(QSampler, "draw_phi_inverse_batch", no_window)
    c = np.array([0, 2, 5, 1, 9])
    for a, b in ((np.zeros(5, dtype=np.int64), INF), (c + 3, c + 3)):
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        draws = phi_sample(PhiParams.inverse(0.9, a, b, c), rng)
        assert draws.tolist() == np.maximum(0, c - a).tolist()
        twin.random(c.size)
        assert rng.bit_generator.state == twin.bit_generator.state


def test_int_q_keeps_q_binomials_exact():
    assert q_binomial(4, 2, 2) == 35 and type(q_binomial(4, 2, 2)) is int
    assert q_binomial(5, 2, 0) == 1 and type(q_binomial(5, 2, 0)) is int
    assert type(q_binomial(6, 3, -3)) is int


def test_int_q_keeps_negative_index_q_pochhammers_exact():
    # (3; 2)_{-2} = 1 / ((1 - 3/2) (1 - 3/4)) = -8
    assert q_pochhammer(3, 2, -2) == -8 and type(q_pochhammer(3, 2, -2)) is F
    assert q_pochhammer(8, 2, -2) == F(1, 3) and type(q_pochhammer(8, 2, -2)) is F
    assert q_pochhammer(4, 2, -1) == -1 and type(q_pochhammer(4, 2, -1)) is int
    assert q_pochhammer(F(3), F(2), -2) == q_pochhammer(3, 2, -2)
    assert type(q_pochhammer(3.0, 2.0, -2)) is float


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.one_of(_RATIONAL_Q, st.floats(0, 0.95)))
def test_q_binomial_of_fraction_and_float_q_is_the_plain_quotient(n, k, q):
    k = min(k, n)
    num = den = q * 0 + 1
    for i in range(1, min(k, n - k) + 1):
        num *= 1 - qpow(q, n - min(k, n - k) + i)
        den *= 1 - qpow(q, i)
    value = qnum.q_binomial.__wrapped__(n, k, q)
    assert type(value) is type(q) and value == num / den


def test_vectorised_phi_inverse_modes_equal_the_scalar_modes():
    rnd = random.Random(43)
    for q in (0.5, 0.9, math.exp(-1e-2), math.exp(-1e-3)):
        for b_inf in (True, False):
            rows = []
            for _ in range(300):
                a, c = rnd.randint(0, 3000), rnd.randint(0, 3000)
                b = INF if b_inf else max(a, c) + rnd.randint(0, 3000)
                sup = phi_support(PhiParams.inverse(q, a, b, c))
                rows.append((a, b, c, sup[0], sup[-1]))
            expected = [qnum._phi_inverse_mode(q, *row) for row in rows]
            a, b, c, lo, hi = (np.array(col) for col in zip(*rows))
            modes = qnum._phi_inverse_modes(q, a, INF if b_inf else b, c, lo, hi)
            assert modes.tolist() == expected, (q, b_inf)


def test_q_geometric_pmf_where_q_q_n_underflows():
    # (q;q)_1000 underflows to 0.0 at q = 0.999: the pmf comes from logs
    q, alpha, n = 0.999, 0.3, 1000
    assert q_pochhammer(q, q, n) == 0.0
    log_pmf = math.fsum([math.log1p(-alpha * q ** k) for k in range(60_000)]
                        + [n * math.log(alpha)] + [-math.log1p(-q ** i) for i in range(1, n + 1)])
    assert q_geometric_pmf(alpha, q, n) == pytest.approx(math.exp(log_pmf), rel=1e-9, abs=0)
    assert q_geometric_pmf(alpha, q, n) == pytest.approx(2.377e-130, rel=1e-3, abs=0)
    # a plain quotient that is a float keeps its bits
    for n in (0, 10, 300):
        plain = q_pochhammer_inf(alpha, q) * alpha ** n / q_pochhammer(q, q, n)
        assert q_geometric_pmf(alpha, q, n) == plain


def test_q_geometric_pmf_where_its_numerator_underflows():
    # (alpha;q)_inf alpha^n underflows to 0.0 while (q;q)_n does not: the pmf comes from logs
    q, alpha = 0.998, 0.3
    for n, approx in ((500, 2.24e-66), (787, 2.31e-175), (900, 2.09e-224)):
        assert q_pochhammer_inf(alpha, q) * alpha ** n == 0.0 and q_pochhammer(q, q, n) > 0
        log_pmf = math.fsum([math.log1p(-alpha * q ** k) for k in range(30_000)]
                            + [n * math.log(alpha)] + [-math.log1p(-q ** i) for i in range(1, n + 1)])
        # math.isclose: pytest.approx would also take 0.0 for these, within its abs=1e-12
        assert math.isclose(q_geometric_pmf(alpha, q, n), math.exp(log_pmf), rel_tol=1e-9)
        assert math.isclose(q_geometric_pmf(alpha, q, n), approx, rel_tol=1e-2)
    # a zero alpha keeps its point mass at 0
    assert [q_geometric_pmf(0.0, q, n) for n in (0, 1, 500)] == [1.0, 0.0, 0.0]


class _CountingUniforms(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.taken = 0

    def random(self):
        self.taken += 1
        return super().random()


@pytest.mark.parametrize("q, a, b, y, point", [
    (0.5, 3, INF, 0, 0),  # no boxes to split
    (0.5, 0, INF, 4, 4),  # no room: every box passes
    (0.5, 2, 2, 2, 0),    # b - a = 0
    (0.5, 1, 5, 5, 4),    # y = b
    (0.0, 0, INF, 3, 3),
])
def test_a_one_point_phi_draw_takes_one_uniform_and_no_phi_sample_call(q, a, b, y, point,
                                                                     monkeypatch):
    assert list(phi_support(PhiParams.inverse(q, a, b, y))) == [point]

    def forbidden(*args, **kwargs):
        raise AssertionError("a one-point draw built a PhiParams or called phi_sample")

    monkeypatch.setattr(qnum, "phi_sample", forbidden)
    monkeypatch.setattr(qnum, "PhiParams", forbidden)
    rng = _CountingUniforms(3)
    assert qnum.phi_inverse_draw(q, a, b, y, rng) == point
    assert rng.taken == 1
    monkeypatch.undo()
    # phi_sample takes the same one uniform and returns the same point
    mine, theirs = random.Random(9), random.Random(9)
    assert qnum.phi_inverse_draw(q, a, b, y, mine) == phi_sample(PhiParams.inverse(q, a, b, y), theirs)
    assert mine.random() == theirs.random()


@pytest.mark.parametrize("q, a, b, y", [
    (1.0, 0, INF, 0), (-0.5, 0, INF, 0), (0.5, -1, INF, 0), (0.5, 3, 2, 0), (0.5, 0, 2, 3),
])
def test_a_phi_draw_with_bad_parameters_raises_before_taking_a_uniform(q, a, b, y):
    with pytest.raises(ValueError) as expected:
        PhiParams.inverse(q, a, b, y)
    rng = _CountingUniforms(0)
    with pytest.raises(ValueError) as got:
        qnum.phi_inverse_draw(q, a, b, y, rng)
    assert str(got.value) == str(expected.value)
    assert rng.taken == 0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from([0.0, 0.3, 0.5, 0.9]), st.integers(0, 6), st.integers(0, 6),
       st.integers(0, 8), st.integers(0, 2 ** 32))
def test_phi_inverse_draw_is_the_phi_sample_draw(q, a, b_gap, y, seed):
    # every point of every support, and the rng left in the same state
    b = INF if b_gap == 6 else a + b_gap
    if y > b:
        return
    mine, theirs = random.Random(seed), random.Random(seed)
    drawn = qnum.phi_inverse_draw(q, a, b, y, mine)
    assert drawn == phi_sample(PhiParams.inverse(q, a, b, y), theirs)
    assert mine.random() == theirs.random()


def test_a_batch_views_a_short_prefix_as_an_array_once(monkeypatch):
    calls = []
    asarray = np.asarray

    def counting(x, *args, **kwargs):
        if isinstance(x, list):
            calls.append(len(x))
        return asarray(x, *args, **kwargs)

    monkeypatch.setattr(qnum, "_SAMPLERS", {})
    qnum._shared_sampler(0.5).log_qpoch(10)  # a short prefix: a list, grown to its cap
    monkeypatch.setattr(qnum.np, "asarray", counting)
    c = np.array([3, 7, 12, 5] * 25)
    a = c + np.array([0, 2, 5, 1] * 25)
    for b in (INF, a + c):
        calls.clear()
        phi_sample(PhiParams.inverse(0.5, a, b, c), np.random.default_rng(4))
        assert len(calls) == 1, b
