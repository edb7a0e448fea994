"""Acceptance criteria for the whole library, one test per criterion.

Each test prints a single PASS line when it completes; tolerances are pinned
here and nowhere else.  Exact criteria use rational arithmetic and compare
with ==; Monte Carlo criteria state their statistical bars explicitly.
"""

import math
import random
from fractions import Fraction as F

import numpy as np
from scipy import stats

import qrsk.dynamics as dyn
from qrsk.dynamics import (
    COL_ALPHA,
    COL_BETA,
    PUSH_BLOCK_BETA,
    ROW_ALPHA,
    ROW_BETA,
    RSK_KINDS,
    BETA_KINDS,
    DynamicsSpec,
    LevelUpdateContext,
    classical_rsk_step,
    col_beta_prob,
    exact_array_distribution,
    main_equation_sweep,
    row_beta_prob,
    sample_step,
)
from qrsk.gt import enumerate_arrays_with_top, zero_array
from qrsk.identities import complementation, coupling, grsk_lgv, q_binomial_sums, q_moments
from qrsk.moments import MomentQuery
from qrsk.polymers import (
    ks_statistic,
    polymer_log_ratios,
    scaled_col_arrays,
    scaled_row_arrays,
)
from qrsk.qnum import INF, PhiParams, phi_pmf
from qrsk.whittaker import SpecParams, process_weight

PARAM_TUPLES = [
    (F(1, 2), F(1, 3), F(1)),
    (F(2, 3), F(1, 5), F(1, 2)),
    (F(1, 7), F(1, 2), F(1)),
]


def _all_equal(cases):
    """Assert that every case of an identity generator holds exactly; return how many ran."""
    count = 0
    for kind, instance, lhs, rhs in cases:
        assert lhs == rhs, (kind, instance)
        count += 1
    return count


def test_criterion_01_main_equation_sweep():
    kinds = [ROW_BETA, COL_BETA, ROW_ALPHA, COL_ALPHA, PUSH_BLOCK_BETA]
    total = 0
    for q, par, aj in PARAM_TUPLES:
        for kind in kinds:
            for j in (2, 3, 4):
                total += main_equation_sweep(kind, j, 3, par, aj, q)
    print(f"\n[PASS] criterion 1: main equations exact on {total} squares "
          f"(5 dynamics, parts <= 3, j <= 4, 3 parameter tuples)")


def test_criterion_02_sampling_theorem_row_beta():
    q = F(1, 2)
    checked = 0
    for n in (2, 3):
        a = (F(1), F(2, 3), F(1, 2))[:n]
        for t in (1, 2, 3):
            betas = [F(1, 3), F(1, 4), F(2, 5)][:t]
            spec = DynamicsSpec(ROW_BETA, q, betas, a)
            dist = exact_array_distribution(spec, n, t)
            assert sum(dist.values()) == 1
            measure = SpecParams.betas(*betas)
            for arr, p in dist.items():
                assert p == process_weight(arr, a, measure, q), (n, t, arr)
                checked += 1
    print(f"\n[PASS] criterion 2: row insertion samples the process measure "
          f"exactly ({checked} reachable arrays, N <= 3, T <= 3)")


def test_criterion_03_q0_degeneration():
    rnd = random.Random(2024)
    per_kind = 1000
    for kind in RSK_KINDS:
        for _ in range(per_kind):
            n = rnd.choice((2, 3, 4))
            top = tuple(sorted((rnd.randint(0, 5) for _ in range(n)), reverse=True))
            arrs = list(enumerate_arrays_with_top(top))
            arr = rnd.choice(arrs)
            if kind in BETA_KINDS:
                vs = tuple(rnd.randint(0, 1) for _ in range(n))
            else:
                vs = tuple(rnd.randint(0, 3) for _ in range(n))
            spec = DynamicsSpec(kind, 0.0, 0.4, (0.9,) * n)
            got = sample_step(spec, arr, rnd, inputs=vs)
            want = classical_rsk_step(kind, arr, vs)
            assert got == want, (kind, arr, vs)
    print(f"\n[PASS] criterion 3: q=0 samplers reproduce classical insertion "
          f"bit-exactly ({per_kind} pairs x 4 kinds)")


def test_criterion_04_complementation():
    checked = _all_equal(complementation(F(1, 2), F(1, 3), F(2, 3), 5, 3, (2, 3, 4)))
    assert checked == 9464
    print(f"\n[PASS] criterion 4: column insertion equals complemented row "
          f"insertion exactly ({checked} instances, parts <= 3, j <= 4)")


def test_criterion_05_moments():
    pairs2 = [(n1, n2) for n1 in (1, 2, 3) for n2 in (1, 2, 3) if n1 >= n2]
    queries = []
    for q, beta, _ in PARAM_TUPLES:
        a = (F(1), F(2, 3), F(1, 2))
        for ns in [(1,), (2,), (3,)] + pairs2:
            for t in (0, 1, 2, 3):
                if len(ns) == 2 and t == 3 and ns != (2, 1):
                    continue  # keep the grid under the runtime budget
                queries.append(MomentQuery(len(ns), tuple(ns), t, q, beta, a))
        for ns in [(1,), (3,), (2, 1), (3, 3)]:
            for tr, tl in [(1, 1), (2, 2), (3, 2), (0, 3)]:
                queries.append(MomentQuery(len(ns), tuple(ns), tr, q, beta, system="TwoPart", t_left=tl))
    count = _all_equal(q_moments(queries))
    assert count == 141
    print(f"\n[PASS] criterion 5: nested-contour moments equal trajectory "
          f"expectations exactly ({count} queries, k <= 2, N <= 3, t <= 3)")


def test_criterion_06_coupling():
    count = 0
    for q, beta, _ in PARAM_TUPLES:
        count += _all_equal(coupling(q, beta, [F(1), F(2, 3), F(1, 2)], (1, 2, 3), (1, 2, 3)))
    assert count == 27
    print(f"\n[PASS] criterion 6: shifted q-PushTASEP equals parameter-inverted "
          f"q-TASEP exactly ({count} (N, T) cases)")


def test_criterion_07_grsk_lgv_and_transfer():
    worst = 0.0
    by_kind = {}
    for kind, instance, lhs, rhs in grsk_lgv(7, [(2, 3), (3, 4), (4, 5)], 10, (2, 3, 4)):
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if kind in ("row", "col"):
            worst = max(worst, abs(lhs - rhs) / rhs)
        else:
            assert lhs, (kind, instance)
    assert by_kind == {"row": 19, "col": 19, "transfer product": 3, "transfer step": 10}
    assert worst <= 1e-10
    print(f"\n[PASS] criterion 7: geometric insertions match partition-function "
          f"ratios (worst rel err {worst:.2e} <= 1e-10) and transfer identities hold")


def test_criterion_08_qbinomial_identities():
    assert _all_equal(q_binomial_sums(8, 5)) == 10
    print("\n[PASS] criterion 8: both q-binomial summation identities hold "
          "exactly at 5 random rational points each")


def _bootstrap_ks_noise(xs, ys, rng, b=60):
    n, m = len(xs), len(ys)
    vals = []
    for _ in range(b):
        bx = [xs[rng.randrange(n)] for _ in range(n)]
        by = [ys[rng.randrange(m)] for _ in range(m)]
        vals.append(ks_statistic(bx, by))
    return float(np.std(vals))


def test_criterion_09_scaling_limit():
    rng = random.Random(9)
    th, thh = [1.2], [0.9]
    reps = 10000
    d = scaled_row_arrays(1, 1, th, thh, 0.01, reps, rng)
    ks_row = stats.kstest(
        np.exp(d[(1, 1)]), lambda v: stats.invgamma.cdf(v, th[0] + thh[0])
    ).statistic
    assert ks_row < 0.05
    d = scaled_col_arrays(1, 1, th, thh, 0.01, reps, rng)
    ks_col = stats.kstest(
        np.exp(d[(1, 1)]), lambda v: stats.gamma.cdf(v, th[0] + thh[0])
    ).statistic
    assert ks_col < 0.05
    # trend at (j, k, t) = (2, 1, 2): KS nonincreasing in eps within 3x noise
    trend = {}
    th2, thh2 = [1.2, 0.8], [0.9, 1.1]
    reps2 = 4000
    for kind, sampler, mode in [
        ("RowAlpha", scaled_row_arrays, "LogGamma"),
        ("ColAlpha", scaled_col_arrays, "StrictWeak"),
    ]:
        poly = polymer_log_ratios(mode, 2, 2, th2, thh2, reps2, rng, [(2, 1)])[(2, 1)]
        stats_by_eps = {}
        noise_by_eps = {}
        for eps in (0.05, 0.02, 0.01):
            xs = sampler(2, 2, th2, thh2, eps, reps2, rng)[(2, 1)]
            stats_by_eps[eps] = ks_statistic(xs, poly)
            noise_by_eps[eps] = _bootstrap_ks_noise(xs, poly, rng)
        trend[kind] = stats_by_eps
        assert stats_by_eps[0.02] <= stats_by_eps[0.05] + 3 * noise_by_eps[0.05]
        assert stats_by_eps[0.01] <= stats_by_eps[0.02] + 3 * noise_by_eps[0.02]
    print(f"\n[PASS] criterion 9: single-cell KS row={ks_row:.3f} col={ks_col:.3f} "
          f"< 0.05 at eps=0.01 (1e4 replicas); KS trends {trend} nonincreasing "
          f"within 3x bootstrap noise")


def test_criterion_10_distribution_sanity():
    # (a) normalization of the splitting weights, exact, both regimes
    rnd = random.Random(10)
    for _ in range(200):
        q = F(rnd.randint(0, 5), rnd.randint(6, 10))
        if rnd.random() < 0.5:
            eta = F(rnd.randint(0, 4), rnd.randint(8, 12))
            xi = eta + F(rnd.randint(0, 3), rnd.randint(8, 12))
            p = PhiParams.direct(q, xi, eta, rnd.randint(0, 6))
        else:
            b = rnd.choice([rnd.randint(2, 8), INF])
            cap = 6 if b == INF else b
            p = PhiParams.inverse(q, rnd.randint(0, cap), b, rnd.randint(0, cap))
        assert sum(w for _, w in phi_pmf(p)) == 1

    # (b) sampler/evaluator agreement at 4 sigma on a fixed two-level square;
    # outcomes with expected count below 10 are pooled into one bucket so the
    # normal approximation behind the bar is valid
    qf, alpha, beta, aj = 0.5, 0.35, 0.4, 0.9
    lam, lam_bar = (3, 1), (2,)
    reps = 30000
    seeds = {ROW_BETA: 11, COL_BETA: 12, ROW_ALPHA: 13, COL_ALPHA: 14}
    for kind, nu_bar in [(ROW_BETA, (3,)), (COL_BETA, (3,)), (ROW_ALPHA, (4,)), (COL_ALPHA, (4,))]:
        ctx = LevelUpdateContext(lam_bar, nu_bar, lam)
        counts = {}
        rng = random.Random(seeds[kind])
        from qrsk.qnum import sample_q_geometric

        for _ in range(reps):
            if kind in BETA_KINDS:
                x = beta * aj
                vj = 1 if rng.random() < x / (1 + x) else 0
            else:
                vj = sample_q_geometric(alpha * aj, qf, rng)
            if kind == ROW_BETA:
                nu = dyn._sample_row_beta_level(lam_bar, nu_bar, lam, vj, qf, rng)
            elif kind == COL_BETA:
                nu = dyn._sample_col_beta_level(lam_bar, nu_bar, lam, vj, qf, rng)
            elif kind == ROW_ALPHA:
                nu = dyn._sample_row_alpha_level(lam_bar, nu_bar, lam, vj, qf, rng)
            else:
                nu = dyn._sample_col_alpha_level(lam_bar, nu_bar, lam, vj, qf, rng)
            counts[nu] = counts.get(nu, 0) + 1

        def prob_of(nu):
            if kind == ROW_BETA:
                return float(row_beta_prob(ctx, nu, beta, aj, qf))
            if kind == COL_BETA:
                return float(col_beta_prob(ctx, nu, beta, aj, qf))
            if kind == ROW_ALPHA:
                return float(dyn.row_alpha_prob(ctx, nu, alpha, aj, qf))
            return float(dyn.col_alpha_prob(ctx, nu, alpha, aj, qf))

        probs = {nu: prob_of(nu) for nu in counts}
        rare_count = sum(c for nu, c in counts.items() if probs[nu] * reps < 10)
        rare_prob = max(0.0, 1.0 - sum(p for p in probs.values() if p * reps >= 10))
        for nu, cnt in counts.items():
            pr = probs[nu]
            if pr * reps < 10:
                continue
            sd = math.sqrt(pr * (1 - pr) * reps)
            assert abs(cnt - pr * reps) <= 4 * sd, (kind, nu)
        sd = math.sqrt(max(rare_prob * (1 - rare_prob), 1e-12) * reps)
        assert abs(rare_count - rare_prob * reps) <= 4 * sd + 1, kind

    # (c) interlacing preserved across 1e5 sampled steps (asserted in-step)
    rng = random.Random(1234)
    steps = 0
    for kind, par, n in [
        (ROW_BETA, 0.4, 3),
        (COL_BETA, 0.4, 3),
        (ROW_ALPHA, 0.3, 3),
        (COL_ALPHA, 0.3, 3),
        (PUSH_BLOCK_BETA, 0.4, 3),
    ]:
        spec = DynamicsSpec(kind, 0.5, par, (1.0, 0.9, 0.8))
        arr = zero_array(n)
        count = 20000
        for _ in range(count):
            arr = sample_step(spec, arr, rng)
        steps += count
    assert steps == 100000
    print(f"\n[PASS] criterion 10: splitting weights normalize exactly; "
          f"samplers match evaluators at 4 sigma; interlacing held on {steps} steps")
