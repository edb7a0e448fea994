"""The paper's structural identities, one generator each.

Every generator yields ``(kind, instance, lhs, rhs)`` over the grid its caller
gives: ``kind`` groups the cases, ``instance`` is a dict naming the case, and
the identity holds when ``lhs`` equals ``rhs``.  With rational input the two
sides are exact rationals; the geometric-RSK sides are floats, and the
transfer, Gibbs, coupling and q-binomial switch checks return a bool against
``True``.  ``qrsk verify`` and the acceptance tests run these same generators,
so each identity is enumerated here and nowhere else.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import dynamics, gt, moments, particles, polymers, whittaker
from .qnum import qbinom_switch_identity, qbinom_triple_sum


def main_equation(tuples, kinds, js, max_part):
    """The main equation of each kind on every square at levels js: its residual against 0.

    tuples holds (q, par, a_j) triples, exact or float.
    """
    for q, par, a_j in tuples:
        for kind in kinds:
            for j in js:
                for lam, nu, nu_bar, r in dynamics.main_equation_squares(kind, j, max_part, par, a_j, q):
                    instance = {"q": q, "par": par, "a_j": a_j, "lam": lam, "nu": nu, "nu_bar": nu_bar}
                    yield kind, instance, r, 0


def gibbs(q, a, spec, max_part):
    """The process weights of (a, spec, q) on arrays with parts <= max_part are Gibbs.

    So are uniform weights at q = 0 with every a_j = 1.
    """
    weights = {arr: whittaker.process_weight(arr, a, spec, q)
               for top in gt.enumerate_signatures(max_part, len(a))
               for arr in gt.enumerate_arrays_with_top(top)}
    yield "process", {"q": q, "a": a}, whittaker.check_gibbs(weights, a, q), True
    ones = [Fraction(1)] * len(a)
    uniform = dict.fromkeys(weights, Fraction(1))
    yield "uniform", {"q": 0, "a": ones}, whittaker.check_gibbs(uniform, ones, Fraction(0)), True


def skew_cauchy_dual(q, a_j, beta, max_part, levels):
    """The dual skew Cauchy identity for q-Whittaker functions (Borodin-Corwin).

    For lam with `levels` parts and nu_bar with levels - 1 parts, all parts <= max_part:

        sum_lam_bar psi_{lam/lam_bar} a^(|lam|-|lam_bar|) psi'_{nu_bar/lam_bar} beta^(|nu_bar|-|lam_bar|)
          = (1 + beta a)^-1 sum_nu psi_{nu/nu_bar} a^(|nu|-|nu_bar|) psi'_{nu/lam} beta^(|nu|-|lam|),

    lam_bar over levels - 1 parts <= max_part, nu over the vertical strips above lam.
    """
    psi, psi_prime, w = whittaker.psi, whittaker.psi_prime, gt.weight
    lower = list(gt.enumerate_signatures(max_part, levels - 1))
    for lam in gt.enumerate_signatures(max_part, levels):
        for nu_bar in lower:
            lhs = sum(psi(lam, lam_bar, q) * a_j ** (w(lam) - w(lam_bar))
                      * psi_prime(nu_bar, lam_bar, q) * beta ** (w(nu_bar) - w(lam_bar))
                      for lam_bar in lower)
            rhs = sum(psi(nu, nu_bar, q) * a_j ** (w(nu) - w(nu_bar))
                      * psi_prime(nu, lam, q) * beta ** (w(nu) - w(lam))
                      for nu in dynamics._v_strips_above(lam))
            yield "dual", {"lam": lam, "nu_bar": nu_bar}, lhs, rhs / (1 + beta * a_j)


def complementation(q, beta, a_j, S, max_part, js):
    """Column insertion is row insertion of the complements in the j x S rectangle.

    On every level-j square with parts <= max_part (lam_bar under lam, nu_bar and
    nu the vertical strips above them), col_beta_prob of nu equals
    (a_j beta)^e row_beta_prob of the complemented square, with
    e = -2((|lam| - |nu|) - (|lam_bar| - |nu_bar|)) - 1.
    """
    w = gt.weight
    for j in js:
        for lam in gt.enumerate_signatures(max_part, j):
            for lam_bar in gt.enumerate_signatures(max_part, j - 1):
                if not gt.interlaces_h(lam_bar, lam):
                    continue
                for nu_bar in dynamics._v_strips_above(lam_bar):
                    ctx = dynamics.LevelUpdateContext(lam_bar, nu_bar, lam)
                    cctx = dynamics.LevelUpdateContext(
                        gt.complement(lam_bar, S, j - 1),
                        gt.complement(tuple(x - 1 for x in nu_bar), S, j - 1),
                        gt.complement(lam, S, j),
                    )
                    for nu in dynamics._v_strips_above(lam):
                        expo = -2 * ((w(lam) - w(nu)) - (w(lam_bar) - w(nu_bar))) - 1
                        cnu = gt.complement(tuple(x - 1 for x in nu), S, j)
                        yield (f"j={j}", {"lam": lam, "nu": nu, "lam_bar": lam_bar, "nu_bar": nu_bar},
                               dynamics.col_beta_prob(ctx, nu, beta, a_j, q),
                               (a_j * beta) ** expo * dynamics.row_beta_prob(cctx, cnu, beta, a_j, q))


def coupling(q, beta, a, ns, ts):
    """The shifted q-PushTASEP with (beta, a) is the q-TASEP with (1/beta, 1/a), as laws.

    Checked for n particles (a[:n]) after t steps, n in ns and t in ts.
    """
    for n in ns:
        for t in ts:
            yield f"n={n}", {"n": n, "t": t}, particles.coupling_check(n, t, beta, a[:n], q), True


def q_moments(queries):
    """Each MomentQuery's nested-contour residue sum equals its trajectory expectation."""
    for qy in queries:
        yield (f"{qy.system} k={qy.k}", vars(qy),
               moments.nested_moment_residues(qy), moments.exact_qmoment(qy))


def q_binomial_sums(seed, draws):
    """The two q-binomial summation identities at `draws` random rational points each.

    Per draw: q, then the switch identity's (s, ell, R, b, h), then the triple
    sum's (A, B, C, ell, r), all from random.Random(seed).
    """
    rng = random.Random(seed)
    for _ in range(draws):
        q = Fraction(rng.randint(1, 6), rng.randint(7, 12))
        s, ell, R, b, h = (rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4),
                           rng.randint(4, 8), rng.randint(0, 4))
        yield ("switch", {"q": q, "s": s, "ell": ell, "R": R, "b": b, "h": h},
               qbinom_switch_identity(q, s, ell, R, b, h), True)
        A, B, C = (rng.randint(0, 4) for _ in range(3))
        ell = rng.randint(0, min(4, B + C))
        r = rng.randint(0, min(4, A + B))
        yield ("triple sum", {"q": q, "A": A, "B": B, "C": C, "ell": ell, "r": r},
               qbinom_triple_sum(q, A, B, C, ell, r), 1)


def grsk_lgv(seed, shapes, transfer_steps, step_ns):
    """Geometric RSK against LGV partition-function ratios (Corwin-O'Connell-Seppalainen-Zygouras).

    For each (n, t) in shapes, t words of n weights in [0.5, 1.5) go through
    row and column gRSK.  Entry (k, j) of the row (column) array is
    Z_k / Z_{k-1} of the log-gamma (strict-weak) polymer at (j, t), wherever
    t >= k (t >= j - k + 1).  Then the G/H transfer product of the column
    array holds.  Last come `transfer_steps` single transfer steps, each at n
    drawn from step_ns.  All draws come from random.Random(seed) in that order.
    """
    rng = random.Random(seed)
    for n, t in shapes:
        words = [[0.5 + rng.random() for _ in range(n)] for _ in range(t)]
        row = polymers.empty_array(n)
        col = polymers.empty_array(n)
        for a in words:
            row = polymers.grsk_row_insert(row, a)
            col = polymers.grsk_col_insert(col, a)
        sides = [("row", row, polymers.PolymerEnv("LogGamma", words)),
                 ("col", col, polymers.PolymerEnv("StrictWeak", words))]
        for k in range(1, n + 1):
            for j in range(k, n + 1):
                for side, arr, env in sides:
                    if t >= (k if side == "row" else j - k + 1):
                        z = polymers.lgv_partition(env, j, k, t)
                        z_below = polymers.lgv_partition(env, j, k - 1, t) if k > 1 else 1.0
                        yield side, {"n": n, "t": t, "j": j, "k": k}, arr[k - 1][j - k], z / z_below
        yield "transfer product", {"n": n, "t": t}, polymers.transfer_product_check(words), True
    for _ in range(transfer_steps):
        n = rng.choice(step_ns)
        lam = [0.5 + rng.random() for _ in range(n)]
        a = [0.5 + rng.random() for _ in range(n)]
        yield "transfer step", {"lam": lam, "a": a}, polymers.transfer_matrix_check(lam, a, 1, n), True
