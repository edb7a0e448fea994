"""Nested-contour q-moment formulas evaluated exactly by residue expansion.

Every factor of the integrand is an integer power of a linear form
c_0 + c_1 z_1 + ... + c_k z_k with rational coefficients: the cross factors
(z_A - z_B) and 1/(z_A - q z_B), the factors 1/(1 - a_i z_j) (or
(1 - z_j)^(-n_j) for the two-part process), the step factors
((q z + beta)/(q(z + beta)))^t (or (q z)^t/(q z - beta)^t for the geometric
PushTASEP) and 1/z_j.  So the integrand is one term: a `Fraction`
coefficient times {form: exponent}, each form scaled so that its first
nonzero variable coefficient is 1, which makes equal lines equal keys.

The k-fold contour integral is expanded variable by variable, outermost
contour first: each integral becomes the sum of the residues at the poles
inside its contour, which are the points 1/a_i (the point 1 for the two-part
process) together with q times each deeper integration variable.  The
excluded points (0 and the negative parameter points) never enter.  The
residue of a term in z_j at such a point p is read off its forms.  Put
z_j = p + u.  A form that vanishes identically at p becomes c u, and the pole
order m is minus the sum of the exponents of those forms.  Any other form L
becomes L(p) + c u; its power is expanded by generalised binomials and
truncated at u^(m-1).  The coefficient of u^(m-1) in the product is the
residue: a sum of terms in one variable fewer.  Poles of any order, including
those where q a_i = a_i' makes two poles meet, need no special case, and the
result is an exact rational number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .particles import exact_trajectory_distribution, step_config
from .qnum import INF, PhiParams, phi_weight, q_geometric_pmf


class MomentDivergenceError(ArithmeticError):
    """The requested q-moment is a divergent series."""


@dataclass(frozen=True)
class MomentQuery:
    """A joint q-moment E prod_i q^(x_{n_i}(t) + n_i) of a particle system.

    system 'BernoulliPush' (parameters beta, a_1..a_N, q; a_i distinct),
    'TwoPart' (t_right TASEP steps then t_left PushTASEP steps, a = 1), or
    'GeometricPush' (parameter alpha; only finitely many moments exist).
    """

    k: int
    n: Tuple[int, ...]
    t: int
    q: Fraction
    beta: Fraction
    a: Tuple[Fraction, ...] = ()
    system: str = "BernoulliPush"
    t_left: int = 0

    def __post_init__(self):
        if self.k != len(self.n) or self.k < 1:
            raise ValueError("need k = len(n) >= 1")
        if any(self.n[i] < self.n[i + 1] for i in range(self.k - 1)):
            raise ValueError("n must be weakly decreasing")
        if min(self.n) < 1:
            raise ValueError("moment indices start at 1")
        if self.system == "BernoulliPush":
            if max(self.n) > len(self.a):
                raise ValueError("n_i must not exceed the particle count")
            if len(set(self.a)) != len(self.a):
                raise ValueError("residue expansion needs pairwise distinct a_i")


Form = Tuple[Fraction, ...]  # (c_0, c_1, ..., c_k) stands for c_0 + c_1 z_1 + ... + c_k z_k


def _put(coef: Fraction, forms: Dict[Form, int], form: Form, e: int) -> Fraction:
    """Multiply coef * prod(forms) by form**e, updating `forms`; return the new coef.

    The form is stored scaled to a leading variable coefficient of 1; a
    constant form goes into the coefficient.
    """
    lead = next((c for c in form[1:] if c), None)
    if lead is None:
        return coef * form[0] ** e
    if lead != 1:
        form = tuple(c / lead for c in form)
        coef *= lead ** e
    e += forms.get(form, 0)
    if e:
        forms[form] = e
    else:
        forms.pop(form, None)
    return coef


def _residues(coef: Fraction, forms: Dict[Form, int], j: int, p: Form):
    """Residue in z_j at z_j = p of coef * prod L**e, as a list of terms.

    p is a linear form without z_j.  With z_j = p + u each form L is
    L(p) + c u, c its z_j coefficient; the forms with L(p) = 0 give the pole
    order, the others are expanded to u^(order - 1).
    """
    shift = p[:j] + (Fraction(-1),) + p[j + 1:]
    order = 0
    rest: Dict[Form, int] = {}
    series = []  # (L(p), c, e) for each factor (L(p) + c u)**e
    for form, e in forms.items():
        c = form[j]
        if not c:
            rest[form] = e
            continue
        at_p = tuple(f + c * s if s else f for f, s in zip(form, shift))
        if any(at_p):
            series.append((at_p, c, e))
        else:
            order -= e
            coef *= c ** e
    if order <= 0:
        return []
    out = []

    def expand(i, left, coef, picks):
        # choose the power u^r of factor i; the powers must add up to order - 1
        if i == len(series):
            if left == 0:
                new = dict(rest)
                for at_p, e in picks:
                    coef = _put(coef, new, at_p, e)
                out.append((coef, new))
            return
        at_p, c, e = series[i]
        binom = Fraction(1)  # the generalised binomial coefficient (e choose r)
        for r in range(left + 1):
            expand(i + 1, left - r, coef * binom * c ** r, picks + [(at_p, e - r)])
            binom = binom * (e - r) / (r + 1)

    expand(0, order - 1, coef, [])
    return out


def _integrand_term(query: MomentQuery):
    """The integrand as one term: a coefficient and {form: exponent}."""
    k, q, beta = query.k, Fraction(query.q), Fraction(query.beta)
    forms: Dict[Form, int] = {}
    coef = Fraction(1)

    def mul(e, const, *coeffs):
        nonlocal coef
        f = [Fraction(const)] + [Fraction(0)] * k
        for i, c in coeffs:
            f[i] = Fraction(c)
        coef = _put(coef, forms, tuple(f), e)

    for A in range(1, k + 1):
        for B in range(A + 1, k + 1):
            mul(1, 0, (A, 1), (B, -1))  # (z_A - z_B)
            mul(-1, 0, (A, 1), (B, -q))  # 1 / (z_A - q z_B)
    for j, n_j in enumerate(query.n, start=1):
        mul(-1, 0, (j, 1))  # 1 / z_j
        if query.system == "TwoPart":
            t, t_left = query.t, query.t_left
            mul(-n_j, 1, (j, -1))  # (1 - z)^-n
            mul(t, 1, (j, q * beta))  # ((1 + q beta z) / (1 + beta z))^t
            mul(-t, 1, (j, beta))
            mul(t_left, beta, (j, q))  # ((q z + beta) / (q (z + beta)))^t_left
            mul(-t_left, beta, (j, 1))
            coef *= q ** -t_left
            continue
        for a_i in query.a[:n_j]:
            mul(-1, 1, (j, -a_i))  # 1 / (1 - a_i z)
        if query.system == "GeometricPush":
            mul(query.t, 0, (j, q))  # (q z)^t / (q z - beta)^t
            mul(-query.t, -beta, (j, q))
        else:
            mul(query.t, beta, (j, q))  # ((q z + beta) / (q (z + beta)))^t
            mul(-query.t, beta, (j, 1))
            coef *= q ** -query.t
    return coef, forms


def nested_moment_residues(query: MomentQuery) -> Fraction:
    """Evaluate the nested contour integral for the queried q-moment."""
    k, q = query.k, Fraction(query.q)
    if query.system == "TwoPart":
        inside = [Fraction(1)]
    else:
        inside = sorted({1 / Fraction(a_i) for a_i in query.a[: max(query.n)]})
    zeros = (Fraction(0),) * k
    coef, forms = _integrand_term(query)
    terms = {frozenset(forms.items()): coef}
    for j in range(1, k + 1):
        points = [(p,) + zeros for p in inside]
        points += [zeros[:B] + (q,) + zeros[B:] for B in range(j + 1, k + 1)]  # q z_B
        new: Dict[frozenset, Fraction] = {}
        for key, coef in terms.items():
            forms = dict(key)
            for p in points:
                for c, f in _residues(coef, forms, j, p):
                    key_f = frozenset(f.items())
                    new[key_f] = new.get(key_f, 0) + c
        terms = {key: c for key, c in new.items() if c}
    if any(terms):
        raise ArithmeticError("a form survived the last residue")
    return (-1) ** k * q ** (k * (k - 1) // 2) * sum(terms.values(), Fraction(0))


def exact_qmoment(query: MomentQuery) -> Fraction:
    """The same moment from the exact trajectory distribution (oracle side)."""
    q = query.q
    if query.system == "GeometricPush":
        return _geometric_qmoment_series(query)
    if query.system == "TwoPart":
        a = tuple(q * 0 + 1 for _ in range(max(query.n)))
        dist = exact_trajectory_distribution(
            "TwoPart", len(a), query.t, query.beta, a, q, t2=query.t_left
        )
    else:
        dist = exact_trajectory_distribution(
            "BernoulliPush", len(query.a), query.t, query.beta, query.a, q
        )
    return _moment_sum(dist, query.n, q)


def _moment_sum(dist, n, q):
    """E prod_i q^(x_{n_i} + n_i) under `dist` ({configuration: probability}),
    exact or float as q and the probabilities are."""
    total = q * 0
    for cfg, p in dist.items():
        w = p
        for ni in n:
            w *= q ** (cfg[ni - 1] + ni)
        total += w
    return total


def _geometric_qmoment_series(query: MomentQuery, rel_tol=1e-12) -> float:
    """Brute-force E prod q^(x+n) for the geometric q-PushTASEP, floating.

    Each extra unit of independent displacement contributes a factor of at
    most max(alpha a_i) q^{-k} to the moment series, so the series converges
    iff that ratio is < 1; otherwise MomentDivergenceError is raised.  The
    independent jumps are capped so the dropped tail is below rel_tol.
    """
    q = float(query.q)
    alpha = float(query.beta)
    a = [float(x) for x in query.a]
    n_parts = len(a)
    ratio = max(alpha * ai for ai in a) * q ** (-query.k)
    if ratio >= 1:
        raise MomentDivergenceError(
            f"series ratio {ratio:.3f} >= 1: the requested q-moment diverges"
        )
    vcap = max(4, int(math.log(rel_tol * (1 - ratio)) / math.log(ratio)) + 2)

    def transitions(cfg):
        def rec(j, x, prob):
            if j == n_parts:
                yield tuple(x), prob
                return
            pushes = [(0, 1.0)]
            if j > 0:
                gap = cfg[j - 1] - cfg[j] - 1
                c = cfg[j - 1] - x[j - 1]
                if c > 0:
                    params = PhiParams.inverse(q, gap, INF, c)
                    pushes = [
                        (w, float(phi_weight(params, w)))
                        for w in range(max(0, c - gap), c + 1)
                    ]
            for v in range(vcap + 1):
                pv = q_geometric_pmf(alpha * a[j], q, v)
                for w, pw in pushes:
                    if pw == 0.0:
                        continue
                    x[j] = cfg[j] - v - w
                    yield from rec(j + 1, x, prob * pv * pw)
            x[j] = cfg[j]

        yield from rec(0, list(cfg), 1.0)

    dist = {step_config(n_parts): 1.0}
    for _ in range(query.t):
        new = {}
        for cfg, p in dist.items():
            for ncfg, tp in transitions(cfg):
                new[ncfg] = new.get(ncfg, 0.0) + p * tp
        dist = new
    return _moment_sum(dist, query.n, q)
