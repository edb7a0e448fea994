"""q-Whittaker branching coefficients, polynomials, and process weights.

Everything here is exact when called with Fraction scalars.  The only
operation needing an infinite product is the normalization for usual
(alpha) specializations, which is floating-mode only; dual (beta)
specializations are fully exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .gt import (
    Signature,
    enumerate_interlacing_below,
    interlaces_h,
    interlaces_v,
    padded,
    part,
    signatures_between,
    weight,
)
from .qnum import INF, Scalar, exact_div, memoised, q_binomial, q_pochhammer, q_pochhammer_inf


def _branching(weight, lam, mu, q):
    """The memoised `weight` at (tuple(lam), tuple(mu), q); float q skips the memo.

    An exact weight is a product of Fraction q-binomials, dear to rebuild and
    asked for hundreds of times in one main-equation sweep.  A float weight
    is cheap to rebuild, and running its body keeps the float `q_binomial`
    calls under it visible to the per-layer probes of `perfbench/`, which
    find no calls to record once a warm memo answers for them.
    """
    args = (tuple(lam), tuple(mu), q)
    return weight.__wrapped__(*args) if isinstance(q, float) else weight(*args)


def psi(lam: Sequence[int], mu: Sequence[int], q: Scalar) -> Scalar:
    """Branching weight of the horizontal strip lam/mu.

    prod_i binom(lam_i - lam_{i+1}, lam_i - mu_i)_q; zero unless mu
    interlaces below lam.  Works for len(mu) in {len(lam)-1, len(lam)}.
    """
    return _branching(_psi, lam, mu, q)


@memoised
def _psi(lam: Signature, mu: Signature, q: Scalar) -> Scalar:
    one = q * 0 + 1
    if not interlaces_h(mu, lam):
        return one * 0
    n = len(lam)
    lam = padded(lam, n + 1)
    w = one
    for upper, lower, m in zip(lam, lam[1:], padded(mu, n)):
        w *= q_binomial(upper - lower, upper - m, q)
    if w == INF:  # every q-binomial factor is >= 1
        raise OverflowError(f"psi of {lam}/{mu} at q = {q} is past the float range")
    return w


def phi_coef(lam: Sequence[int], mu: Sequence[int], q: Scalar) -> Scalar:
    """Dual branching weight of the horizontal strip lam/mu.

    1/(q;q)_{lam_1 - mu_1} prod_i binom(mu_i - mu_{i+1}, mu_i - lam_{i+1})_q.
    """
    return _branching(_phi_coef, lam, mu, q)


@memoised
def _phi_coef(lam: Signature, mu: Signature, q: Scalar) -> Scalar:
    one = q * 0 + 1
    if not interlaces_h(mu, lam):
        return one * 0
    n = len(lam)
    lam, mu = padded(lam, n + 1), padded(mu, n + 1)
    den = q_pochhammer(q, q, lam[0] - mu[0])
    # a float (q;q)_m past the float range underflows to 0.0
    w = exact_div(one, den) if den or not isinstance(q, float) else INF
    for upper, lower, l in zip(mu, mu[1:], lam[1:]):
        w *= q_binomial(upper - lower, upper - l, q)
    if w == INF:  # every q-binomial factor is >= 1
        raise OverflowError(f"phi_coef of {lam}/{mu} at q = {q} is past the float range")
    return w


def psi_prime(lam: Sequence[int], mu: Sequence[int], q: Scalar) -> Scalar:
    """Vertical-strip weight: prod over i with lam_i = mu_i, lam_{i+1} = mu_{i+1}+1
    of (1 - q^{mu_i - mu_{i+1}}); zero unless lam/mu is a vertical strip."""
    return _branching(_psi_prime, lam, mu, q)


@memoised
def _psi_prime(lam: Signature, mu: Signature, q: Scalar) -> Scalar:
    one = q * 0 + 1
    if not interlaces_v(mu, lam):
        return one * 0
    n = max(len(lam), len(mu))
    lam, mu = padded(lam, n + 1), padded(mu, n + 1)
    w = one
    for i in range(n):
        if lam[i] == mu[i] and lam[i + 1] == mu[i + 1] + 1:
            w *= 1 - q ** (mu[i] - mu[i + 1])
    return w


def p_poly(lam: Sequence[int], a: Sequence[Scalar], q: Scalar, _cache=None) -> Scalar:
    """q-Whittaker polynomial P_lam(a_1..a_N) by summation over GT patterns.

    A chain sum (`_chain_sum`) of psi weights down the levels of the
    pattern, lam padded to N = len(a) parts; `_cache` may be shared by calls
    with the same a."""
    n = len(a)
    if sum(1 for x in lam if x > 0) > n:
        return q * 0
    if _cache is None:
        _cache = {}
    return _chain_sum(padded(lam, n)[:n], tuple(a), q, psi, enumerate_interlacing_below, _cache)


def _chain_sum(lam, params, q, coef, strip_candidates, cache):
    """Sum over chains 0 = mu^(0) < ... < mu^(T) = lam of prod coef * param^step."""
    lam = tuple(lam)
    T = len(params)
    one = q * 0 + 1
    key = (lam, T)
    if key in cache:
        return cache[key]
    if T == 0:
        val = one if all(x == 0 for x in lam) else one * 0
    else:
        val = one * 0
        for mu in strip_candidates(lam):
            c = coef(lam, mu, q)
            if c == 0:
                continue
            val += (
                c
                * params[-1] ** (weight(lam) - weight(mu))
                * _chain_sum(mu, params[:-1], q, coef, strip_candidates, cache)
            )
    cache[key] = val
    return val


def _h_strips_below(lam):
    """Same-length mu with mu interlacing below lam (horizontal strip lam/mu)."""
    n = len(lam)
    uppers = list(lam)
    lowers = tuple(part(lam, i + 1) for i in range(1, n + 1))
    yield from signatures_between(lowers, uppers)


def _v_strips_below(lam):
    """Same-length mu with lam/mu a vertical strip."""
    return signatures_between([max(x - 1, 0) for x in lam], lam)


def q_poly_alpha(lam: Sequence[int], alphas: Sequence[Scalar], q: Scalar) -> Scalar:
    """Q_lam(alpha_1..alpha_T) for a pure usual specialization, by phi-chains."""
    return _chain_sum(tuple(lam), tuple(alphas), q, phi_coef, _h_strips_below, {})


def q_poly_dual(lam: Sequence[int], betas: Sequence[Scalar], q: Scalar) -> Scalar:
    """Q_lam(beta_1..beta_T dual) for a pure dual specialization, by psi'-chains."""
    return _chain_sum(tuple(lam), tuple(betas), q, psi_prime, _v_strips_below, {})


@dataclass(frozen=True)
class SpecParams:
    """A nonnegative specialization with usual and dual parameters (no Plancherel)."""

    usual: Tuple[Scalar, ...] = ()
    dual: Tuple[Scalar, ...] = ()

    @staticmethod
    def alphas(*alphas: Scalar) -> "SpecParams":
        return SpecParams(usual=tuple(alphas))

    @staticmethod
    def betas(*betas: Scalar) -> "SpecParams":
        return SpecParams(dual=tuple(betas))

    @property
    def is_dual_only(self) -> bool:
        return len(self.usual) == 0


def pi_norm(a: Sequence[Scalar], spec: SpecParams, q: Scalar) -> Scalar:
    """Normalizing constant: prod_j [prod_i (1 + beta_i a_j) / (alpha_i a_j; q)_inf].

    Exact for dual-only specializations; usual parameters need floating mode.
    """
    one = q * 0 + 1
    val = one
    for aj in a:
        for b in spec.dual:
            val *= 1 + b * aj
        for al in spec.usual:
            if al * aj >= 1:
                raise ValueError("need alpha_i a_j < 1 for a finite normalization")
            val /= q_pochhammer_inf(al * aj, q)
    return val


def q_poly(lam: Sequence[int], spec: SpecParams, q: Scalar) -> Scalar:
    """Q_lam(spec) for a pure usual or pure dual specialization."""
    if spec.is_dual_only:
        return q_poly_dual(lam, spec.dual, q)
    if not spec.dual:
        return q_poly_alpha(lam, spec.usual, q)
    raise NotImplementedError("mixed specializations are not needed here")


def process_weight(
    arr: Sequence[Signature], a: Sequence[Scalar], spec: SpecParams, q: Scalar
) -> Scalar:
    """Weight of an interlacing array under the process defined by (a, spec, q)."""
    n = len(arr)
    if len(a) != n:
        raise ValueError("need one level parameter per level")
    one = q * 0 + 1
    w = one
    prev: Signature = ()
    for j in range(n):
        coef = psi(arr[j], prev, q)
        if coef == 0:
            raise ValueError("array does not interlace")
        w *= coef * a[j] ** (weight(arr[j]) - weight(prev))
        prev = arr[j]
    return w * q_poly(arr[-1], spec, q) / pi_norm(a, spec, q)


def gibbs_factor(arr: Sequence[Signature], a: Sequence[Scalar], q: Scalar) -> Scalar:
    """prod_j psi_{arr_j / arr_{j-1}} a_j^{|arr_j| - |arr_{j-1}|}."""
    one = q * 0 + 1
    w = one
    prev: Signature = ()
    for j in range(len(arr)):
        w *= psi(arr[j], prev, q) * a[j] ** (weight(arr[j]) - weight(prev))
        prev = arr[j]
    return w


def check_gibbs(weights: Dict, a: Sequence[Scalar], q: Scalar) -> bool:
    """True iff weight(arr)/gibbs_factor(arr) is constant on each top row."""
    ratios: Dict[Signature, Scalar] = {}
    for arr, w in weights.items():
        r = w / gibbs_factor(arr, a, q)
        top = arr[-1]
        if top in ratios:
            if ratios[top] != r:
                return False
        else:
            ratios[top] = r
    return True


def univariate_step_prob(
    kind: str,
    lam: Sequence[int],
    nu: Sequence[int],
    a: Sequence[Scalar],
    par: Scalar,
    q: Scalar,
    _cache=None,
) -> Scalar:
    """Matrix element of the univariate transition operator on signatures.

    kind 'alpha' (floating mode: uses infinite products) or 'beta' (exact).
    """
    one = q * 0 + 1
    if _cache is None:
        _cache = {}
    pl = p_poly(lam, a, q, _cache)
    pn = p_poly(nu, a, q, _cache)
    if kind == "beta":
        if not interlaces_v(lam, nu):
            return one * 0
        w = psi_prime(nu, lam, q) * par ** (weight(nu) - weight(lam)) * pn / pl
        for aj in a:
            w /= 1 + par * aj
        return w
    if kind == "alpha":
        if not interlaces_h(lam, nu):
            return one * 0
        w = phi_coef(nu, lam, q) * par ** (weight(nu) - weight(lam)) * pn / pl
        for aj in a:
            w *= q_pochhammer_inf(par * aj, q)
        return w
    raise ValueError(f"unknown kind {kind!r}")


def link_weight(
    lam: Sequence[int], lam_bar: Sequence[int], a: Sequence[Scalar], q: Scalar, _cache=None
) -> Scalar:
    """Projection link from level j = len(a) down to level j-1."""
    if _cache is None:
        _cache = {}
    pj = p_poly(lam, a, q, _cache)
    pj1 = p_poly(lam_bar, a[:-1], q, _cache)
    return (
        pj1
        * psi(lam, lam_bar, q)
        * a[-1] ** (weight(lam) - weight(lam_bar))
        / pj
    )
