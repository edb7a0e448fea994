"""q-series primitives and the q-deformed Beta-binomial distribution.

All formulas are generic over the scalar type: pass `fractions.Fraction`
values for exact rational arithmetic, or `float` values for fast numerics.
The only operations restricted to floats are the ones that genuinely need
an infinite product, and those raise `ExactModeError` on exact scalars.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

Scalar = Union[Fraction, float, int]

INF = math.inf

# Truncation policy for infinite q-Pochhammer products: stop once the running
# term |a q^i| drops below 2^-60, which keeps the relative error of the
# product under ~2^-50 for |q| < 1.
_POCHHAMMER_TAIL = 2.0 ** -60
# The same policy for the sampling tables: drop support points whose weight is
# below 2^-60 times the modal weight.
_LOG_TAIL = math.log(_POCHHAMMER_TAIL)
# Sums and tables longer than this many terms are computed with numpy.
_VECTOR_TERMS = 64
# Entries kept by each memo on a pure weight (`memoised`).  The memos pay off
# within one sweep of the exact verifier, which reuses a few hundred distinct
# arguments per function; the bound keeps float sampling, whose arguments
# do not repeat, from growing them without limit.
MEMO_SIZE = 1024

# Memoise a pure weight on its (hashable) arguments.  The key includes each
# argument's type: Fraction(1, 2) and 0.5 are equal and hash equal, and an
# exact call must not get a float value back, nor a float call a Fraction.
memoised = lru_cache(maxsize=MEMO_SIZE, typed=True)


class ExactModeError(TypeError):
    """An operation that requires floating arithmetic got exact scalars."""


class ZeroMassError(ValueError):
    """A floating weight has no mass to sample from (it underflowed to 0).

    Raised instead of returning a constant draw.
    """


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (Fraction, int)) and not isinstance(x, bool)


def qpow(q: Scalar, e) -> Scalar:
    """q**e with the conventions q**inf = 0 and 0**0 = 1."""
    if e is None or e == INF:
        return q * 0
    if e < 0 and q == 0:
        raise ZeroDivisionError("0 ** negative exponent")
    if q == 0:
        return q ** 0 if e == 0 else q * 0
    return q ** e


@memoised
def q_pochhammer(a: Scalar, q: Scalar, m: int) -> Scalar:
    """(a;q)_m with the three-branch definition (m > 0, m = 0, m < 0)."""
    if m == INF:
        return q_pochhammer_inf(a, q)
    one = a * 0 + 1
    if m == 0:
        return one
    if m > 0:
        p = one
        x = a
        for _ in range(m):
            p *= 1 - x
            x *= q
        return p
    # m < 0: reciprocal product over factors 1 - a q^{-i}, i = 1..-m
    p = one
    x = a
    for _ in range(-m):
        x /= q
        f = 1 - x
        if f == 0:
            raise ZeroDivisionError("vanishing factor in (a;q)_m with m < 0")
        p /= f
    return p


def q_pochhammer_inf(a: Scalar, q: Scalar) -> float:
    """(a;q)_inf, truncated at |a q^i| < 2^-60.  Floating realization only."""
    if a == 0:
        return 1.0
    if is_exact(a) or is_exact(q):
        raise ExactModeError(
            "(a;q)_inf is not available on exact scalars; "
            "use a normalized (product-free) formula instead"
        )
    if not abs(q) < 1:
        raise ValueError("(a;q)_inf needs |q| < 1")
    p = 1.0
    x = float(a)
    while abs(x) >= _POCHHAMMER_TAIL:
        p *= 1.0 - x
        x *= q
    return p


def log_q_pochhammer_inf(a: float, q: float) -> float:
    """log (a;q)_inf for 0 <= a < 1, 0 <= q < 1; safe when the product underflows."""
    if a == 0:
        return 0.0
    if not (0 <= a < 1 and 0 <= q < 1):
        raise ValueError("log (a;q)_inf needs 0 <= a < 1, 0 <= q < 1")
    x = float(a)
    if x * q ** _VECTOR_TERMS >= _POCHHAMMER_TAIL:
        # a long product (q near 1): every factor with a q^i >= 2^-60 in one vector
        terms = math.floor(math.log(_POCHHAMMER_TAIL / x) / math.log(q)) + 1
        return float(np.log1p(-x * np.power(float(q), np.arange(terms))).sum())
    s = 0.0
    while x >= _POCHHAMMER_TAIL:
        s += math.log1p(-x)
        x *= q
    return s


@memoised
def q_binomial(n, k: int, q: Scalar) -> Scalar:
    """Gaussian binomial coefficient; n = inf is allowed in floating mode only."""
    if k < 0 or (n != INF and k > n):
        raise ValueError(f"q_binomial needs 0 <= k <= n, got n={n}, k={k}")
    if n == INF:
        if is_exact(q):
            raise ExactModeError("q_binomial with n = inf needs floating scalars")
        return 1.0 / q_pochhammer(q, q, k)
    # prod_{i=1}^{k} (1 - q^{n-k+i}) / (1 - q^i), over the smaller of k and n - k;
    # exact-friendly
    k = min(k, n - k)
    num = q * 0 + 1
    den = num
    for i in range(1, k + 1):
        num *= 1 - qpow(q, n - k + i)
        den *= 1 - qpow(q, i)
    return num / den


def q_multinomial(n: int, m: int, k: int, q: Scalar) -> Scalar:
    """(q;q)_n / ((q;q)_k (q;q)_m (q;q)_{n-m-k})."""
    return q_binomial(n, m, q) * q_binomial(n - m, k, q)


def q_geometric_pmf(alpha: Scalar, q: Scalar, n: int) -> float:
    """pmf (alpha;q)_inf alpha^n / (q;q)_n of the q-geometric distribution."""
    return q_pochhammer_inf(alpha, q) * alpha ** n / q_pochhammer(q, q, n)


# ---------------------------------------------------------------------------
# q-deformed Beta-binomial distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiParams:
    """Parameters of the q-deformed Beta-binomial weight.

    Two accepted regimes:

    * direct:  0 <= q < 1 and 0 <= eta <= xi < 1, any count y (may be INF);
    * inverse: base q^{-1} with xi = q^a, eta = q^b for integer exponents
      0 <= a <= b and y <= b.  Pass b = INF for eta = 0.  Exponents are kept
      as integers (never pre-exponentiated) so that b = INF stays exact.
    """

    q: Scalar
    y: Union[int, float]
    xi: Optional[Scalar] = None
    eta: Optional[Scalar] = None
    a: Optional[int] = None
    b: Union[int, float, None] = None

    @staticmethod
    def direct(q: Scalar, xi: Scalar, eta: Scalar, y) -> "PhiParams":
        if not (0 <= q < 1 and 0 <= eta <= xi < 1):
            raise ValueError("direct regime needs 0 <= q < 1, 0 <= eta <= xi < 1")
        return PhiParams(q=q, y=y, xi=xi, eta=eta)

    @staticmethod
    def inverse(q: Scalar, a: int, b, y: int) -> "PhiParams":
        if b is None:
            b = INF
        if not (0 <= q < 1):
            raise ValueError("inverse regime needs 0 <= q < 1")
        if a < 0 or a > b or y > b:
            raise ValueError("inverse regime needs 0 <= a <= b and y <= b")
        return PhiParams(q=q, y=y, a=a, b=b)

    @property
    def is_inverse(self) -> bool:
        return self.a is not None


def phi_support(p: PhiParams) -> range:
    """The integer support of the weight as a (possibly empty) range."""
    if p.is_inverse:
        lo = max(0, p.y - p.a)
        hi = p.y if p.b == INF else min(p.y, p.b - p.a)
        return range(lo, hi + 1)
    if p.y == INF:
        raise ValueError("support of the y = inf direct weight is unbounded")
    return range(0, p.y + 1)


def phi_weight(p: PhiParams, s: int) -> Scalar:
    """The q-deformed Beta-binomial weight of s."""
    if s < 0 or s > p.y:
        raise ValueError(f"s = {s} outside 0..y = {p.y}")
    if p.is_inverse:
        return _phi_inverse_weight(p.q, p.a, p.b, p.y, s)
    return _phi_direct_weight(p.q, p.xi, p.eta, p.y, s)


def phi_pmf(p: PhiParams):
    """List of (s, weight) over the support; finite y / inverse regime only."""
    return [(s, phi_weight(p, s)) for s in phi_support(p)]


def _phi_direct_weight(q, xi, eta, y, s):
    one = q * 0 + 1
    if xi == 0:
        # eta <= xi forces eta = 0 and the weight degenerates to delta_0
        return one if s == 0 else one * 0
    head = one if s == 0 else xi ** s * q_pochhammer(eta / xi, q, s)
    if y == INF:
        ratio = 1.0 if eta == 0 else q_pochhammer_inf(eta, q)
        return head / q_pochhammer(q, q, s) * q_pochhammer_inf(xi, q) / ratio
    return (
        head
        * q_pochhammer(xi, q, y - s)
        / q_pochhammer(eta, q, y)
        * q_binomial(y, s, q)
    )


@memoised
def _phi_inverse_weight(q, a, b, c, s):
    """phi_{q^{-1}, q^a, q^b}(s | c).

    Zero outside the support s in [max(0, c-a), min(c, b-a)].  At q = 0 the
    distribution is the point mass at max(c-a, 0).  Floating q uses the
    closed form of `QSampler.log_phi_inverse`; exact q takes phi(s0) at the
    left support edge s0 times a product of positive ratios.
    """
    zero = q * 0
    one = zero + 1
    if s < 0 or s > c:
        return zero
    if s > (b - a if b != INF else c) or c - s > a:
        return zero
    if q == 0:
        return one if s == max(c - a, 0) else zero
    if isinstance(q, float):
        return math.exp(QSampler(q).log_phi_inverse(a, b, c, s))
    s0 = max(0, c - a)
    w = _phi_inverse_left_edge(q, a, b, c)
    for r in range(s0, s):
        w *= _phi_inverse_ratio(q, a, b, c, r)
    return w


def _phi_inverse_left_edge(q, a, b, c):
    """phi_{q^{-1},q^a,q^b}(s0 | c) at the left support edge s0 = max(0, c-a)."""
    one = q * 0 + 1
    if c <= a:
        # s0 = 0: (q^a;q^{-1})_c / (q^b;q^{-1})_c, positive factor by factor
        w = one
        for i in range(c):
            w *= 1 - qpow(q, a - i)
            w /= 1 - qpow(q, b - i) if b != INF else one
        return w
    # s0 = c-a: q^{a(c-a)} (q^{b-a};q^{-1})_{c-a} (q^a;q^{-1})_a binom(c,c-a)_{q^{-1}}
    #           / (q^b;q^{-1})_c, rewritten so every factor is positive.
    w = q_binomial(c, a, q)
    for i in range(c - a):
        w *= one if b == INF else 1 - qpow(q, b - a - i)
    for i in range(a):
        w *= 1 - qpow(q, a - i)
    if b != INF:
        for i in range(c):
            w /= 1 - qpow(q, b - i)
    return w


def _phi_inverse_ratio(q, a, b, c, r):
    """phi(r+1)/phi(r) for the inverse-regime weight, positive on the support."""
    one = q * 0 + 1
    num = one if b == INF else 1 - qpow(q, b - a - r)
    num = num * (1 - qpow(q, c - r))
    den = (1 - qpow(q, a - c + r + 1)) * (1 - qpow(q, r + 1))
    return qpow(q, a + 2 * r + 1 - c) * num / den


def phi_sample(p: PhiParams, rng, sampler: Optional[QSampler] = None) -> int:
    """Draw from the weight; floating realization, one `rng.random()` a draw.

    Inverse regime: a chop-down walk from the mode over the closed-form
    weights, so a draw costs O(1) plus O(1) per visited support point, however
    large the count and the exponents (as in the scaling experiments).  Pass
    a `QSampler` for q to reuse its log (q;q)_n table across draws.  Direct
    regime: an inverse-CDF walk from s = 0.  A weight with no mass left in
    floating point raises `ZeroMassError`.
    """
    u = rng.random()
    if p.is_inverse:
        sup = phi_support(p)
        if len(sup) == 0:
            raise ValueError("empty support")
        if p.q == 0 or len(sup) == 1:
            return sup[0]
        return _qsampler(p.q, sampler).draw_phi_inverse(p.a, p.b, p.y, sup[0], sup[-1], u)
    q = float(p.q)
    xi = float(p.xi)
    eta = float(p.eta)
    if xi == 0:
        return 0
    if p.y == INF:
        w = q_pochhammer_inf(xi, q) / (1.0 if eta == 0 else q_pochhammer_inf(eta, q))
        _check_mass(w, p)
        s = 0
        acc = w
        qs = q
        while u > acc:
            # ratio phi(s+1)/phi(s) = xi (1 - (eta/xi) q^s) / (1 - q^{s+1})
            w *= (xi - eta * (qs / q)) / (1.0 - qs)
            s += 1
            qs *= q
            acc += w
            if w == 0.0:
                break
        return s
    y = p.y
    w = float(q_pochhammer(xi, q, y) / q_pochhammer(eta, q, y))
    _check_mass(w, p)
    s = 0
    acc = w
    while u > acc and s < y:
        # phi(s+1)/phi(s) = xi (1-(eta/xi)q^s)(1-q^{y-s}) / ((1-xi q^{y-s-1})(1-q^{s+1}))
        num = (xi - eta * q ** s) * (1.0 - q ** (y - s))
        den = (1.0 - xi * q ** (y - s - 1)) * (1.0 - q ** (s + 1))
        w *= num / den
        s += 1
        acc += w
        if w == 0.0:
            break
    return s


def _check_mass(w: float, what) -> None:
    if not w > 0.0:
        raise ZeroMassError(f"the starting weight of {what} is {w} in floating point")


# ---------------------------------------------------------------------------
# floating-mode sampling tables
# ---------------------------------------------------------------------------

class QSampler:
    """Floating-mode sampling tables for one q, each built on first use.

    * The prefix table log (q;q)_n, n = 0, 1, ...; with it every
      inverse-regime phi weight costs O(1) (`log_phi_inverse`).
    * Per q-geometric parameter alpha, a CDF table over the support points
      whose weight is at least 2^-60 times the modal weight, built once from
      the normaliser log (alpha;q)_inf, so a draw is one bisect.

    The tables live as long as the object.  Create one per run of draws at a
    fixed q and pass it to `phi_sample` and `sample_q_geometric`.
    """

    def __init__(self, q):
        q = float(q)
        if not 0 <= q < 1:
            raise ValueError("QSampler needs 0 <= q < 1")
        self.q = q
        self.log_q = math.log(q) if q > 0 else -INF
        # from this n on, log(1 - q^n) > -2^-60 and log (q;q)_n stops changing
        self._cap = math.ceil(_LOG_TAIL / self.log_q) if q > 0 else 0
        self._log_qpoch: List[float] = [0.0]
        self._cdfs: Dict[float, Tuple[int, List[float]]] = {}

    def log_qpoch(self, n) -> float:
        """log (q;q)_n for an integer n >= 0 or n = INF."""
        table = self._log_qpoch
        if n < len(table):
            return table[n]
        n = min(n, self._cap)
        # grow to at least twice the length, so growth costs O(1) a point
        stop = min(max(n, 2 * len(table)), self._cap) + 1
        if stop - len(table) > _VECTOR_TERMS:
            k = np.arange(len(table), stop)
            table.extend((table[-1] + np.cumsum(np.log(-np.expm1(k * self.log_q)))).tolist())
        else:
            for k in range(len(table), stop):
                table.append(table[-1] + math.log(-math.expm1(k * self.log_q)))
        return table[n]

    def log_phi_inverse(self, a: int, b, c: int, s: int) -> float:
        """log phi_{q^{-1}, q^a, q^b}(s | c) at a support point s, q > 0.

        The closed form is

            q^{s(a-c+s)} (q;q)_a (q;q)_c (q;q)_{b-a} (q;q)_{b-c}
            / [(q;q)_b (q;q)_s (q;q)_{c-s} (q;q)_{a-c+s} (q;q)_{b-a-s}],

        whose four b factors cancel at b = inf.
        """
        lp = self.log_qpoch
        v = s * (a - c + s) * self.log_q + lp(a) + lp(c) - lp(s) - lp(c - s) - lp(a - c + s)
        if b != INF:
            v += lp(b - a) + lp(b - c) - lp(b) - lp(b - a - s)
        return v

    def draw_phi_inverse(self, a: int, b, c: int, lo: int, hi: int, u: float) -> int:
        """The inverse-regime draw for uniform u on the support [lo, hi], q > 0."""
        q = self.q
        mode = _phi_inverse_mode(q, a, b, c, lo, hi)
        return _chop_down(
            u, mode, lo, hi, math.exp(self.log_phi_inverse(a, b, c, mode)),
            lambda r: _phi_inverse_ratio(q, a, b, c, r),
        )

    def q_geometric_cdf(self, alpha: float) -> Tuple[int, List[float]]:
        """(lo, cdf): cdf[i] is the law's mass on lo..lo+i, over the table's points.

        The mass of the points the 2^-60 cut keeps must agree with the
        normaliser to 1e-9, or the table is not built.
        """
        table = self._cdfs.get(alpha)
        if table is not None:
            return table
        mode = _q_geometric_mode(alpha, self.q)
        log_alpha = math.log(alpha)
        log_w_mode = log_q_pochhammer_inf(alpha, self.q) + mode * log_alpha - self.log_qpoch(mode)

        def log_ratio(k):
            # log pmf(k) - log pmf(k-1) = log alpha - log(1 - q^k)
            return log_alpha - np.log(-np.expm1(k * self.log_q))

        right = _log_run(log_ratio, mode + 1, 1)
        left = _log_run(lambda k: -log_ratio(k), mode, -1)
        rel = np.concatenate((left[::-1], [0.0], right))
        cdf = np.cumsum(np.exp(log_w_mode + rel))
        total = cdf[-1]
        if not abs(total - 1.0) <= 1e-9:
            raise ArithmeticError(
                f"q-geometric table for alpha={alpha}, q={self.q} has mass {total}, not 1"
            )
        table = self._cdfs[alpha] = (mode - len(left), (cdf / total).tolist())
        return table


def _log_run(step: Callable[[np.ndarray], np.ndarray], start: int, direction: int):
    """Partial sums of step(k) over k = start, start + direction, ... (k >= 1),
    cut where they fall below log 2^-60.

    The steps of a log-concave weight walked away from its mode decrease, so
    the kept sums are a prefix; they are computed in chunks of doubling size.
    """
    sums = np.empty(0)
    size = _VECTOR_TERMS
    while sums.size == 0 or sums[-1] >= _LOG_TAIL:
        first = start + direction * sums.size
        k = np.arange(first, max(first + direction * size, 0), direction)
        if k.size == 0:
            break
        sums = np.concatenate((sums, (sums[-1] if sums.size else 0.0) + np.cumsum(step(k))))
        size *= 2
    return sums[sums >= _LOG_TAIL]


def _qsampler(q, sampler: Optional[QSampler]) -> QSampler:
    """`sampler` after checking that it is for q, or a fresh one for q."""
    if sampler is None:
        return QSampler(q)
    if sampler.q != float(q):
        raise ValueError(f"sampler is for q = {sampler.q}, not {float(q)}")
    return sampler


def _phi_inverse_mode(q: float, a: int, b, c: int, lo: int, hi: int) -> int:
    """A mode of the inverse-regime weight on [lo, hi], q > 0, in O(1).

    With s = lo + d and y = q^d the ratio phi(s+1)/phi(s) is at least 1
    exactly when y is at least the positive root y* of

        q^E (1-q) y^2 + (A + Q - q^E (C + D)) y + q^E C D - 1,

    E = a-c+2lo+1, A = q^{a-c+lo+1}, Q = q^{lo+1}, C = q^{c-lo} and
    D = q^{b-a-lo} (0 at b = inf), so the weight rises up to d = floor(log_q y*) + 1.
    The walk that starts here is exact from any start; the mode only makes it short.
    """
    qe = q ** (a - c + 2 * lo + 1)
    cc = q ** (c - lo)
    dd = 0.0 if b == INF else q ** (b - a - lo)
    a2 = qe * (1.0 - q)
    b1 = q ** (a - c + lo + 1) + q ** (lo + 1) - qe * (cc + dd)
    c0 = qe * cc * dd - 1.0
    disc = math.sqrt(b1 * b1 - 4.0 * a2 * c0)
    if b1 >= 0:
        den = b1 + disc
        y = -2.0 * c0 / den if den > 0 else 1.0
    else:
        y = (disc - b1) / (2.0 * a2)
    if y >= 1.0:
        return lo
    if y <= 0.0:
        return hi
    return min(hi, lo + math.floor(math.log(y) / math.log(q)) + 1)


def _chop_down(u: float, mode: int, lo, hi, w_mode: float, ratio: Callable[[int], float]) -> int:
    """The point of [lo, hi] whose CDF interval holds u, for a unimodal weight.

    The weight is w_mode at `mode` and w(s+1) = w(s) ratio(s).  The walk
    starts at the mode and steps to whichever unvisited neighbour is
    heavier, so it visits points in decreasing weight and stops after O(sd)
    steps.  Any visiting order gives the exact law; a mode weight that is not
    positive raises `ZeroMassError`.  If rounding leaves u above all the mass
    the walk can reach, the last visited point is returned.
    """
    _check_mass(w_mode, "the weight at its mode")
    acc = w_mode
    left = right = s = mode
    w_left = w_mode / ratio(left - 1) if left > lo else 0.0
    w_right = w_mode * ratio(right) if right < hi else 0.0
    while u > acc:
        if w_right >= w_left:
            if w_right == 0.0:
                break
            right += 1
            s = right
            acc += w_right
            w_right = w_right * ratio(right) if right < hi else 0.0
        else:
            left -= 1
            s = left
            acc += w_left
            w_left = w_left / ratio(left - 1) if left > lo else 0.0
    return s


def sample_q_geometric(alpha: float, q: float, rng, sampler: Optional[QSampler] = None) -> int:
    """Draw from pmf (alpha;q)_inf alpha^n/(q;q)_n; one `rng.random()` a draw.

    With a `QSampler` for q the draw is one bisect into the sampler's CDF
    table for alpha, built on first use.  Without one it is a chop-down walk
    from the mode over weights computed in log space, which costs O(mode)
    for the log (q;q)_n values plus O(sd) steps and cannot underflow.
    """
    if not (0 <= alpha < 1 and 0 <= q < 1):
        raise ValueError("q-geometric needs 0 <= alpha < 1, 0 <= q < 1")
    u = rng.random()
    if alpha == 0:
        return 0
    if sampler is not None:
        lo, cdf = _qsampler(q, sampler).q_geometric_cdf(alpha)
        return lo + bisect_right(cdf, u)
    mode = _q_geometric_mode(alpha, q)
    log_w_mode = log_q_pochhammer_inf(alpha, q)
    if mode:
        log_w_mode += mode * math.log(alpha) - QSampler(q).log_qpoch(mode)
    return _chop_down(
        u, mode, 0, INF, math.exp(log_w_mode), lambda n: alpha / (1.0 - q ** (n + 1))
    )


def _q_geometric_mode(alpha: float, q: float) -> int:
    """The largest n with pmf(n) >= pmf(n-1): pmf(n+1)/pmf(n) = alpha/(1 - q^{n+1})."""
    if alpha <= 1.0 - q:
        return 0
    return math.floor(math.log1p(-alpha) / math.log(q))
