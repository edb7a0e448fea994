"""q-series primitives and the q-deformed Beta-binomial distribution.

All formulas are generic over the scalar type: pass `fractions.Fraction`
values for exact rational arithmetic, or `float` values for fast numerics.
The only operations restricted to floats are the ones that genuinely need
an infinite product, and those raise `ExactModeError` on exact scalars.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

Scalar = Union[Fraction, float, int]

INF = math.inf

# Truncation policy for infinite q-Pochhammer products: stop once the running
# term |a q^i| drops below 2^-60, which keeps the relative error of the
# product under ~2^-50 for |q| < 1.
_POCHHAMMER_TAIL = 2.0 ** -60
# The same policy for the sampling tables: drop support points whose weight is
# below 2^-60 times the modal weight.
_LOG_TAIL = math.log(_POCHHAMMER_TAIL)
# Sums and float sampling tables of at most this many terms or points are
# built in plain Python, longer ones with numpy.  Which builder runs depends on
# the arguments alone (q, alpha, a count), so a scalar draw and a batch read
# the same floats, and a short table costs no numpy import.
_VECTOR_TERMS = 64
# A batch of inverse-regime phi draws evaluates its weights in blocks of at
# most this many (replica, support point) cells: its memory stays flat, and
# each 128 KiB float block stays in cache (blocks of 2^18 cells ran slower).
_BLOCK_CELLS = 1 << 14
# Float q-binomial products are rescaled by 2^512 whenever they fall below 2^-512.
_RESCALE_BITS = 512
_RESCALE = 2.0 ** _RESCALE_BITS
_RESCALE_BELOW = 2.0 ** -_RESCALE_BITS
# Entries kept by each memo on a pure weight (`memoised`).  The memos pay off
# within one sweep of the exact verifier, which reuses a few hundred distinct
# arguments per function, and in float sampling wherever a run repeats its
# parameters (one log (alpha;q)_inf per q-geometric table, say); the bound
# keeps a run whose float arguments never repeat from growing them without
# limit.
MEMO_SIZE = 1024
# Values of q whose shared samplers, each with the log (q;q)_n prefix of its
# q, are kept.
Q_MEMO_SIZE = 8

# Memoise a pure weight on its (hashable) arguments.  The key includes each
# argument's type: Fraction(1, 2) and 0.5 are equal and hash equal, and an
# exact call must not get a float value back, nor a float call a Fraction.
memoised = lru_cache(maxsize=MEMO_SIZE, typed=True)


class _Numpy:
    """numpy, imported on the first attribute read.

    Only array code reads it: the replica axis, the batch draws and the
    float sampling tables and sums of more than `_VECTOR_TERMS` terms.  The
    exact verifier, the Bernoulli samplers and the q-geometric steps at
    moderate q never do, so they run without numpy in the process.  The first read
    copies numpy's names into the instance, so later reads are plain
    attribute lookups.
    """

    def __getattr__(self, name):
        import numpy

        value = getattr(numpy, name)  # may import a submodule, such as numpy.random
        vars(self).update(vars(numpy))
        return value


np = _Numpy()


# Python scalars, which `is_array` answers without looking numpy up: every
# scalar draw checks its counts and exponents, and they are these.
_SCALAR_TYPES = frozenset((int, float, Fraction, type(None)))


def is_array(x) -> bool:
    """isinstance(x, numpy.ndarray), without importing numpy: no array exists
    before numpy is imported."""
    if type(x) in _SCALAR_TYPES:
        return False
    numpy = sys.modules.get("numpy")
    return numpy is not None and isinstance(x, numpy.ndarray)


class ExactModeError(TypeError):
    """An operation that requires floating arithmetic got exact scalars."""


class ZeroMassError(ValueError):
    """A floating weight has no mass to sample from (it underflowed to 0).

    Raised instead of returning a constant draw.
    """


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (Fraction, int)) and not isinstance(x, bool)


def exact_div(num: Scalar, den: Scalar) -> Scalar:
    """num / den, exact for ints: an int when den divides num, else a Fraction."""
    if isinstance(num, int) and isinstance(den, int):
        return num // den if num % den == 0 else Fraction(num, den)
    return num / den


def _finite(b) -> bool:
    """Whether an exponent b (an int, INF, or an int array over replicas) is finite."""
    return is_array(b) or b != INF


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
    # m < 0: reciprocal product over factors 1 - a q^{-i}, i = 1..-m; exact for int q
    p = one
    x = a
    for _ in range(-m):
        x = exact_div(x, q)
        f = 1 - x
        if f == 0:
            raise ZeroDivisionError("vanishing factor in (a;q)_m with m < 0")
        p = exact_div(p, f)
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


@memoised
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
        return float(np.log1p(-x * np.exp(np.arange(terms) * math.log(q))).sum())
    s = 0.0
    while x >= _POCHHAMMER_TAIL:
        s += math.log1p(-x)
        x *= q
    return s


def _log_q_pochhammer(a: float, q: float, n: int) -> float:
    """log (a;q)_n for 0 <= a < 1, 0 <= q < 1 and an int n >= 0; safe when the product underflows."""
    if a == 0:
        return 0.0
    if n > _VECTOR_TERMS:
        return float(np.log1p(-a * q ** np.arange(n)).sum())
    s = 0.0
    for _ in range(n):
        s += math.log1p(-a)
        a *= q
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
    # exact-friendly, and an int for int q (the quotient is a polynomial in q)
    k = min(k, n - k)
    num = q * 0 + 1
    den = num
    floating = isinstance(q, float)
    shift = 0
    for i in range(1, k + 1):
        num *= 1 - qpow(q, n - k + i)
        den *= 1 - qpow(q, i)
        if floating:
            # a float product that falls below 2^-512 is scaled up by 2^512, which
            # is exact: neither product underflows, and where neither would have
            # the quotient is the plain one, bit for bit
            if abs(num) < _RESCALE_BELOW:
                num *= _RESCALE
                shift -= _RESCALE_BITS
            if abs(den) < _RESCALE_BELOW:
                den *= _RESCALE
                shift += _RESCALE_BITS
    if not floating:
        return exact_div(num, den)
    try:
        return math.ldexp(num / den, shift)
    except OverflowError:
        raise OverflowError(f"q_binomial({n}, {k}) at q = {q} exceeds the float range") from None


def q_multinomial(n: int, m: int, k: int, q: Scalar) -> Scalar:
    """(q;q)_n / ((q;q)_k (q;q)_m (q;q)_{n-m-k})."""
    return q_binomial(n, m, q) * q_binomial(n - m, k, q)


def qbinom_switch_identity(q, s, ell, R, b, h) -> bool:
    """The q-binomial identity behind switching the two pushing steps (exact q)."""
    qi = 1 / q
    lhs = Fraction(0)
    rhs = Fraction(0)
    for y in range(s + 1):
        common = q_binomial(s, y, qi) * q_pochhammer(q ** ell, qi, y) * q_pochhammer(
            q ** R, qi, s - y
        )
        lhs += common * q ** (ell * (s - y)) * q_pochhammer(q ** (b - ell - h + s), qi, s - y)
        rhs += common * q ** (R * y) * q_pochhammer(q ** (b - h + 1), q, s - y)
    return lhs == rhs


def qbinom_triple_sum(q, A, B, C, ell, r) -> Fraction:
    """The triple q-multinomial sum that evaluates to 1 (exact q).

    The ratio (q^{C+t}; q^-1)_ell / (q^{C+t}; q^-1)_{ell-x} is expanded as a
    product of its surviving factors, since both sides can vanish separately.
    """
    qi = 1 / q
    total = Fraction(0)
    for t in range(B + 1):
        for x in range(ell + 1):
            ratio = Fraction(1)
            for i in range(ell - x, ell):
                ratio *= 1 - q ** (C + t - i)
            for y in range(ell - x + 1):
                term = (
                    q_multinomial(ell, x, y, qi)
                    * q_binomial(B, t, qi)
                    * q_pochhammer(q ** t, qi, y)
                    * q_pochhammer(q ** (r + ell - x), qi, t)
                    * q_pochhammer(q ** (r + ell - t - x), qi, ell - x - y)
                    * q_pochhammer(q, q, r)
                    / q_pochhammer(q, q, r + ell - x)
                    * q_pochhammer(q, q, A)
                    / q_pochhammer(q, q, A + B)
                    * q_pochhammer(q ** (A + B - r), qi, B - t + ell - x)
                    * ratio
                    * q_pochhammer(q ** C, qi, ell - x - y)
                    / q_pochhammer(q ** (B + C), qi, ell)
                    * q ** (t * (ell - x - y) + (r + ell - x) * (B - t) + (A + B - r) * x)
                )
                total += term
    return total


def q_geometric_pmf(alpha: Scalar, q: Scalar, n: int) -> float:
    """pmf (alpha;q)_inf alpha^n / (q;q)_n of the q-geometric distribution.

    Where (q;q)_n underflows to 0.0 or is too small for a finite quotient, or
    the numerator underflows at alpha > 0, the pmf is taken in log form, with
    log (q;q)_n from the prefix of the shared sampler of q: at q = 0.999, n =
    1000, alpha = 0.3 it is about 2.4e-130.  Elsewhere it is the plain quotient.
    """
    den = q_pochhammer(q, q, n)
    if den:
        p = q_pochhammer_inf(alpha, q) * alpha ** n / den
        if p != INF and (p or not alpha):
            return p
    log_alpha = math.log(alpha) if alpha else -INF
    return math.exp(log_q_pochhammer_inf(alpha, q) + n * log_alpha - _shared_sampler(q).log_qpoch(n))


# ---------------------------------------------------------------------------
# q-deformed Beta-binomial distribution
# ---------------------------------------------------------------------------

class PhiParams(NamedTuple):
    """Parameters of the q-deformed Beta-binomial weight.

    Two accepted regimes:

    * direct:  0 <= q < 1 and 0 <= eta <= xi < 1, any count y (may be INF);
    * inverse: base q^{-1} with xi = q^a, eta = q^b for integer exponents
      0 <= a <= b and y <= b.  Pass b = INF for eta = 0.  Exponents are kept
      as integers (never pre-exponentiated) so that b = INF stays exact.
      Floating q also takes int64 arrays a, b and y, one entry per replica,
      for a batch of `phi_sample` draws.

    A named tuple, since one is built per draw: it builds in a quarter of
    the time of a frozen dataclass.
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
        return PhiParams(q, y, xi, eta)

    @staticmethod
    def inverse(q: Scalar, a: int, b, y: int) -> "PhiParams":
        if b is None:
            b = INF
        if not (0 <= q < 1):
            raise ValueError("inverse regime needs 0 <= q < 1")
        if is_array(y) or is_array(a):
            bad = np.any((a < 0) | (a > b) | (y > b))
        else:
            bad = a < 0 or a > b or y > b
        if bad:
            raise ValueError("inverse regime needs 0 <= a <= b and y <= b")
        return PhiParams(q, y, None, None, a, b)  # positional: a third faster than by keyword

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
    if not p.is_inverse:
        return _phi_direct_weight(p.q, p.xi, p.eta, p.y, s)
    # An exact weight with finite b skips the outer memo: its numerator has a
    # memo of its own and its normaliser is q_binomial's, so exact q-binomial
    # calls stay visible to the per-layer probes of `perfbench/`, which find
    # no calls to record once a warm memo answers for them.
    exact_finite = is_exact(p.q) and p.b != INF
    weight = _phi_inverse_weight.__wrapped__ if exact_finite else _phi_inverse_weight
    return weight(p.q, p.a, p.b, p.y, s)


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
    """phi_{q^{-1}, q^a, q^b}(s | c) = q^{s d} [c, s] [b - c, d] / [b, a], d = a - c + s.

    At b = inf the last two factors are (q;q)_a / (q;q)_d.  Zero outside the
    support s in [max(0, c-a), min(c, b-a)].  At q = 0 the distribution is the
    point mass at max(c-a, 0).  Floating q uses the closed form of
    `QSampler.log_phi_inverse`.
    """
    zero = q * 0
    d = a - c + s
    if s < 0 or s > c or d < 0 or (b != INF and s > b - a):
        return zero
    if q == 0:
        return zero + 1 if s == max(c - a, 0) else zero
    if isinstance(q, float):
        return math.exp(_shared_sampler(q).log_phi_inverse(a, b, c, s))
    if b == INF:
        top = qpow(q, s * d) * q_binomial(c, s, q) * q_pochhammer(q, q, a)
        return exact_div(top, q_pochhammer(q, q, d))
    return exact_div(_phi_inverse_numerator(q, a, b, c, s), q_binomial(b, a, q))


@memoised
def _phi_inverse_numerator(q, a, b, c, s):
    """q^{s d} [c, s] [b - c, d], the weight times [b, a], on the support (exact q, finite b)."""
    d = a - c + s
    return qpow(q, s * d) * q_binomial(c, s, q) * q_binomial(b - c, d, q)


def _phi_inverse_ratio(q, a, b, c, r):
    """phi(r+1)/phi(r) for the inverse-regime weight, positive on the support."""
    one = q * 0 + 1
    # every exponent is finite and positive on the support, so q ** e is qpow(q, e)
    num = one if b == INF else 1 - q ** (b - a - r)
    num = num * (1 - q ** (c - r))
    den = (1 - q ** (a - c + r + 1)) * (1 - q ** (r + 1))
    return q ** (a + 2 * r + 1 - c) * num / den


def phi_sample(p: PhiParams, rng):
    """Draw from the weight; floating realization, one `rng.random()` a draw.

    Inverse regime: a chop-down walk from the mode over the closed-form
    weights, so a draw costs O(1) plus O(1) per visited support point, however
    large the count and the exponents (as in the scaling experiments); the
    log (q;q)_n values and the mode of each (a, b, count) come from the
    shared sampler of q.  Direct regime: the same walk
    from the mode, whose weight is taken in log space (`_phi_direct_mode`).
    A weight with no mass left in floating point raises `ZeroMassError`.

    Inverse-regime parameters with int64 arrays (one entry per replica) take
    one `rng.random(size)` from a numpy Generator and return an int64 array:
    each draw is the inverse CDF of its weight over a window around the mode
    (`QSampler.draw_phi_inverse_batch`).
    """
    if is_array(p.y) or is_array(p.a):
        return _phi_sample_batch(p, rng)
    u = rng.random()
    q, y, xi, eta, a, b = p
    if a is not None:
        # phi_support(p), as bounds
        lo = y - a if y > a else 0
        hi = y if b == INF or y <= b - a else b - a
        if hi < lo:
            raise ValueError("empty support")
        if q == 0 or lo == hi:
            return lo
        return _shared_sampler(q).draw_phi_inverse(a, b, y, lo, hi, u)
    q, xi, eta = float(q), float(xi), float(eta)
    if xi == 0:
        return 0
    mode, w_mode = _phi_direct_mode(q, xi, eta, y)
    return _chop_down(u, mode, 0, y, w_mode, partial(_phi_direct_ratio, q, xi, eta, y))


def phi_inverse_draw(q, a: int, b, y: int, rng):
    """`phi_sample(PhiParams.inverse(q, a, b, y), rng)`, b an int or INF; where the
    support is one point (ints a, y), it takes its uniform and returns it, making neither call."""
    if not (type(y) is type(a) is int and 0 <= q < 1 and 0 <= a <= b and y <= b):
        # arrays, numpy ints, bad parameters
        return phi_sample(PhiParams.inverse(q, a, b, y), rng)
    lo = y - a if y > a else 0
    if lo == (y if b == INF or y <= b - a else b - a):
        rng.random()
        return lo
    return phi_sample(PhiParams(q, y, None, None, a, b), rng)


def _phi_direct_ratio(q: float, xi: float, eta: float, y, s):
    """phi(s+1)/phi(s) of the direct-regime weight, for 0 <= s < y (an int or an int array):
    xi (1 - (eta/xi) q^s) (1 - q^{y-s}) / ((1 - xi q^{y-s-1}) (1 - q^{s+1})); q^inf = 0."""
    return (xi - eta * q ** s) * (1.0 - q ** (y - s)) / ((1.0 - xi * q ** (y - s - 1)) * (1.0 - q ** (s + 1)))


@memoised
def _phi_direct_mode(q: float, xi: float, eta: float, y) -> Tuple[int, float]:
    """The mode of the direct-regime weight (xi > 0) and the weight there.

    The mode is the first s with ratio(s) < 1, or y.  The ratio crosses 1 at
    most once, from above, so the weight is unimodal and a bisection finds
    the crossing; at y = inf the ratio tends to xi < 1, so doubling finds an
    upper end.  The weight comes from log phi(0) = log (xi;q)_y - log (eta;q)_y
    plus the log ratios below the mode, so it underflows only if the modal
    weight itself does.
    """
    def ratio(s):
        return _phi_direct_ratio(q, xi, eta, y, s)

    lo = 0
    if ratio(0) >= 1.0:
        lo, hi = 1, y
        if y == INF:
            hi = 2
            while ratio(hi - 1) >= 1.0:
                lo, hi = hi, 2 * hi
        while lo < hi:  # ratio(s) >= 1 for s < lo, and the crossing is at most hi
            mid = (lo + hi) // 2
            if ratio(mid) >= 1.0:
                lo = mid + 1
            else:
                hi = mid
    if y == INF:
        log_w = log_q_pochhammer_inf(xi, q) - log_q_pochhammer_inf(eta, q)
    else:
        log_w = _log_q_pochhammer(xi, q, y) - _log_q_pochhammer(eta, q, y)
    log_w += math.fsum(math.log(ratio(s)) for s in range(lo))
    return lo, math.exp(log_w)


def _phi_sample_batch(p: PhiParams, rng) -> np.ndarray:
    if not p.is_inverse:
        raise TypeError("phi_sample takes replica arrays in the inverse regime only")
    a, c = np.broadcast_arrays(p.a, p.y)
    lo = np.maximum(0, c - a)
    hi = np.minimum(c, p.b - a) if _finite(p.b) else c
    if np.any(hi < lo):
        raise ValueError("empty support")
    u = rng.random(c.shape)
    if p.q == 0 or np.array_equal(lo, hi):  # every support is the one point lo
        return lo
    return _shared_sampler(p.q).draw_phi_inverse_batch(a, p.b, c, lo, hi, u)


def _check_mass(w: float, what) -> None:
    if not w > 0.0:
        raise ZeroMassError(f"the starting weight of {what} is {w} in floating point")


# ---------------------------------------------------------------------------
# floating-mode sampling tables
# ---------------------------------------------------------------------------

class _LogQPochPrefix:
    """log (q;q)_n for n = 0, 1, ..., cap, for one q, grown on demand.

    Past cap, log(1 - q^n) > -2^-60 and log (q;q)_n stops changing.  A
    prefix of at most `_VECTOR_TERMS` terms (cap <= 64, so q up to about
    0.52) is one plain-Python cumulative sum, built on the first read past
    n = 0.  A longer one grows in numpy blocks with fixed ends 64, 128, 256,
    ... and cap, each a cumulative sum from the last value of the block
    before.  Either way every value is a function of q and n alone, whatever
    calls grew the prefix and in what order.

    `table` holds the floats in the one form their builder makes: a list for
    a short prefix, a read-only numpy array for a long one once it has grown
    past n = 0 (every draw at q reads it).  Scalar reads (`at`) index
    it; reads over a replica axis view it as an array.  The constructor
    makes no array, so a short prefix never loads numpy.
    """

    def __init__(self, q: float):
        self.log_q = math.log(q) if q > 0 else -INF
        self.cap = math.ceil(_LOG_TAIL / self.log_q) if q > 0 else 0
        self.table: Union[List[float], np.ndarray] = [0.0]

    def grow(self, n) -> None:
        """Grow the prefix to min(n, cap): a short one to cap, a long one on to
        the end of the block that holds min(n, cap)."""
        n = min(n, self.cap)
        if self.cap <= _VECTOR_TERMS:
            if n >= len(self.table):
                # the numpy blocks' sum, 0.0 + cumsum(log(1 - q^k)), term by term
                total = 0.0
                for k in range(1, self.cap + 1):
                    total += math.log(-math.expm1(k * self.log_q))
                    self.table.append(total)
            return
        blocks = [np.asarray(self.table)]
        end = blocks[0].size - 1
        if n <= end:
            return
        while end < n:
            stop = min(max(2 * end, _VECTOR_TERMS), self.cap)
            k = np.arange(end + 1, stop + 1)
            blocks.append(blocks[-1][-1] + np.cumsum(np.log(-np.expm1(k * self.log_q))))
            end = stop
        table = self.table = np.concatenate(blocks)
        table.flags.writeable = False

    def at(self, n) -> float:
        """log (q;q)_n for an integer n >= 0 or n = INF."""
        n = min(n, self.cap)
        if n >= len(self.table):
            self.grow(n)
        return float(self.table[n])

    def upto(self, stop: int) -> np.ndarray:
        """log (q;q)_n for n = 0..stop-1 as a read-only array (a copy for a
        short prefix), padded with its last value past cap."""
        self.grow(stop - 1)
        array = self.table
        if type(array) is list:
            array = np.array(array)
            array.flags.writeable = False
        if stop <= array.size:
            return array[:stop]
        return np.concatenate((array, np.full(stop - array.size, array[-1])))


class QSampler:
    """Floating-mode sampling tables for one q, each built on first use.

    * The prefix log (q;q)_n, n = 0, 1, ..., grown on demand
      (`_LogQPochPrefix`); with it every inverse-regime phi weight costs
      O(1) (`log_phi_inverse`).
    * Per q-geometric parameter alpha, one CDF table over the support
      points whose weight is at least 2^-60 times the modal weight, built
      once from the normaliser log (alpha;q)_inf (itself memoised), so a
      draw is one bisect.  A table of at most `_VECTOR_TERMS` points is
      built as a list in plain Python, a longer one as a read-only numpy
      array, and it is kept in that one form: a scalar draw bisects it and
      a batch searches it, whichever form it has, so both read the same
      floats.
    * Per inverse-regime (a, b, count), the mode and the weight there, where
      a `phi_sample` walk starts (`draw_phi_inverse`).

    The last two keep up to `MEMO_SIZE` entries each, after which each
    starts again from empty.  Every float draw reads the one sampler of q
    that `_shared_sampler` keeps.
    """

    def __init__(self, q):
        q = float(q)
        if not 0 <= q < 1:
            raise ValueError("QSampler needs 0 <= q < 1")
        self.q = q
        self._prefix = _LogQPochPrefix(q)
        self.log_q = self._prefix.log_q
        self._cdfs: Dict[float, Tuple[int, Union[List[float], np.ndarray]]] = {}
        self._phi_starts: Dict[Tuple[int, float, int], Tuple[int, float]] = {}

    def log_qpoch(self, n) -> float:
        """log (q;q)_n for an integer n >= 0 or n = INF."""
        return self._prefix.at(n)

    def prefix_reader(self) -> Callable:
        """A reader of log (q;q)_n over int arrays n >= 0, for one batch.

        It views the prefix as an array once, so a short (list) prefix is
        converted once per batch, not once per read.  A read is one clamp at
        cap, past which log (q;q)_n stays put, and one index; a read past the
        end of the prefix grows it, views it again and reads again.
        """
        prefix = self._prefix
        table = np.asarray(prefix.table)

        def read(n):
            nonlocal table
            n = np.minimum(n, prefix.cap)
            try:
                return table[n]
            except IndexError:
                prefix.grow(int(np.max(n)))
                table = np.asarray(prefix.table)
                return table[n]

        return read

    def log_phi_inverse(self, a, b, c, s, lp=None):
        """log phi_{q^{-1}, q^a, q^b}(s | c) at a support point s, q > 0.

        The closed form is

            q^{s(a-c+s)} (q;q)_a (q;q)_c (q;q)_{b-a} (q;q)_{b-c}
            / [(q;q)_b (q;q)_s (q;q)_{c-s} (q;q)_{a-c+s} (q;q)_{b-a-s}],

        whose four b factors cancel at b = inf.  Integers give a float; int
        arrays, broadcast against each other, give an array (b = INF or an
        array).  A batch passes its `prefix_reader` as lp.
        """
        if lp is None:
            lp = self.prefix_reader() if is_array(s) else self.log_qpoch
        d = a - c + s
        # the terms free of s are summed apart: over a replica axis they are
        # one value per replica
        v = s * d * self.log_q - lp(s) - lp(c - s) - lp(d) + (lp(a) + lp(c))
        if _finite(b):
            v = v + (lp(b - a) + lp(b - c) - lp(b)) - lp(b - a - s)
        return v

    def draw_phi_inverse(self, a: int, b, c: int, lo: int, hi: int, u: float) -> int:
        """The inverse-regime draw for uniform u on the support [lo, hi], q > 0.

        The walk starts at the mode.  The mode and its weight are kept per
        (a, b, c), up to `MEMO_SIZE` of them: the small counts of the dynamics
        repeat from step to step."""
        q = self.q
        start = self._phi_starts.get((a, b, c))
        if start is None:
            if len(self._phi_starts) >= MEMO_SIZE:
                self._phi_starts.clear()
            mode = _phi_inverse_mode(q, a, b, c, lo, hi)
            start = self._phi_starts[a, b, c] = mode, math.exp(self.log_phi_inverse(a, b, c, mode))
        mode, w_mode = start
        return _chop_down(u, mode, lo, hi, w_mode, lambda r: _phi_inverse_ratio(q, a, b, c, r))

    def draw_phi_inverse_batch(self, a, b, c, lo, hi, u: np.ndarray) -> np.ndarray:
        """Inverse-regime draws over a replica axis: uniform u[r] on [lo[r], hi[r]], q > 0.

        Each draw is the inverse CDF of its weight over a window around the
        mode, in blocks of at most `_BLOCK_CELLS` window points.  The log
        weight is concave with second differences at most 2 log q, so it
        falls below 2^-60 of the modal weight within `reach` points of the
        mode; the window ends are checked against that cut and widened where
        they are not below it, so nothing above the cut is left out.
        """
        lp = self.prefix_reader()
        mode = _phi_inverse_modes(self.q, a, b, c, lo, hi)
        log_w_mode = self.log_phi_inverse(a, b, c, mode, lp)
        _check_mass(np.exp(log_w_mode).min(initial=1.0), "the weight at its mode")
        reach = math.isqrt(math.ceil(_LOG_TAIL / self.log_q)) + 2
        left = self._window_edge(a, b, c, mode, lo, log_w_mode, -reach, lp)
        right = self._window_edge(a, b, c, mode, hi, log_w_mode, reach, lp)
        width = int((right - left).max(initial=0)) + 1
        rows = max(1, _BLOCK_CELLS // width)
        out = np.empty_like(mode)
        for start in range(0, mode.size, rows):
            blk = slice(start, start + rows)

            def rows_of(x):
                return x[blk, None] if isinstance(x, np.ndarray) else x

            last = rows_of(right - left)
            # points past a row's right end repeat it; their CDF runs on above
            # the row's total, so no uniform lands on them
            s = rows_of(left) + np.minimum(np.arange(width), last)
            cdf = self.log_phi_inverse(rows_of(a), rows_of(b), rows_of(c), s, lp)
            cdf -= rows_of(log_w_mode)
            np.exp(cdf, out=cdf)
            np.cumsum(cdf, axis=1, out=cdf)
            total = np.take_along_axis(cdf, last, axis=1)
            out[blk] = left[blk] + (cdf < rows_of(u) * total).sum(axis=1)
        return out

    def _window_edge(self, a, b, c, mode, edge, log_w_mode, reach: int, lp) -> np.ndarray:
        """mode + reach, moved back to the support edge where it passes it and
        widened until its weight is below 2^-60 of the modal weight."""
        clamp = np.minimum if reach > 0 else np.maximum
        reach = np.full(mode.shape, reach)
        while True:
            end = clamp(mode + reach, edge)
            short = (end != edge) & (self.log_phi_inverse(a, b, c, end, lp) - log_w_mode >= _LOG_TAIL)
            if not short.any():
                return end
            reach[short] *= 2

    def q_geometric_cdf(self, alpha: float) -> Tuple[int, np.ndarray]:
        """(lo, cdf): cdf[i] is the law's mass on lo..lo+i, over the table's points.

        The mass of the points the 2^-60 cut keeps must agree with the
        normaliser to 1e-9, or the table is not built.
        """
        lo, cdf = self._q_geometric_table(alpha)
        return lo, np.asarray(cdf)

    def _q_geometric_table(self, alpha: float) -> Tuple[int, Union[List[float], np.ndarray]]:
        """(lo, cdf) of alpha as it is kept, built on first use: a list in
        plain Python if it has at most `_VECTOR_TERMS` points, else a
        read-only numpy array."""
        table = self._cdfs.get(alpha)
        if table is not None:
            return table
        mode = _q_geometric_mode(alpha, self.q)
        log_alpha = math.log(alpha)
        lo, cdf = (self._short_q_geometric_cdf(alpha, mode, log_alpha)
                   or self._long_q_geometric_cdf(alpha, mode, log_alpha))
        total = cdf[-1]
        if not abs(total - 1.0) <= 1e-9:
            raise ArithmeticError(
                f"q-geometric table for alpha={alpha}, q={self.q} has mass {total}, not 1"
            )
        if len(self._cdfs) >= MEMO_SIZE:
            self._cdfs.clear()
        if type(cdf) is list:
            cdf = [c / total for c in cdf]
        else:
            cdf /= total
            cdf.flags.writeable = False
        table = self._cdfs[alpha] = lo, cdf
        return table

    def _log_w_mode(self, alpha: float, mode: int, log_alpha: float, lp_mode: float) -> float:
        """log pmf(mode) of the q-geometric law of alpha."""
        return log_q_pochhammer_inf(alpha, self.q) + mode * log_alpha - lp_mode

    def _short_q_geometric_cdf(self, alpha: float, mode: int, log_alpha: float):
        """(lo, the unnormalised CDF as a list) if the table has at most
        `_VECTOR_TERMS` points, else None; plain Python.

        The log weights fall away from the mode, so the table is the run of
        points around it down to the cut.  Each log weight is the float that
        `_long_q_geometric_cdf` computes.
        """
        lp = self._prefix.at
        lp_mode = lp(mode)

        def rel(n):  # log pmf(n) - log pmf(mode)
            return (n - mode) * log_alpha - lp(n) + lp_mode

        if rel(mode + _VECTOR_TERMS) >= _LOG_TAIL:  # 65 points from the mode up are kept
            return None
        hi = lo = mode
        while rel(hi + 1) >= _LOG_TAIL:
            hi += 1
        while lo and rel(lo - 1) >= _LOG_TAIL:
            lo -= 1
            if hi - lo >= _VECTOR_TERMS:
                return None
        log_w_mode = self._log_w_mode(alpha, mode, log_alpha, lp_mode)
        return lo, list(accumulate(math.exp(log_w_mode + rel(n)) for n in range(lo, hi + 1)))

    def _long_q_geometric_cdf(self, alpha: float, mode: int, log_alpha: float):
        """(lo, the unnormalised CDF as a numpy array), over the points at or
        above the cut among 0..last, where last is past the cut."""
        prefix = self._prefix
        last = 2 * mode + _VECTOR_TERMS - 1
        lp = prefix.upto(last + 1)
        lp_mode = lp[mode]
        # log pmf(n) - log pmf(mode) at the last point
        rel_last = (last - mode) * log_alpha - lp[last] + lp_mode
        if rel_last >= _LOG_TAIL:
            # past the mode the log ratios log alpha - log(1 - q^k) fall with k,
            # so the next one bounds all later ones: this many more points reach the cut
            step = log_alpha - math.log(-math.expm1((last + 1) * self.log_q))
            last += math.ceil((rel_last - _LOG_TAIL) / -step) + 1
            lp = prefix.upto(last + 1)
        rel_w = (np.arange(last + 1) - mode) * log_alpha - lp + lp_mode
        log_w_mode = self._log_w_mode(alpha, mode, log_alpha, lp_mode)
        kept = np.flatnonzero(rel_w >= _LOG_TAIL)
        lo, hi = int(kept[0]), int(kept[-1])
        return lo, np.cumsum(np.exp(log_w_mode + rel_w[lo:hi + 1]))


# The shared samplers, one per float q: a plain dict, so that a draw finds
# its sampler with one subscript.
_SAMPLERS: Dict[float, QSampler] = {}


def _shared_sampler(q) -> QSampler:
    """The `QSampler` of float(q), which every float draw and float phi weight
    reads, made on first use; past `Q_MEMO_SIZE` values of q the one made first
    is dropped."""
    try:
        return _SAMPLERS[q]
    except KeyError:  # a new q, or a Fraction whose float is a key
        q = float(q)
    if q not in _SAMPLERS:
        new = QSampler(q)  # raises unless 0 <= q < 1
        if len(_SAMPLERS) >= Q_MEMO_SIZE:
            del _SAMPLERS[next(iter(_SAMPLERS))]
        _SAMPLERS[q] = new
    return _SAMPLERS[q]


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


def _phi_inverse_modes(q: float, a, b, c, lo, hi) -> np.ndarray:
    """`_phi_inverse_mode` over int arrays a, c, lo, hi and b (an array or INF)."""
    qe = q ** (a - c + 2 * lo + 1)
    cc = q ** (c - lo)
    dd = q ** (b - a - lo) if _finite(b) else 0.0
    a2 = qe * (1.0 - q)
    b1 = q ** (a - c + lo + 1) + q ** (lo + 1) - qe * (cc + dd)
    c0 = qe * cc * dd - 1.0
    disc = np.sqrt(b1 * b1 - 4.0 * a2 * c0)
    with np.errstate(divide="ignore", invalid="ignore"):
        den = b1 + disc
        y = np.where(b1 >= 0, np.where(den > 0, -2.0 * c0 / den, 1.0), (disc - b1) / (2.0 * a2))
    rise = np.floor(np.log(np.clip(y, np.finfo(float).tiny, 1.0)) / math.log(q)).astype(np.int64)
    return np.where(y >= 1.0, lo, np.where(y <= 0.0, hi, np.minimum(hi, lo + rise + 1)))


def _chop_down(u: float, mode: int, lo, hi, w_mode: float, ratio: Callable[[int], float]) -> int:
    """The point of [lo, hi] whose CDF interval holds u, for a unimodal weight.

    The weight is w_mode at `mode` and w(s+1) = w(s) ratio(s).  The walk
    starts at the mode and steps to whichever unvisited neighbour is
    heavier, so it visits points in decreasing weight and stops after O(sd)
    steps.  Any visiting order gives the exact law; a mode weight that is not
    positive raises `ZeroMassError`.  If rounding leaves u above all the mass
    the walk can reach, the last visited point is returned.
    """
    if u <= w_mode and w_mode > 0.0:
        return mode
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


def check_step_params(pars, a, alpha: bool) -> None:
    """Raise ValueError unless 0 <= par a_j for each step parameter in `pars` and each
    level parameter a_j, and par a_j < 1 if `alpha` (q-geometric input)."""
    name = "alpha" if alpha else "beta"
    for par in pars:
        for aj in a:
            if not (0 <= par * aj < 1 if alpha else 0 <= par * aj):
                raise ValueError(f"need 0 <= {name} a_j{' < 1' if alpha else ''}, "
                                 f"got {name} = {par}, a_j = {aj}")


def sample_q_geometric(alpha: float, q: float, rng, size: Optional[int] = None):
    """Draw from pmf (alpha;q)_inf alpha^n/(q;q)_n; one `rng.random()` a draw.

    A draw is one bisect into the CDF table for alpha of the shared sampler
    of q, built on first use and kept in one form (a list, or a numpy array
    past `_VECTOR_TERMS` points).  The
    table keeps every point above 2^-60 of the modal weight, about
    41.6 / (1 - alpha) of them past the mode, so alpha near 1 costs memory:
    at q = 0.5, alpha = 1 - 1e-5 builds about 4.2M points and keeps 33 MB
    (8 bytes a point), and the build peaks about 160 MB above that start.

    With `size`, `rng` is a numpy Generator and the result is an int64 array
    of `size` draws, the same table bisect for each of `rng.random(size)`.
    """
    if not (0 <= alpha < 1 and 0 <= q < 1):
        raise ValueError("q-geometric needs 0 <= alpha < 1, 0 <= q < 1")
    if size is not None:
        u = rng.random(size)
        if alpha == 0:
            return np.zeros(size, dtype=np.int64)
        lo, cdf = _shared_sampler(q)._q_geometric_table(alpha)
        return lo + np.searchsorted(cdf, u, side="right")
    u = rng.random()
    if alpha == 0:
        return 0
    lo, cdf = _shared_sampler(q)._q_geometric_table(alpha)
    return lo + bisect_right(cdf, u)


def _q_geometric_mode(alpha: float, q: float) -> int:
    """The largest n with pmf(n) >= pmf(n-1): pmf(n+1)/pmf(n) = alpha/(1 - q^{n+1})."""
    if alpha <= 1.0 - q:
        return 0
    return math.floor(math.log1p(-alpha) / math.log(q))
