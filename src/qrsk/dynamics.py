"""The multivariate dynamics on interlacing arrays.

Five families are implemented, each both as an exact conditional-probability
evaluator and as a sampler sharing the same rule tables:

* row/column insertion driven by Bernoulli input (dual-parameter kinds),
* row/column insertion driven by q-geometric input (usual-parameter kinds),
* push-block dynamics (dual exact; usual in floating mode).

The insertion evaluators enumerate whatever hidden randomness (independent
input, island stay choices, split variables, voluntary/push/fund
decompositions) is consistent with the requested transition and sum its
probabilities, so samplers and evaluators can be tested against each other.
The push-block sampler and evaluator share one chain recursion over the
parts of the new level.

The classical insertion steps (deterministic propagation with pull/push
operations) are also provided; the randomized kinds degenerate to them at
q = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .gt import (
    InterlacingArray,
    Signature,
    interlaces_h,
    interlaces_v,
    part,
    signatures_between,
    weight,
)
from .qnum import (
    INF,
    PhiParams,
    QSampler,
    ZeroMassError,
    phi_sample,
    phi_weight,
    q_binomial,
    q_pochhammer,
    q_pochhammer_inf,
    qpow,
    sample_q_geometric,
)
from .whittaker import phi_coef, psi, psi_prime

ROW_ALPHA = "RowAlpha"
COL_ALPHA = "ColAlpha"
ROW_BETA = "RowBeta"
COL_BETA = "ColBeta"
PUSH_BLOCK_ALPHA = "PushBlockAlpha"
PUSH_BLOCK_BETA = "PushBlockBeta"

RSK_KINDS = (ROW_ALPHA, COL_ALPHA, ROW_BETA, COL_BETA)
ALPHA_KINDS = (ROW_ALPHA, COL_ALPHA, PUSH_BLOCK_ALPHA)
BETA_KINDS = (ROW_BETA, COL_BETA, PUSH_BLOCK_BETA)


@dataclass(frozen=True)
class DynamicsSpec:
    kind: str
    q: object
    step_param: object          # alpha or beta, one discrete time step
    a: Tuple[object, ...]       # level parameters a_1..a_N

    def __post_init__(self):
        if self.kind not in ALPHA_KINDS + BETA_KINDS:
            raise ValueError(f"unknown dynamics kind {self.kind!r}")
        if not 0 <= self.q < 1:
            raise ValueError(f"need 0 <= q < 1, got q = {self.q}")
        pars = self.step_param if isinstance(self.step_param, (list, tuple)) else [self.step_param]
        if self.kind in ALPHA_KINDS and any(par * aj >= 1 for par in pars for aj in self.a):
            raise ValueError(f"need alpha a_j < 1, got alpha = {self.step_param}, a = {self.a}")

    @cached_property
    def sampler(self) -> QSampler:
        """Floating-mode sampling tables at this q, shared by every step drawn with this spec."""
        return QSampler(self.q)


@dataclass(frozen=True)
class LevelUpdateContext:
    """The data conditioning one level update: old level j, move at level j-1."""

    lam_bar: Signature
    nu_bar: Signature
    lam: Signature

    def __post_init__(self):
        j = len(self.lam)
        if len(self.lam_bar) != j - 1 or len(self.nu_bar) != j - 1:
            raise ValueError("lower level must be one shorter than the upper")
        if not interlaces_h(self.lam_bar, self.lam):
            raise ValueError("lam_bar must interlace below lam")

    @property
    def j(self) -> int:
        return len(self.lam)


def _pt(sig: Sequence[int], i: int):
    """1-based part with the +infinity convention at index 0."""
    return INF if i == 0 else part(sig, i)


# ---------------------------------------------------------------------------
# (beta) row insertion: islands of moved particles
# ---------------------------------------------------------------------------

def _f_factor(i, nu_bar, lam, q):
    num = 1 - qpow(q, part(lam, i) - part(nu_bar, i) + 1)
    den = 1 - qpow(q, _pt(nu_bar, i - 1) - part(nu_bar, i) + 1)
    return num / den


def _g_factor(i, nu_bar, lam, q):
    return 1 - qpow(q, part(lam, i) - part(nu_bar, i) + 1)


def _islands(c: Sequence[int]) -> List[Tuple[int, int]]:
    """Maximal runs [k, m] of indices with c_i = 1 (1-based)."""
    runs = []
    i = 1
    n = len(c)
    while i <= n:
        if c[i - 1] == 1:
            k = i
            while i <= n and c[i - 1] == 1:
                i += 1
            runs.append((k, i - 1))
        else:
            i += 1
    return runs


def _island_stay_factor(k, m, s, nu_bar, lam, q):
    """Probability that lam_s is the particle of island(k, m) chosen not to move."""
    if s == k:
        return _f_factor(k, nu_bar, lam, q)
    w = 1 - _f_factor(k, nu_bar, lam, q)
    for i in range(k + 1, s):
        w *= 1 - _g_factor(i, nu_bar, lam, q)
    if s <= m:
        w *= _g_factor(s, nu_bar, lam, q)
    return w


def row_beta_prob(ctx: LevelUpdateContext, nu: Signature, beta, a_j, q):
    """Conditional probability of lam -> nu under the Bernoulli row insertion."""
    lam_bar, nu_bar, lam = ctx.lam_bar, ctx.nu_bar, ctx.lam
    j = ctx.j
    zero = q * 0
    c = tuple(nu_bar[i] - lam_bar[i] for i in range(j - 1))
    if any(x not in (0, 1) for x in c) or not interlaces_v(lam_bar, nu_bar):
        raise ValueError("lower transition is not a Bernoulli move")
    if len(nu) != j or not interlaces_v(lam, nu) or not interlaces_h(nu_bar, nu):
        return zero
    mv = tuple(nu[i] - lam[i] for i in range(j))
    islands = _islands(c)
    covered = set()
    for (k, m) in islands:
        covered.update(range(k, m + 2))
    p_move = beta * a_j / (1 + beta * a_j)
    total = zero
    for vj in (0, 1):
        ok = True
        for i in range(1, j + 1):
            if i not in covered and mv[i - 1] != (vj if i == 1 else 0):
                ok = False
                break
        if not ok:
            continue
        w = p_move if vj == 1 else 1 - p_move
        for (k, m) in islands:
            idx = list(range(k, m + 2))
            if vj == 1 and k == 1:
                if any(mv[i - 1] != 1 for i in idx):
                    w = zero
                    break
                continue
            stay = [i for i in idx if mv[i - 1] == 0]
            if len(stay) != 1:
                w = zero
                break
            w *= _island_stay_factor(k, m, stay[0], nu_bar, lam, q)
        total += w
    return total


def _sample_row_beta_level(lam_bar, nu_bar, lam, vj, q, rng):
    j = len(lam)
    c = tuple(nu_bar[i] - lam_bar[i] for i in range(j - 1))
    nu = list(lam)
    nu[0] += vj
    for (k, m) in _islands(c):
        if vj == 1 and k == 1:
            for i in range(2, m + 2):
                nu[i - 1] += 1
            continue
        u = rng.random()
        acc = 0.0
        stay = m + 1
        for s in range(k, m + 2):
            acc += float(_island_stay_factor(k, m, s, nu_bar, lam, q))
            if u <= acc:
                stay = s
                break
        for i in range(k, m + 2):
            if i != stay:
                nu[i - 1] += 1
    return tuple(nu)


# ---------------------------------------------------------------------------
# (beta) column insertion: pairs of moved particles and move donation
# ---------------------------------------------------------------------------

def _fp_factor(k, nu_bar, lam, q):
    num = 1 - qpow(q, _pt(nu_bar, k - 1) - part(lam, k))
    den = 1 - qpow(q, _pt(nu_bar, k - 1) - part(nu_bar, k) + 1)
    return num / den


def _gp_factor(s, nu_bar, lam, q):
    return 1 - qpow(q, _pt(nu_bar, s - 1) - part(lam, s))


def _pair_move_factor(r, k, s, nu_bar, lam, q):
    """Probability that the pair (r, k) of moved lower particles moves lam_s."""
    if r + 1 == k:
        return (q * 0 + 1) if s == k else q * 0
    if s == k:
        return _fp_factor(k, nu_bar, lam, q)
    w = 1 - _fp_factor(k, nu_bar, lam, q)
    for i in range(s + 1, k):
        w *= 1 - _gp_factor(i, nu_bar, lam, q)
    if s > r + 1:
        w *= _gp_factor(s, nu_bar, lam, q)
    return w


def _donation_factor(m, j, s, nu_bar, lam, q):
    """Probability that the independent impulse moves lam_s, s in [m+1, j]."""
    if m == j - 1:
        return (q * 0 + 1) if s == j else q * 0
    if s == j:
        return _gp_factor(j, nu_bar, lam, q)
    w = q * 0 + 1
    for i in range(s + 1, j + 1):
        w *= 1 - _gp_factor(i, nu_bar, lam, q)
    if s > m + 1:
        w *= _gp_factor(s, nu_bar, lam, q)
    return w


def _moved_pairs(c: Sequence[int]) -> List[Tuple[int, int]]:
    moved = [i for i in range(1, len(c) + 1) if c[i - 1] == 1]
    pairs = []
    prev = 0
    for k in moved:
        pairs.append((prev, k))
        prev = k
    return pairs


def col_beta_prob(ctx: LevelUpdateContext, nu: Signature, beta, a_j, q):
    """Conditional probability of lam -> nu under the Bernoulli column insertion."""
    lam_bar, nu_bar, lam = ctx.lam_bar, ctx.nu_bar, ctx.lam
    j = ctx.j
    zero = q * 0
    c = tuple(nu_bar[i] - lam_bar[i] for i in range(j - 1))
    if any(x not in (0, 1) for x in c) or not interlaces_v(lam_bar, nu_bar):
        raise ValueError("lower transition is not a Bernoulli move")
    if len(nu) != j or not interlaces_v(lam, nu) or not interlaces_h(nu_bar, nu):
        return zero
    mv = tuple(nu[i] - lam[i] for i in range(j))
    pairs = _moved_pairs(c)
    m = max((k for (_, k) in pairs), default=0)
    w = q * 0 + 1
    for (r, k) in pairs:
        movers = [s for s in range(r + 1, k + 1) if mv[s - 1] == 1]
        if len(movers) != 1:
            return zero
        w *= _pair_move_factor(r, k, movers[0], nu_bar, lam, q)
    extra = [s for s in range(m + 1, j + 1) if mv[s - 1] == 1]
    if len(extra) > 1:
        return zero
    vj = len(extra)
    w *= beta * a_j / (1 + beta * a_j) if vj == 1 else 1 / (1 + beta * a_j)
    if vj == 1:
        w *= _donation_factor(m, j, extra[0], nu_bar, lam, q)
    return w


def _sample_col_beta_level(lam_bar, nu_bar, lam, vj, q, rng):
    j = len(lam)
    c = tuple(nu_bar[i] - lam_bar[i] for i in range(j - 1))
    nu = list(lam)
    pairs = _moved_pairs(c)
    for (r, k) in pairs:
        u = rng.random()
        acc = 0.0
        mover = r + 1
        for s in range(k, r, -1):  # walk k, k-1, ..., r+1 (telescoping order)
            acc += float(_pair_move_factor(r, k, s, nu_bar, lam, q))
            if u <= acc:
                mover = s
                break
        nu[mover - 1] += 1
    if vj == 1:
        m = max((k for (_, k) in pairs), default=0)
        u = rng.random()
        acc = 0.0
        mover = m + 1
        for s in range(j, m, -1):
            acc += float(_donation_factor(m, j, s, nu_bar, lam, q))
            if u <= acc:
                mover = s
                break
        nu[mover - 1] += 1
    return tuple(nu)


# ---------------------------------------------------------------------------
# (alpha) row insertion: independent splitting of lower moves
# ---------------------------------------------------------------------------

def _row_alpha_splits(lam_bar, nu_bar, lam, nu) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Recover the split variables W_i and the independent jump V from nu.

    Returns None when nu is not reachable.  W_i is the part of the i-th lower
    move given to the upper-right neighbor; nu_i = lam_i + W_i + (c_{i-1} - W_{i-1}),
    with the independent jump added at i = 1.
    """
    j = len(lam)
    c = tuple(nu_bar[i] - lam_bar[i] for i in range(j - 1))
    w = [0] * (j - 1)
    carry = nu[j - 1] - lam[j - 1]          # c_{j-1} - W_{j-1}
    if j >= 2:
        w[j - 2] = c[j - 2] - carry
        for i in range(j - 1, 1, -1):       # positions i = j-1 .. 2 (1-based)
            carry = nu[i - 1] - lam[i - 1] - w[i - 1]
            w[i - 2] = c[i - 2] - carry
    v = nu[0] - lam[0] - (w[0] if j >= 2 else 0)
    if v < 0 or any(not 0 <= w[i] <= c[i] for i in range(j - 1)):
        return None
    return tuple(w), v


def _row_alpha_phi_params(lam_bar, lam, c, i, q) -> PhiParams:
    """Splitting distribution of W_i (1-based lower index i)."""
    a_exp = part(lam, i) - part(lam_bar, i)
    b_exp = INF if i == 1 else part(lam_bar, i - 1) - part(lam_bar, i)
    return PhiParams.inverse(q, a_exp, b_exp, c[i - 1])


def row_alpha_v(ctx: LevelUpdateContext, nu: Signature, q):
    """Normalized conditional weight of the q-geometric row insertion.

    This is the conditional probability with the factor
    (alpha a_j)^V (alpha a_j; q)_inf stripped, so it is an exact rational
    function of q alone and is what the main-equation kernel consumes.
    """
    lam_bar, nu_bar, lam = ctx.lam_bar, ctx.nu_bar, ctx.lam
    j = ctx.j
    zero = q * 0
    if not interlaces_h(lam_bar, nu_bar):
        raise ValueError("lower transition must be a horizontal strip")
    if len(nu) != j or not interlaces_h(lam, nu) or not interlaces_h(nu_bar, nu):
        return zero
    c = tuple(nu_bar[i] - lam_bar[i] for i in range(j - 1))
    rec = _row_alpha_splits(lam_bar, nu_bar, lam, nu)
    if rec is None:
        return zero
    w_vars, v = rec
    total = q * 0 + 1
    for i in range(1, j):
        p = _row_alpha_phi_params(lam_bar, lam, c, i, q)
        total *= phi_weight(p, w_vars[i - 1])
        if total == 0:
            return zero
    return total / q_pochhammer(q, q, v)


def row_alpha_prob(ctx: LevelUpdateContext, nu: Signature, alpha, a_j, q):
    """Conditional probability (floating mode: includes the q-geometric jump)."""
    rec = _row_alpha_splits(ctx.lam_bar, ctx.nu_bar, ctx.lam, nu) if len(nu) == ctx.j else None
    if rec is None:
        return q * 0
    v = rec[1]
    return row_alpha_v(ctx, nu, q) * (alpha * a_j) ** v * q_pochhammer_inf(alpha * a_j, q)


def _draws(count) -> bool:
    """Whether a split of `count` boxes needs a phi draw: not for a scalar 0.

    Over a replica axis every replica draws; where its count is 0 the
    weight has a one-point support, which the draw returns.
    """
    return isinstance(count, np.ndarray) or count != 0


def _sample_row_alpha_level(lam_bar, nu_bar, lam, vj, q, rng, sampler=None):
    """One level update: the input vj at the left, then each lower move c_i split by W_i.

    The parts and vj are ints, or int64 arrays over replicas with `rng` a
    numpy Generator.  `sampler` is an optional `QSampler` for q, passed on
    to `phi_sample`.
    """
    j = len(lam)
    c = tuple(nu_bar[i] - lam_bar[i] for i in range(j - 1))
    # parts are rebound, never updated in place: an array part of lam is shared
    nu = list(lam)
    nu[0] = nu[0] + vj
    for i in range(1, j):
        wi = (
            phi_sample(_row_alpha_phi_params(lam_bar, lam, c, i, q), rng, sampler)
            if _draws(c[i - 1]) else 0
        )
        nu[i - 1] = nu[i - 1] + wi
        nu[i] = nu[i] + c[i - 1] - wi
    return tuple(nu)


# ---------------------------------------------------------------------------
# (alpha) column insertion: voluntary jumps, pushes, stabilization fund
# ---------------------------------------------------------------------------

def _col_alpha_terms(lam_bar, nu_bar, lam, nu, alpha, a_j, q):
    """Sum the normalized weights over all (X, Y, Z) decompositions giving nu.

    Particles are scanned from the left (i = 1 is the leftmost, position
    j - i + 1).  The running exponents: T tracks the voluntary-jump handicap,
    R the stabilization fund.  The returned weight has the overall factor
    (alpha a_j)^(sum X) (alpha a_j; q)_inf stripped; finite products over
    alpha remain, so the value is exact for rational inputs.
    """
    j = len(lam)
    c = tuple(nu_bar[i] - lam_bar[i] for i in range(j - 1))
    mv = tuple(nu[i] - lam[i] for i in range(j))
    one = q * 0 + 1

    def x_factor(i, x, gap, t_exp):
        # normalized phi_{q, alpha a_j q^T, 0}(x | gap): alpha power stripped
        if gap != INF and x > gap:
            return one * 0
        w = qpow(q, t_exp * x) if x else one
        if gap == INF:
            return w / q_pochhammer(q, q, x) / q_pochhammer(alpha * a_j, q, t_exp)
        return w * q_pochhammer(alpha * a_j * qpow(q, t_exp), q, gap - x) * q_binomial(gap, x, q)

    results = []

    def rec(i, t_exp, r_exp, acc):
        pos = j - i + 1                       # 1-based position from the right
        gap = _pt(lam_bar, j - i) - part(lam, pos) if i < j else INF
        move = mv[pos - 1]
        if i == j:
            y = c[0] if j >= 2 else 0
            z = r_exp
            x = move - y - z
            if x < 0:
                return
            results.append(acc * x_factor(i, x, INF, t_exp))
            return
        if i == 1:
            fx = x_factor(1, move, gap, 0)
            if fx != 0:
                rec(2, gap - move, 0, acc * fx)
            return
        ell = c[j - i]                        # move of the lower-left neighbor
        b_exp = _pt(lam_bar, j - i) - part(lam_bar, j - i + 1)
        for x in range(0, move + 1):
            fx = x_factor(i, x, gap, t_exp)
            if fx == 0:
                continue
            h = gap - x
            for y in range(0, min(move - x, ell, h) + 1):
                z = move - x - y
                if i == 2 and z != 0:
                    continue
                if z > r_exp or z > h - y:
                    continue
                fy = phi_weight(PhiParams.inverse(q, ell, b_exp, h), h - y)
                if fy == 0:
                    continue
                if i >= 3:
                    fz = phi_weight(PhiParams.inverse(q, r_exp, INF, h - y), h - y - z)
                    if fz == 0:
                        continue
                else:
                    fz = one
                rec(i + 1, t_exp + h, r_exp + ell - y - z, acc * fx * fy * fz)

    rec(1, 0, 0, one)
    total = one * 0
    for r in results:
        total += r
    return total


def col_alpha_v(ctx: LevelUpdateContext, nu: Signature, alpha, a_j, q):
    """Normalized conditional weight of the q-geometric column insertion."""
    lam_bar, nu_bar, lam = ctx.lam_bar, ctx.nu_bar, ctx.lam
    zero = q * 0
    if not interlaces_h(lam_bar, nu_bar):
        raise ValueError("lower transition must be a horizontal strip")
    if len(nu) != ctx.j or not interlaces_h(lam, nu) or not interlaces_h(nu_bar, nu):
        return zero
    if weight(nu) - weight(lam) < weight(nu_bar) - weight(lam_bar):
        return zero
    return _col_alpha_terms(lam_bar, nu_bar, lam, nu, alpha, a_j, q)


def col_alpha_prob(ctx: LevelUpdateContext, nu: Signature, alpha, a_j, q):
    """Conditional probability (floating mode)."""
    w = col_alpha_v(ctx, nu, alpha, a_j, q)
    if w == 0:
        return w
    v = (weight(nu) - weight(ctx.lam)) - (weight(ctx.nu_bar) - weight(ctx.lam_bar))
    return w * (alpha * a_j) ** v * q_pochhammer_inf(alpha * a_j, q)


def _sample_col_alpha_level(lam_bar, nu_bar, lam, vj, q, rng, sampler=None):
    """One level update: voluntary jumps split off the input vj, then pushes.

    The voluntary jumps X_i are drawn by conditioning the independent input
    on the running remainder: given that positions i..j still have r boxes of
    input to absorb, X_i = r - W with W drawn from the inverse-regime weight
    with exponent gap_i.  This conditional is parameter-free and reduces to
    move donation at q = 0.  The parts and vj are ints, or int64 arrays over
    replicas with `rng` a numpy Generator.  `sampler` is an optional
    `QSampler` for q, passed on to `phi_sample`.
    """
    j = len(lam)
    c = tuple(nu_bar[i] - lam_bar[i] for i in range(j - 1))
    # parts are rebound, never updated in place: an array part of lam is shared
    nu = list(lam)
    remaining = vj
    r_exp = 0
    for i in range(1, j + 1):
        pos = j - i + 1
        if i == j:
            x = remaining
        else:
            gap = _pt(lam_bar, j - i) - part(lam, pos)
            x = (
                remaining - phi_sample(PhiParams.inverse(q, gap, INF, remaining), rng, sampler)
                if _draws(remaining) else 0
            )
        remaining = remaining - x
        if i == j:
            y = c[0] if j >= 2 else 0
            z = r_exp
        elif i == 1:
            y = z = 0
        else:
            ell = c[j - i]
            b_exp = _pt(lam_bar, j - i) - part(lam_bar, j - i + 1)
            h = gap - x
            y = h - phi_sample(PhiParams.inverse(q, ell, b_exp, h), rng, sampler)
            if i >= 3 and _draws(r_exp):
                z = (h - y) - phi_sample(PhiParams.inverse(q, r_exp, INF, h - y), rng, sampler)
            else:
                z = 0
            r_exp = r_exp + ell - y - z
        nu[pos - 1] = nu[pos - 1] + x + y + z
    return tuple(nu)


# ---------------------------------------------------------------------------
# push-block dynamics
# ---------------------------------------------------------------------------

def _v_strips_above(lam):
    from itertools import product

    n = len(lam)
    for add in product((0, 1), repeat=n):
        nu = tuple(lam[i] + add[i] for i in range(n))
        if all(nu[i] >= nu[i + 1] for i in range(n - 1)):
            yield nu


def _push_block_chain(kind, lam, nu_bar, par, a_j, q):
    """The push-block weight of one level as a nearest-neighbour chain in nu_1..nu_j.

    With x = par a_j, x^|nu| psi_{nu/nu_bar} psi'_{nu/lam} (phi_{nu/lam} for the
    usual kind) is x^(sum lo) prod_i node(i, nu_i) prod_i edge(i, nu_i, nu_{i+1})
    (0-based i), each nu_i ranging over its own interval from lo_i.  node holds
    x^(nu_i - lo_i), so no weight underflows, and the phi factor of nu_i; edge
    is the psi (and psi') weight of the pair (nu_i, nu_{i+1}), whose product
    over the pairs is psi_{nu/nu_bar} (psi'_{nu/lam}).

    Returns (ranges, node, edge, back), where back[i][v - lo_i] sums the factors
    of nu_i..nu_j given nu_i = v.  The usual kind is floating-mode only; its
    unbounded nu_1 is cut once back[0][v] / (1 - x) is below 2^-50 of the sum.
    """
    j = len(lam)
    beta = kind == PUSH_BLOCK_BETA
    x = par * a_j
    if not beta:
        if kind != PUSH_BLOCK_ALPHA:
            raise ValueError(f"not a push-block kind: {kind!r}")
        x, q = float(x), float(q)
        if not 0 <= x < 1:
            raise ValueError(f"need 0 <= alpha a_j < 1, got {x}")
    lo = [max(lam[i], part(nu_bar, i + 1)) for i in range(j)]
    hi = [min(lam[i] + 1 if beta else _pt(lam, i), _pt(nu_bar, i)) for i in range(j)]

    def node(i, v):
        val = x ** (v - lo[i])
        if beta:
            return val
        if i == 0:
            return val * phi_coef((v,), lam[:1], q)
        return val * phi_coef((lam[i - 1], v), lam[i - 1:i + 1], q)

    def edge(i, v, w):
        val = psi((v, w), nu_bar[i:i + 1], q)
        return val * psi_prime((v, w), lam[i:i + 2], q) if beta else val

    def column(i, v):
        if i == j - 1:
            return node(i, v)
        return node(i, v) * sum(edge(i, v, w) * b for w, b in zip(ranges[i + 1], back[i + 1]))

    ranges = [None if h == INF else range(l, h + 1) for l, h in zip(lo, hi)]
    back = [None] * j
    for i in range(j - 1, 0, -1):
        back[i] = [column(i, v) for v in ranges[i]]
    if beta:
        back[0] = [column(0, v) for v in ranges[0]]
    else:
        back[0] = [column(0, lo[0])]
        while back[0][-1] / (1 - x) >= 2.0 ** -50 * sum(back[0]) > 0:
            back[0].append(column(0, lo[0] + len(back[0])))
        ranges[0] = range(lo[0], lo[0] + len(back[0]))
    return ranges, node, edge, back


def push_block_prob(kind: str, lam, nu_bar, nu, par, a_j, q):
    """Conditional probability not depending on the lower starting state.

    The dual kind is exact (the normalizing sum is finite); the usual kind
    cuts the sum over nu_1 (see `_push_block_chain`) and is floating-mode only.
    """
    _, node, edge, back = _push_block_chain(kind, lam, nu_bar, par, a_j, q)
    strip = interlaces_v if kind == PUSH_BLOCK_BETA else interlaces_h
    if len(nu) != len(lam) or not strip(lam, nu) or not interlaces_h(nu_bar, nu):
        return 0.0 if kind == PUSH_BLOCK_ALPHA else q * 0
    w = math.prod(node(i, v) for i, v in enumerate(nu))
    w *= math.prod(edge(i, v, u) for i, (v, u) in enumerate(zip(nu, nu[1:])))
    return w / sum(back[0])


def _sample_push_block_level(kind, lam, nu_bar, par, a_j, q, rng):
    """Draw nu_1 from the chain's backward sums, then each nu_{i+1} given nu_i."""
    ranges, node, edge, back = _push_block_chain(kind, lam, nu_bar, par, a_j, q)
    nu = []
    weights = back[0]
    for i, values in enumerate(ranges):
        if i:
            weights = [edge(i - 1, nu[-1], w) * b for w, b in zip(values, back[i])]
        u = rng.random() * float(sum(weights))
        pick = None
        for v, w in zip(values, weights):
            if w > 0:
                pick = v
                u -= float(w)
                if u < 0:
                    break
        if pick is None:
            raise ZeroMassError(f"{kind}: no admissible level above {lam} over {nu_bar}")
        nu.append(pick)
    return tuple(nu)


# ---------------------------------------------------------------------------
# classical (q = 0) insertion steps
# ---------------------------------------------------------------------------

def _pull(lam: List[int], lower: List[int], i: int) -> None:
    """Long-range pulling: move at lower position i pulls/pushes one upper particle."""
    if lower[i - 1] == lam[i - 1]:
        lam[i - 1] += 1
    else:
        lam[i] += 1


def _push(lam: List[int], lower: List[int], i: int) -> None:
    """Long-range pushing: first unblocked particle at or right of position i moves."""
    m = i
    while lam[m - 1] >= (_pt(lower, m - 1)):
        m -= 1
    lam[m - 1] += 1


def classical_level_update(kind: str, lam_bar, nu_bar, lam, vj: int) -> Signature:
    """Deterministic propagation of the lower move to level j, plus the input vj."""
    j = len(lam)
    c = [nu_bar[i] - lam_bar[i] for i in range(j - 1)]
    nu = list(lam)
    lower = list(lam_bar)
    if kind == ROW_ALPHA:
        for i in range(j - 1, 0, -1):
            for _ in range(c[i - 1]):
                _pull(nu, lower, i)
                lower[i - 1] += 1
        nu[0] += vj
    elif kind == ROW_BETA:
        nu[0] += vj
        for i in range(1, j):
            for _ in range(c[i - 1]):
                _pull(nu, lower, i)
                lower[i - 1] += 1
    elif kind == COL_ALPHA:
        for _ in range(vj):
            _push(nu, lower, j)
        for i in range(j - 1, 0, -1):
            for _ in range(c[i - 1]):
                _push(nu, lower, i)
                lower[i - 1] += 1
    elif kind == COL_BETA:
        for i in range(1, j):
            for _ in range(c[i - 1]):
                _push(nu, lower, i)
                lower[i - 1] += 1
        for _ in range(vj):
            _push(nu, lower, j)
    else:
        raise ValueError(f"not an insertion kind: {kind!r}")
    return tuple(nu)


def classical_rsk_step(kind: str, arr: InterlacingArray, inputs: Sequence[int]) -> InterlacingArray:
    """One step of the deterministic insertion with the given inputs V_1..V_N."""
    n = len(arr)
    if len(inputs) != n:
        raise ValueError("need one input per level")
    if kind in BETA_KINDS and any(v not in (0, 1) for v in inputs):
        raise ValueError("Bernoulli kinds need inputs in {0, 1}")
    out: List[Signature] = []
    prev_old: Signature = ()
    prev_new: Signature = ()
    for j in range(1, n + 1):
        if j == 1:
            new = (arr[0][0] + inputs[0],)
        else:
            new = classical_level_update(kind, prev_old, prev_new, arr[j - 1], inputs[j - 1])
        prev_old = arr[j - 1]
        prev_new = new
        out.append(new)
    return tuple(out)


# ---------------------------------------------------------------------------
# sampling and exact distributions for whole arrays
# ---------------------------------------------------------------------------

def sample_inputs(spec: DynamicsSpec, rng) -> Tuple[int, ...]:
    """The independent per-level inputs V_1..V_N for one time step.

    Alpha kinds draw from the q-geometric tables of `spec.sampler`, so the
    normaliser log (alpha a_j; q)_inf is computed once per spec and level.
    """
    vs = []
    for aj in spec.a:
        x = float(spec.step_param * aj)
        if spec.kind in BETA_KINDS:
            vs.append(1 if rng.random() < x / (1 + x) else 0)
        else:
            vs.append(sample_q_geometric(x, float(spec.q), rng, spec.sampler))
    return tuple(vs)


def sample_step(
    spec: DynamicsSpec, arr: InterlacingArray, rng, inputs: Optional[Sequence[int]] = None
) -> InterlacingArray:
    """One time step of the multivariate dynamics.

    Raises ValueError if the spec has not one a_j, or `inputs` not one
    input, per level of `arr`, or if a level update returns a level that
    does not interlace with the one below it.
    """
    n = len(arr)
    q = spec.q
    if len(spec.a) != n:
        raise ValueError(f"{spec.kind} step: {len(spec.a)} level parameters a_j for {n} levels")
    if inputs is None:
        inputs = sample_inputs(spec, rng)
    elif len(inputs) != n:
        raise ValueError(f"{spec.kind} step: {len(inputs)} inputs for {n} levels")
    out: List[Signature] = [(arr[0][0] + inputs[0],)]
    for j in range(2, n + 1):
        lam_bar, nu_bar, lam = arr[j - 2], out[j - 2], arr[j - 1]
        a_j = spec.a[j - 1]
        if spec.kind == ROW_BETA:
            new = _sample_row_beta_level(lam_bar, nu_bar, lam, inputs[j - 1], q, rng)
        elif spec.kind == COL_BETA:
            new = _sample_col_beta_level(lam_bar, nu_bar, lam, inputs[j - 1], q, rng)
        elif spec.kind == ROW_ALPHA:
            new = _sample_row_alpha_level(
                lam_bar, nu_bar, lam, inputs[j - 1], q, rng, spec.sampler
            )
        elif spec.kind == COL_ALPHA:
            new = _sample_col_alpha_level(
                lam_bar, nu_bar, lam, inputs[j - 1], q, rng, spec.sampler
            )
        elif spec.kind in (PUSH_BLOCK_BETA, PUSH_BLOCK_ALPHA):
            new = _sample_push_block_level(spec.kind, lam, nu_bar, spec.step_param, a_j, q, rng)
        else:
            raise ValueError(spec.kind)
        out.append(new)
    result = tuple(out)
    for j in range(1, n):
        if not interlaces_h(result[j - 1], result[j]):
            raise ValueError(
                f"{spec.kind} step: level {j + 1} {result[j]} does not interlace "
                f"with level {j} {result[j - 1]}"
            )
    return result


def level_candidates(kind: str, lam: Signature, nu_bar: Signature, v_cap: int):
    """All nu with nonzero conditional probability (alpha kinds: input capped at v_cap)."""
    j = len(lam)
    if kind in (ROW_BETA, COL_BETA, PUSH_BLOCK_BETA):
        for nu in _v_strips_above(lam):
            if interlaces_h(nu_bar, nu):
                yield nu
        return
    lowers = tuple(max(part(lam, i), part(nu_bar, i)) for i in range(1, j + 1))
    uppers = [lowers[0] + v_cap + weight(nu_bar)]
    uppers += [min(part(lam, i - 1), part(nu_bar, i - 1)) for i in range(2, j + 1)]
    yield from signatures_between(lowers, uppers)


def level_transition_prob(spec: DynamicsSpec, j, lam_bar, nu_bar, lam, nu):
    """Exact U_j for the configured dynamics (beta kinds; level 1 included)."""
    q, par = spec.q, spec.step_param
    a_j = spec.a[j - 1]
    x = par * a_j
    if j == 1:
        v = nu[0] - lam[0]
        if spec.kind in BETA_KINDS:
            if v == 1:
                return x / (1 + x)
            if v == 0:
                return 1 / (1 + x)
            return q * 0
        raise NotImplementedError("exact level-1 law of alpha kinds is not finite")
    ctx = LevelUpdateContext(lam_bar, nu_bar, lam)
    if spec.kind == ROW_BETA:
        return row_beta_prob(ctx, nu, par, a_j, q)
    if spec.kind == COL_BETA:
        return col_beta_prob(ctx, nu, par, a_j, q)
    if spec.kind == PUSH_BLOCK_BETA:
        return push_block_prob(PUSH_BLOCK_BETA, lam, nu_bar, nu, par, a_j, q)
    raise NotImplementedError("exact array distributions are for beta kinds")


def exact_array_distribution(spec: DynamicsSpec, n: int, steps: int):
    """Exact distribution of the array after `steps` steps from the zero array.

    Beta kinds only (finite branching).  `spec.step_param` may be a list of
    per-step parameters.
    """
    from .gt import zero_array

    pars = spec.step_param if isinstance(spec.step_param, (list, tuple)) else [
        spec.step_param
    ] * steps
    dist = {zero_array(n): spec.q * 0 + 1}
    for t in range(steps):
        step_spec = DynamicsSpec(spec.kind, spec.q, pars[t], spec.a)
        new = {}
        for arr, p in dist.items():
            for (narr, tp) in _array_transitions(step_spec, arr):
                key = narr
                new[key] = new.get(key, spec.q * 0) + p * tp
        dist = new
    return dist


def _array_transitions(spec: DynamicsSpec, arr: InterlacingArray):
    n = len(arr)

    def rec(j, prefix, prob):
        if j > n:
            yield tuple(prefix), prob
            return
        lam = arr[j - 1]
        if j == 1:
            cands = [(lam[0],), (lam[0] + 1,)]
            lam_bar = nu_bar = ()
        else:
            lam_bar, nu_bar = arr[j - 2], prefix[-1]
            cands = level_candidates(spec.kind, lam, nu_bar, 1)
        for nu in cands:
            tp = level_transition_prob(spec, j, lam_bar, nu_bar, lam, nu)
            if tp == 0:
                continue
            prefix.append(nu)
            yield from rec(j + 1, prefix, prob * tp)
            prefix.pop()

    yield from rec(1, [], spec.q * 0 + 1)


# ---------------------------------------------------------------------------
# the main-equation verification kernel
# ---------------------------------------------------------------------------

def _lam_bar_candidates(kind_is_beta: bool, lam, nu_bar):
    """Lower starting states consistent with the two-level square."""
    j1 = len(nu_bar)
    if kind_is_beta:
        lowers = tuple(max(part(nu_bar, i) - 1, part(lam, i + 1)) for i in range(1, j1 + 1))
    else:
        lowers = tuple(max(part(nu_bar, i + 1), part(lam, i + 1)) for i in range(1, j1 + 1))
    uppers = [min(part(nu_bar, i), part(lam, i)) for i in range(1, j1 + 1)]
    yield from signatures_between(lowers, uppers)


def main_equation_residual(kind: str, lam, nu, nu_bar, par, a_j, q, alpha_float=False):
    """LHS minus RHS of the structural equation the dynamics must satisfy.

    Exact (returns a rational zero iff the equation holds) for the four
    insertion kinds and the dual push-block kind.  The usual push-block kind
    is evaluated in floating mode because of its non-closed normalization.
    """
    is_beta = kind in BETA_KINDS
    push_block = kind in (PUSH_BLOCK_BETA, PUSH_BLOCK_ALPHA)
    if push_block:
        # the push-block law does not depend on the lower starting state lam_bar
        u_push = push_block_prob(kind, lam, nu_bar, nu, par, a_j, q)
    x = par * a_j
    if is_beta:
        rhs = psi(nu, nu_bar, q) * psi_prime(nu, lam, q) / (1 + x)
    elif kind == PUSH_BLOCK_ALPHA:
        rhs = q_pochhammer_inf(float(x), float(q)) * float(psi(nu, nu_bar, q)) * float(
            phi_coef(nu, lam, q)
        )
    else:
        rhs = psi(nu, nu_bar, q) * phi_coef(nu, lam, q)
    lhs = q * 0
    for lam_bar in _lam_bar_candidates(is_beta, lam, nu_bar):
        w1 = psi(lam, lam_bar, q)
        if w1 == 0:
            continue
        if is_beta:
            w2 = psi_prime(nu_bar, lam_bar, q)
        else:
            w2 = phi_coef(nu_bar, lam_bar, q)
        if w2 == 0:
            continue
        if push_block:
            u = u_push
        elif kind == ROW_BETA:
            u = row_beta_prob(LevelUpdateContext(lam_bar, nu_bar, lam), nu, par, a_j, q)
        elif kind == COL_BETA:
            u = col_beta_prob(LevelUpdateContext(lam_bar, nu_bar, lam), nu, par, a_j, q)
        elif kind == ROW_ALPHA:
            u = row_alpha_v(LevelUpdateContext(lam_bar, nu_bar, lam), nu, q)
        elif kind == COL_ALPHA:
            u = col_alpha_v(LevelUpdateContext(lam_bar, nu_bar, lam), nu, par, a_j, q)
        else:
            raise ValueError(kind)
        if u == 0:
            continue
        if is_beta:
            expo = (weight(lam) - weight(nu)) - (weight(lam_bar) - weight(nu_bar))
            lhs += u * x ** expo * w1 * w2
        elif kind == PUSH_BLOCK_ALPHA:
            expo = (weight(lam) - weight(nu)) - (weight(lam_bar) - weight(nu_bar))
            lhs += float(u) * float(x) ** expo * float(w1) * float(w2)
        else:
            lhs += u * w1 * w2
    return lhs - rhs


def main_equation_sweep(kind: str, j: int, max_part: int, par, a_j, q, report=None, tol=None):
    """Check the structural equation on all admissible squares at level j.

    Returns the number of (lam, nu, nu_bar) triples checked; nonzero residuals
    are appended to `report` (and raise if no report list is given).  With
    exact scalars the residual must be exactly zero; pass `tol` (or use the
    usual push-block kind) for floating-mode comparisons.
    """
    from .gt import enumerate_signatures

    is_beta = kind in BETA_KINDS
    if kind == PUSH_BLOCK_ALPHA and tol is None:
        tol = 1e-9
    checked = 0
    for lam in enumerate_signatures(max_part, j):
        ups = _v_strips_above(lam) if is_beta else _h_strips_above_capped(lam, max_part)
        for nu in ups:
            if nu[0] > max_part:
                continue
            for nu_bar in enumerate_signatures(max_part, j - 1):
                if not interlaces_h(nu_bar, nu):
                    continue
                r = main_equation_residual(kind, lam, nu, nu_bar, par, a_j, q)
                checked += 1
                bad = (abs(r) > tol) if tol is not None else (r != 0)
                if bad:
                    item = {"kind": kind, "lam": lam, "nu": nu, "nu_bar": nu_bar, "residual": str(r)}
                    if report is None:
                        raise AssertionError(f"main equation violated: {item}")
                    report.append(item)
    return checked


def _h_strips_above_capped(lam, max_part):
    j = len(lam)
    uppers = [max_part if i == 1 else min(part(lam, i - 1), max_part) for i in range(1, j + 1)]
    yield from signatures_between(lam, uppers)
