"""The multivariate dynamics on interlacing arrays.

Six kinds: row/column insertion driven by Bernoulli input (dual-parameter
kinds) or by q-geometric input (usual-parameter kinds), and push-block
dynamics (dual exact; usual in floating mode).  `KINDS` holds one record per
kind: its input, its level sampler and exact level weight U_j, and the
classical (q = 0) insertion to which it degenerates.

Sampler and evaluator share one definition of each level update.  The
Bernoulli kinds build one first-success list per island, moved pair or
donation: the sampler picks from it, the evaluator indexes into it.  The
q-geometric kinds draw splits from inverse-regime phi weights, and the
evaluator sums the same weights over the splits hidden from view.  The
push-block kinds share one chain recursion over the parts of the new level.
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
    enumerate_signatures,
    interlaces_h,
    interlaces_v,
    part,
    signatures_between,
    weight,
    zero_array,
)
from .qnum import (
    INF,
    PhiParams,
    QSampler,
    ZeroMassError,
    phi_sample,
    phi_weight,
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


# ---------------------------------------------------------------------------
# the kind table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KindRule:
    """One dynamics kind.  Its level sampler and level weight U_j are named,
    and looked up in this module at call time, so that a replaced module
    attribute (a test double, a call recorder) reaches every caller.  The last
    three fields are the classical (q = 0) insertion, None for push-block."""

    name: str
    beta: bool                          # Bernoulli input, else q-geometric
    sampler: str
    weight: str
    push: Optional[bool] = None         # long-range pushing (column kinds), else pulling
    descending: Optional[bool] = None   # lower moves at positions j-1, ..., 1, else 1, ..., j-1
    input_first: Optional[bool] = None  # the input vj enters before the lower moves, else after

    @property
    def push_block(self) -> bool:
        return self.push is None

    @property
    def exact(self) -> bool:
        """U_j is exact on rational input: every kind but PushBlockAlpha."""
        return self.beta or not self.push_block

    @property
    def normalised(self) -> bool:
        """U_j has the input law's factor x^V (x; q)_inf stripped: RowAlpha, ColAlpha."""
        return not self.beta and not self.push_block

    @property
    def strip(self):
        """How a level and its update interlace: vertical (beta) or horizontal strips."""
        return interlaces_v if self.beta else interlaces_h

    def sample_level(self, spec, j, lam_bar, nu_bar, lam, vj, rng) -> Signature:
        fn = globals()[self.sampler]
        if self.push is None:
            return fn(self.name, lam, nu_bar, spec.step_param, spec.a[j - 1], spec.q, rng)
        if self.beta:
            return fn(lam_bar, nu_bar, lam, vj, spec.q, rng)
        return fn(lam_bar, nu_bar, lam, vj, spec.q, rng, spec.sampler)  # the spec's tables

    def level_weight(self, lam_bar, nu_bar, lam, nu, par, a_j, q):
        fn = globals()[self.weight]
        if self.push_block:
            return fn(self.name, lam, nu_bar, nu, par, a_j, q)
        return fn(LevelUpdateContext(lam_bar, nu_bar, lam), nu, par, a_j, q)


KINDS = {rule.name: rule for rule in [
    KindRule(ROW_ALPHA, False, "_sample_row_alpha_level", "_row_alpha_u",
             push=False, descending=True, input_first=False),
    KindRule(COL_ALPHA, False, "_sample_col_alpha_level", "col_alpha_v",
             push=True, descending=True, input_first=True),
    KindRule(ROW_BETA, True, "_sample_row_beta_level", "row_beta_prob",
             push=False, descending=False, input_first=True),
    KindRule(COL_BETA, True, "_sample_col_beta_level", "col_beta_prob",
             push=True, descending=False, input_first=False),
    KindRule(PUSH_BLOCK_ALPHA, False, "_sample_push_block_level", "push_block_prob"),
    KindRule(PUSH_BLOCK_BETA, True, "_sample_push_block_level", "push_block_prob"),
]}
RSK_KINDS = tuple(k for k, rule in KINDS.items() if not rule.push_block)
ALPHA_KINDS = tuple(k for k, rule in KINDS.items() if not rule.beta)
BETA_KINDS = tuple(k for k, rule in KINDS.items() if rule.beta)


def _rule(kind: str) -> KindRule:
    if kind not in KINDS:
        raise ValueError(f"unknown dynamics kind {kind!r}")
    return KINDS[kind]


@dataclass(frozen=True)
class DynamicsSpec:
    kind: str
    q: object
    step_param: object          # alpha or beta, one discrete time step
    a: Tuple[object, ...]       # level parameters a_1..a_N

    def __post_init__(self):
        beta = _rule(self.kind).beta
        if not 0 <= self.q < 1:
            raise ValueError(f"need 0 <= q < 1, got q = {self.q}")
        pars = self.step_param if isinstance(self.step_param, (list, tuple)) else [self.step_param]
        if not beta and any(par * aj >= 1 for par in pars for aj in self.a):
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


def _moves(before: Sequence[int], after: Sequence[int]) -> Tuple[int, ...]:
    """after - before, part by part."""
    return tuple(b - a for a, b in zip(before, after))


def _upper_moves(ctx: LevelUpdateContext, nu: Signature, strip) -> Optional[Tuple[int, ...]]:
    """The moves nu - lam of an insertion whose levels move by `strip`s, or None where
    nu is out of reach.  Raises ValueError if the lower move is not such a strip."""
    if not strip(ctx.lam_bar, ctx.nu_bar):
        raise ValueError(f"lower transition {ctx.lam_bar} -> {ctx.nu_bar}: not {strip.__name__}")
    if len(nu) != ctx.j or not strip(ctx.lam, nu) or not interlaces_h(ctx.nu_bar, nu):
        return None
    return _moves(ctx.lam, nu)


# ---------------------------------------------------------------------------
# (beta) row insertion: first-success laws, islands of moved particles
# ---------------------------------------------------------------------------

def _first_success(ps) -> list:
    """The law of the first success in trials of success probabilities ps, then a sure one:
    (1 - ps[0])...(1 - ps[s-1]) ps[s], multiplied left to right, and the remainder."""
    weights, rest = [], 1
    for s, p in enumerate(ps):
        weights.append(rest * p if s else p)
        rest = rest * (1 - p) if s else 1 - p
    weights.append(rest)
    return weights


def _pick(weights, u) -> int:
    """The first index whose cumulative float weight reaches u (the last if none does)."""
    acc = 0.0
    for s, w in enumerate(weights):
        acc += float(w)
        if u <= acc:
            return s
    return len(weights) - 1


def _g_factor(i, nu_bar, lam, q):
    return 1 - qpow(q, part(lam, i) - part(nu_bar, i) + 1)


def _f_factor(i, nu_bar, lam, q):
    return _g_factor(i, nu_bar, lam, q) / (1 - qpow(q, _pt(nu_bar, i - 1) - part(nu_bar, i) + 1))


def _islands(c: Sequence[int]) -> List[Tuple[int, int]]:
    """Maximal runs [k, m] of indices with c_i = 1 (1-based)."""
    runs = []
    for i, ci in enumerate(c, start=1):
        if ci == 1 and runs and runs[-1][1] == i - 1:
            runs[-1] = (runs[-1][0], i)
        elif ci == 1:
            runs.append((i, i))
    return runs


def _island_law(k, m, nu_bar, lam, q) -> list:
    """Law of the one particle of island [k, m] that stays: lam_k, lam_{k+1}, ..., lam_{m+1}."""
    gs = [_g_factor(i, nu_bar, lam, q) for i in range(k + 1, m + 1)]
    return _first_success([_f_factor(k, nu_bar, lam, q)] + gs)


def row_beta_prob(ctx: LevelUpdateContext, nu: Signature, beta, a_j, q):
    """Conditional probability of lam -> nu under the Bernoulli row insertion."""
    zero = q * 0
    mv = _upper_moves(ctx, nu, interlaces_v)
    if mv is None:
        return zero
    islands = _islands(_moves(ctx.lam_bar, ctx.nu_bar))
    covered = {i for (k, m) in islands for i in range(k, m + 2)}
    p_move = beta * a_j / (1 + beta * a_j)
    total = zero
    for vj in (0, 1):
        # off the islands, only lam_1 moves: by the input vj
        if any(mv[i - 1] != (vj if i == 1 else 0) for i in range(1, ctx.j + 1) if i not in covered):
            continue
        w = p_move if vj == 1 else 1 - p_move
        for (k, m) in islands:
            stay = [i for i in range(k, m + 2) if mv[i - 1] == 0]
            if vj == 1 and k == 1:  # the input moves the whole first island
                if not stay:
                    continue
            elif len(stay) == 1:
                w *= _island_law(k, m, ctx.nu_bar, ctx.lam, q)[stay[0] - k]
                continue
            w = zero
            break
        total += w
    return total


def _sample_row_beta_level(lam_bar, nu_bar, lam, vj, q, rng):
    nu = list(lam)
    nu[0] += vj
    for (k, m) in _islands(_moves(lam_bar, nu_bar)):
        if vj == 1 and k == 1:
            stay = 1  # lam_1 took the input, and the rest of the island moves with it
        else:
            stay = k + _pick(_island_law(k, m, nu_bar, lam, q), rng.random())
        for i in range(k, m + 2):
            if i != stay:
                nu[i - 1] += 1
    return tuple(nu)


# ---------------------------------------------------------------------------
# (beta) column insertion: pairs of moved particles and move donation
# ---------------------------------------------------------------------------

def _gp_factor(s, nu_bar, lam, q):
    return 1 - qpow(q, _pt(nu_bar, s - 1) - part(lam, s))


def _fp_factor(k, nu_bar, lam, q):
    return _gp_factor(k, nu_bar, lam, q) / (1 - qpow(q, _pt(nu_bar, k - 1) - part(nu_bar, k) + 1))


def _pair_law(r, k, nu_bar, lam, q) -> list:
    """Law of the particle moved by the pair (r, k) of moved lower particles:
    lam_k, lam_{k-1}, ..., lam_{r+1}."""
    gps = [_gp_factor(i, nu_bar, lam, q) for i in range(k - 1, r + 1, -1)]
    return _first_success([_fp_factor(k, nu_bar, lam, q)] + gps if r + 1 < k else [])


def _donation_law(m, j, nu_bar, lam, q) -> list:
    """Law of the particle the independent impulse moves: lam_j, lam_{j-1}, ..., lam_{m+1}."""
    return _first_success([_gp_factor(i, nu_bar, lam, q) for i in range(j, m + 1, -1)])


def _moved_pairs(c: Sequence[int]) -> List[Tuple[int, int]]:
    """Consecutive moved lower indices (r, k), from r = 0 (1-based)."""
    pairs = []
    prev = 0
    for k in range(1, len(c) + 1):
        if c[k - 1] == 1:
            pairs.append((prev, k))
            prev = k
    return pairs


def col_beta_prob(ctx: LevelUpdateContext, nu: Signature, beta, a_j, q):
    """Conditional probability of lam -> nu under the Bernoulli column insertion."""
    zero = q * 0
    mv = _upper_moves(ctx, nu, interlaces_v)
    if mv is None:
        return zero
    j, nu_bar, lam = ctx.j, ctx.nu_bar, ctx.lam
    pairs = _moved_pairs(_moves(ctx.lam_bar, nu_bar))
    m = max((k for (_, k) in pairs), default=0)
    w = q * 0 + 1
    for (r, k) in pairs:
        movers = [s for s in range(r + 1, k + 1) if mv[s - 1] == 1]
        if len(movers) != 1:
            return zero
        w *= _pair_law(r, k, nu_bar, lam, q)[k - movers[0]]
    extra = [s for s in range(m + 1, j + 1) if mv[s - 1] == 1]
    if len(extra) > 1:
        return zero
    if not extra:
        return w * (1 / (1 + beta * a_j))
    # the input moved one of lam_{m+1}, ..., lam_j
    return w * (beta * a_j / (1 + beta * a_j)) * _donation_law(m, j, nu_bar, lam, q)[j - extra[0]]


def _sample_col_beta_level(lam_bar, nu_bar, lam, vj, q, rng):
    j = len(lam)
    nu = list(lam)
    pairs = _moved_pairs(_moves(lam_bar, nu_bar))
    for (r, k) in pairs:
        mover = k - _pick(_pair_law(r, k, nu_bar, lam, q), rng.random())
        nu[mover - 1] += 1
    if vj == 1:
        m = max((k for (_, k) in pairs), default=0)
        mover = j - _pick(_donation_law(m, j, nu_bar, lam, q), rng.random())
        nu[mover - 1] += 1
    return tuple(nu)


# ---------------------------------------------------------------------------
# (alpha) row insertion: independent splitting of lower moves
# ---------------------------------------------------------------------------

def _row_alpha_splits(lam_bar, nu_bar, lam, nu) -> Optional[Tuple[Tuple[int, ...], int]]:
    """The split variables W_i and the independent jump V that give nu, or None.

    W_i is the part of the i-th lower move given to the upper-right neighbor:
    nu_i = lam_i + W_i + (c_{i-1} - W_{i-1}), plus V at i = 1.
    """
    j = len(lam)
    c = (0,) + _moves(lam_bar, nu_bar)          # c[i] = c_i, 1-based
    w = [0] * (j + 1)                           # w[i] = W_i, and W_j = 0
    for i in range(j, 1, -1):
        w[i - 1] = c[i - 1] - (nu[i - 1] - lam[i - 1] - w[i])
    v = nu[0] - lam[0] - w[1]
    if v < 0 or any(not 0 <= w[i] <= c[i] for i in range(1, j)):
        return None
    return tuple(w[1:j]), v


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
    zero = q * 0
    reachable = _upper_moves(ctx, nu, interlaces_h) is not None
    rec = _row_alpha_splits(lam_bar, nu_bar, lam, nu) if reachable else None
    if rec is None:
        return zero
    c = _moves(lam_bar, nu_bar)
    total = zero + 1
    for i, wi in enumerate(rec[0], start=1):
        total *= phi_weight(_row_alpha_phi_params(lam_bar, lam, c, i, q), wi)
        if total == 0:
            return zero
    return total / q_pochhammer(q, q, rec[1])


def _row_alpha_u(ctx: LevelUpdateContext, nu: Signature, alpha, a_j, q):
    """`row_alpha_v` with the arguments of the other insertion weights (it is free of alpha a_j)."""
    return row_alpha_v(ctx, nu, q)


def _with_input_law(ctx: LevelUpdateContext, nu: Signature, w, alpha, a_j, q):
    """A normalized weight w times (alpha a_j)^V (alpha a_j; q)_inf for the input V."""
    if w == 0:
        return w
    v = (weight(nu) - weight(ctx.lam)) - (weight(ctx.nu_bar) - weight(ctx.lam_bar))
    return w * (alpha * a_j) ** v * q_pochhammer_inf(alpha * a_j, q)


def row_alpha_prob(ctx: LevelUpdateContext, nu: Signature, alpha, a_j, q):
    """Conditional probability (floating mode: includes the q-geometric jump)."""
    return _with_input_law(ctx, nu, row_alpha_v(ctx, nu, q), alpha, a_j, q)


def _draws(count) -> bool:
    """Whether a split of `count` boxes needs a phi draw: not for a scalar 0.  Over a
    replica axis every replica draws; a count of 0 draws the one point of its support."""
    return isinstance(count, np.ndarray) or count != 0


def _sample_row_alpha_level(lam_bar, nu_bar, lam, vj, q, rng, sampler=None):
    """One level update: the input vj at the left, then each lower move c_i split by W_i.

    The parts and vj are ints, or int64 arrays over replicas with `rng` a numpy
    Generator.  `sampler` is an optional `QSampler` for q, passed on to `phi_sample`.
    """
    j = len(lam)
    c = _moves(lam_bar, nu_bar)
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
#
# Particle i (1-based from the left) is part j - i + 1 of the level.  With n
# boxes of the input still unplaced, particle i < j jumps X_i = n - phi(gap_i,
# inf; n); particle 1 < i < j is then pushed Y_i = h - phi(ell_i, b_i; h) by
# the move ell_i of its lower-left neighbour, h = gap_i - X_i, and paid
# Z_i = (h - Y_i) - phi(R, inf; h - Y_i) from the fund R, which keeps
# ell_i - Y_i - Z_i.  Particle j takes the rest of the input, c_1 and the fund.
# phi(a, b; n) is the weight of `PhiParams.inverse(q, a, b, n)`.  Given the
# remaining input, the X_i are free of alpha a_j; at q = 0 they donate the input.

def _col_alpha_gap(lam_bar, lam, i) -> int:
    return part(lam_bar, len(lam) - i) - part(lam, len(lam) - i + 1)


def _col_alpha_phi_params(lam_bar, lam, c, i, q, split, n, fund=0) -> PhiParams:
    """The phi law of split "X", "Y" or "Z" of particle i < j over n boxes."""
    j = len(lam)
    if split == "X":
        return PhiParams.inverse(q, _col_alpha_gap(lam_bar, lam, i), INF, n)
    if split == "Y":
        return PhiParams.inverse(q, c[j - i], part(lam_bar, j - i) - part(lam_bar, j - i + 1), n)
    return PhiParams.inverse(q, fund, INF, n)


def col_alpha_v(ctx: LevelUpdateContext, nu: Signature, alpha, a_j, q):
    """Normalized conditional weight of the q-geometric column insertion.

    The phi weights of the sampler's choices of X_i and Y_i that give nu
    (Z_i is then fixed by the particle's move), summed and divided by
    (q;q)_V for the input V.  This strips the factor
    (alpha a_j)^V (alpha a_j; q)_inf, so the value is free of alpha and a_j.
    """
    zero = q * 0
    mv = _upper_moves(ctx, nu, interlaces_h)
    v = (weight(nu) - weight(ctx.lam)) - (weight(ctx.nu_bar) - weight(ctx.lam_bar))
    if mv is None or v < 0:
        return zero
    lam_bar, lam, j = ctx.lam_bar, ctx.lam, ctx.j
    c = _moves(lam_bar, ctx.nu_bar)

    def rest(i, remaining, fund):
        """The weight of the choices of particles i..j, given the input and fund left."""
        move = mv[j - i]
        if i == j:
            return zero + 1 if move == remaining + (c[0] if j >= 2 else 0) + fund else zero
        px = _col_alpha_phi_params(lam_bar, lam, c, i, q, "X", remaining)
        if i == 1:  # no lower-left neighbour: the move is the voluntary jump
            wx = phi_weight(px, remaining - move) if move <= remaining else zero
            return wx * rest(2, remaining - move, fund) if wx else zero
        total = zero
        gap, ell = _col_alpha_gap(lam_bar, lam, i), c[j - i]
        for x in range(min(move, remaining) + 1):
            wx = phi_weight(px, remaining - x)
            if wx == 0:
                continue
            h = gap - x
            py = _col_alpha_phi_params(lam_bar, lam, c, i, q, "Y", h)
            for y in range(min(move - x, ell, h) + 1):
                z = move - x - y
                if z <= min(h - y, fund):
                    pz = _col_alpha_phi_params(lam_bar, lam, c, i, q, "Z", h - y, fund)
                    w = wx * phi_weight(py, h - y) * phi_weight(pz, h - y - z)
                    if w:
                        total += w * rest(i + 1, remaining - x, fund + ell - y - z)
        return total

    return rest(1, v, 0) / q_pochhammer(q, q, v)


def col_alpha_prob(ctx: LevelUpdateContext, nu: Signature, alpha, a_j, q):
    """Conditional probability (floating mode)."""
    return _with_input_law(ctx, nu, col_alpha_v(ctx, nu, alpha, a_j, q), alpha, a_j, q)


def _sample_col_alpha_level(lam_bar, nu_bar, lam, vj, q, rng, sampler=None):
    """One level update: the splits of the section comment, particle by particle.

    The parts and vj are ints, or int64 arrays over replicas with `rng` a numpy
    Generator.  `sampler` is an optional `QSampler` for q, passed on to `phi_sample`.
    """
    j = len(lam)
    c = _moves(lam_bar, nu_bar)
    # parts are rebound, never updated in place: an array part of lam is shared
    nu = list(lam)
    remaining = vj
    fund = 0
    for i in range(1, j + 1):
        if i == j:
            x, y, z = remaining, (c[0] if j >= 2 else 0), fund
        else:
            x = y = z = 0
            if _draws(remaining):
                px = _col_alpha_phi_params(lam_bar, lam, c, i, q, "X", remaining)
                x = remaining - phi_sample(px, rng, sampler)
            if i > 1:
                h = _col_alpha_gap(lam_bar, lam, i) - x
                py = _col_alpha_phi_params(lam_bar, lam, c, i, q, "Y", h)
                y = h - phi_sample(py, rng, sampler)
                if _draws(fund):
                    pz = _col_alpha_phi_params(lam_bar, lam, c, i, q, "Z", h - y, fund)
                    z = (h - y) - phi_sample(pz, rng, sampler)
                fund = fund + c[j - i] - y - z
        remaining = remaining - x
        nu[j - i] = nu[j - i] + x + y + z
    return tuple(nu)


# ---------------------------------------------------------------------------
# push-block dynamics
# ---------------------------------------------------------------------------

def _v_strips_above(lam):
    return signatures_between(lam, [x + 1 for x in lam])


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
    rule = _rule(kind)
    if not rule.push_block:
        raise ValueError(f"not a push-block kind: {kind!r}")
    j = len(lam)
    beta = rule.beta
    x = par * a_j
    if not beta:
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
    rule = _rule(kind)
    if len(nu) != len(lam) or not rule.strip(lam, nu) or not interlaces_h(nu_bar, nu):
        return q * 0 if rule.exact else 0.0
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
    """Deterministic propagation of the lower move to level j, plus the input vj.

    Row kinds pull, and their input moves the rightmost particle; column
    kinds push, and their input is pushed in at the left (position j).
    """
    rule = _rule(kind)
    if rule.push_block:
        raise ValueError(f"not an insertion kind: {kind!r}")
    j = len(lam)
    nu = list(lam)
    lower = list(lam_bar)

    def take_input():
        if rule.push:
            for _ in range(vj):
                _push(nu, lower, j)
        else:
            nu[0] += vj

    if rule.input_first:
        take_input()
    move = _push if rule.push else _pull
    for i in range(j - 1, 0, -1) if rule.descending else range(1, j):
        for _ in range(nu_bar[i - 1] - lam_bar[i - 1]):
            move(nu, lower, i)
            lower[i - 1] += 1
    if not rule.input_first:
        take_input()
    return tuple(nu)


def classical_rsk_step(kind: str, arr: InterlacingArray, inputs: Sequence[int]) -> InterlacingArray:
    """One step of the deterministic insertion with the given inputs V_1..V_N."""
    n = len(arr)
    if len(inputs) != n:
        raise ValueError("need one input per level")
    if _rule(kind).beta and any(v not in (0, 1) for v in inputs):
        raise ValueError("Bernoulli kinds need inputs in {0, 1}")
    out: List[Signature] = [(arr[0][0] + inputs[0],)]
    for j in range(2, n + 1):
        out.append(classical_level_update(kind, arr[j - 2], out[j - 2], arr[j - 1], inputs[j - 1]))
    return tuple(out)


# ---------------------------------------------------------------------------
# sampling and exact distributions for whole arrays
# ---------------------------------------------------------------------------

def sample_inputs(spec: DynamicsSpec, rng) -> Tuple[int, ...]:
    """The independent per-level inputs V_1..V_N for one time step.

    Alpha kinds draw from the q-geometric tables of `spec.sampler`, so the
    normaliser log (alpha a_j; q)_inf is computed once per spec and level.
    """
    beta = KINDS[spec.kind].beta  # the spec checked its kind
    vs = []
    for aj in spec.a:
        x = float(spec.step_param * aj)
        if beta:
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
    rule = KINDS[spec.kind]
    if len(spec.a) != n:
        raise ValueError(f"{spec.kind} step: {len(spec.a)} level parameters a_j for {n} levels")
    if inputs is None:
        inputs = sample_inputs(spec, rng)
    elif len(inputs) != n:
        raise ValueError(f"{spec.kind} step: {len(inputs)} inputs for {n} levels")
    out: List[Signature] = [(arr[0][0] + inputs[0],)]
    for j in range(2, n + 1):
        nu_bar = out[-1]
        new = rule.sample_level(spec, j, arr[j - 2], nu_bar, arr[j - 1], inputs[j - 1], rng)
        if not interlaces_h(nu_bar, new):
            raise ValueError(
                f"{spec.kind} step: level {j} {new} does not interlace with level {j - 1} {nu_bar}"
            )
        out.append(new)
    return tuple(out)


def level_candidates(kind: str, lam: Signature, nu_bar: Signature, v_cap: int):
    """All nu with nonzero conditional probability (alpha kinds: input capped at v_cap)."""
    j = len(lam)
    if _rule(kind).beta:
        yield from (nu for nu in _v_strips_above(lam) if interlaces_h(nu_bar, nu))
        return
    lowers = tuple(max(part(lam, i), part(nu_bar, i)) for i in range(1, j + 1))
    uppers = [lowers[0] + v_cap + weight(nu_bar)]
    uppers += [min(part(lam, i - 1), part(nu_bar, i - 1)) for i in range(2, j + 1)]
    yield from signatures_between(lowers, uppers)


def level_transition_prob(spec: DynamicsSpec, j, lam_bar, nu_bar, lam, nu):
    """Exact U_j for the configured dynamics (beta kinds; level 1 included)."""
    rule = _rule(spec.kind)
    if not rule.beta:
        raise NotImplementedError("exact array distributions are for beta kinds")
    q, par, a_j = spec.q, spec.step_param, spec.a[j - 1]
    if j == 1:  # the Bernoulli input alone
        x = par * a_j
        return {0: 1 / (1 + x), 1: x / (1 + x)}.get(nu[0] - lam[0], q * 0)
    return rule.level_weight(lam_bar, nu_bar, lam, nu, par, a_j, q)


def exact_array_distribution(spec: DynamicsSpec, n: int, steps: int):
    """Exact distribution of the array after `steps` steps from the zero array.

    Beta kinds only (finite branching).  `spec.step_param` may be a list of
    per-step parameters.
    """
    pars = spec.step_param
    pars = pars if isinstance(pars, (list, tuple)) else [pars] * steps
    dist = {zero_array(n): spec.q * 0 + 1}
    for t in range(steps):
        step_spec = DynamicsSpec(spec.kind, spec.q, pars[t], spec.a)
        new = {}
        for arr, p in dist.items():
            for (narr, tp) in _array_transitions(step_spec, arr):
                new[narr] = new.get(narr, spec.q * 0) + p * tp
        dist = new
    return dist


def _array_transitions(spec: DynamicsSpec, arr: InterlacingArray):
    """The (array, probability) pairs of one step from arr, built up level by level."""
    paths = [((), spec.q * 0 + 1)]
    for j, lam in enumerate(arr, start=1):
        extended = []
        for prefix, prob in paths:
            lam_bar, nu_bar = (arr[j - 2], prefix[-1]) if j > 1 else ((), ())
            for nu in level_candidates(spec.kind, lam, nu_bar, 1):
                tp = level_transition_prob(spec, j, lam_bar, nu_bar, lam, nu)
                if tp != 0:
                    extended.append((prefix + (nu,), prob * tp))
        paths = extended
    return paths


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

    Exact (a rational zero iff the equation holds) for every kind but the
    usual push-block kind, which is evaluated in floating mode because of its
    non-closed normalization.  The normalised weights of the q-geometric
    insertions enter as they are, the weights of the other kinds with x^(-V).
    """
    rule = _rule(kind)
    x = par * a_j
    if not rule.exact:
        x, q = float(x), float(q)
    # the lower-level branching weight: psi' (Bernoulli input) or phi (q-geometric)
    branching = psi_prime if rule.beta else phi_coef
    rhs = psi(nu, nu_bar, q) * branching(nu, lam, q)
    if rule.beta:
        rhs = rhs / (1 + x)
    elif not rule.normalised:
        rhs = rhs * q_pochhammer_inf(x, q)
    # the push-block law does not depend on the lower starting state lam_bar
    u_push = rule.level_weight(None, nu_bar, lam, nu, par, a_j, q) if rule.push_block else None
    lhs = q * 0
    for lam_bar in _lam_bar_candidates(rule.beta, lam, nu_bar):
        w1 = psi(lam, lam_bar, q)
        if w1 == 0:
            continue
        w2 = branching(nu_bar, lam_bar, q)
        if w2 == 0:
            continue
        u = rule.level_weight(lam_bar, nu_bar, lam, nu, par, a_j, q) if u_push is None else u_push
        if u == 0:
            continue
        if rule.normalised:
            lhs += u * w1 * w2
        else:
            expo = (weight(lam) - weight(nu)) - (weight(lam_bar) - weight(nu_bar))
            lhs += u * x ** expo * w1 * w2
    return lhs - rhs


def main_equation_sweep(kind: str, j: int, max_part: int, par, a_j, q, report=None, tol=None):
    """Check the structural equation on all admissible squares at level j.

    Returns the number of (lam, nu, nu_bar) triples checked; nonzero residuals
    are appended to `report` (and raise if no report list is given).  With
    exact scalars the residual must be exactly zero; pass `tol` (or use the
    usual push-block kind) for floating-mode comparisons.
    """
    rule = _rule(kind)
    if not rule.exact and tol is None:
        tol = 1e-9
    checked = 0
    for lam in enumerate_signatures(max_part, j):
        caps = [max_part] + [min(x, max_part) for x in lam[:-1]]
        ups = _v_strips_above(lam) if rule.beta else signatures_between(lam, caps)
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
