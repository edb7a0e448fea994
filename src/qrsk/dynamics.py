"""The multivariate dynamics on interlacing arrays.

Six kinds: row/column insertion driven by Bernoulli input (dual-parameter
kinds) or by q-geometric input (usual-parameter kinds), and push-block
dynamics (dual exact; usual in floating mode).  `KINDS` holds one record per
kind: its input, its level sampler and exact level weight U_j, and the
classical (q = 0) insertion to which it degenerates.

Each insertion kind's level update is one walk over its hidden choices, in
the order they are drawn: `_sample_<kind>_level(lam_bar, nu_bar, lam, vj, q,
rng, target=None)`.  Given an rng, it draws the choices and returns the
new level.  Given a target nu instead, it takes the choice that nu forces at
each step (at ColAlpha, every free X_i and Y_i in turn) and returns the
product of the choices' weights, summed over the paths that replay nu.  Its
evaluator fixes vj to the input that nu implies and applies the input law.
The push-block kinds share one chain recursion over the parts of the new level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import index, le, mul, sub
from typing import List, NamedTuple, Optional, Sequence, Tuple

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
    Scalar,
    ZeroMassError,
    check_step_params,
    is_array,
    is_exact,
    memoised,
    phi_inverse_draw,
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

    def sample_level(self, spec, j, lam_bar, nu_bar, lam, vj, rng, fn=None) -> Signature:
        fn = fn or globals()[self.sampler]
        if self.push is None:
            return fn(self.name, lam, nu_bar, spec.step_param, spec.a[j - 1], spec.q, rng)
        return fn(lam_bar, nu_bar, lam, vj, spec.q, rng)

    def level_weight(self, ctx: LevelUpdateContext, nu, par, a_j, q):
        fn = globals()[self.weight]
        if self.push_block:  # free of the lower starting state
            return fn(self.name, ctx.lam, ctx.nu_bar, nu, par, a_j, q)
        if self.beta:
            return fn(ctx, nu, par, a_j, q)
        return fn(ctx, nu, q)  # normalised: free of par a_j


KINDS = {rule.name: rule for rule in [
    KindRule(ROW_ALPHA, False, "_sample_row_alpha_level", "row_alpha_v",
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
        if not 0 <= self.q < 1:
            raise ValueError(f"need 0 <= q < 1, got q = {self.q}")
        pars = self.step_param if isinstance(self.step_param, (list, tuple)) else [self.step_param]
        check_step_params(pars, self.a, not _rule(self.kind).beta)

    @cached_property
    def input_params(self) -> Tuple[float, ...]:
        """Per level, the float parameter of its input draw, with x = par a_j: the
        probability x / (1 + x) of a Bernoulli input, or x of a q-geometric one."""
        xs = [float(self.step_param * aj) for aj in self.a]
        return tuple(x / (1 + x) for x in xs) if _rule(self.kind).beta else tuple(xs)


@dataclass(frozen=True)
class LevelUpdateContext:
    """The data conditioning one level update: old level j, move at level j-1.
    The three levels are kept as tuples, so the replay memos can key on them."""

    lam_bar: Signature
    nu_bar: Signature
    lam: Signature
    # beta -> the bounds and input base of `reach`; a sweep asks once per nu
    _reach: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lam_bar", tuple(self.lam_bar))
        object.__setattr__(self, "nu_bar", tuple(self.nu_bar))
        object.__setattr__(self, "lam", tuple(self.lam))
        j = len(self.lam)
        if len(self.lam_bar) != j - 1 or len(self.nu_bar) != j - 1:
            raise ValueError("lower level must be one shorter than the upper")
        if not interlaces_h(self.lam_bar, self.lam):
            raise ValueError("lam_bar must interlace below lam")

    def reach(self, beta: bool) -> Tuple[list, list, int]:
        """(lo, hi, base) for the nu that move lam by a strip (vertical if beta, else
        horizontal) and interlace above nu_bar: those of length j with lo_i <= nu_i <=
        hi_i (`_strip_bounds`), each with the input V = |nu| - base.  Raises ValueError
        unless lam_bar -> nu_bar is such a strip."""
        got = self._reach.get(beta)
        if got is None:
            strip = interlaces_v if beta else interlaces_h
            if not strip(self.lam_bar, self.nu_bar):
                raise ValueError(
                    f"lower transition {self.lam_bar} -> {self.nu_bar}: not {strip.__name__}")
            lo, hi = _strip_bounds(beta, self.lam, self.nu_bar)
            base = weight(self.lam) + weight(self.nu_bar) - weight(self.lam_bar)
            got = self._reach[beta] = lo, hi, base
        return got


def _pt(sig: Sequence[int], i: int):
    """1-based part with the +infinity convention at index 0."""
    return INF if i == 0 else part(sig, i)


def _moves(before: Sequence[int], after: Sequence[int]) -> Tuple[int, ...]:
    """after - before, part by part."""
    return tuple(map(sub, after, before))


def _strip_bounds(beta: bool, lam, nu_bar) -> Tuple[list, list]:
    """Bounds lo_i <= nu_i <= hi_i (0-based i) of the nu that move lam by a strip
    (vertical if beta, else horizontal) and interlace above nu_bar.  Every nu
    within them is one (the bounds make it weakly decreasing); hi_0 is INF for
    a horizontal strip."""
    j = len(lam)
    lo = [max(lam[i], part(nu_bar, i + 1)) for i in range(j)]
    hi = [min(lam[i] + 1 if beta else _pt(lam, i), _pt(nu_bar, i)) for i in range(j)]
    return lo, hi


# ---------------------------------------------------------------------------
# the insertion walks' choices, and their replay against a target level
# ---------------------------------------------------------------------------

def _choose(law, first, step, nu, delta, target, w):
    """The replayed first-success choice among the particles first, first + step, ..., in the
    order of `law`: the first, p, with target_p = nu_p + delta, and w times its weight."""
    for s, ws in enumerate(law):
        p = first + step * s
        if target[p - 1] == nu[p - 1] + delta:
            return p, w * ws
    return first, 0


def _phi_choices(q, a, b, n, k, up_to, rng):
    """Choices of n - s for a split s of n boxes under the law `PhiParams.inverse(q, a, b, n)`,
    with their weights: one drawn by `phi_inverse_draw`, of weight 1, or, replaying (no rng),
    n - s = k (each of 0..k if up_to) where its weight is nonzero (`_replayed_phi_choices`)."""
    if rng is not None:
        return ((n - phi_inverse_draw(q, a, b, n, rng), 1),)
    return _replayed_phi_choices(q, a, b, n, k, up_to)


# The replay memos, `qnum.MEMO_SIZE` entries each.  A replayed walk (no rng) asks for
# the same choice laws, which do not depend on the target nu, for every nu over one
# (lam_bar, nu_bar, lam); these memos hold them.  `main_equation_squares`, and so
# every sweep, empties them when it starts, so each sweep builds its own laws from the
# weights.  A drawing walk reads no memo.
@memoised
def _replayed_phi_choices(q, a, b, n, k, up_to) -> tuple:
    """The replayed choices of `_phi_choices`; the law's parameters are checked on a miss."""
    p = PhiParams.inverse(q, a, b, n)
    return tuple((t, w) for t in range(0 if up_to else max(k, 0), min(k, n) + 1)
                 if (w := phi_weight(p, n - t)))


def _replay(walk, ctx: LevelUpdateContext, nu, q, beta, v_max):
    """The input V that nu implies, and the weight of the walk's choices that give nu
    with it: 0 where nu is out of reach (`LevelUpdateContext.reach`) or V is not in
    0..v_max."""
    nu = tuple(nu)
    lo, hi, base = ctx.reach(beta)
    if len(nu) != len(lo) or not (all(map(le, lo, nu)) and all(map(le, nu, hi))):
        return None, 0
    v = sum(nu) - base
    if not 0 <= v <= v_max:
        return v, 0
    return v, walk(ctx.lam_bar, ctx.nu_bar, ctx.lam, v, q, None, target=nu)


def _bernoulli_input(walk, ctx: LevelUpdateContext, nu, par, a_j, q):
    """U_j of a Bernoulli kind: its replayed walk times the input law x^V / (1 + x),
    x = par a_j."""
    v, w = _replay(walk, ctx, nu, q, True, 1)
    if not w:
        return q * 0
    x = par * a_j
    return w * (x if v else 1) / (1 + x)


def _q_geometric_input(walk, ctx: LevelUpdateContext, nu, q):
    """Normalised U_j of a q-geometric kind: its replayed walk over (q;q)_V."""
    v, w = _replay(walk, ctx, nu, q, False, INF)
    return w / q_pochhammer(q, q, v) if w else q * 0


# ---------------------------------------------------------------------------
# (beta) row insertion: first-success laws, islands of moved particles
# ---------------------------------------------------------------------------

def _first_success(ps) -> list:
    """The law of the first success in trials of success probabilities ps, then a sure one:
    (1 - ps[0])...(1 - ps[s-1]) ps[s], multiplied left to right, and the remainder."""
    weights, rest = [], 1
    for p in ps:
        weights.append(rest * p)  # 1 * p is p, bit for bit
        rest = rest * (1 - p)
    weights.append(rest)
    return weights


def _first_success_pick(ps, u) -> int:
    """The first index whose cumulative float weight in `_first_success(ps)` reaches u, the
    last if none does: one pass that stops there, with the law's float operations in order."""
    acc, rest, s = 0.0, 1, -1
    for s, p in enumerate(ps):
        acc += rest * p
        if u <= acc:
            return s
        rest = rest * (1 - p)
    return s + 1


def _g_factor(i, nu_bar, lam, q):  # parts i <= len(nu_bar); a finite e, so q ** e is qpow(q, e)
    return 1 - q ** (lam[i - 1] - nu_bar[i - 1] + 1)


def _f_factor(i, nu_bar, lam, q):
    return _g_factor(i, nu_bar, lam, q) / (1 - qpow(q, _pt(nu_bar, i - 1) - nu_bar[i - 1] + 1))


def _islands(lam_bar: Sequence[int], nu_bar: Sequence[int]) -> List[Tuple[int, int]]:
    """Maximal runs [k, m] of indices whose lower particle moved, nu_bar_i = lam_bar_i + 1
    (1-based)."""
    runs = []
    for i, (before, after) in enumerate(zip(lam_bar, nu_bar), start=1):
        if after - before == 1:
            if runs and runs[-1][1] == i - 1:
                runs[-1] = (runs[-1][0], i)
            else:
                runs.append((i, i))
    return runs


def _island_trials(k, m, nu_bar, lam, q):
    """Trials of the one particle of island [k, m] that stays: lam_k, lam_{k+1}, ..., lam_{m+1}."""
    yield _f_factor(k, nu_bar, lam, q)
    for i in range(k + 1, m + 1):
        yield _g_factor(i, nu_bar, lam, q)


_replayed_island_law = memoised(lambda *args: _first_success(_island_trials(*args)))


def _sample_row_beta_level(lam_bar, nu_bar, lam, vj, q, rng, target=None):
    """The walk: the input vj moves lam_1; then every particle lam_k..lam_{m+1} of each
    island [k, m] of moved lower particles moves but one, the island law's stayer."""
    nu = list(lam)
    nu[0] += vj
    w = 1
    for (k, m) in _islands(lam_bar, nu_bar):
        if vj == 1 and k == 1:
            stay = 1  # lam_1 took the input, and the rest of its island moves with it
        elif target is None:
            stay = k + _first_success_pick(_island_trials(k, m, nu_bar, lam, q), rng.random())
        else:
            stay, w = _choose(_replayed_island_law(k, m, nu_bar, lam, q), k, 1, nu, 0, target, w)
        for i in range(k, m + 2):
            if i != stay:
                nu[i - 1] += 1
    return tuple(nu) if target is None else (w if tuple(nu) == target else 0)


def row_beta_prob(ctx: LevelUpdateContext, nu: Signature, beta, a_j, q):
    """Conditional probability of lam -> nu under the Bernoulli row insertion."""
    return _bernoulli_input(_sample_row_beta_level, ctx, nu, beta, a_j, q)


# ---------------------------------------------------------------------------
# (beta) column insertion: pairs of moved particles and move donation
# ---------------------------------------------------------------------------

def _gp_factor(s, nu_bar, lam, q):  # s >= 2
    return 1 - q ** (nu_bar[s - 2] - lam[s - 1])


def _fp_factor(k, nu_bar, lam, q):
    return _gp_factor(k, nu_bar, lam, q) / (1 - q ** (nu_bar[k - 2] - nu_bar[k - 1] + 1))


def _pair_trials(r, k, nu_bar, lam, q):
    """Trials of the particle the pair (r, k) of moved lower particles moves: lam_k, ..., lam_{r+1}."""
    if r + 1 < k:
        yield _fp_factor(k, nu_bar, lam, q)
        for i in range(k - 1, r + 1, -1):
            yield _gp_factor(i, nu_bar, lam, q)


def _donation_trials(m, j, nu_bar, lam, q):
    """Trials of the particle the independent impulse moves: lam_j, lam_{j-1}, ..., lam_{m+1}."""
    for i in range(j, m + 1, -1):
        yield _gp_factor(i, nu_bar, lam, q)


_replayed_pair_law = memoised(lambda *args: _first_success(_pair_trials(*args)))
_replayed_donation_law = memoised(lambda *args: _first_success(_donation_trials(*args)))


def _moved_pairs(lam_bar: Sequence[int], nu_bar: Sequence[int]) -> List[Tuple[int, int]]:
    """Consecutive indices (r, k) whose lower particles moved, nu_bar_k = lam_bar_k + 1,
    from r = 0 (1-based)."""
    pairs = []
    prev = 0
    for k, (before, after) in enumerate(zip(lam_bar, nu_bar), start=1):
        if after - before == 1:
            pairs.append((prev, k))
            prev = k
    return pairs


def _sample_col_beta_level(lam_bar, nu_bar, lam, vj, q, rng, target=None):
    """The walk: each moved pair (r, k) of lower particles moves one of lam_k..lam_{r+1};
    then the input vj = 1 moves one of lam_j..lam_{m+1}, m the last moved lower particle."""
    j = len(lam)
    nu = list(lam)
    w = 1
    m = 0
    for (r, k) in _moved_pairs(lam_bar, nu_bar):
        if target is None:
            mover = k - _first_success_pick(_pair_trials(r, k, nu_bar, lam, q), rng.random())
        else:
            mover, w = _choose(_replayed_pair_law(r, k, nu_bar, lam, q), k, -1, nu, 1, target, w)
        nu[mover - 1] += 1
        m = k
    if vj == 1:
        if target is None:
            mover = j - _first_success_pick(_donation_trials(m, j, nu_bar, lam, q), rng.random())
        else:
            mover, w = _choose(_replayed_donation_law(m, j, nu_bar, lam, q), j, -1, nu, 1, target, w)
        nu[mover - 1] += 1
    return tuple(nu) if target is None else (w if tuple(nu) == target else 0)


_REPLAY_MEMOS = (_replayed_phi_choices, _replayed_island_law, _replayed_pair_law,
                 _replayed_donation_law)


def col_beta_prob(ctx: LevelUpdateContext, nu: Signature, beta, a_j, q):
    """Conditional probability of lam -> nu under the Bernoulli column insertion."""
    return _bernoulli_input(_sample_col_beta_level, ctx, nu, beta, a_j, q)


# ---------------------------------------------------------------------------
# (alpha) row insertion: independent splitting of lower moves
# ---------------------------------------------------------------------------

def _draws(count) -> bool:
    """Whether a split of `count` boxes needs a phi draw: not for a scalar 0.  Over a
    replica axis every replica draws; a count of 0 draws the one point of its support."""
    return is_array(count) or count != 0


def _sample_row_alpha_level(lam_bar, nu_bar, lam, vj, q, rng, target=None):
    """The walk: the input vj at the left, then each lower move c_i split, W_i boxes to
    lam_i and the rest to lam_{i+1}, with W_i of law phi(lam_i - lam_bar_i, b_i; c_i).

    Drawn, the parts and vj are ints, or int64 arrays over replicas with `rng` a numpy
    Generator.
    """
    j = len(lam)
    c = _moves(lam_bar, nu_bar)
    # parts are rebound, never updated in place: an array part of lam is shared
    nu = list(lam)
    nu[0] = nu[0] + vj
    w = 1
    for i in range(1, j):
        passed = 0  # c_i - W_i, to lam_{i+1}
        if _draws(c[i - 1]):
            b = INF if i == 1 else lam_bar[i - 2] - lam_bar[i - 1]
            forced = None if target is None else c[i - 1] - (target[i - 1] - nu[i - 1])
            choice = _phi_choices(q, lam[i - 1] - lam_bar[i - 1], b, c[i - 1], forced, False, rng)
            passed, ws = choice[0] if choice else (0, 0)
            w *= ws
        nu[i - 1] = nu[i - 1] + c[i - 1] - passed
        nu[i] = nu[i] + passed
    return tuple(nu) if target is None else (w if tuple(nu) == target else 0)


def row_alpha_v(ctx: LevelUpdateContext, nu: Signature, q):
    """Normalized conditional weight of the q-geometric row insertion.

    This is the conditional probability with the factor
    (alpha a_j)^V (alpha a_j; q)_inf stripped, so it is an exact rational
    function of q alone and is what the main-equation kernel consumes.
    """
    return _q_geometric_input(_sample_row_alpha_level, ctx, nu, q)


def _with_input_law(ctx: LevelUpdateContext, nu: Signature, w, alpha, a_j, q):
    """A normalized weight w times (alpha a_j)^V (alpha a_j; q)_inf for the input V."""
    if w == 0:
        return w
    v = (weight(nu) - weight(ctx.lam)) - (weight(ctx.nu_bar) - weight(ctx.lam_bar))
    return w * (alpha * a_j) ** v * q_pochhammer_inf(alpha * a_j, q)


def row_alpha_prob(ctx: LevelUpdateContext, nu: Signature, alpha, a_j, q):
    """Conditional probability (floating mode: includes the q-geometric jump)."""
    return _with_input_law(ctx, nu, row_alpha_v(ctx, nu, q), alpha, a_j, q)


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
# A replay sums over the X_i and Y_i; X_1 and each Z_i are fixed by the particle's move.

def _col_alpha_gap(lam_bar, lam, i) -> int:
    """lam_bar_{j-i} - lam_{j-i+1} for 1 <= i < j = len(lam)."""
    return lam_bar[len(lam) - i - 1] - lam[len(lam) - i]


def _sample_col_alpha_level(lam_bar, nu_bar, lam, vj, q, rng, target=None):
    """The walk: the splits of the section comment, particle by particle, on each open
    path of choices: the one drawn, or every replay whose parts so far are the target's.

    Drawn, the parts and vj are ints, or int64 arrays over replicas with `rng` a numpy
    Generator.
    """
    j = len(lam)
    c = _moves(lam_bar, nu_bar)
    # parts are rebound, never updated in place: an array part of lam is shared
    nu = list(lam)
    paths = [(vj, 0, 1)]  # per path of choices: the input left, the fund, the weight
    for i in range(1, j):
        p = j - i
        move = None if target is None else target[p] - lam[p]
        gap, ell = _col_alpha_gap(lam_bar, lam, i), (c[p] if i > 1 else 0)
        extended = []
        for remaining, fund, w in paths:
            xs = ((0, 1),)
            if _draws(remaining):
                xs = _phi_choices(q, gap, INF, remaining, move, i > 1, rng)
            for x, wx in xs:
                left = None if move is None else move - x  # replaying: what Y_i and Z_i add
                h, ys = 0, ((0, 1),)  # particle 1 has no lower-left neighbour to push it
                if i > 1:
                    h = gap - x
                    b = lam_bar[p - 1] - lam_bar[p]
                    ys = _phi_choices(q, ell, b, h, left, True, rng)
                for y, wy in ys:
                    zs = ((0, 1),)
                    if _draws(fund):
                        z_left = None if left is None else left - y
                        zs = _phi_choices(q, fund, INF, h - y, z_left, False, rng)
                    for z, wz in zs:
                        nu[p] = lam[p] + x + y + z
                        if target is None or nu[p] == target[p]:
                            extended.append((remaining - x, fund + ell - y - z, w * wx * wy * wz))
        paths = extended
    total = 0
    for remaining, fund, w in paths:  # particle j takes the rest of the input, c_1 and the fund
        nu[0] = lam[0] + remaining + (c[0] if j >= 2 else 0) + fund
        if target is None or nu[0] == target[0]:
            total += w
    return tuple(nu) if target is None else total


def col_alpha_v(ctx: LevelUpdateContext, nu: Signature, q):
    """Normalized conditional weight of the q-geometric column insertion.

    Its replayed walk over (q;q)_V for the input V.  This strips the factor
    (alpha a_j)^V (alpha a_j; q)_inf, so the value is free of alpha and a_j.
    """
    return _q_geometric_input(_sample_col_alpha_level, ctx, nu, q)


def col_alpha_prob(ctx: LevelUpdateContext, nu: Signature, alpha, a_j, q):
    """Conditional probability (floating mode)."""
    return _with_input_law(ctx, nu, col_alpha_v(ctx, nu, q), alpha, a_j, q)


# ---------------------------------------------------------------------------
# push-block dynamics
# ---------------------------------------------------------------------------

def _v_strips_above(lam):
    return signatures_between(lam, [x + 1 for x in lam])


def _psi_rows(v, ws, nb, q, exact):
    """The rows psi_{(v, w)/(nb)} over w in ws for v, v + 1, ...: each entry from the
    memoised psi (exact), or one psi call for the first and one-step ratios for the
    rest: (1 - q^(nb - w)) / (1 - q^(v - w)) along w, (1 - q^(v - w)) / (1 - q^(v - nb)) to v."""
    while exact:
        yield [psi((v, w), (nb,), q) for w in ws]
        v += 1
    row = [psi((v, ws.start), (nb,), q)] if ws else []
    for w in ws[:-1]:
        row.append(row[-1] * (1 - q ** (nb - w)) / (1 - q ** (v - w)))
    while True:
        yield row
        v += 1
        c = 1 - q ** (v - nb)
        row = [e * (1 - q ** (v - w)) / c for e, w in zip(row, ws)]


def _push_block_chain(kind, lam, nu_bar, par, a_j, q):
    """The push-block weight of one level as a nearest-neighbour chain in nu_1..nu_j.

    With x = par a_j, x^|nu| psi_{nu/nu_bar} psi'_{nu/lam} (phi_{nu/lam} for the
    usual kind) is x^(sum lo) prod_i node_i(nu_i) prod_i E_i(nu_i, nu_{i+1})
    (0-based i), each nu_i over its own interval from lo_i.  The node holds
    x^(nu_i - lo_i), so no weight underflows, and the phi factor of nu_i, walked
    from one phi_coef call by its ratio x (1 - q^(lam_{i-1} - v)) / (1 - q^(v + 1 -
    lam_i)); E_i is the psi (`_psi_rows`) and psi' weight of the pair over nu_bar_i.

    Returns (ranges, nodes, rows, back, total): the values kept for each nu_i;
    node_i(v), E_i(v, .) over ranges[i + 1] and the sum of the factors of
    nu_i..nu_j given nu_i = v, each indexed by v - lo_i; and sum(back[0]).  The
    usual kind is floating-mode only.  Past nu_i = v, back grows by at most
    rho = x / ((1 - q^(v + 1 - lam_i)) (1 - q^(v + 1 - nu_bar_i))) a step, so nu_i
    is cut at v once back rho / (1 - rho) is at most 2^-50 of the column so far.
    A float sum past the float range raises OverflowError.
    """
    rule = _rule(kind)
    if not rule.push_block:
        raise ValueError(f"not a push-block kind: {kind!r}")
    j, beta = len(lam), rule.beta
    x = par * a_j
    exact = beta and is_exact(x) and is_exact(q)
    if not exact:
        x, q = float(x), float(q)
        if not (beta or 0 <= x < 1):
            raise ValueError(f"need 0 <= alpha a_j < 1, got {x}")
    lo, hi = _strip_bounds(beta, lam, nu_bar)
    nb = (*nu_bar, 0)
    ranges, nodes, back = [None] * j, [[] for _ in lam], [[] for _ in lam]
    rows = [[] for _ in nu_bar]
    for i in range(j - 1, -1, -1):
        pairs = _psi_rows(lo[i], ranges[i + 1], nb[i], q, exact) if i < j - 1 else None
        v, total = lo[i], 0
        seed = ((lam[i - 1], v), lam[i - 1:i + 1]) if i else ((v,), lam[:1])
        node = x ** 0 if beta else phi_coef(*seed, q)
        while v <= hi[i]:
            col = node
            if pairs:
                row = next(pairs)
                if beta and v == lam[i]:  # psi' of the pair
                    row = [e * (1 - q ** (v - lam[i + 1])) if w == lam[i + 1] + 1 else e
                           for e, w in zip(row, ranges[i + 1])]
                rows[i].append(row)
                col *= sum(map(mul, row, back[i + 1]))
            nodes[i].append(node)
            back[i].append(col)
            total += col
            if not exact and not math.isfinite(total):
                raise OverflowError(f"{kind}: a weight above {lam} is past the float range at q = {q}")
            if beta:
                node *= x
            else:
                d = 1 - q ** (v + 1 - lam[i])
                rho = x / d / (1 - q ** (v + 1 - nb[i]))
                if col * rho <= 2.0 ** -50 * total * (1 - rho):
                    break
                node *= x * (1 - qpow(q, _pt(lam, i) - v)) / d
            v += 1
        ranges[i] = range(lo[i], lo[i] + len(back[i]))
    return ranges, nodes, rows, back, total


# Entries kept by the memos of the main-equation sweep.  The sweep runs nu
# innermost, so consecutive calls share their (lam, nu_bar) and a few entries
# serve it; a larger memo only holds more Fractions.
SQUARE_MEMO_SIZE = 4

# The chain of one (lam, nu_bar), for exact push_block_prob calls, which ask
# for it once per nu.  Float calls and the sampler rebuild it: their
# arguments do not repeat.
_exact_push_block_chain = lru_cache(maxsize=SQUARE_MEMO_SIZE, typed=True)(_push_block_chain)


def push_block_prob(kind: str, lam, nu_bar, nu, par, a_j, q):
    """Conditional probability not depending on the lower starting state.

    The dual kind is exact (the normalizing sum is finite); the usual kind
    cuts each nu_i (see `_push_block_chain`) and is floating-mode only: a
    level past a cut, of probability at most about 2^-50, reads 0.0.
    """
    exact = is_exact(par) and is_exact(a_j) and is_exact(q)
    chain = _exact_push_block_chain if exact else _push_block_chain
    ranges, nodes, rows, _, total = chain(kind, tuple(lam), tuple(nu_bar), par, a_j, q)
    # within the bounds of `_strip_bounds`, nu is a strip above lam over nu_bar
    if len(nu) != len(lam) or not all(map(range.__contains__, ranges, nu)):
        return q * 0 if _rule(kind).exact else 0.0
    ks = [v - r.start for v, r in zip(nu, ranges)]
    w = math.prod(node[k] for node, k in zip(nodes, ks))
    w *= math.prod(row[k][m] for row, k, m in zip(rows, ks, ks[1:]))
    return w / total


def _sample_push_block_level(kind, lam, nu_bar, par, a_j, q, rng):
    """Draw nu_1 from the chain's backward sums, then each nu_{i+1} given nu_i from its row."""
    ranges, _, rows, back, _ = _push_block_chain(kind, lam, nu_bar, par, a_j, q)
    nu = []
    weights = back[0]
    for i, values in enumerate(ranges):
        if i:
            weights = list(map(mul, rows[i - 1][nu[-1] - ranges[i - 1].start], back[i]))
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
    """One step of the deterministic insertion with the given inputs V_1..V_N.

    Raises ValueError unless there is one input per level, each in the
    support of the input law, as `sample_step` does."""
    n = len(arr)
    if len(inputs) != n:
        raise ValueError("need one input per level")
    _check_inputs(kind, _rule(kind).beta, inputs)
    out: List[Signature] = [(arr[0][0] + inputs[0],)]
    for j in range(2, n + 1):
        out.append(classical_level_update(kind, arr[j - 2], out[j - 2], arr[j - 1], inputs[j - 1]))
    return tuple(out)


# ---------------------------------------------------------------------------
# sampling and exact distributions for whole arrays
# ---------------------------------------------------------------------------

# The inputs a Bernoulli kind takes; a set, so that checking a step's inputs is one C call.
_BERNOULLI_SUPPORT = frozenset((0, 1))
# The type of the inputs that `sample_inputs` draws.
_PYTHON_INT = frozenset((int,))


def _check_inputs(kind: str, beta: bool, inputs) -> None:
    """Raise ValueError unless every input is in the support of the input law:
    0 or 1 for a Bernoulli kind, an int >= 0 for a q-geometric one.

    Python and numpy ints count; bool does not, as in `qnum.is_exact`, nor
    does a float or Fraction, even an integral one.  Inputs that are all
    Python ints cost two C-level passes.
    """
    values = inputs
    try:
        if not _PYTHON_INT.issuperset(map(type, inputs)):
            if bool in map(type, inputs):
                raise TypeError("bool input")
            values = list(map(index, inputs))  # TypeError for a float or Fraction
        ok = _BERNOULLI_SUPPORT.issuperset(values) if beta else not values or min(values) >= 0
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{kind} step: need inputs {'in {0, 1}' if beta else 'ints >= 0'}, "
                         f"got {tuple(inputs)}")


def sample_inputs(spec: DynamicsSpec, rng) -> Tuple[int, ...]:
    """The independent per-level inputs V_1..V_N for one time step.

    Alpha kinds draw from the memoised q-geometric tables of `qnum`, so the
    table of each (alpha a_j, q) is built once.
    """
    if KINDS[spec.kind].beta:  # the spec checked its kind
        return tuple([1 if rng.random() < p else 0 for p in spec.input_params])
    q = float(spec.q)
    return tuple([sample_q_geometric(x, q, rng) for x in spec.input_params])


def sample_step(
    spec: DynamicsSpec, arr: InterlacingArray, rng, inputs: Optional[Sequence[int]] = None
) -> InterlacingArray:
    """One time step of the multivariate dynamics.  Every level is drawn by the kind's level
    sampler, looked up by name once per step, so a double installed before the step serves it.

    Raises ValueError if the spec has not one a_j, or `inputs` not one input, per level of
    `arr`, if an input is outside the support of the input law (0 or 1 for a Bernoulli kind,
    an int >= 0 for a q-geometric one; a bool or a float is not an int here), or if a level
    update returns a level that does not interlace with the one below it.
    """
    n = len(arr)
    rule = KINDS[spec.kind]
    if len(spec.a) != n:
        raise ValueError(f"{spec.kind} step: {len(spec.a)} level parameters a_j for {n} levels")
    if inputs is None:
        inputs = sample_inputs(spec, rng)
    elif len(inputs) != n:
        raise ValueError(f"{spec.kind} step: {len(inputs)} inputs for {n} levels")
    else:
        _check_inputs(spec.kind, rule.beta, inputs)
    fn = globals()[rule.sampler]
    nu_bar = (arr[0][0] + inputs[0],)
    out: List[Signature] = [nu_bar]
    for j, (lam_bar, lam, vj) in enumerate(zip(arr, arr[1:], inputs[1:]), start=2):
        new = rule.sample_level(spec, j, lam_bar, nu_bar, lam, vj, rng, fn)
        # interlaces_h(nu_bar, new) for a new of length j: new_1 >= nu_bar_1 >= ... >= new_j >= 0
        ok = len(new) == j and new[-1] >= 0
        if ok:
            for m, upper, lower in zip(nu_bar, new, new[1:]):
                if not upper >= m >= lower:
                    ok = False
                    break
        if not ok:
            raise ValueError(
                f"{spec.kind} step: level {j} {new} does not interlace with level {j - 1} {nu_bar}"
            )
        out.append(new)
        nu_bar = new
    return tuple(out)


def level_candidates(kind: str, lam: Signature, nu_bar: Signature, v_cap: int):
    """All nu with nonzero conditional probability (alpha kinds: input capped at v_cap)."""
    beta = _rule(kind).beta
    lo, hi = _strip_bounds(beta, lam, nu_bar)
    if not beta:
        hi[0] = lo[0] + v_cap + weight(nu_bar)
    yield from signatures_between(lo, hi)


def level_transition_prob(spec: DynamicsSpec, j, lam_bar, nu_bar, lam, nu):
    """Exact U_j for the configured dynamics (beta kinds; level 1 included)."""
    rule = _rule(spec.kind)
    if not rule.beta:
        raise NotImplementedError("exact array distributions are for beta kinds")
    q, par, a_j = spec.q, spec.step_param, spec.a[j - 1]
    if j == 1:  # the Bernoulli input alone
        x = par * a_j
        return {0: 1 / (1 + x), 1: x / (1 + x)}.get(nu[0] - lam[0], q * 0)
    return rule.level_weight(LevelUpdateContext(lam_bar, nu_bar, lam), nu, par, a_j, q)


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


class _Square(NamedTuple):
    """The side of the main equation free of nu, over one (lam, nu_bar)."""

    terms: tuple  # (context, coefficient) per lower starting state lam_bar
    coef_sum: Optional[Scalar]  # push-block kinds, whose law is free of lam_bar: their sum
    x: Scalar  # par a_j
    q: Scalar  # q, a float for PushBlockAlpha
    rhs_factor: Optional[Scalar]  # the right side's divisor 1 + x (Bernoulli), or factor (x; q)_inf
    zero: Scalar


@lru_cache(maxsize=SQUARE_MEMO_SIZE, typed=True)
def _square_terms(kind: str, lam, nu_bar, par, a_j, q) -> _Square:
    """The nu-free side of the main equation on the squares over (lam, nu_bar).

    One (context, coefficient) pair per lower starting state lam_bar whose
    coefficient psi_{lam/lam_bar} b_{nu_bar/lam_bar} is nonzero, with b the
    lower branching weight (psi' or phi), times x^(|nu_bar| - |lam_bar|) for
    the kinds that are not normalised; and the scalars that
    `main_equation_residual` would otherwise rebuild for every nu.
    """
    rule = KINDS[kind]
    x = par * a_j
    if not rule.exact:
        x, q = float(x), float(q)
    branching = psi_prime if rule.beta else phi_coef
    terms = []
    for lam_bar in _lam_bar_candidates(rule.beta, lam, nu_bar):
        w1 = psi(lam, lam_bar, q)
        if w1 == 0:
            continue
        w2 = branching(nu_bar, lam_bar, q)
        if w2 == 0:
            continue
        coef = w1 * w2
        if not rule.normalised:
            coef *= x ** (weight(nu_bar) - weight(lam_bar))
        terms.append((LevelUpdateContext(lam_bar, nu_bar, lam), coef))
    rhs_factor = None
    if rule.beta:
        rhs_factor = 1 + x
    elif not rule.normalised:
        rhs_factor = q_pochhammer_inf(x, q)
    coef_sum = sum(coef for _, coef in terms) if rule.push_block else None
    return _Square(tuple(terms), coef_sum, x, q, rhs_factor, q * 0)


MAIN_EQ_FLOAT_TOL = 1e-9  # the largest |residual| a floating-mode main equation may leave


def main_equation_residual(kind: str, lam, nu, nu_bar, par, a_j, q, alpha_float=False):
    """LHS minus RHS of the structural equation the dynamics must satisfy.

    Exact (a rational zero iff the equation holds) for every kind but the
    usual push-block kind, which is evaluated in floating mode because of its
    non-closed normalization.  The normalised weights of the q-geometric
    insertions enter as they are, the weights of the other kinds with x^(-V).
    The terms free of nu come from `_square_terms`, a memo of a few entries:
    call with nu innermost, as `main_equation_squares` does.

    `alpha_float` is not read.  It stays because callers pass it by
    position: the fault-injection fake of the benchmark's self-test does.
    """
    rule = _rule(kind)
    sq = _square_terms(kind, tuple(lam), tuple(nu_bar), par, a_j, q)
    x, q = sq.x, sq.q
    # the lower-level branching weight: psi' (Bernoulli input) or phi (q-geometric)
    branching = psi_prime if rule.beta else phi_coef
    rhs = psi(nu, nu_bar, q) * branching(nu, lam, q)
    if rule.beta:
        rhs = rhs / sq.rhs_factor
    elif not rule.normalised:
        rhs = rhs * sq.rhs_factor
    lhs = sq.zero
    if rule.push_block:
        # the push-block law does not depend on the lower starting state lam_bar
        if sq.terms:
            lhs = rule.level_weight(sq.terms[0][0], nu, par, a_j, q) * sq.coef_sum
    else:
        parts = []
        for ctx, coef in sq.terms:
            u = rule.level_weight(ctx, nu, par, a_j, q)
            if u != 0:
                parts.append(u * coef)
        if parts:  # the first term starts the sum: no addition to zero
            lhs = sum(parts[1:], parts[0])
    v = weight(nu) - weight(lam)
    if v and not rule.normalised:
        lhs = lhs / x ** v
    return lhs - rhs


def main_equation_squares(kind: str, j: int, max_part: int, par, a_j, q):
    """Yield (lam, nu, nu_bar, residual) on every admissible square at level j, parts <= max_part.

    The residual is `main_equation_residual`'s.  The squares run with nu
    innermost, so each (lam, nu_bar) builds its terms free of nu once.  The
    replay memos are emptied when the first square is asked for: each sweep
    builds the choice laws of its walks from the weights.
    """
    rule = _rule(kind)
    for memo in _REPLAY_MEMOS:
        memo.cache_clear()
    for lam in enumerate_signatures(max_part, j):
        # nu_bar_i lies between nu_{i+1} >= lam_{i+1} and nu_i, at most the strip's reach and max_part
        reach = [min(lam[i] + 1 if rule.beta else _pt(lam, i), max_part) for i in range(j - 1)]
        for nu_bar in signatures_between(lam[1:], reach):
            lo, hi = _strip_bounds(rule.beta, lam, nu_bar)
            hi[0] = min(hi[0], max_part)
            for nu in signatures_between(lo, hi):
                yield lam, nu, nu_bar, main_equation_residual(kind, lam, nu, nu_bar, par, a_j, q)


def main_equation_sweep(kind: str, j: int, max_part: int, par, a_j, q, report=None):
    """Check the structural equation on all admissible squares at level j.

    Returns the number of squares checked; the failing ones are appended to
    `report` (and raise if no report list is given).  A residual must be 0
    with exact scalars, and at most `MAIN_EQ_FLOAT_TOL` with a float one or
    PushBlockAlpha.
    """
    floating = not _rule(kind).exact or not all(map(is_exact, (par, a_j, q)))
    checked = 0
    for lam, nu, nu_bar, r in main_equation_squares(kind, j, max_part, par, a_j, q):
        checked += 1
        if (not abs(r) <= MAIN_EQ_FLOAT_TOL) if floating else r != 0:
            item = {"kind": kind, "lam": lam, "nu": nu, "nu_bar": nu_bar, "residual": str(r)}
            if report is None:
                raise AssertionError(f"main equation violated: {item}")
            report.append(item)
    return checked
