"""One-dimensional marginal particle systems and their exact distributions.

Conventions follow the array marginals they come from: the two PushTASEPs
jump left (coordinates x_i = -(rightmost array particle at level i) - i), the
two TASEPs jump right.  `flip(cfg)` maps between the conventions.  The step
initial configuration is x_i(0) = -i.
"""

from __future__ import annotations

from operator import add
from typing import Sequence, Tuple

from .gt import chain_paths, evolve
from .qnum import (INF, PhiParams, check_step_params, memoised, phi_inverse_draw, phi_sample,
                   sample_q_geometric)

ParticleConfig = Tuple[int, ...]


def step_config(n: int) -> ParticleConfig:
    return tuple(-i for i in range(1, n + 1))


def flip(cfg: Sequence[int]) -> ParticleConfig:
    """Mirror a configuration, exchanging the left/right jump conventions."""
    return tuple(-x for x in cfg)


def _check_config(x: Sequence[int], n: int) -> None:
    """Raise ValueError unless x holds n particles, strictly decreasing."""
    if n != len(x):
        raise ValueError(f"{n} level parameters a_j for {len(x)} particles")
    for i in range(n - 1):
        if x[i] <= x[i + 1]:
            raise ValueError("particles must be strictly decreasing")


def _jump_prob(push, cfg, j, b, q, prev_jumped):
    """Jump probability of particle j, b = beta a_j, of the Bernoulli q-PushTASEP (push)
    or q-TASEP.  Its own jump has probability b / (1 + b).  In the PushTASEP a jump of
    particle j - 1 also pushes it with probability q^gap; in the q-TASEP it is blocked
    with probability q^gap unless particle j - 1 jumped.  Particle 0 jumps freely."""
    if j == 0 or prev_jumped != push:
        return b / (1 + b)
    gap_factor = q ** (cfg[j - 1] - cfg[j] - 1)
    return (b + gap_factor) / (1 + b) if push else b * (1 - gap_factor) / (1 + b)


@memoised
def _step_plan(system: str, par, q, *a) -> tuple:
    """The checked parameters of a float step of `system` ('BernoulliPush',
    'BernoulliTasep', 'GeometricPush' or 'GeometricTasep'): (float q, each
    particle's float par a_j) and, for a Bernoulli system, each particle's free
    jump probability.

    Raises ValueError where the step's parameter checks fail.  Each a_j is an
    argument of its own, so that the memo's key counts its type: equal a_j of
    two types can give two products (F(1, 10) * 7 is 7/10, F(1, 10) * 7.0 is
    0.7000000000000001), and the key of a tuple would count only the tuple's.
    """
    bernoulli = system.startswith("Bernoulli")
    if not 0 <= q < 1:
        raise ValueError(f"need 0 <= q < 1, got q = {q}")
    check_step_params((par,), a, not bernoulli)
    q = float(q)
    xs = tuple([float(par * aj) for aj in a])
    if not bernoulli:
        return q, xs
    push = system == "BernoulliPush"
    return q, xs, tuple([_jump_prob(push, (), 0, x, q, False) for x in xs])


def _bernoulli_step(push, cfg, beta, a, q, rng) -> ParticleConfig:
    q, xs, free = _step_plan("BernoulliPush" if push else "BernoulliTasep", beta, q, *a)
    _check_config(cfg, len(xs))
    x = list(cfg)
    jumped = False
    for j, p in enumerate(free):
        if j and jumped == push:  # a neighbour that jumped may push it, one that stayed may block it
            p = _jump_prob(push, cfg, j, xs[j], q, jumped)
        jumped = rng.random() < p
        if jumped:
            x[j] += -1 if push else 1
    return tuple(x)


def bernoulli_qpush_step(cfg, beta, a, q, rng) -> ParticleConfig:
    """One step of the Bernoulli q-PushTASEP (left jumps)."""
    return _bernoulli_step(True, cfg, beta, a, q, rng)


def bernoulli_qtasep_step(cfg, beta, a, q, rng) -> ParticleConfig:
    """One step of the Bernoulli q-TASEP (right jumps)."""
    return _bernoulli_step(False, cfg, beta, a, q, rng)


def geometric_qpush_step(cfg, alpha, a, q, rng) -> ParticleConfig:
    """One step of the geometric q-PushTASEP (left jumps).

    x_j jumps by an independent q-geometric amount plus a push split off the
    move of its right neighbor.
    """
    q, xs = _step_plan("GeometricPush", alpha, q, *a)
    _check_config(cfg, len(xs))
    x = list(cfg)
    for j, xj in enumerate(xs):
        v = sample_q_geometric(xj, q, rng)
        w = 0
        if j > 0:
            c = cfg[j - 1] - x[j - 1]  # left displacement of the neighbor
            if c > 0:
                gap = cfg[j - 1] - cfg[j] - 1
                w = phi_inverse_draw(q, gap, INF, c, rng)
        x[j] -= v + w
    return tuple(x)


def geometric_qtasep_step(cfg, alpha, a, q, rng) -> ParticleConfig:
    """One step of the geometric q-TASEP (right jumps)."""
    q, xs = _step_plan("GeometricTasep", alpha, q, *a)
    _check_config(cfg, len(xs))
    x = list(cfg)
    for j, xj in enumerate(xs):
        gap = INF if j == 0 else cfg[j - 1] - cfg[j] - 1
        if gap == INF:
            w = sample_q_geometric(xj, q, rng)
        elif gap == 0:
            w = 0
        else:
            w = phi_sample(PhiParams.direct(q, xj, 0.0, gap), rng)
        x[j] += w
    return tuple(x)


# ---------------------------------------------------------------------------
# exact trajectory distributions (Bernoulli systems: finite branching)
# ---------------------------------------------------------------------------

def evolve_distribution(dist, system: str, steps: int, beta, a, q):
    """Push an exact configuration distribution through `steps` updates of the
    'BernoulliPush' or 'BernoulliTasep' system.  Raises ValueError where a step
    function would, except that q = 1 is allowed: its pushes and blocks are then
    certain, and each step is still a law."""
    if system not in ("BernoulliPush", "BernoulliTasep"):
        raise ValueError(f"unknown Bernoulli system {system!r}")
    if not 0 <= q <= 1:
        raise ValueError(f"need 0 <= q < 1 or q = 1, got q = {q}")
    check_step_params((beta,), a, False)
    for cfg in dist:
        _check_config(cfg, len(a))
    push = system == "BernoulliPush"
    one = q * 0 + 1

    def moves(cfg):
        def jumps(j, path):  # stay, or jump with the probability set by particle j - 1
            p = _jump_prob(push, cfg, j, beta * a[j], q, bool(path) and path[-1] != 0)
            return (0, one - p), (-1 if push else 1, p)
        return [(tuple(map(add, cfg, path)), p) for path, p in chain_paths(len(cfg), jumps, one)]

    return evolve(dist, steps, moves, q * 0)


def exact_trajectory_distribution(system: str, n: int, t: int, beta, a, q, t2: int = 0):
    """Exact time-t distribution from the step initial configuration.

    system 'BernoulliPush' | 'BernoulliTasep' | 'TwoPart'; for 'TwoPart',
    `t` right-jumping TASEP steps are followed by `t2` left-jumping PushTASEP
    steps (both with the same parameters).
    """
    dist = {step_config(n): q * 0 + 1}
    if system == "TwoPart":
        dist = evolve_distribution(dist, "BernoulliTasep", t, beta, a, q)
        return evolve_distribution(dist, "BernoulliPush", t2, beta, a, q)
    return evolve_distribution(dist, system, t, beta, a, q)


def coupling_check(n: int, t: int, beta, a, q) -> bool:
    """Exact distributional identity between the two Bernoulli systems.

    The shifted PushTASEP {t + x_i(t)} with parameters (beta, a) must equal
    the q-TASEP with inverted parameters (1/beta, 1/a).
    """
    push = exact_trajectory_distribution("BernoulliPush", n, t, beta, a, q)
    shifted = {tuple(x + t for x in cfg): p for cfg, p in push.items()}
    inv_a = [1 / ai for ai in a]
    tasep = exact_trajectory_distribution("BernoulliTasep", n, t, 1 / beta, inv_a, q)
    return shifted == tasep
