"""One-dimensional marginal particle systems and their exact distributions.

Conventions follow the array marginals they come from: the two PushTASEPs
jump left (coordinates x_i = -(rightmost array particle at level i) - i), the
two TASEPs jump right.  `flip(cfg)` maps between the conventions.  The step
initial configuration is x_i(0) = -i.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .qnum import INF, PhiParams, check_step_params, phi_sample, sample_q_geometric

ParticleConfig = Tuple[int, ...]


def step_config(n: int) -> ParticleConfig:
    return tuple(-i for i in range(1, n + 1))


def flip(cfg: Sequence[int]) -> ParticleConfig:
    """Mirror a configuration, exchanging the left/right jump conventions."""
    return tuple(-x for x in cfg)


def _check_step(x: Sequence[int], q, par, a, alpha: bool, q_one: bool = False) -> None:
    """Raise ValueError unless 0 <= q < 1 (or q = 1, with `q_one`), a holds one a_j
    per particle, each par a_j is in range and x is strictly decreasing."""
    if not (0 <= q < 1 or q_one and q == 1):
        raise ValueError(f"need 0 <= q < 1{' or q = 1' if q_one else ''}, got q = {q}")
    if len(a) != len(x):
        raise ValueError(f"{len(a)} level parameters a_j for {len(x)} particles")
    check_step_params((par,), a, alpha)
    for i in range(len(x) - 1):
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


def _bernoulli_step(push, cfg, beta, a, q, rng) -> ParticleConfig:
    _check_step(cfg, q, beta, a, False)
    q = float(q)
    x = list(cfg)
    jumped = False
    for j in range(len(x)):
        jumped = rng.random() < _jump_prob(push, cfg, j, float(beta * a[j]), q, jumped)
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
    _check_step(cfg, q, alpha, a, True)
    q = float(q)
    x = list(cfg)
    for j in range(len(x)):
        v = sample_q_geometric(float(alpha * a[j]), q, rng)
        w = 0
        if j > 0:
            c = cfg[j - 1] - x[j - 1]  # left displacement of the neighbor
            if c > 0:
                gap = cfg[j - 1] - cfg[j] - 1
                w = phi_sample(PhiParams.inverse(q, gap, INF, c), rng)
        x[j] -= v + w
    return tuple(x)


def geometric_qtasep_step(cfg, alpha, a, q, rng) -> ParticleConfig:
    """One step of the geometric q-TASEP (right jumps)."""
    _check_step(cfg, q, alpha, a, True)
    q = float(q)
    x = list(cfg)
    for j in range(len(x)):
        xj = alpha * a[j]
        gap = INF if j == 0 else cfg[j - 1] - cfg[j] - 1
        if gap == INF:
            w = sample_q_geometric(float(xj), q, rng)
        elif gap == 0:
            w = 0
        else:
            w = phi_sample(PhiParams.direct(q, float(xj), 0.0, gap), rng)
        x[j] += w
    return tuple(x)


# ---------------------------------------------------------------------------
# exact trajectory distributions (Bernoulli systems: finite branching)
# ---------------------------------------------------------------------------

def _bernoulli_transitions(system, cfg, beta, a, q):
    """(configuration, probability) over the one-step moves of a Bernoulli system."""
    push = system == "BernoulliPush"
    direction = -1 if push else 1
    one = q * 0 + 1

    def rec(j, x, prob, prev_jumped):
        if j == len(x):
            yield tuple(x), prob
            return
        p = _jump_prob(push, cfg, j, beta * a[j], q, prev_jumped)
        for jumped in (False, True):
            pr = p if jumped else one - p
            if pr == 0:
                continue
            x[j] += direction if jumped else 0
            yield from rec(j + 1, x, prob * pr, jumped)
            x[j] -= direction if jumped else 0

    yield from rec(0, list(cfg), one, False)


def evolve_distribution(dist, system: str, steps: int, beta, a, q):
    """Push an exact configuration distribution through `steps` updates of the
    'BernoulliPush' or 'BernoulliTasep' system.  Raises ValueError where a step
    function would, except that q = 1 is allowed: its pushes and blocks are then
    certain, and each step is still a law."""
    if system not in ("BernoulliPush", "BernoulliTasep"):
        raise ValueError(f"unknown Bernoulli system {system!r}")
    for cfg in dist:
        _check_step(cfg, q, beta, a, False, q_one=True)
    for _ in range(steps):
        new: Dict[ParticleConfig, object] = {}
        for cfg, p in dist.items():
            for ncfg, tp in _bernoulli_transitions(system, cfg, beta, a, q):
                new[ncfg] = new.get(ncfg, q * 0) + p * tp
        dist = new
    return dist


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
