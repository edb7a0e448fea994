"""One-dimensional marginal particle systems and their exact distributions.

Conventions follow the array marginals they come from: the two PushTASEPs
jump left (coordinates x_i = -(rightmost array particle at level i) - i), the
two TASEPs jump right.  `flip(cfg)` maps between the conventions.  The step
initial configuration is x_i(0) = -i.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Sequence, Tuple

from .qnum import INF, PhiParams, QSampler, phi_sample, qpow, sample_q_geometric

ParticleConfig = Tuple[int, ...]


def step_config(n: int) -> ParticleConfig:
    return tuple(-i for i in range(1, n + 1))


def flip(cfg: Sequence[int]) -> ParticleConfig:
    """Mirror a configuration, exchanging the left/right jump conventions."""
    return tuple(-x for x in cfg)


def _check_step(x: Sequence[int], q) -> None:
    if not 0 <= q < 1:
        raise ValueError(f"need 0 <= q < 1, got q = {q}")
    if any(x[i] <= x[i + 1] for i in range(len(x) - 1)):
        raise ValueError("particles must be strictly decreasing")


@lru_cache(maxsize=8)
def _sampler(q: float) -> QSampler:
    """The sampling tables at q, shared by every geometric step at that q."""
    return QSampler(q)


def _push_jump_prob(cfg, j, bj, q, prev_jumped):
    """Jump probability of particle j of the Bernoulli q-PushTASEP: its own jump,
    and after a jump of particle j - 1 a push with probability q^gap."""
    if not prev_jumped:
        return bj / (1 + bj)
    return (bj + qpow(q, cfg[j - 1] - cfg[j] - 1)) / (1 + bj)


def _tasep_jump_prob(cfg, j, bj, q, prev_jumped):
    """Jump probability of particle j of the Bernoulli q-TASEP: blocked with
    probability q^gap unless particle j - 1 jumped (particle 0 counts as such)."""
    if prev_jumped:
        return bj / (1 + bj)
    return bj * (1 - qpow(q, cfg[j - 1] - cfg[j] - 1)) / (1 + bj)


# system -> (jump probability, jump direction, whether particle 0 counts as after a jump)
_BERNOULLI = {
    "BernoulliPush": (_push_jump_prob, -1, False),
    "BernoulliTasep": (_tasep_jump_prob, 1, True),
}


def _bernoulli_step(system, cfg, beta, a, q, rng) -> ParticleConfig:
    _check_step(cfg, q)
    jump_prob, direction, jumped = _BERNOULLI[system]
    q = float(q)
    x = list(cfg)
    for j in range(len(x)):
        jumped = rng.random() < jump_prob(cfg, j, float(beta * a[j]), q, jumped)
        if jumped:
            x[j] += direction
    return tuple(x)


def bernoulli_qpush_step(cfg, beta, a, q, rng) -> ParticleConfig:
    """One step of the Bernoulli q-PushTASEP (left jumps)."""
    return _bernoulli_step("BernoulliPush", cfg, beta, a, q, rng)


def bernoulli_qtasep_step(cfg, beta, a, q, rng) -> ParticleConfig:
    """One step of the Bernoulli q-TASEP (right jumps)."""
    return _bernoulli_step("BernoulliTasep", cfg, beta, a, q, rng)


def geometric_qpush_step(cfg, alpha, a, q, rng) -> ParticleConfig:
    """One step of the geometric q-PushTASEP (left jumps).

    x_j jumps by an independent q-geometric amount plus a push split off the
    move of its right neighbor.
    """
    _check_step(cfg, q)
    x = list(cfg)
    sampler = _sampler(float(q))
    for j in range(len(x)):
        v = sample_q_geometric(float(alpha * a[j]), float(q), rng, sampler)
        w = 0
        if j > 0:
            gap = cfg[j - 1] - cfg[j] - 1
            c = cfg[j - 1] - x[j - 1]  # left displacement of the neighbor
            if c > 0:
                w = phi_sample(PhiParams.inverse(q, gap, INF, c), rng, sampler)
        x[j] -= v + w
    return tuple(x)


def geometric_qtasep_step(cfg, alpha, a, q, rng) -> ParticleConfig:
    """One step of the geometric q-TASEP (right jumps)."""
    _check_step(cfg, q)
    x = list(cfg)
    for j in range(len(x)):
        gap = INF if j == 0 else cfg[j - 1] - cfg[j] - 1
        if gap == INF:
            w = sample_q_geometric(float(alpha * a[j]), float(q), rng, _sampler(float(q)))
        elif gap == 0:
            w = 0
        else:
            w = phi_sample(PhiParams.direct(q, alpha * a[j], q * 0, gap), rng)
        x[j] += w
    return tuple(x)


# ---------------------------------------------------------------------------
# exact trajectory distributions (Bernoulli systems: finite branching)
# ---------------------------------------------------------------------------

def _bernoulli_transitions(system, cfg, beta, a, q):
    """(configuration, probability) over the one-step moves of a Bernoulli system."""
    jump_prob, direction, first = _BERNOULLI[system]
    one = q * 0 + 1

    def rec(j, x, prob, prev_jumped):
        if j == len(x):
            yield tuple(x), prob
            return
        p = jump_prob(cfg, j, beta * a[j], q, prev_jumped)
        for jumped in (False, True):
            pr = p if jumped else one - p
            if pr == 0:
                continue
            x[j] += direction if jumped else 0
            yield from rec(j + 1, x, prob * pr, jumped)
            x[j] -= direction if jumped else 0

    yield from rec(0, list(cfg), one, first)


def evolve_distribution(dist, system: str, steps: int, beta, a, q):
    """Push an exact configuration distribution through `steps` updates."""
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
