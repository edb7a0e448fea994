import math
import random
import re
from fractions import Fraction as F

import pytest

from qrsk import particles, qnum
from qrsk.dynamics import COL_ALPHA, ROW_BETA, DynamicsSpec, LevelUpdateContext, exact_array_distribution
from qrsk.particles import (
    bernoulli_qpush_step,
    bernoulli_qtasep_step,
    coupling_check,
    evolve_distribution,
    exact_trajectory_distribution,
    flip,
    geometric_qpush_step,
    geometric_qtasep_step,
    step_config,
)
from qrsk.qnum import INF, PhiParams, phi_weight, q_geometric_pmf

Q = F(1, 2)
BETA = F(1, 3)


def test_step_config_and_flip():
    assert step_config(3) == (-1, -2, -3)
    assert flip((-1, -2, -3)) == (1, 2, 3)


def test_push_adjacent_particles_forced():
    # gap 0 and a jumped predecessor force the jump
    rng = random.Random(0)
    for _ in range(50):
        cfg = bernoulli_qpush_step((0, -1), F(1), [F(1), F(1)], Q, rng)
        if cfg[0] == -1:
            assert cfg[1] == -2


def test_push_beta_zero_is_identity():
    rng = random.Random(1)
    assert bernoulli_qpush_step((-1, -2, -5), F(0), [F(1)] * 3, Q, rng) == (-1, -2, -5)


def test_exact_distribution_one_particle():
    d = exact_trajectory_distribution("BernoulliPush", 1, 1, BETA, [F(1)], Q)
    x = BETA  # beta a_1
    assert d[(-2,)] == x / (1 + x)
    assert d[(-1,)] == 1 / (1 + x)


def test_exact_distribution_sums_to_one():
    for system in ("BernoulliPush", "BernoulliTasep"):
        d = exact_trajectory_distribution(system, 2, 2, BETA, [F(1), F(2, 3)], Q)
        assert sum(d.values()) == 1
        assert all(cfg[0] > cfg[1] for cfg in d)


def test_a_priori_bound():
    d = exact_trajectory_distribution("BernoulliPush", 3, 3, BETA, [F(1)] * 3, Q)
    assert all(cfg[i] + i + 1 >= -3 for cfg in d for i in range(3))


def test_coupling_identity():
    # criterion 6 checks a = (1, 2/3, 1/2); here a part is above 1 and out of order
    a = [F(2), F(1, 3), F(3, 4)]
    for n in (1, 2, 3):
        for t in (1, 2, 3):
            assert coupling_check(n, t, BETA, a[:n], Q)


def test_coupling_identity_q0():
    # classical PushTASEP/TASEP complementation
    assert coupling_check(2, 2, BETA, [F(1), F(2, 3)], F(0))


def test_two_part_commutes_on_step_start():
    a = [F(1), F(1)]
    d1 = evolve_distribution({step_config(2): F(1)}, "BernoulliTasep", 2, BETA, a, Q)
    d1 = evolve_distribution(d1, "BernoulliPush", 1, BETA, a, Q)
    d2 = evolve_distribution({step_config(2): F(1)}, "BernoulliPush", 1, BETA, a, Q)
    d2 = evolve_distribution(d2, "BernoulliTasep", 2, BETA, a, Q)
    assert d1 == d2


def test_tasep_first_particle_rate():
    # free particle jumps with probability beta a_1 / (1 + beta a_1)
    rng = random.Random(2)
    n = 40000
    jumps = sum(
        bernoulli_qtasep_step((-1,), 0.4, [0.9], 0.5, rng)[0] == 0 for _ in range(n)
    )
    p = 0.4 * 0.9 / (1 + 0.4 * 0.9)
    assert abs(jumps - p * n) < 4 * math.sqrt(p * (1 - p) * n)


def test_tasep_blocking_at_q0():
    # gap 0 and a stationary predecessor block the jump entirely
    rng = random.Random(3)
    for _ in range(200):
        cfg = bernoulli_qtasep_step((0, -1), F(1, 2), [F(0), F(1)], 0.0, rng)
        assert cfg == (0, -1)


def test_orderings_preserved():
    rng = random.Random(4)
    for step, par in [
        (bernoulli_qpush_step, 0.4),
        (bernoulli_qtasep_step, 0.4),
        (geometric_qpush_step, 0.3),
        (geometric_qtasep_step, 0.3),
    ]:
        cfg = step_config(4)
        for _ in range(300):
            cfg = step(cfg, par, [1.0, 0.9, 0.8, 0.7], 0.5, rng)
            assert all(cfg[i] > cfg[i + 1] for i in range(3))


def test_geometric_qpush_push_distribution():
    # conditionally on the neighbor's realized jump c, the second particle
    # moves by (q-geometric) + (split of c against the gap)
    rng = random.Random(5)
    q, alpha = 0.5, 0.35
    gap = 7
    cfg = (0, -gap - 1)
    n = 60000
    counts = {}
    for _ in range(n):
        out = geometric_qpush_step(cfg, alpha, [1.0, 0.9], q, rng)
        c = cfg[0] - out[0]
        m = cfg[1] - out[1]
        counts[(c, m)] = counts.get((c, m), 0) + 1
    for c in range(3):
        for m in range(3):
            pc = q_geometric_pmf(alpha * 1.0, q, c)
            pm = sum(
                float(phi_weight(PhiParams.inverse(q, gap, INF, c), w))
                * q_geometric_pmf(alpha * 0.9, q, m - w)
                for w in range(min(m, c) + 1)
            )
            pr = pc * pm
            sd = math.sqrt(max(pr * (1 - pr), 1e-12) * n)
            assert abs(counts.get((c, m), 0) - pr * n) <= 4 * sd, (c, m)


def test_geometric_qpush_overshoot_forced():
    # c > gap forces a push of at least c - gap
    p = PhiParams.inverse(F(1, 2), 2, INF, 4)
    assert phi_weight(p, 0) == phi_weight(p, 1) == 0
    assert sum(phi_weight(p, w) for w in (2, 3, 4)) == 1


def test_geometric_qtasep_gap_zero_blocks():
    rng = random.Random(6)
    for _ in range(100):
        cfg = geometric_qtasep_step((0, -1), 0.4, [0.0, 0.9], 0.5, rng)
        assert cfg[1] == -1


def test_geometric_qtasep_free_particle_qgeometric():
    rng = random.Random(7)
    n = 30000
    counts = {}
    for _ in range(n):
        cfg = geometric_qtasep_step((-1,), 0.35, [0.9], 0.5, rng)
        v = cfg[0] + 1
        counts[v] = counts.get(v, 0) + 1
    for v in range(5):
        pr = q_geometric_pmf(0.35 * 0.9, 0.5, v)
        sd = math.sqrt(pr * (1 - pr) * n)
        assert abs(counts.get(v, 0) - pr * n) <= 4 * sd


def test_row_beta_marginal_is_bernoulli_qpush():
    # rightmost array particles evolve as the Bernoulli q-PushTASEP, exactly
    a = (F(1), F(2, 3), F(1, 2))
    for n, t in [(2, 2), (3, 2), (2, 3)]:
        spec = DynamicsSpec(ROW_BETA, Q, BETA, a[:n])
        arr_dist = exact_array_distribution(spec, n, t)
        marg = {}
        for arr, p in arr_dist.items():
            key = tuple(-arr[i][0] - (i + 1) for i in range(n))
            marg[key] = marg.get(key, F(0)) + p
        part_dist = exact_trajectory_distribution("BernoulliPush", n, t, BETA, a[:n], Q)
        assert marg == part_dist, (n, t)


def test_col_alpha_marginal_is_geometric_qtasep():
    # the leftmost particle's conditional law matches the geometric q-TASEP
    # step kernel; the unbounded candidate sum is capped with a geometric tail
    from qrsk.dynamics import col_alpha_prob, level_candidates

    qf, alpha, aj = 0.5, 0.3, 0.8
    lam_bar, nu_bar = (4, 1), (5, 2)
    lam = (5, 3, 1)
    ctx = LevelUpdateContext(lam_bar, nu_bar, lam)
    gap = lam_bar[-1] - lam[-1]
    for d in range(0, gap + 1):
        mass = 0.0
        for nu in level_candidates(COL_ALPHA, lam, nu_bar, 25):
            if nu[-1] - lam[-1] == d:
                mass += col_alpha_prob(ctx, nu, alpha, aj, qf)
        want = float(phi_weight(PhiParams.direct(qf, alpha * aj, 0.0, gap), d))
        assert abs(mass - want) < 1e-10, (d, mass, want)


def test_row_alpha_marginal_is_geometric_qpush():
    # the rightmost particle's conditional law is (q-geometric jump) plus an
    # independent split of the neighbor's move
    from qrsk.dynamics import ROW_ALPHA, row_alpha_prob, level_candidates

    qf, alpha, aj = 0.5, 0.3, 0.8
    lam_bar, nu_bar = (4, 1), (7, 2)
    lam = (6, 3, 1)
    ctx = LevelUpdateContext(lam_bar, nu_bar, lam)
    gap = lam[0] - lam_bar[0]
    c = nu_bar[0] - lam_bar[0]
    for d in range(0, 6):
        mass = 0.0
        for nu in level_candidates(ROW_ALPHA, lam, nu_bar, 25):
            if nu[0] - lam[0] == d:
                mass += row_alpha_prob(ctx, nu, alpha, aj, qf)
        want = 0.0
        for w in range(min(d, c) + 1):
            want += float(
                phi_weight(PhiParams.inverse(qf, gap, INF, c), w)
            ) * q_geometric_pmf(alpha * aj, qf, d - w)
        assert abs(mass - want) < 1e-10, (d, mass, want)


@pytest.mark.parametrize("step, sign", [(geometric_qpush_step, -1), (geometric_qtasep_step, 1)])
def test_geometric_first_particle_long_run_mean(step, sign):
    # particle 1 moves by an independent q-geometric(alpha a_1) amount each step
    q, alpha, a = 0.5, 0.35, [1.0, 0.9, 0.8]
    rng = random.Random(17)
    cfg = step_config(3)
    moves = []
    for _ in range(2000):
        new = step(cfg, alpha, a, q, rng)
        moves.append(sign * (new[0] - cfg[0]))
        cfg = new
    pmf = [q_geometric_pmf(alpha * a[0], q, v) for v in range(80)]
    mean = sum(v * p for v, p in enumerate(pmf))
    var = sum(v * v * p for v, p in enumerate(pmf)) - mean ** 2
    assert abs(sum(moves) / len(moves) - mean) <= 6 * math.sqrt(var / len(moves))


@pytest.mark.parametrize(
    "step", [bernoulli_qpush_step, bernoulli_qtasep_step, geometric_qpush_step, geometric_qtasep_step]
)
def test_steps_reject_q_outside_unit_interval(step):
    for q in (1.5, 1.0, -0.1, F(3, 2)):
        with pytest.raises(ValueError, match="q"):
            step(step_config(2), 0.3, [1.0, 0.9], q, random.Random(0))


_STEPS = {
    "bernoulli_qpush": bernoulli_qpush_step,
    "bernoulli_qtasep": bernoulli_qtasep_step,
    "geometric_qpush": geometric_qpush_step,
    "geometric_qtasep": geometric_qtasep_step,
}

# Final configurations of seeded 200-step runs from the step initial
# configuration, and the next draw of the rng after them: they fix how each
# step consumes its rng.  Float runs at q = 0.5, beta = 0.4 or alpha = 0.35,
# a_j = 1 - (j - 1)/10; exact runs at q = 1/2, beta = 2/5, a = (1, 9/10, 4/5, 7/10).
_GOLDEN_PARTICLE_RUNS = {
    ("bernoulli_qpush", 3, "float"): ((-64, -69, -71), 0.506760926093766),
    ("bernoulli_qpush", 6, "float"): ((-48, -59, -61, -63, -70, -75), 0.33585361273320036),
    ("bernoulli_qpush", 4, "exact"): ((-51, -67, -69, -70), 0.499555835961782),
    ("bernoulli_qtasep", 3, "float"): ((56, 48, 43), 0.0633877588622962),
    ("bernoulli_qtasep", 6, "float"): ((58, 56, 37, 27, 16, 10), 0.7807991470692128),
    ("bernoulli_qtasep", 4, "exact"): ((50, 47, 34, 24), 0.7201274627711709),
    ("geometric_qpush", 3, "float"): ((-169, -187, -192), 0.4305311171425694),
    ("geometric_qpush", 6, "float"): ((-167, -210, -213, -221, -222, -223), 0.609424984330352),
    ("geometric_qtasep", 3, "float"): ((173, 161, 129), 0.3831348734643255),
    ("geometric_qtasep", 6, "float"): ((211, 144, 118, 97, 85, 60), 0.7538715428035019),
}


@pytest.mark.parametrize("name, n, mode", sorted(_GOLDEN_PARTICLE_RUNS))
def test_seeded_particle_step_runs_are_unchanged(name, n, mode):
    step = _STEPS[name]
    if mode == "float":
        par = 0.35 if name.startswith("geometric") else 0.4
        a, q = [1.0 - 0.1 * i for i in range(n)], 0.5
        rng = random.Random(100 * n + len(name))
    else:
        par, a, q = F(2, 5), [F(1), F(9, 10), F(4, 5), F(7, 10)], F(1, 2)
        rng = random.Random(7 + len(name))
    cfg = step_config(n)
    for _ in range(200):
        cfg = step(cfg, par, a, q, rng)
    assert (cfg, rng.random()) == _GOLDEN_PARTICLE_RUNS[name, n, mode]


@pytest.mark.parametrize("name", sorted(_STEPS))
def test_steps_reject_a_negative_step_parameter_times_a_j(name):
    step = _STEPS[name]
    # from (-1, -2) particle 2 has gap 0: a step that draws nothing for it still checks it;
    # the geometric q-PushTASEP's q-geometric draws check alpha a_j for every particle
    for par, a in [(-0.5, [1.0, 0.9]), (F(-1, 2), [F(1), F(1)]), (0.3, [1.0, -0.9]),
                   (-1.0, [1.0, 1.0])]:
        with pytest.raises(ValueError, match="a_j|alpha"):
            step((-1, -2), par, a, 0.5, random.Random(0))
    # alpha a_j < 1 as well, also for particle 2 at gap 0
    if name.startswith("geometric"):
        with pytest.raises(ValueError, match="alpha a_j < 1"):
            step((-1, -2), 0.5, [1.0, 3.0], 0.5, random.Random(0))
    # par a_j = 0 is legal: a step of the Bernoulli systems leaves such a particle put
    for par, a in [(0.0, [1.0, 0.9]), (0.3, [1.0, 0.0])]:
        assert len(step((-1, -2), par, a, 0.5, random.Random(0))) == 2


def test_exact_distribution_rejects_a_negative_beta_times_a_j():
    # it returned {(-1,): 2, (-2,): -1}, weights outside [0, 1]
    for system in ("BernoulliPush", "BernoulliTasep", "TwoPart"):
        with pytest.raises(ValueError, match="beta a_j"):
            exact_trajectory_distribution(system, 1, 1, F(-1, 2), [F(1)], F(1, 2))


@pytest.mark.parametrize("q", [F(3, 2), F(-1, 2)])
def test_exact_distribution_rejects_q_outside_the_unit_interval(q):
    # q = 3/2 returned a "law" with weights outside [0, 1]
    for system in ("BernoulliPush", "BernoulliTasep", "TwoPart"):
        with pytest.raises(ValueError, match="q"):
            exact_trajectory_distribution(system, 2, 2, F(1, 2), [F(1), F(1)], q)
    with pytest.raises(ValueError, match="q"):
        evolve_distribution({step_config(2): F(1)}, "BernoulliPush", 1, F(1, 2), [F(1), F(1)], q)


def test_exact_distribution_rejects_an_unknown_system():
    # "Foo" ran as the q-TASEP
    with pytest.raises(ValueError, match="Foo"):
        exact_trajectory_distribution("Foo", 2, 2, F(1, 2), [F(1), F(1)], Q)
    with pytest.raises(ValueError, match="Foo"):
        evolve_distribution({step_config(2): F(1)}, "Foo", 1, F(1, 2), [F(1), F(1)], Q)


def test_exact_distribution_rejects_too_few_level_parameters():
    # they raised IndexError
    for system in ("BernoulliPush", "BernoulliTasep", "TwoPart"):
        with pytest.raises(ValueError, match="a_j"):
            exact_trajectory_distribution(system, 3, 1, F(1, 2), [F(1)], Q)
    with pytest.raises(ValueError, match="a_j"):
        evolve_distribution({step_config(3): F(1)}, "BernoulliTasep", 1, F(1, 2), [F(1)] * 2, Q)


@pytest.mark.parametrize("name", ["bernoulli_qpush", "bernoulli_qtasep", "geometric_qpush",
                                  "geometric_qtasep"])
def test_step_rejects_too_few_level_parameters(name):
    # bernoulli_qpush_step((-1, -2, -3), 0.4, [1.0], 0.5, rng) raised IndexError
    step = globals()[f"{name}_step"]
    for a in ([1.0], [1.0, 0.9]):
        with pytest.raises(ValueError, match="a_j"):
            step((-1, -2, -3), 0.4, a, 0.5, random.Random(0))


def test_exact_distribution_at_q_one_is_a_law():
    # q = 1 stays allowed: a pushed particle always moves, a blocked one never does
    for system in ("BernoulliPush", "BernoulliTasep"):
        d = exact_trajectory_distribution(system, 2, 2, F(1, 2), [F(1), F(1)], F(1))
        assert sum(d.values()) == 1 and all(0 <= p <= 1 for p in d.values())


# the system name each step gives its plan
_PLAN_SYSTEMS = {
    "bernoulli_qpush": "BernoulliPush",
    "bernoulli_qtasep": "BernoulliTasep",
    "geometric_qpush": "GeometricPush",
    "geometric_qtasep": "GeometricTasep",
}


@pytest.mark.parametrize("name", sorted(_STEPS))
def test_step_plan_checks_before_any_draw_and_keys_on_each_a_j_type(name):
    step = _STEPS[name]
    system = _PLAN_SYSTEMS[name]
    bernoulli = name.startswith("bernoulli")
    range_msg = "need 0 <= beta a_j, got" if bernoulli else "need 0 <= alpha a_j < 1, got"
    out_of_range = [1.0, -1.0] if bernoulli else [1.0, 3.0]  # at the last particle
    cases = [
        ((-1, -2), 0.4, [1.0, 0.9], 1.0, "need 0 <= q < 1, got q = 1.0"),
        ((-1, -2), 0.4, [1.0, 0.9], F(-1, 2), "need 0 <= q < 1, got q = -1/2"),
        ((-1, -2), -0.4, [1.0, 0.9], 0.5, range_msg),
        ((-1, -2), 0.4, out_of_range, 0.5, range_msg),
        ((-1, -2), 0.4, [1.0], 0.5, "1 level parameters a_j for 2 particles"),
        ((-1, -2), 0.4, [1.0, 0.9, 0.8], 0.5, "3 level parameters a_j for 2 particles"),
        ((-2, -1), 0.4, [1.0, 0.9], 0.5, "particles must be strictly decreasing"),
        ((-1, -1, -3), 0.4, [1.0, 0.9, 0.8], 0.5, "particles must be strictly decreasing"),
    ]
    for cfg, par, a, q, msg in cases:
        for _ in range(2):  # a failed plan is not kept: the second call checks again
            rng = random.Random(0)
            state = rng.getstate()
            with pytest.raises(ValueError, match=re.escape(msg)):
                step(cfg, par, a, q, rng)
            assert rng.getstate() == state, (cfg, par, a, q)
    # equal a_j of two types give two products, so two plans, each with the floats
    # par * a_j of its a
    beta, q = F(1, 10), F(1, 2)
    plans = []
    for a in ([7, 7], [7.0, 7.0]):
        step((-1, -2), beta, a, q, random.Random(0))
        plans.append(particles._step_plan(system, beta, q, *a))
    assert [plan[1] for plan in plans] == [(0.7, 0.7), (0.7000000000000001,) * 2]
    for plan in plans:
        assert plan[0] == 0.5 and type(plan[0]) is float
        if bernoulli:
            assert plan[2] == tuple(x / (1 + x) for x in plan[1])
    # the memo keeps its bound
    assert particles._step_plan.cache_parameters()["maxsize"] == qnum.MEMO_SIZE
    rng = random.Random(1)
    for i in range(qnum.MEMO_SIZE + 5):
        step((-1, -2), 0.3 + i / 1e5, [1.0, 0.9], 0.5, rng)
        assert particles._step_plan.cache_info().currsize <= qnum.MEMO_SIZE
