import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qrsk.dynamics as dyn
from qrsk import qnum
from qrsk.dynamics import (
    BETA_KINDS,
    COL_ALPHA,
    COL_BETA,
    PUSH_BLOCK_ALPHA,
    PUSH_BLOCK_BETA,
    ROW_ALPHA,
    ROW_BETA,
    RSK_KINDS,
    DynamicsSpec,
    LevelUpdateContext,
    classical_level_update,
    classical_rsk_step,
    col_alpha_prob,
    col_beta_prob,
    exact_array_distribution,
    level_candidates,
    main_equation_residual,
    main_equation_sweep,
    push_block_prob,
    row_alpha_prob,
    row_alpha_v,
    row_beta_prob,
    sample_step,
)
from qrsk.gt import (
    enumerate_arrays_with_top,
    enumerate_signatures,
    interlaces_h,
    is_interlacing_array,
    signatures_between,
    weight,
    zero_array,
)
from qrsk.identities import complementation
from qrsk.qnum import INF, PhiParams, phi_weight, q_pochhammer
from qrsk.whittaker import SpecParams, phi_coef, process_weight, psi, psi_prime

Q = F(1, 2)
BETA = F(1, 3)
A6 = F(1)


def test_row_beta_figure_captions():
    # two islands at level 5 -> 6; displayed transitions from the worked figure
    lam_bar, nu_bar = (6, 5, 5, 3, 2), (7, 6, 5, 4, 3)
    ctx_up = LevelUpdateContext(lam_bar, nu_bar, (7, 5, 5, 3, 3, 2))
    p_up = row_beta_prob(ctx_up, (8, 6, 6, 4, 3, 3), BETA, A6, Q)
    assert p_up == (BETA * A6 / (1 + BETA * A6)) * (1 - Q)
    ctx_low = LevelUpdateContext(lam_bar, nu_bar, (8, 6, 5, 5, 3, 2))
    p_low = row_beta_prob(ctx_low, (9, 7, 5, 5, 4, 3), BETA, A6, Q)
    assert p_low == (1 / (1 + BETA * A6)) * Q ** 3


def test_row_beta_no_lower_movement():
    lam_bar = nu_bar = (2,)
    lam = (3, 1)
    ctx = LevelUpdateContext(lam_bar, nu_bar, lam)
    assert row_beta_prob(ctx, lam, BETA, A6, Q) == 1 / (1 + BETA * A6)
    assert row_beta_prob(ctx, (4, 1), BETA, A6, Q) == BETA * A6 / (1 + BETA * A6)
    assert row_beta_prob(ctx, (3, 2), BETA, A6, Q) == 0  # nothing may push lam_2


def test_col_beta_figure_captions():
    lam_bar, nu_bar = (7, 6, 3, 3, 2), (8, 6, 4, 4, 2)
    ctx_up = LevelUpdateContext(lam_bar, nu_bar, (7, 7, 5, 3, 3, 0))
    p_up = col_beta_prob(ctx_up, (8, 8, 5, 4, 3, 0), BETA, A6, Q)
    assert p_up == (1 / (1 + BETA * A6)) * (Q + Q ** 2) / (1 + Q + Q ** 2)
    ctx_low = LevelUpdateContext(lam_bar, nu_bar, (7, 7, 6, 3, 3, 0))
    p_low = col_beta_prob(ctx_low, (8, 8, 6, 4, 4, 0), BETA, A6, Q)
    assert p_low == (BETA * A6 / (1 + BETA * A6)) * Q ** 2


def test_row_alpha_figure_caption():
    lam_bar, nu_bar = (29, 19, 12, 8, 2), (33, 24, 16, 8, 5)
    lam = (35, 25, 15, 9, 6, 0)
    nu = (39, 30, 20, 11, 7, 2)  # splits (1,2,2,-,1) and an independent jump of 3
    v = row_alpha_v(LevelUpdateContext(lam_bar, nu_bar, lam), nu, Q)
    expected = (
        phi_weight(PhiParams.inverse(Q, 4, 6, 3), 1)
        * phi_weight(PhiParams.inverse(Q, 3, 7, 4), 2)
        * phi_weight(PhiParams.inverse(Q, 6, 10, 5), 2)
        * phi_weight(PhiParams.inverse(Q, 6, INF, 4), 1)
        / q_pochhammer(Q, Q, 3)
    )
    assert v == expected
    # the conditional probability adds the q-geometric jump factors
    alpha, aj, qf = 0.3, 0.9, 0.5
    pf = row_alpha_prob(LevelUpdateContext(lam_bar, nu_bar, lam), nu, alpha, aj, qf)
    from qrsk.qnum import q_pochhammer_inf

    assert abs(pf - float(row_alpha_v(LevelUpdateContext(lam_bar, nu_bar, lam), nu, qf))
               * (alpha * aj) ** 3 * q_pochhammer_inf(alpha * aj, qf)) < 1e-15


def test_row_alpha_pure_independent_jump():
    # no movement below: probability is the q-geometric law of the jump
    lam_bar = nu_bar = (2, 1)
    lam = (3, 2, 0)
    ctx = LevelUpdateContext(lam_bar, nu_bar, lam)
    alpha, aj, qf = 0.25, 0.8, 0.5
    from qrsk.qnum import q_geometric_pmf

    for n in range(4):
        nu = (3 + n, 2, 0)
        assert abs(row_alpha_prob(ctx, nu, alpha, aj, qf) - q_geometric_pmf(alpha * aj, qf, n)) < 1e-14
    assert row_alpha_prob(ctx, (3, 2, 1), alpha, aj, qf) == 0


def test_col_alpha_level_one_equivalences():
    # j = 1 has no conditioning; at j = 2 with no movement below, the total
    # voluntary displacement is q-geometric
    qf, alpha, aj = 0.5, 0.3, 0.9
    lam_bar = nu_bar = (3,)
    lam = (4, 1)
    ctx = LevelUpdateContext(lam_bar, nu_bar, lam)
    from qrsk.qnum import q_geometric_pmf

    for total in range(4):
        mass = 0.0
        for x2 in range(total + 1):  # x2 goes to the leftmost particle
            nu = (4 + total - x2, 1 + x2)
            if nu[1] > nu[0]:
                continue
            mass += col_alpha_prob(ctx, nu, alpha, aj, qf)
        assert abs(mass - q_geometric_pmf(alpha * aj, qf, total)) < 1e-12, total


def test_col_alpha_complementary_cases():
    # all c_i = 0: the only nonzero transitions add the voluntary jumps
    qf = F(1, 2)
    lam_bar = nu_bar = (2, 1)
    lam = (2, 2, 0)
    ctx = LevelUpdateContext(lam_bar, nu_bar, lam)
    # leftmost blocked by lam_bar_2 = 1: single impulse donates to position 2?
    # position 3 has gap = lam_bar_2 - lam_3 = 1, so it can absorb one unit
    p = dyn.col_alpha_v(ctx, (2, 2, 1), qf)
    assert p > 0
    assert dyn.col_alpha_v(ctx, (2, 2, 0), qf) > 0


def test_main_equation_hand_example():
    assert main_equation_residual(ROW_BETA, (1, 0), (2, 1), (1,), F(1, 3), F(1), F(1, 2)) == 0


def test_main_equation_out_of_support():
    # nu_bar not below nu: both sides vanish
    r = main_equation_residual(ROW_BETA, (1, 0), (1, 1), (2,), F(1, 3), F(1), F(1, 2))
    assert r == 0


@pytest.mark.parametrize("kind", [ROW_BETA, COL_BETA, PUSH_BLOCK_BETA, ROW_ALPHA, COL_ALPHA])
def test_main_equation_mini_sweep(kind):
    q, par, aj = F(1, 2), F(1, 3), F(2, 3)
    for j in (2, 3):
        checked = main_equation_sweep(kind, j, 2, par, aj, q)
        assert checked > 0


def test_main_equation_push_block_alpha_float():
    checked = main_equation_sweep(PUSH_BLOCK_ALPHA, 2, 2, 0.3, 0.9, 0.5)
    assert checked > 0


@pytest.mark.parametrize("kind", [ROW_BETA, COL_BETA, PUSH_BLOCK_BETA, ROW_ALPHA, COL_ALPHA])
def test_float_sweep_checks_the_squares_of_the_exact_sweep(kind):
    # float residuals are rounding-sized, not zero: the sweep holds them to its
    # float tolerance, with any float scalar
    for j in (2, 3):
        exact = main_equation_sweep(kind, j, 3, F(1, 3), F(1), F(1, 2))
        assert main_equation_sweep(kind, j, 3, 1 / 3, 1.0, 0.5) == exact
        assert main_equation_sweep(kind, j, 3, F(1, 3), 1.0, F(1, 2)) == exact
    worst = max(abs(r) for *_, r in dyn.main_equation_squares(kind, 3, 3, 1 / 3, 1.0, 0.5))
    assert 0 < worst <= dyn.MAIN_EQ_FLOAT_TOL


def test_float_sweep_reports_a_residual_past_its_tolerance(monkeypatch):
    original = dyn.main_equation_residual

    def off(kind, lam, nu, nu_bar, *args):
        return original(kind, lam, nu, nu_bar, *args) + 1e-6 * (lam == (2, 1))

    monkeypatch.setattr(dyn, "main_equation_residual", off)
    report = []
    checked = main_equation_sweep(ROW_BETA, 2, 3, 1 / 3, 1.0, 0.5, report=report)
    assert checked == 56 and report and {item["lam"] for item in report} == {(2, 1)}
    with pytest.raises(AssertionError, match="main equation violated"):
        main_equation_sweep(ROW_BETA, 2, 3, 1 / 3, 1.0, 0.5)


def _strip_squares(kind, j, max_part):
    """Every square (lam, nu, nu_bar) of a sweep, by brute force: nu moves lam by
    the kind's strip, nu_bar interlaces below nu, and all parts are <= max_part."""
    strip = dyn.KINDS[kind].strip
    sigs = list(enumerate_signatures(max_part, j))
    lowers = list(enumerate_signatures(max_part, j - 1))
    return [(lam, nu, nu_bar) for lam in sigs for nu in sigs if strip(lam, nu)
            for nu_bar in lowers if interlaces_h(nu_bar, nu)]


def _recording_residual(monkeypatch):
    """Replace the module's residual by a recorder of the squares it is called on."""
    calls = []
    original = dyn.main_equation_residual

    def residual(kind, lam, nu, nu_bar, par, a_j, q, alpha_float=False):
        calls.append((lam, nu, nu_bar))
        return original(kind, lam, nu, nu_bar, par, a_j, q, alpha_float)

    monkeypatch.setattr(dyn, "main_equation_residual", residual)
    return calls


@pytest.mark.parametrize("kind", [ROW_BETA, COL_BETA, PUSH_BLOCK_BETA, ROW_ALPHA, COL_ALPHA])
def test_sweep_calls_the_module_residual_once_on_every_strip_square(kind, monkeypatch):
    # the per-(kind, j) square counts of the exact verifier at parts <= 3
    counts = {2: 56, 3: 238, 4: 736} if kind in BETA_KINDS else {2: 77, 3: 264, 4: 635}
    calls = _recording_residual(monkeypatch)
    for j, count in counts.items():
        calls.clear()
        assert main_equation_sweep(kind, j, 3, F(1, 3), F(1), F(1, 2)) == count
        assert len(calls) == count
        assert sorted(calls) == sorted(_strip_squares(kind, j, 3))


@pytest.mark.parametrize("kind, weight_name", [
    (ROW_BETA, "row_beta_prob"), (COL_ALPHA, "col_alpha_v"), (PUSH_BLOCK_BETA, "push_block_prob"),
])
def test_a_planted_wrong_level_weight_is_reported_on_its_squares(kind, weight_name, monkeypatch):
    # U_j is off by 1 at one lower starting state lam_bar (at one nu for
    # push-block, whose U_j is free of lam_bar).  A square is then wrong
    # exactly where that term enters its left side: lam_bar interlaces below
    # lam, and nu_bar moves lam_bar by the kind's strip.
    rule = dyn.KINDS[kind]
    original = getattr(dyn, weight_name)
    if rule.push_block:
        star = (2, 1, 0)

        def planted(kind_, lam, nu_bar, nu, *args):
            return original(kind_, lam, nu_bar, nu, *args) + (nu == star)

        def wrong(lam, nu, nu_bar):
            return nu == star and any(
                interlaces_h(lam_bar, lam) and rule.strip(lam_bar, nu_bar)
                for lam_bar in enumerate_signatures(3, 2))
    else:
        star = (2, 1)

        def planted(ctx, *args):
            return original(ctx, *args) + (ctx.lam_bar == star)

        def wrong(lam, nu, nu_bar):
            return interlaces_h(star, lam) and rule.strip(star, nu_bar)

    monkeypatch.setattr(dyn, weight_name, planted)
    report = []
    main_equation_sweep(kind, 3, 3, F(1, 3), F(1), F(1, 2), report=report)
    reported = [(item["lam"], item["nu"], item["nu_bar"]) for item in report]
    expected = [square for square in _strip_squares(kind, 3, 3) if wrong(*square)]
    assert expected and sorted(reported) == sorted(expected)


def test_push_block_prob_reads_one_chain_memo():
    for kind in (PUSH_BLOCK_BETA, PUSH_BLOCK_ALPHA):
        for par, aj, q in ((0.4, 0.8, 0.5), (F(2, 5), F(4, 5), 0.5), (0.4, F(4, 5), F(1, 2))):
            assert push_block_prob(kind, (2, 1), (2,), (3, 1), par, aj, q) > 0
    dyn._push_block_chain.cache_clear()
    exact = push_block_prob(PUSH_BLOCK_BETA, (2, 1), (2,), (3, 1), F(2, 5), F(4, 5), F(1, 2))
    assert dyn._push_block_chain.cache_info().currsize == 1
    assert exact == push_block_prob(PUSH_BLOCK_BETA, [2, 1], [2], (3, 1), F(2, 5), F(4, 5), F(1, 2))
    assert dyn._push_block_chain.cache_info().hits == 1


@pytest.mark.parametrize("kind, par", [(PUSH_BLOCK_BETA, 0.4), (PUSH_BLOCK_ALPHA, 0.35)])
def test_float_push_block_prob_over_a_square_builds_one_chain(kind, par):
    lam, nu_bar = (3, 1, 0), (3, 2)
    dyn._push_block_chain.cache_clear()
    total = math.fsum(push_block_prob(kind, lam, nu_bar, nu, par, 0.8, 0.5)
                      for nu in level_candidates(kind, lam, nu_bar, 60))
    assert total == pytest.approx(1.0, abs=1e-12)
    assert dyn._push_block_chain.cache_info().misses == 1


def test_rsk_type_property():
    # transition probability vanishes unless all lower movement propagates
    rnd = random.Random(3)
    q = F(1, 2)
    for kind in RSK_KINDS:
        for _ in range(200):
            j = rnd.choice((2, 3))
            lam = tuple(sorted((rnd.randint(0, 3) for _ in range(j)), reverse=True))
            lam_bar = tuple(sorted((rnd.randint(0, 3) for _ in range(j - 1)), reverse=True))
            if not interlaces_h(lam_bar, lam):
                continue
            if kind in BETA_KINDS:
                nu_bar = tuple(lam_bar[i] + rnd.randint(0, 1) for i in range(j - 1))
            else:
                nu_bar = tuple(lam_bar[i] + rnd.randint(0, 2) for i in range(j - 1))
            if not all(nu_bar[i] >= nu_bar[i + 1] for i in range(j - 2)):
                continue
            if not interlaces_h(lam_bar, nu_bar):
                continue
            nu = tuple(lam[i] + rnd.randint(0, 1) for i in range(j))
            if not all(nu[i] >= nu[i + 1] for i in range(j - 1)):
                continue
            if weight(nu) - weight(lam) < weight(nu_bar) - weight(lam_bar):
                ctx = LevelUpdateContext(lam_bar, nu_bar, lam)
                if kind == ROW_BETA:
                    p = row_beta_prob(ctx, nu, F(1, 3), F(1), q)
                elif kind == COL_BETA:
                    p = col_beta_prob(ctx, nu, F(1, 3), F(1), q)
                elif kind == ROW_ALPHA:
                    p = row_alpha_v(ctx, nu, q)
                else:
                    p = dyn.col_alpha_v(ctx, nu, q)
                assert p == 0, (kind, lam, nu, lam_bar, nu_bar)


def test_beta_evaluators_are_stochastic():
    rnd = random.Random(5)
    q, beta, aj = F(1, 2), F(1, 3), F(2, 3)
    for kind in (ROW_BETA, COL_BETA, PUSH_BLOCK_BETA):
        done = 0
        while done < 25:
            j = rnd.choice((2, 3, 4))
            lam = tuple(sorted((rnd.randint(0, 3) for _ in range(j)), reverse=True))
            lam_bar = tuple(sorted((rnd.randint(0, 3) for _ in range(j - 1)), reverse=True))
            if not interlaces_h(lam_bar, lam):
                continue
            nu_bar = tuple(lam_bar[i] + rnd.randint(0, 1) for i in range(j - 1))
            if not all(nu_bar[i] >= nu_bar[i + 1] for i in range(j - 2)):
                continue
            done += 1
            total = F(0)
            for nu in level_candidates(kind, lam, nu_bar, 1):
                if kind == ROW_BETA:
                    total += row_beta_prob(LevelUpdateContext(lam_bar, nu_bar, lam), nu, beta, aj, q)
                elif kind == COL_BETA:
                    total += col_beta_prob(LevelUpdateContext(lam_bar, nu_bar, lam), nu, beta, aj, q)
                else:
                    total += push_block_prob(kind, lam, nu_bar, nu, beta, aj, q)
            assert total == 1


def test_complementation_identity_small():
    # column insertion probabilities are the rectangle-complement transform of
    # the row insertion ones
    checked = 0
    for kind, instance, lhs, rhs in complementation(F(1, 2), F(1, 3), F(2, 3), 5, 2, (3,)):
        assert lhs == rhs, instance
        checked += 1
    assert checked == 456


def test_classical_pull_push_operations():
    # pulling: the moved particle pulls its upper-left neighbor, or pushes the
    # upper-right one when blocked
    lam = [7, 2, 1]
    dyn._pull(lam, [4, 2], 2)
    assert lam == [7, 3, 1]
    lam = [7, 3, 1]
    dyn._pull(lam, [4, 2], 2)
    assert lam == [7, 3, 2]
    # pushing: the first unblocked particle to the right moves
    lam = [7, 6, 4, 1, 0]
    dyn._push(lam, [6, 4, 2, 1], 3)
    assert lam == [8, 6, 4, 1, 0]


def test_classical_row_alpha_figure():
    # worked propagation example at levels 4 -> 5
    lam_bar = (7, 6, 6, 3)
    nu_bar = (10, 7, 6, 5)
    lam = (9, 6, 6, 4, 1)
    for v in (0, 2):
        nu = classical_level_update(ROW_ALPHA, lam_bar, nu_bar, lam, v)
        assert nu == (10 + v, 9, 6, 5, 2)


def test_classical_rsk_repeated_first_row():
    arr = zero_array(4)
    out = classical_rsk_step(ROW_ALPHA, arr, (3, 0, 0, 0))
    assert all(level[0] == 3 for level in out)
    assert all(all(x == 0 for x in level[1:]) for level in out)


def test_classical_beta_weight_growth():
    rnd = random.Random(7)
    for kind in (ROW_BETA, COL_BETA):
        for _ in range(50):
            n = rnd.choice((2, 3))
            top = tuple(sorted((rnd.randint(0, 4) for _ in range(n)), reverse=True))
            arr = rnd.choice(list(enumerate_arrays_with_top(top)))
            vs = tuple(rnd.randint(0, 1) for _ in range(n))
            out = classical_rsk_step(kind, arr, vs)
            assert weight(out[-1]) == weight(arr[-1]) + sum(vs)


def test_classical_rejects_bad_inputs():
    with pytest.raises(ValueError):
        classical_rsk_step(ROW_BETA, zero_array(2), (2, 0))


# Inputs outside the input law: RowAlpha took (-1, 0) to ((-1,), (0, 0)), ColBeta
# raised TypeError on (1.0, 0), and sample_step took RowBeta's (1.0, True) to
# ((1.0,), (1, 1)).  bool is not an int here, as in qnum.is_exact.
_NOT_BERNOULLI = [(1.0, 0), (1.0, True), (True, 0), (0, False), (F(1), 0), (0, 2), (-1, 0)]
_NOT_Q_GEOMETRIC = [(-1, 0), (0, -2), (True, 0), (2, False), (1.0, 0), (F(2), 0), (0.5, 0)]


@pytest.mark.parametrize("kind", sorted(dyn.KINDS))
def test_sample_step_and_classical_rsk_step_share_one_input_check(kind):
    bad = _NOT_BERNOULLI if kind in BETA_KINDS else _NOT_Q_GEOMETRIC
    spec = DynamicsSpec(kind, 0.0, 0.4, (0.9, 0.9))
    for inputs in bad:
        with pytest.raises(ValueError, match=f"{kind} step: need inputs"):
            sample_step(spec, zero_array(2), random.Random(0), inputs=inputs)
        if kind in RSK_KINDS:
            with pytest.raises(ValueError, match=f"{kind} step: need inputs"):
                classical_rsk_step(kind, zero_array(2), inputs)
    good = [(1, 0), (0, 1), (1, 1)] + ([] if kind in BETA_KINDS else [(3, 2)])
    for inputs in good:
        got = sample_step(spec, zero_array(2), random.Random(0), inputs=inputs)
        if kind in RSK_KINDS:
            assert got == classical_rsk_step(kind, zero_array(2), inputs)


def test_sampler_equals_classical_at_q0():
    rnd = random.Random(11)
    for kind in RSK_KINDS:
        for _ in range(250):
            n = rnd.choice((2, 3, 4))
            top = tuple(sorted((rnd.randint(0, 5) for _ in range(n)), reverse=True))
            arr = rnd.choice(list(enumerate_arrays_with_top(top)))
            if kind in BETA_KINDS:
                vs = tuple(rnd.randint(0, 1) for _ in range(n))
            else:
                vs = tuple(rnd.randint(0, 3) for _ in range(n))
            spec = DynamicsSpec(kind, 0.0, 0.4, (0.9,) * n)
            assert sample_step(spec, arr, rnd, inputs=vs) == classical_rsk_step(kind, arr, vs)


def test_sample_step_interlaces_and_weight_law():
    rnd = random.Random(13)
    spec = DynamicsSpec(ROW_BETA, 0.5, 0.4, (1.0, 0.9))
    arr = zero_array(2)
    inc = []
    for _ in range(4000):
        new = sample_step(spec, arr, rnd)
        inc.append(weight(new[-1]) - weight(new[0]) - (weight(arr[-1]) - weight(arr[0])))
        arr = new
    # |lam^(2)| - |lam^(1)| grows by Bernoulli(beta a_2) increments
    p = 0.4 * 0.9 / (1 + 0.4 * 0.9)
    mean = sum(inc) / len(inc)
    assert abs(mean - p) < 4 * math.sqrt(p * (1 - p) / len(inc))


def test_sample_step_rejects_a_level_that_does_not_interlace(monkeypatch):
    # a broken level sampler: both level-2 particles leap past level 1
    monkeypatch.setattr(
        dyn, "_sample_row_beta_level",
        lambda lam_bar, nu_bar, lam, vj, q, rng: (lam[0] + 5, lam[1] + 5),
    )
    spec = DynamicsSpec(ROW_BETA, 0.5, 0.4, (1.0, 0.9))
    with pytest.raises(ValueError, match="does not interlace"):
        sample_step(spec, zero_array(2), random.Random(0), inputs=(0, 0))


def _fake_levels(monkeypatch, levels):
    """A row-alpha level sampler that returns levels[len(lam)], whatever it is given.
    Row-alpha takes every input >= 0, so level 1 may move by more than 1."""
    monkeypatch.setattr(
        dyn, "_sample_row_alpha_level", lambda lam_bar, nu_bar, lam, vj, q, rng: levels[len(lam)]
    )


@pytest.mark.parametrize("levels, bad", [
    ({2: (0, -1)}, 2),              # a negative last part
    ({2: (0,)}, 2),                 # a level one part short, or one part long:
    ({2: (0, 0, 0)}, 2),            # interlaces_h pads both with zeros and accepts them
    ({2: (2, 1), 3: (2, 0, 0)}, 3),  # part 2 below part 2 of the level beneath
])
def test_sample_step_rejects_more_levels_that_do_not_interlace(monkeypatch, levels, bad):
    _fake_levels(monkeypatch, levels)
    n = max(levels)
    spec = DynamicsSpec(ROW_ALPHA, 0.5, 0.4, (1.0,) * n)
    inputs = (levels[2][0],) + (0,) * (n - 1)
    with pytest.raises(ValueError, match=f"level {bad} .* does not interlace with level {bad - 1}"):
        sample_step(spec, zero_array(n), random.Random(0), inputs=inputs)


@st.composite
def _level_chains(draw):
    """Levels 1..j, level k of length k, each interlacing above the one below; then
    maybe one part of a level k >= 2 moved by up to 2, or the level a part short or long."""
    j = draw(st.integers(2, 5))
    chain = {1: (draw(st.integers(0, 4)),)}
    for k in range(2, j + 1):
        below = chain[k - 1]
        bounds = [(below[0], below[0] + 2)] + list(zip(below[1:], below)) + [(0, below[-1])]
        chain[k] = tuple(draw(st.integers(lo, hi)) for lo, hi in bounds)
    k = draw(st.integers(2, j))
    change = draw(st.sampled_from(["none", "part", "short", "long"]))
    level = list(chain[k])
    if change == "part":
        i = draw(st.integers(0, k - 1))
        level[i] += draw(st.integers(-2, 2))
    elif change == "short":
        level.pop()
    elif change == "long":
        level.append(draw(st.integers(-1, 1)))
    chain[k] = tuple(level)
    return chain


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_level_chains())
def test_sample_step_interlace_check_is_interlaces_h(chain):
    # for levels of lengths (k - 1, k) the step's inline check is gt.interlaces_h;
    # a level of another length is rejected
    with pytest.MonkeyPatch.context() as mp:
        _fake_levels(mp, chain)
        n = max(chain)
        bad = [k for k in range(2, n + 1)
               if len(chain[k]) != k or not interlaces_h(chain[k - 1], chain[k])]
        spec = DynamicsSpec(ROW_ALPHA, 0.5, 0.4, (1.0,) * n)
        arr = tuple((0,) * k for k in range(1, n + 1))
        inputs = chain[1] + (0,) * (n - 1)
        if not bad:
            assert sample_step(spec, arr, random.Random(0), inputs=inputs) == tuple(chain.values())
        else:
            with pytest.raises(ValueError, match=f"level {bad[0]} .* does not interlace"):
                sample_step(spec, arr, random.Random(0), inputs=inputs)


@pytest.mark.parametrize("kind", sorted(dyn.KINDS))
def test_sample_step_rejects_inputs_outside_the_input_law(kind):
    # from the zero 2-level array RowBeta took inputs (0, 2) to ((0,), (2, 0)), and
    # ColBeta and PushBlockBeta dropped V_2 = 2 and V_2 = -1 without a word
    spec = DynamicsSpec(kind, 0.5, 0.4, (1.0, 0.9))
    bad = [(0, 2), (2, 0), (0, -1)] if kind in BETA_KINDS else [(0, -1), (-1, 0)]
    for inputs in bad:
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match="need inputs"):
            sample_step(spec, zero_array(2), rng, inputs=inputs)
        assert rng.getstate() == state
    good = [(1, 0), (0, 1)] + ([] if kind in BETA_KINDS else [(3, 2)])
    for inputs in good:
        assert len(sample_step(spec, zero_array(2), random.Random(0), inputs=inputs)) == 2


@pytest.mark.parametrize("kind", [ROW_ALPHA, COL_ALPHA, PUSH_BLOCK_ALPHA])
def test_sample_step_rejects_a_q_geometric_input_that_is_not_an_int(kind):
    # RowAlpha took inputs (1.5, 0) from the zero 2-level array to ((1.5,), (1.5, 0.0))
    np = pytest.importorskip("numpy")
    spec = DynamicsSpec(kind, 0.5, 0.35, (1.0, 0.9))
    for inputs in [(1.5, 0), (0, 0.5), (1.0, 0), (F(1), 0)]:
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match="need inputs"):
            sample_step(spec, zero_array(2), rng, inputs=inputs)
        assert rng.getstate() == state
    # a numpy int is an int
    expected = sample_step(spec, zero_array(2), random.Random(0), inputs=(2, 1))
    assert sample_step(spec, zero_array(2), random.Random(0), inputs=(np.int64(2), 1)) == expected


def test_sample_step_rejects_a_count_that_differs_from_the_levels():
    # three a_j (or three inputs) for a two-level array: named, not an IndexError
    spec = DynamicsSpec(ROW_BETA, 0.5, 0.4, (1.0, 0.9, 0.8))
    with pytest.raises(ValueError, match="3 level parameters a_j for 2 levels"):
        sample_step(spec, zero_array(2), random.Random(0))
    spec = DynamicsSpec(ROW_BETA, 0.5, 0.4, (1.0,))
    with pytest.raises(ValueError, match="1 level parameters a_j for 2 levels"):
        sample_step(spec, zero_array(2), random.Random(0))
    spec = DynamicsSpec(ROW_BETA, 0.5, 0.4, (1.0, 0.9))
    with pytest.raises(ValueError, match="3 inputs for 2 levels"):
        sample_step(spec, zero_array(2), random.Random(0), inputs=(0, 0, 1))


def test_alpha_spec_shares_one_sampler_across_steps():
    # every draw of every step reads the one memoised log (q;q)_n prefix of q
    for memo in (qnum._log_qpoch_prefix, qnum._q_geometric_table):
        memo.cache_clear()
    spec = DynamicsSpec(ROW_ALPHA, 0.5, 0.35, (1.0, 0.9))
    rng = random.Random(1)
    arr = zero_array(2)
    for _ in range(5):
        arr = sample_step(spec, arr, rng)
    assert qnum._log_qpoch_prefix.cache_info().currsize == 1
    assert qnum._log_qpoch_prefix.cache_info().misses == 1
    # one q-geometric table per level parameter alpha a_j, each built once
    tables = qnum._q_geometric_table
    assert tables.cache_info().currsize == tables.cache_info().misses == 2
    for alpha in (0.35 * 1.0, 0.35 * 0.9):
        tables(alpha, 0.5)
    assert tables.cache_info().misses == 2


@pytest.mark.parametrize("kind", BETA_KINDS)
def test_exact_array_distribution_matches_process_weight(kind):
    # every Bernoulli dynamics run from the zero array samples the process
    q = F(1, 2)
    a = (F(1), F(2, 3))
    betas = [F(1, 3), F(1, 4)]
    spec = DynamicsSpec(kind, q, betas, a)
    dist = exact_array_distribution(spec, 2, 2)
    assert sum(dist.values()) == 1
    measure = SpecParams.betas(*betas)
    for arr, p in dist.items():
        assert p == process_weight(arr, a, measure, q), arr


def test_push_block_beta_q0_is_bernoulli_with_blocking():
    # independent Bernoulli jumps with blocking/pushing at q = 0, generic spacing
    q, beta, aj = F(0), F(1, 3), F(1)
    lam, nu_bar = (5, 2), (4,)
    x = beta * aj
    # far from constraints: both particles jump independently
    p = push_block_prob(PUSH_BLOCK_BETA, lam, nu_bar, (6, 3), x / aj, aj, q)
    assert p == (x / (1 + x)) ** 2
    # forced short-range push: nu_bar_1 = lam_1 + 1 forces the first coordinate
    assert push_block_prob(PUSH_BLOCK_BETA, (5, 3), (6,), (6, 3), beta, aj, q) == 1 / (1 + x)
    assert push_block_prob(PUSH_BLOCK_BETA, (5, 3), (6,), (6, 4), beta, aj, q) == x / (1 + x)
    assert push_block_prob(PUSH_BLOCK_BETA, (5, 3), (6,), (5, 3), beta, aj, q) == 0


def test_push_block_sampler_consistency():
    rnd = random.Random(17)
    q, beta, aj = 0.5, 0.4, 1.0
    lam, nu_bar = (3, 1), (2,)
    probs = {}
    for nu in level_candidates(PUSH_BLOCK_BETA, lam, nu_bar, 1):
        p = push_block_prob(PUSH_BLOCK_BETA, lam, nu_bar, nu, beta, aj, q)
        if p > 0:
            probs[nu] = float(p)
    counts = {nu: 0 for nu in probs}
    n = 20000
    for _ in range(n):
        nu = dyn._sample_push_block_level(PUSH_BLOCK_BETA, lam, nu_bar, beta, aj, q, rnd)
        counts[nu] += 1
    for nu, pr in probs.items():
        sd = math.sqrt(pr * (1 - pr) * n)
        assert abs(counts[nu] - pr * n) <= 4 * sd


def test_push_block_alpha_sampler_runs():
    rnd = random.Random(19)
    spec = DynamicsSpec(PUSH_BLOCK_ALPHA, 0.5, 0.3, (0.9, 0.8))
    arr = zero_array(2)
    for _ in range(200):
        arr = sample_step(spec, arr, rnd)
    assert interlaces_h(arr[0], arr[1])


def test_sampled_arrays_chi_square_against_measure():
    # full-array frequencies from the sampler against the process weights
    q = F(1, 2)
    a = (F(1), F(2, 3))
    beta = F(1, 3)
    spec = DynamicsSpec(ROW_BETA, 0.5, float(beta), (1.0, 2 / 3))
    measure = SpecParams.betas(beta, beta)
    rnd = random.Random(101)
    reps = 20000
    counts = {}
    for _ in range(reps):
        arr = zero_array(2)
        for _ in range(2):
            arr = sample_step(spec, arr, rnd)
        counts[arr] = counts.get(arr, 0) + 1
    chi2 = 0.0
    dof = -1
    for arr, expect in (
        (arr, float(process_weight(arr, a, measure, q)) * reps)
        for arr in counts
    ):
        chi2 += (counts[arr] - expect) ** 2 / expect
        dof += 1
    from scipy import stats as _st

    assert _st.chi2.sf(chi2, dof) > 0.001, (chi2, dof)


def test_alpha_evaluators_are_stochastic_float():
    # the nu-sum is capped; the dropped tail is q-geometric and below 1e-10
    rnd = random.Random(23)
    qf, alpha, aj = 0.5, 0.3, 0.8
    for kind in (ROW_ALPHA, COL_ALPHA):
        done = 0
        while done < 12:
            j = rnd.choice((2, 3))
            lam = tuple(sorted((rnd.randint(0, 3) for _ in range(j)), reverse=True))
            lam_bar = tuple(sorted((rnd.randint(0, 3) for _ in range(j - 1)), reverse=True))
            if not interlaces_h(lam_bar, lam):
                continue
            nu_bar = tuple(lam_bar[i] + rnd.randint(0, 2) for i in range(j - 1))
            if not all(nu_bar[i] >= nu_bar[i + 1] for i in range(j - 2)):
                continue
            if not interlaces_h(lam_bar, nu_bar):
                continue
            done += 1
            ctx = LevelUpdateContext(lam_bar, nu_bar, lam)
            total = 0.0
            for nu in level_candidates(kind, lam, nu_bar, 60):
                if kind == ROW_ALPHA:
                    total += row_alpha_prob(ctx, nu, alpha, aj, qf)
                else:
                    total += col_alpha_prob(ctx, nu, alpha, aj, qf)
            assert abs(total - 1) < 1e-10, (kind, lam, lam_bar, nu_bar, total)


def test_dynamics_spec_rejects_out_of_range_parameters():
    for q in (1, F(3, 2), -0.1):
        with pytest.raises(ValueError, match="q"):
            DynamicsSpec(ROW_BETA, q, F(1, 3), (F(1),))
    with pytest.raises(ValueError, match="alpha a_j"):
        DynamicsSpec(ROW_ALPHA, 0.5, 0.5, (1.0, 2.0))
    # a per-step list is checked entry by entry
    with pytest.raises(ValueError, match="alpha a_j"):
        DynamicsSpec(PUSH_BLOCK_ALPHA, 0.5, [0.3, 1.0], (1.0, 0.9))
    # the bound on alpha a_j is for q-geometric input only
    DynamicsSpec(ROW_BETA, 0.5, [0.3, 2.0], (1.0, 0.9))


def test_dynamics_spec_rejects_a_negative_step_parameter_times_a_j():
    # x = par a_j < 0 made x / (1 + x) < 0, a Bernoulli input that never fires (and
    # x = -1 divided by zero); a q-geometric draw of a negative parameter fails later
    for kind in dyn.KINDS:
        for par, a in [(-0.5, (1.0, 0.9)), (F(-1, 2), (F(1),)), (0.4, (1.0, -0.9)),
                       ([0.4, -1.0], (1.0,)), (-1.0, (1.0,))]:
            with pytest.raises(ValueError, match="need 0 <= (alpha|beta) a_j"):
                DynamicsSpec(kind, 0.5, par, a)
        # par a_j = 0 is legal, and every input is then 0
        DynamicsSpec(kind, 0.5, [0.0, 0.3], (1.0, 0.0))
        assert sample_step(DynamicsSpec(kind, 0.5, 0.0, (1.0, 0.5)), zero_array(2),
                           random.Random(0)) == zero_array(2)


def test_push_block_beta_float_matches_exact_at_large_parts():
    # x ** |nu| underflowed here, so every float probability read 0.0
    lam, nu_bar = (520, 480, 430), (520, 480)
    total = F(0)
    for nu in level_candidates(PUSH_BLOCK_BETA, lam, nu_bar, 1):
        exact = push_block_prob(PUSH_BLOCK_BETA, lam, nu_bar, nu, F(2, 5), F(4, 5), F(1, 2))
        p = push_block_prob(PUSH_BLOCK_BETA, lam, nu_bar, nu, 0.4, 0.8, 0.5)
        assert exact > 0 and abs(p - exact) <= 1e-12 * exact, nu
        total += exact
    assert total == 1


def test_push_block_beta_long_run_keeps_moving():
    # past |nu| ~ 700 the lower parts of levels 2 and 3 used to freeze
    spec = DynamicsSpec(PUSH_BLOCK_BETA, 0.5, 0.4, (1.0, 0.9, 0.8))
    rng = random.Random(29)
    arr = zero_array(3)
    for _ in range(2500):
        arr = sample_step(spec, arr, rng)
    moved = set()
    for _ in range(500):
        new = sample_step(spec, arr, rng)
        moved |= {(j, i) for j in (1, 2) for i in range(j + 1) if new[j][i] != arr[j][i]}
        arr = new
    assert moved == {(j, i) for j in (1, 2) for i in range(j + 1)}


def test_push_block_beta_level_marginals_match_row_beta():
    # from the zero array every beta kind samples the same q-Whittaker process,
    # so after 40 steps the parts of level 3 have the same law under both
    def level3(kind, seed):
        spec = DynamicsSpec(kind, 0.5, 0.4, (1.0, 0.9, 0.8))
        rng = random.Random(seed)
        out = []
        for _ in range(400):
            arr = zero_array(3)
            for _ in range(40):
                arr = sample_step(spec, arr, rng)
            out.append(arr[2])
        return out

    push, row = level3(PUSH_BLOCK_BETA, 31), level3(ROW_BETA, 32)
    for i in range(3):
        a, b = [nu[i] for nu in push], [nu[i] for nu in row]
        ma, mb = sum(a) / len(a), sum(b) / len(b)
        va = sum((v - ma) ** 2 for v in a) / (len(a) - 1)
        vb = sum((v - mb) ** 2 for v in b) / (len(b) - 1)
        assert abs(ma - mb) <= 6 * math.sqrt(va / len(a) + vb / len(b)), (i, ma, mb)


def test_push_block_alpha_level_marginals_match_row_alpha():
    # from the zero array every alpha kind samples the same q-Whittaker process,
    # so after 20 steps the parts of levels 2 and 3 have the same law under both
    def levels(kind, seed):
        spec = DynamicsSpec(kind, 0.5, 0.35, (1.0, 0.9, 0.8))
        rng = random.Random(seed)
        out = []
        for _ in range(300):
            arr = zero_array(3)
            for _ in range(20):
                arr = sample_step(spec, arr, rng)
            out.append(arr[1] + arr[2])
        return out

    push, row = levels(PUSH_BLOCK_ALPHA, 31), levels(ROW_ALPHA, 32)
    for i in range(5):
        a, b = [nu[i] for nu in push], [nu[i] for nu in row]
        ma, mb = sum(a) / len(a), sum(b) / len(b)
        va = sum((v - ma) ** 2 for v in a) / (len(a) - 1)
        vb = sum((v - mb) ** 2 for v in b) / (len(b) - 1)
        assert abs(ma - mb) <= 6 * math.sqrt(va / len(a) + vb / len(b)), (i, ma, mb)


def test_push_block_alpha_long_run_keeps_moving():
    # by t = 1000 the gaps are far longer than the cut intervals of nu_2 and nu_3
    spec = DynamicsSpec(PUSH_BLOCK_ALPHA, 0.5, 0.35, (1.0, 0.9, 0.8))
    rng = random.Random(37)
    arr = zero_array(3)
    moved = set()
    for t in range(1000):
        new = sample_step(spec, arr, rng)
        assert is_interlacing_array(new), (t, new)
        if t >= 500:
            moved |= {(j, i) for j in range(3) for i in range(j + 1) if new[j][i] != arr[j][i]}
        arr = new
    assert moved == {(j, i) for j in range(3) for i in range(j + 1)}
    assert min(a - b for a, b in zip(arr[2], arr[2][1:])) > 60, arr


# Squares with one interval of nu_2 or nu_3 of 61 or more values, far more
# than its cut keeps, as (lam, nu_bar, x, q).
_WIDE_SQUARES = [
    ((200, 130), (190,), 0.35, 0.5),
    ((200, 130), (195,), 0.5, 0.3),
    ((300, 230, 160), (290, 170), 0.2, 0.5),
    ((300, 230, 160), (240, 220), 0.2, 0.5),
]


@pytest.mark.parametrize("index", range(len(_WIDE_SQUARES)))
def test_push_block_alpha_float_matches_brute_force_past_the_cuts(index):
    # the brute force sums every nu_2 and nu_3 of their intervals and carries nu_1
    # to x^(nu_1 - lo_1) < 2^-70, with the generic psi and phi_coef
    lam, nu_bar, x, q = _WIDE_SQUARES[index]
    lo, hi = dyn._strip_bounds(False, lam, nu_bar)
    hi[0] = lo[0] + math.ceil(70 * math.log(2) / -math.log(x))
    brute = {nu: x ** (weight(nu) - sum(lo)) * psi(nu, nu_bar, q) * phi_coef(nu, lam, q)
             for nu in signatures_between(lo, hi)}
    total = math.fsum(brute.values())
    kept = dyn._push_block_chain(PUSH_BLOCK_ALPHA, lam, nu_bar, x, 1.0, q)[0]
    wide = max(range(1, len(lam)), key=lambda i: hi[i] - lo[i])
    assert hi[wide] - lo[wide] >= 60 and kept[wide].stop <= hi[wide]
    dropped = math.fsum(w for nu, w in brute.items() if not all(map(range.__contains__, kept, nu)))
    assert 0 < dropped <= 2.0 ** -48 * total
    for nu, w in brute.items():
        if w >= 2.0 ** -40 * total:
            p = push_block_prob(PUSH_BLOCK_ALPHA, lam, nu_bar, nu, x, 1.0, q)
            assert abs(p - w / total) <= 1e-12 * w / total, nu
    # a level past the cut reads 0
    past = (*lo[:wide], kept[wide].stop, *lo[wide + 1:])
    assert brute[past] > 0 and push_block_prob(PUSH_BLOCK_ALPHA, lam, nu_bar, past, x, 1.0, q) == 0


def test_push_block_levels_past_the_float_range_raise_overflow():
    # at q = 0.999: psi seeds of 1e418 and 1e528, and a walk of x^nu_1 / (q;q)_nu_1
    # from nu_1 = 0, whose seed is 1, that peaks near 1e562
    rng = random.Random(0)
    for kind in (PUSH_BLOCK_ALPHA, PUSH_BLOCK_BETA):
        for lam, nu_bar in [((3000, 0), (1500,)), ((4000, 2000), (3000,))]:
            with pytest.raises(OverflowError):
                dyn._sample_push_block_level(kind, lam, nu_bar, 0.35, 1.0, 0.999, rng)
    with pytest.raises(OverflowError, match="float range"):
        dyn._sample_push_block_level(PUSH_BLOCK_ALPHA, (0, 0), (0,), 0.9, 1.0, 0.999, rng)


@st.composite
def _push_block_squares(draw):
    """(lam, nu_bar, x, q): level j with parts up to 40, nu_bar a Bernoulli move below it."""
    j = draw(st.integers(2, 4))
    lam = tuple(sorted(draw(st.lists(st.integers(0, 40), min_size=j, max_size=j)), reverse=True))
    lam_bar = [draw(st.integers(lam[i + 1], lam[i])) for i in range(j - 1)]
    nu_bar = tuple(b + draw(st.integers(0, 1)) for b in lam_bar)
    assume(all(nu_bar[i] >= nu_bar[i + 1] for i in range(j - 2)))
    x = draw(st.fractions(F(1, 10), 3, max_denominator=10))
    q = draw(st.fractions(0, F(9, 10), max_denominator=10))
    return lam, nu_bar, x, q


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_push_block_squares())
def test_push_block_beta_matches_brute_force(square):
    lam, nu_bar, x, q = square

    def w(nu):
        return x ** weight(nu) * psi(nu, nu_bar, q) * psi_prime(nu, lam, q)

    den = sum(w(kap) for kap in dyn._v_strips_above(lam))
    total = F(0)
    for nu in level_candidates(PUSH_BLOCK_BETA, lam, nu_bar, 1):
        p = push_block_prob(PUSH_BLOCK_BETA, lam, nu_bar, nu, x, F(1), q)
        assert p == w(nu) / den, nu
        total += p
    assert total == 1


# Level-4 squares for the sampler/evaluator check below, each with lower move
# c = nu_bar - lam_bar.  RowBeta: two islands (c = 1, 0, 1), and one island of
# three particles.  ColBeta: two moved pairs plus a two-way donation
# (c = 1, 1, 0), a three-way pair (c = 0, 0, 1), and a four-way donation
# (c = 0).  Alpha kinds: every lower particle moves, and at ColAlpha particle 2
# has less room (gap 1) than its lower-left move (2), so the fund is positive
# from particle 3 on.
_LEVEL_FOUR_SQUARES = [
    (ROW_BETA, (5, 3, 1), (6, 3, 2), (6, 4, 2, 1)),
    (ROW_BETA, (5, 3, 1), (5, 4, 2), (6, 4, 3, 1)),
    (COL_BETA, (5, 3, 1), (6, 4, 1), (6, 4, 2, 0)),
    (COL_BETA, (5, 3, 1), (5, 3, 2), (6, 4, 2, 0)),
    (COL_BETA, (5, 3, 1), (5, 3, 1), (6, 4, 2, 0)),
    (ROW_ALPHA, (6, 4, 1), (7, 5, 3), (7, 5, 3, 0)),
    (COL_ALPHA, (6, 4, 1), (7, 5, 3), (7, 5, 3, 0)),
]


@pytest.mark.parametrize("index", range(len(_LEVEL_FOUR_SQUARES)))
def test_insertion_samplers_match_their_evaluators_at_level_four(index):
    kind, lam_bar, nu_bar, lam = _LEVEL_FOUR_SQUARES[index]
    q, beta, alpha, aj = 0.5, 0.4, 0.35, 0.9
    c = tuple(b - a for a, b in zip(lam_bar, nu_bar))
    if kind == ROW_BETA:  # two islands, or an island of three particles
        islands = dyn._islands(lam_bar, nu_bar)
        assert len(islands) == 2 or islands == [(2, 3)]
    if kind == COL_ALPHA:
        assert dyn._col_alpha_gap(lam_bar, lam, 2) < c[2]
    ctx = LevelUpdateContext(lam_bar, nu_bar, lam)
    prob = {
        ROW_BETA: lambda nu: row_beta_prob(ctx, nu, beta, aj, q),
        COL_BETA: lambda nu: col_beta_prob(ctx, nu, beta, aj, q),
        ROW_ALPHA: lambda nu: row_alpha_prob(ctx, nu, alpha, aj, q),
        COL_ALPHA: lambda nu: col_alpha_prob(ctx, nu, alpha, aj, q),
    }[kind]
    probs = {nu: float(prob(nu)) for nu in level_candidates(kind, lam, nu_bar, 12)}
    probs = {nu: p for nu, p in probs.items() if p > 0}
    assert abs(sum(probs.values()) - 1) < 1e-9
    spec = DynamicsSpec(kind, q, beta if kind in BETA_KINDS else alpha, (aj,))
    rnd = random.Random(4000 + index)
    n = 6000
    counts = {nu: 0 for nu in probs}
    for _ in range(n):
        vj = dyn.sample_inputs(spec, rnd)[0]
        nu = dyn.KINDS[kind].sample_level(spec, 4, lam_bar, nu_bar, lam, vj, rnd)
        assert nu in counts, nu
        counts[nu] += 1
    # outcomes with expected count below 10 are pooled, as in criterion 10
    rare_count = sum(counts[nu] for nu, p in probs.items() if p * n < 10)
    rare_prob = sum(p for p in probs.values() if p * n < 10)
    for nu, p in probs.items():
        if p * n >= 10:
            assert abs(counts[nu] - p * n) <= 4 * math.sqrt(p * (1 - p) * n), (kind, nu)
    assert abs(rare_count - rare_prob * n) <= 4 * math.sqrt(rare_prob * n) + 1, kind


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(st.fractions(0, 1, max_denominator=20), max_size=8))
def test_first_success_of_rational_trials_sums_to_one(ps):
    weights = dyn._first_success(ps)
    assert len(weights) == len(ps) + 1
    assert all(w >= 0 for w in weights)
    assert sum(weights) == 1


# Final arrays of seeded sample_step runs, recorded before the level updates
# were rewritten as walks: they fix how each kind consumes its rng.
_GOLDEN_FINAL_ARRAYS = {
    (ROW_ALPHA, 3): ((304,), (305, 249), (307, 257, 200)),
    (ROW_ALPHA, 5): ((264,), (270, 227), (279, 235, 211), (279, 248, 220, 162),
                     (282, 251, 225, 165, 129)),
    (COL_ALPHA, 3): ((239,), (268, 219), (289, 223, 194)),
    (COL_ALPHA, 5): ((262,), (269, 234), (273, 254, 191), (274, 256, 199, 164),
                     (274, 258, 202, 173, 149)),
    (ROW_BETA, 3): ((102,), (105, 70), (109, 87, 67)),
    (ROW_BETA, 5): ((98,), (100, 64), (104, 75, 54), (106, 81, 62, 50),
                    (106, 86, 64, 60, 49)),
    (COL_BETA, 3): ((83,), (88, 79), (98, 83, 73)),
    (COL_BETA, 5): ((87,), (91, 62), (93, 78, 61), (97, 82, 68, 57),
                    (97, 82, 72, 67, 44)),
    (PUSH_BLOCK_ALPHA, 3): ((73,), (78, 44), (83, 58, 27)),
    (PUSH_BLOCK_ALPHA, 5): ((51,), (57, 42), (61, 51, 28), (61, 53, 31, 19),
                            (63, 54, 33, 26, 12)),
    (PUSH_BLOCK_BETA, 3): ((18,), (19, 10), (22, 15, 7)),
    (PUSH_BLOCK_BETA, 5): ((19,), (19, 11), (20, 17, 9), (24, 17, 11, 9),
                           (25, 19, 11, 10, 5)),
}


@pytest.mark.parametrize("kind, n", sorted(_GOLDEN_FINAL_ARRAYS))
def test_seeded_sample_step_runs_are_unchanged(kind, n):
    rule = dyn.KINDS[kind]
    a = tuple(1.0 - 0.1 * i for i in range(n))
    spec = DynamicsSpec(kind, 0.5, 0.4 if rule.beta else 0.35, a)
    rng = random.Random(1000 * n + len(kind))
    arr = zero_array(n)
    for _ in range(60 if rule.push_block else 300):
        arr = sample_step(spec, arr, rng)
    assert arr == _GOLDEN_FINAL_ARRAYS[kind, n]


# The next rng draw after each run of `_GOLDEN_FINAL_ARRAYS`, recorded before drawn
# walks stopped building the choice laws they do not read: a walk that takes one
# uniform more or less than before shows here even where the final array is the same.
_GOLDEN_NEXT_UNIFORMS = {
    (ROW_ALPHA, 3): 0.404634752779525,
    (ROW_ALPHA, 5): 0.4948346596316866,
    (COL_ALPHA, 3): 0.2649082293673829,
    (COL_ALPHA, 5): 0.9373482739481236,
    (ROW_BETA, 3): 0.8044263514766548,
    (ROW_BETA, 5): 0.9264976390683088,
    (COL_BETA, 3): 0.4508178810851585,
    (COL_BETA, 5): 0.3433002887151405,
    (PUSH_BLOCK_ALPHA, 3): 0.192770270601616,
    (PUSH_BLOCK_ALPHA, 5): 0.8849118204532898,
    (PUSH_BLOCK_BETA, 3): 0.6464757588703725,
    (PUSH_BLOCK_BETA, 5): 0.4018504574816676,
}


@pytest.mark.parametrize("kind, n", sorted(_GOLDEN_FINAL_ARRAYS))
def test_seeded_sample_step_runs_take_the_recorded_uniforms(kind, n):
    rule = dyn.KINDS[kind]
    a = tuple(1.0 - 0.1 * i for i in range(n))
    spec = DynamicsSpec(kind, 0.5, 0.4 if rule.beta else 0.35, a)
    rng = random.Random(1000 * n + len(kind))
    arr = zero_array(n)
    for _ in range(60 if rule.push_block else 300):
        arr = sample_step(spec, arr, rng)
    assert (arr, rng.random()) == (_GOLDEN_FINAL_ARRAYS[kind, n], _GOLDEN_NEXT_UNIFORMS[kind, n])


def test_seeded_row_alpha_run_at_q_9_10_is_unchanged():
    # q = 0.9: the log (q;q)_n prefix has 396 terms, summed in numpy blocks, and
    # the q-geometric tables and phi walk starts read it; recorded, with the next
    # uniform, before the sampling tables became memoised functions of q
    spec = DynamicsSpec(ROW_ALPHA, 0.9, 0.35, (1.0, 0.9, 0.8))
    rng = random.Random(90)
    arr = zero_array(3)
    for _ in range(100):
        arr = sample_step(spec, arr, rng)
    assert (arr, rng.random()) == (((413,), (431, 293), (454, 342, 256)), 0.8086464144826595)


def _pick(weights, u):
    """The first index whose cumulative float weight reaches u, the last if none does:
    how a drawn walk picked from a whole first-success law before it picked lazily."""
    acc = 0.0
    for s, w in enumerate(weights):
        acc += w
        if u <= acc:
            return s
    return len(weights) - 1


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.floats(0, 1), max_size=8),
                 st.lists(st.fractions(0, 1, max_denominator=20), max_size=8)),
       st.one_of(st.floats(0, 1, exclude_max=True), st.just(1.0), st.just(1.5)))
def test_lazy_first_success_pick_is_the_pick_from_the_whole_law(ps, u):
    # u = 1.5 lies above all the mass: both pick the last index, the sure trial
    read = []

    def trials():
        for p in ps:
            read.append(p)
            yield p

    s = dyn._first_success_pick(trials(), u)
    assert s == _pick(dyn._first_success(ps), u)
    assert len(read) == min(s + 1, len(ps))  # the pass stops at the pick


def test_drawn_beta_walks_build_no_first_success_law(monkeypatch):
    # a drawn RowBeta or ColBeta walk picks from its trial probabilities lazily
    def no_law(ps):
        raise AssertionError("a drawn walk built a whole first-success law")

    monkeypatch.setattr(dyn, "_first_success", no_law)
    rng = random.Random(5)
    for kind in (ROW_BETA, COL_BETA):
        spec = DynamicsSpec(kind, 0.5, 0.4, (1.0, 0.9, 0.8, 0.7))
        arr = zero_array(4)
        for _ in range(40):
            arr = sample_step(spec, arr, rng)
        assert arr[-1][0] > 0, kind


def test_seeded_scaled_arrays_are_unchanged():
    # the per-(j, k) sums over 50 replicas of the integer parts behind the log ratios
    from qrsk.polymers import scaled_col_arrays, scaled_row_arrays

    eps, t = 1e-2, 3
    log_inv_eps = math.log(1 / eps)
    args = (3, t, [0.5, 1.0, 1.5], [0.75, 1.25, 2.0], eps, 50)
    row = scaled_row_arrays(*args, random.Random(7))
    col = scaled_col_arrays(*args, random.Random(7))
    row_sums = {(j, k): sum(round((x + (t + j - 2 * k + 1) * log_inv_eps) / eps) for x in xs)
                for (j, k), xs in row.items()}
    col_sums = {(j, k): sum(round(((t - j + 2 * k - 1) * log_inv_eps - x) / eps) for x in xs)
                for (j, k), xs in col.items()}
    assert row_sums == {(1, 1): 67720, (2, 1): 92613, (2, 2): 35200,
                        (3, 1): 114791, (3, 2): 57048, (3, 3): 13945}
    assert col_sums == {(1, 1): 66323, (2, 1): 36194, (2, 2): 91567,
                        (3, 1): 14735, (3, 2): 57068, (3, 3): 114144}


@pytest.mark.parametrize("kind", [ROW_ALPHA, COL_ALPHA])
def test_q_geometric_evaluators_sum_to_one_per_input_exactly(kind):
    # given the input V, the normalised weights of its nu sum to 1 / (q;q)_V:
    # a choice the evaluator drops or counts twice shows as an exact mismatch
    q = F(1, 3)
    rnd = random.Random(29 if kind == ROW_ALPHA else 31)
    done = 0
    while done < 30:
        j = rnd.choice((2, 3, 4))
        lam = tuple(sorted((rnd.randint(0, 3) for _ in range(j)), reverse=True))
        lam_bar = tuple(rnd.randint(lam[i + 1], lam[i]) for i in range(j - 1))
        nu_bar = tuple(rnd.randint(lam_bar[i], min(3, lam_bar[i - 1] if i else 3))
                       for i in range(j - 1))
        if not (interlaces_h(lam_bar, lam) and interlaces_h(lam_bar, nu_bar)):
            continue
        done += 1
        ctx = LevelUpdateContext(lam_bar, nu_bar, lam)
        totals = {v: F(0) for v in range(4)}
        for nu in level_candidates(kind, lam, nu_bar, 3):
            v = (weight(nu) - weight(lam)) - (weight(nu_bar) - weight(lam_bar))
            if v in totals:
                w = row_alpha_v(ctx, nu, q) if kind == ROW_ALPHA else dyn.col_alpha_v(ctx, nu, q)
                totals[v] += w
        for v, total in totals.items():
            assert total * q_pochhammer(q, q, v) == 1, (kind, lam_bar, nu_bar, lam, v)


REPLAY_MEMO_NAMES = ("_replayed_phi_choices", "_replayed_island_law", "_replayed_pair_law",
                     "_replayed_donation_law")
REPLAY_MEMOS = tuple(getattr(dyn, name) for name in REPLAY_MEMO_NAMES)


@pytest.mark.parametrize("kind", [ROW_ALPHA, COL_ALPHA])
def test_a_repeated_exact_sweep_still_calls_phi_weight(kind, monkeypatch):
    # each sweep builds its own choice laws, so a second sweep over the same squares
    # calls phi_weight again: the benchmark records its exact phi_weight calls from a sweep
    calls = []

    def counting(p, s):
        calls.append(s)
        return phi_weight(p, s)

    monkeypatch.setattr(dyn, "phi_weight", counting)
    for run in range(2):
        calls.clear()
        assert main_equation_sweep(kind, 3, 2, F(1, 5), F(1), F(1, 2)) > 0
        assert calls, (kind, run)


def test_replay_memos_are_empty_when_a_sweep_starts_and_keep_their_bound(monkeypatch):
    assert all(m.cache_parameters() == {"maxsize": qnum.MEMO_SIZE, "typed": True}
               for m in REPLAY_MEMOS)
    # fill every memo with replays outside a sweep
    ctx = LevelUpdateContext((2, 1), (3, 2), (3, 2, 0))
    for nu in level_candidates(ROW_BETA, ctx.lam, ctx.nu_bar, 1):
        row_beta_prob(ctx, nu, F(1, 3), 1, Q)
        col_beta_prob(ctx, nu, F(1, 3), 1, Q)
    row_alpha_v(LevelUpdateContext((2, 1), (3, 1), (3, 1, 0)), (4, 2, 0), Q)
    assert all(m.cache_info().currsize for m in REPLAY_MEMOS)
    residual = dyn.main_equation_residual
    at_first_square = []

    def watching(*args):
        if not at_first_square:
            at_first_square.extend(m.cache_info().currsize for m in REPLAY_MEMOS)
        return residual(*args)

    monkeypatch.setattr(dyn, "main_equation_residual", watching)
    for kind in (ROW_BETA, COL_BETA, ROW_ALPHA, COL_ALPHA):
        at_first_square.clear()
        assert main_equation_sweep(kind, 4, 3, F(1, 3), F(1), Q) > 0
        assert at_first_square == [0] * len(REPLAY_MEMOS), kind
        assert all(m.cache_info().currsize <= qnum.MEMO_SIZE for m in REPLAY_MEMOS)


def test_drawn_steps_read_no_replay_memo():
    for m in REPLAY_MEMOS:
        m.cache_clear()
    rng = random.Random(3)
    for kind in RSK_KINDS:
        spec = DynamicsSpec(kind, 0.5, 0.4 if kind in BETA_KINDS else 0.35, (1.0, 0.9, 0.8))
        arr = zero_array(3)
        for _ in range(30):
            arr = sample_step(spec, arr, rng)
    assert [m.cache_info() for m in REPLAY_MEMOS] == [(0, 0, qnum.MEMO_SIZE, 0)] * len(REPLAY_MEMOS)


def _bits(x):
    return x.hex() if isinstance(x, float) else x


def test_float_replays_equal_their_unmemoised_values(monkeypatch):
    squares = [((2, 1), (3, 1), (3, 1, 0)), ((3, 1), (3, 2), (3, 2, 1)), ((1, 0), (2, 1), (2, 1, 0)),
               ((2, 2), (3, 2), (4, 2, 1))]
    evaluators = (
        (row_alpha_prob, False), (col_alpha_prob, False), (row_beta_prob, True), (col_beta_prob, True),
    )
    memoised = {}
    for m in REPLAY_MEMOS:
        m.cache_clear()
    for _ in range(2):  # the second pass reads the memos
        for lam_bar, nu_bar, lam in squares:
            ctx = LevelUpdateContext(lam_bar, nu_bar, lam)
            for fn, beta in evaluators:
                for nu in level_candidates(COL_BETA if beta else COL_ALPHA, lam, nu_bar, 2):
                    memoised[fn.__name__, lam_bar, nu_bar, lam, nu] = fn(ctx, nu, 0.35, 0.9, 0.6)
    assert all(m.cache_info().hits for m in REPLAY_MEMOS)
    for name, memo in zip(REPLAY_MEMO_NAMES, REPLAY_MEMOS):
        monkeypatch.setattr(dyn, name, memo.__wrapped__)
    for (name, lam_bar, nu_bar, lam, nu), value in memoised.items():
        fn = getattr(dyn, name)
        plain = fn(LevelUpdateContext(lam_bar, nu_bar, lam), nu, 0.35, 0.9, 0.6)
        assert _bits(plain) == _bits(value), (name, lam_bar, nu_bar, lam, nu)
    # q = 0.5 and q = 1/2 are equal, with equal hashes: the memo keys on the type of q
    # too, so an exact replay after a float one still gets Fractions
    monkeypatch.undo()
    ctx = LevelUpdateContext((2, 1), (3, 1), (3, 1, 0))
    row_alpha_v(ctx, (4, 2, 0), 0.5)
    assert type(row_alpha_v(ctx, (4, 2, 0), Q)) is F


def test_level_weights_are_zero_off_the_strips_and_reject_a_lower_move_that_is_not_one():
    q = F(1, 3)
    for kind in RSK_KINDS:
        rule = dyn.KINDS[kind]
        strip = rule.strip
        for lam in enumerate_signatures(3, 3):
            for lam_bar in enumerate_signatures(3, 2):
                if not interlaces_h(lam_bar, lam):
                    continue
                for nu_bar in enumerate_signatures(4, 2):
                    ctx = LevelUpdateContext(list(lam_bar), list(nu_bar), list(lam))
                    nus = [(lam[0] + 2, *lam[1:]), (5, 4, 0), (3, 3, 3), (1, 2, 0), (4, 3)]
                    if not strip(lam_bar, nu_bar):
                        with pytest.raises(ValueError, match="lower transition"):
                            rule.level_weight(ctx, nus[0], F(1, 4), 1, q)
                        continue
                    for nu in nus:
                        if len(nu) != 3 or not (strip(lam, nu) and interlaces_h(nu_bar, nu)):
                            assert rule.level_weight(ctx, nu, F(1, 4), 1, q) == 0, (kind, ctx, nu)
