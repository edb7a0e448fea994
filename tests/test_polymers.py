import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from qrsk import polymers, qnum
from qrsk.dynamics import _sample_col_alpha_level, _sample_row_alpha_level
from qrsk.gt import zero_array
from qrsk.identities import grsk_lgv
from qrsk.polymers import (
    PolymerEnv,
    empty_array,
    grsk_col_insert,
    grsk_row_insert,
    is_empty_word,
    ks_statistic,
    lgv_partition,
    polymer_log_ratios,
    sample_gamma,
    sample_inverse_gamma,
    scaled_col_arrays,
    scaled_row_arrays,
    scaling_limit_experiment,
    transfer_matrix_check,
    transfer_product_check,
)
from qrsk.qnum import sample_q_geometric


def rand_words(rng, n, t):
    return [[0.5 + rng.random() for _ in range(n)] for _ in range(t)]


def test_empty_word_insertion_cascade():
    # inserting a into an empty word gives partial products of a
    arr = empty_array(3)
    out = grsk_row_insert(arr, [2.0, 3.0, 5.0])
    assert out[0] == [2.0, 6.0, 30.0]
    assert is_empty_word(out[1]) and is_empty_word(out[2])


def test_single_row_is_product_of_weights():
    arr = empty_array(1)
    vals = [1.5, 0.5, 2.0]
    for v in vals:
        arr = grsk_row_insert(arr, [v])
    assert abs(arr[0][0] - math.prod(vals)) < 1e-14
    arr = empty_array(1)
    for v in vals:
        arr = grsk_col_insert(arr, [v])
    assert abs(arr[0][0] - math.prod(vals)) < 1e-14


def test_col_insert_zero_branches():
    # the lam = 0 branches: word 1 emits b = (a^2 nu^1, a^3) = (6, 4),
    # word 2 then emits b = (4 * 6,) into word 3
    arr = empty_array(3)
    arr = grsk_col_insert(arr, [2.0, 3.0, 4.0])
    assert arr[0] == [2.0, 1.0, 0.0]
    assert arr[1] == [6.0, 1.0]
    assert arr[2] == [24.0]


def _grsk_lgv_side(seed, side):
    """Check one side's gRSK entries against LGV ratios at 1e-10 relative; return the count."""
    checked = 0
    for kind, instance, lhs, rhs in grsk_lgv(seed, [(2, 2), (3, 4), (4, 5)], 0, ()):
        if kind == side:
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs), instance
            checked += 1
    return checked


def test_row_grsk_matches_lgv_ratios():
    assert _grsk_lgv_side(0, "row") == 19


def test_col_grsk_matches_lgv_ratios():
    assert _grsk_lgv_side(1, "col") == 19


def test_lgv_single_cell_and_forced_staircase():
    env = PolymerEnv("LogGamma", [[3.0]])
    assert lgv_partition(env, 1, 1, 1) == 3.0
    # k = j = t: a unique tuple covering the staircase of all vertices
    rng = random.Random(2)
    words = rand_words(rng, 3, 3)
    env = PolymerEnv("LogGamma", words)
    val = lgv_partition(env, 3, 3, 3)
    assert abs(val - math.prod(math.prod(row) for row in words)) < 1e-12 * abs(val)


def test_lgv_two_oracles_agree():
    rng = random.Random(3)
    for mode in ("LogGamma", "StrictWeak"):
        for n, t in [(3, 4), (5, 5)]:
            env = PolymerEnv(mode, rand_words(rng, n, t))
            for j in range(1, n + 1):
                for k in range(1, min(j, 3) + 1):
                    if mode == "LogGamma" and t < k:
                        continue
                    if mode == "StrictWeak" and t < j - k:
                        continue
                    e = lgv_partition(env, j, k, t, "enumerate")
                    d = lgv_partition(env, j, k, t, "determinant")
                    assert abs(e - d) <= 1e-12 * max(abs(e), 1e-300), (mode, n, t, j, k)


def test_lgv_batch_matches_one_environment_at_a_time():
    # a batch of environments (replica axis last) against the scalar loop
    gen = np.random.default_rng(5)
    n, t, reps = 4, 4, 6
    for mode in ("LogGamma", "StrictWeak"):
        weights = 0.5 + gen.random((t, n, reps))
        batch = PolymerEnv(mode, weights)
        singles = [PolymerEnv(mode, weights[:, :, r].tolist()) for r in range(reps)]
        for j in range(1, n + 1):
            for k in range(1, min(j, 3) + 1):
                for method in ("determinant", "enumerate"):
                    got = lgv_partition(batch, j, k, t, method)
                    want = [lgv_partition(env, j, k, t, method) for env in singles]
                    assert got.shape == (reps,)
                    np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=str((mode, j, k)))


def test_polymer_log_ratios_are_seeded_by_rng():
    args = ("LogGamma", 2, 2, [1.2, 0.8], [0.9, 1.1], 50)
    r1 = polymer_log_ratios(*args, random.Random(1), [(2, 1), (2, 2)])
    r2 = polymer_log_ratios(*args, random.Random(1), [(2, 1), (2, 2)])
    assert r1 == r2 and len(r1[(2, 1)]) == 50
    assert all(isinstance(v, float) for v in r1[(2, 2)])


def test_polymer_log_ratios_compute_each_partition_function_once(monkeypatch):
    calls = []

    def recording(env, j, k, t, method="enumerate"):
        calls.append((env, j, k))
        return lgv_partition(env, j, k, t, method=method)

    monkeypatch.setattr(polymers, "lgv_partition", recording)
    targets = [(1, 1), (2, 1), (2, 2)]
    for mode in ("LogGamma", "StrictWeak"):
        calls.clear()
        out = polymers.polymer_log_ratios(
            mode, 2, 2, [1.2, 0.8], [0.9, 1.1], 30, random.Random(7), targets)
        # Z^2_1 is shared by the targets (2, 1) and (2, 2)
        assert sorted((j, k) for _, j, k in calls) == targets
        env = calls[0][0]
        for j, k in targets:
            zk = lgv_partition(env, j, k, 2, method="determinant")
            zk1 = lgv_partition(env, j, k - 1, 2, method="determinant") if k > 1 else 1.0
            assert out[j, k] == np.log(zk / zk1).tolist(), (mode, j, k)


def test_lgv_positivity_and_size_guard():
    env = PolymerEnv("LogGamma", [[1.0, 2.0], [0.5, 1.5]])
    assert lgv_partition(env, 2, 2, 2) > 0
    with pytest.raises(ValueError):
        lgv_partition(env, 2, 2, 1)  # t < k


def test_transfer_matrix_single_steps():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.choice((2, 3, 4))
        lam = [0.5 + rng.random() for _ in range(n)]
        a = [0.5 + rng.random() for _ in range(n)]
        assert transfer_matrix_check(lam, a, 1, n)
    # identity word: H is the all-ones-superdiagonal bidiagonal matrix
    assert transfer_matrix_check([1.3, 0.7, 2.0], [1.0, 1.0, 1.0], 1, 3)


def test_transfer_product_identity():
    rng = random.Random(5)
    assert transfer_product_check(rand_words(rng, 3, 3))
    assert transfer_product_check(rand_words(rng, 4, 5))


def test_gamma_sampler_moments():
    rng = random.Random(6)
    n = 40000
    xs = [sample_gamma(2.5, rng) for _ in range(n)]
    se = math.sqrt(2.5 / n)  # Var(Gamma(theta)) = theta
    assert abs(np.mean(xs) - 2.5) < 4 * se
    # theta = 1 is exponential: P(X > 1) = e^-1
    ys = [sample_gamma(1.0, rng) for _ in range(n)]
    p = math.exp(-1)
    assert abs(np.mean([y > 1 for y in ys]) - p) < 4 * math.sqrt(p * (1 - p) / n)
    # inverse-Gamma(3) has mean 1/2
    zs = [sample_inverse_gamma(3.0, rng) for _ in range(n)]
    assert abs(np.mean(zs) - 0.5) < 4 * np.std(zs) / math.sqrt(n)


def test_single_cell_scaling_laws():
    rng = random.Random(7)
    th, thh = [1.2], [0.9]
    eps, reps = 0.02, 4000
    d = scaled_row_arrays(1, 1, th, thh, eps, reps, rng)
    ks = stats.kstest(np.exp(d[(1, 1)]), lambda v: stats.invgamma.cdf(v, th[0] + thh[0])).statistic
    assert ks < 0.05
    d = scaled_col_arrays(1, 1, th, thh, eps, reps, rng)
    ks = stats.kstest(np.exp(d[(1, 1)]), lambda v: stats.gamma.cdf(v, th[0] + thh[0])).statistic
    assert ks < 0.05


def test_corollary_r_and_inverse_l_share_distribution():
    # the polymer arrays {R-hat^j_k} and {1/L-hat^j_{j-k+1}} agree in law
    rng = random.Random(8)
    n = t = 2
    th, thh = [1.2, 0.8], [0.9, 1.1]
    reps = 4000
    r = polymer_log_ratios("LogGamma", n, t, th, thh, reps, rng, [(2, 1), (2, 2), (1, 1)])
    l = polymer_log_ratios("StrictWeak", n, t, th, thh, reps, rng, [(2, 2), (2, 1), (1, 1)])
    for (j, k) in [(1, 1), (2, 1), (2, 2)]:
        ks = ks_statistic(r[(j, k)], [-v for v in l[(j, j - k + 1)]])
        assert ks < 0.05, (j, k, ks)


def test_experiment_report_shape_and_warning():
    rng = random.Random(9)
    rep = scaling_limit_experiment(
        "RowAlpha", 2, 2, [1.0, 1.0], [1.0, 1.0], [0.3], 50, rng, targets=[(1, 1)]
    )
    assert rep["results"][0]["eps"] == 0.3
    assert "warnings" in rep
    for key in ("dynamics_mean", "polymer_mean", "ks_stat"):
        assert key in rep["results"][0]


_KS_VALUES = st.one_of(st.integers(-3, 3).map(float), st.floats(-10, 10, allow_nan=False))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(_KS_VALUES, min_size=1, max_size=40), st.lists(_KS_VALUES, min_size=1, max_size=70))
@example([0.5], [0.5])
@example([0.5], [1.5, -2.0, 1.5])
@example([1.0, 1.0, 2.0], [1.0])
def test_ks_statistic_matches_scipy(xs, ys):
    # small integer values make ties within and across the samples
    with np.errstate(divide="ignore"):  # scipy's p-value at n = 1; only the statistic is used
        expected = stats.ks_2samp(xs, ys, method="asymp").statistic
    assert ks_statistic(xs, ys) == pytest.approx(expected, abs=1e-12)


def test_scaled_arrays_are_reproducible_from_the_rng_state():
    th, thh = [1.2, 0.8], [0.9, 1.1]
    for fn in (scaled_row_arrays, scaled_col_arrays):
        first = fn(2, 2, th, thh, 0.01, 50, random.Random(4))
        again = fn(2, 2, th, thh, 0.01, 50, random.Random(4))
        other = fn(2, 2, th, thh, 0.01, 50, random.Random(5))
        assert first == again and first != other
        assert all(len(v) == 50 and all(type(x) is float for x in v) for v in first.values())


def test_seeded_scaled_arrays_do_not_depend_on_the_state_of_the_prefix(monkeypatch):
    args = (2, 2, [1.2, 0.8], [0.9, 1.1], 5e-3, 200)
    monkeypatch.setattr(qnum, "_SAMPLERS", {})  # a cold prefix
    cold = scaled_col_arrays(*args, random.Random(7))
    # other calls at the same q grow the shared log (q;q)_n prefix past what it held
    scaled_row_arrays(*args, random.Random(8))
    qnum._shared_sampler(math.exp(-5e-3)).log_qpoch(qnum.INF)
    assert scaled_col_arrays(*args, random.Random(7)) == cold


@pytest.mark.parametrize("fn", [scaled_row_arrays, scaled_col_arrays])
def test_each_scaled_arrays_call_builds_the_tables_of_its_parameters(fn, monkeypatch):
    # the traced polymer-limit benchmark records the log (alpha;q)_inf calls
    # that table builds make, in the process that has just run the replicas:
    # each call builds the q-geometric tables of its alpha_s a_j again, in the
    # shared sampler of q, and keeps no other table of q
    th, thh, eps = [1.2, 0.8], [0.9, 1.1], 1e-2
    q = math.exp(-eps)
    alphas = sorted(math.exp(-h * eps) * math.exp(-t * eps) for h in thh for t in th)
    sample_q_geometric(0.5, q, random.Random(0))  # a table of q that no call needs
    built = []
    log_q_pochhammer_inf = qnum.log_q_pochhammer_inf

    def counting(alpha, q_):
        built.append(alpha)
        return log_q_pochhammer_inf(alpha, q_)

    monkeypatch.setattr(qnum, "log_q_pochhammer_inf", counting)
    first = fn(2, 2, th, thh, eps, 50, random.Random(4))
    assert sorted(qnum._SAMPLERS[q]._cdfs) == alphas and sorted(built) == alphas
    built.clear()
    assert fn(2, 2, th, thh, eps, 50, random.Random(4)) == first
    assert sorted(qnum._SAMPLERS[q]._cdfs) == alphas and sorted(built) == alphas


def _scalar_replicas(level, n, t, thetas, theta_hats, eps, replicas, rng):
    """Final arrays of replicas stepped one at a time through the scalar level update."""
    q = math.exp(-eps)
    a = [math.exp(-thetas[j] * eps) for j in range(n)]
    alphas = [math.exp(-theta_hats[s] * eps) for s in range(t)]
    finals = []
    for _ in range(replicas):
        arr = zero_array(n)
        for alpha in alphas:
            out = [(arr[0][0] + sample_q_geometric(alpha * a[0], q, rng),)]
            for j in range(2, n + 1):
                vj = sample_q_geometric(alpha * a[j - 1], q, rng)
                out.append(level(arr[j - 2], out[j - 2], arr[j - 1], vj, q, rng))
            arr = out
        finals.append(arr)
    return finals


@pytest.mark.parametrize("level", [_sample_row_alpha_level, _sample_col_alpha_level])
def test_replica_axis_level_updates_match_the_scalar_ones(level):
    # N = T = 3 at eps = 1e-2: every part of the final array has the same law
    # whether the replicas step together or one at a time
    n = t = 3
    th, thh, eps, reps = [1.2, 0.8, 1.0], [0.9, 1.1, 1.0], 1e-2, 3000
    rng = random.Random(12)
    batch = polymers._scaled_replicas(level, n, t, th, thh, eps, reps, rng)
    scalar = _scalar_replicas(level, n, t, th, thh, eps, reps, rng)
    for j in range(1, n + 1):
        for i in range(j):
            xs = batch[j - 1][i]
            ys = [arr[j - 1][i] for arr in scalar]
            assert stats.ks_2samp(xs, ys).pvalue > 1e-4, (level.__name__, j, i + 1)


def _ks_noise_floor(xs, ys, gen, b=10):
    """The KS that sampling alone gives: the mean KS of two resamples, of the
    sizes of xs and ys, drawn from the pooled sample."""
    pooled = np.concatenate((xs, ys))
    return float(np.mean([
        ks_statistic(gen.choice(pooled, len(xs)), gen.choice(pooled, len(ys))) for _ in range(b)
    ]))


def test_strict_weak_convergence_is_resolved_between_eps_1e2_and_1e3():
    # StrictWeak at (j, k, t) = (2, 1, 2): the scaled column dynamics are
    # measurably off the polymer at eps = 1e-2 and within sampling noise at
    # eps = 1e-3.  The noise floor falls as 1/sqrt(replicas); 120k replicas
    # put both claims several standard deviations clear of the bar
    th, thh, reps = [1.2, 0.8], [0.9, 1.1], 120_000
    rng = random.Random(2015)
    gen = np.random.default_rng(2015)
    poly = np.array(polymer_log_ratios("StrictWeak", 2, 2, th, thh, reps, rng, [(2, 1)])[(2, 1)])
    ks = {}
    for eps in (1e-2, 1e-3):
        xs = np.array(scaled_col_arrays(2, 2, th, thh, eps, reps, rng)[(2, 1)])
        ks[eps] = ks_statistic(xs, poly)
    noise = _ks_noise_floor(xs, poly, gen)
    assert ks[1e-2] > 3 * noise, (ks, noise)
    assert ks[1e-3] <= 3 * noise, (ks, noise)
