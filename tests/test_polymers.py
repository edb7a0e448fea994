import hashlib
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


# Seeded scaled arrays at q = e^-eps > 0.52, where the log (q;q)_n prefix is summed
# in numpy blocks (N = T = 2, theta = (1.2, 0.8), theta-hat = (0.9, 1.1), 3 replicas,
# random.Random(21)), recorded before the sampling tables became memoised functions of q.
_GOLDEN_SCALED_ARRAYS = {
    ("scaled_row_arrays", 1e-2): {
        (1, 1): [-1.1003403719761842, -0.2803403719761839, -2.0103403719761834],
        (2, 1): [-0.08551055796427498, 0.1844894420357246, -2.075510557964275],
        (2, 2): [-1.5751701859880916, -1.0551701859880915, -1.495170185988092]},
    ("scaled_row_arrays", 5e-3): {
        (1, 1): [-1.1116347330960732, -0.2866347330960721, -2.0266347330960723],
        (2, 1): [-0.07495209964410776, 0.18004790035589124, -2.0949520996441073],
        (2, 2): [-1.5933173665480362, -1.0683173665480359, -1.498317366548036]},
    ("scaled_col_arrays", 1e-2): {
        (1, 1): [1.1003403719761842, 0.2803403719761839, 2.0103403719761834],
        (2, 1): [0.6651701859880919, 1.2151701859880917, 1.8551701859880918],
        (2, 2): [0.9955105579642751, -0.34448944203572474, 1.7155105579642758]},
    ("scaled_col_arrays", 5e-3): {
        (1, 1): [1.1116347330960732, 0.2866347330960721, 2.0266347330960723],
        (2, 1): [0.6733173665480363, 1.233317366548036, 1.8583173665480364],
        (2, 2): [0.9949520996441077, -0.34504790035589394, 1.734952099644108]},
}


@pytest.mark.parametrize("name, eps", sorted(_GOLDEN_SCALED_ARRAYS))
def test_seeded_scaled_arrays_are_unchanged(name, eps):
    out = getattr(polymers, name)(2, 2, [1.2, 0.8], [0.9, 1.1], eps, 3, random.Random(21))
    assert out == _GOLDEN_SCALED_ARRAYS[name, eps]


def test_scaled_arrays_are_reproducible_from_the_rng_state():
    th, thh = [1.2, 0.8], [0.9, 1.1]
    for fn in (scaled_row_arrays, scaled_col_arrays):
        first = fn(2, 2, th, thh, 0.01, 50, random.Random(4))
        again = fn(2, 2, th, thh, 0.01, 50, random.Random(4))
        other = fn(2, 2, th, thh, 0.01, 50, random.Random(5))
        assert first == again and first != other
        assert all(len(v) == 50 and all(type(x) is float for x in v) for v in first.values())


def test_seeded_scaled_arrays_do_not_depend_on_the_state_of_the_prefix():
    args = (2, 2, [1.2, 0.8], [0.9, 1.1], 5e-3, 200)
    qnum._log_qpoch_prefix.cache_clear()  # a cold prefix
    cold = scaled_col_arrays(*args, random.Random(7))
    # other calls at the same q read the memoised log (q;q)_n prefix
    scaled_row_arrays(*args, random.Random(8))
    qnum._prefix_reader(math.exp(-5e-3))(qnum.INF)
    assert scaled_col_arrays(*args, random.Random(7)) == cold


@pytest.mark.parametrize("fn", [scaled_row_arrays, scaled_col_arrays])
def test_each_scaled_arrays_call_builds_the_tables_of_its_parameters(fn, monkeypatch):
    # the traced polymer-limit benchmark records the log (alpha;q)_inf calls
    # that table builds make, in the process that has just run the replicas:
    # each call builds the q-geometric tables of its alpha_s a_j again, and
    # keeps no other table
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
    tables = qnum._q_geometric_table

    def kept_tables():  # the memo holds a table of each alpha, and no other
        info = tables.cache_info()
        for alpha in alphas:
            tables(alpha, q)
        return tables.cache_info().misses == info.misses and info.currsize == len(alphas)

    first = fn(2, 2, th, thh, eps, 50, random.Random(4))
    assert kept_tables() and sorted(built) == alphas
    built.clear()
    assert fn(2, 2, th, thh, eps, 50, random.Random(4)) == first
    assert kept_tables() and sorted(built) == alphas


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


# Sums and digests of every float of seeded replica-axis runs: the benchmark's
# shape (N = T = 2, 100 replicas) at eps 1e-2 and 5e-3, and N = T = 3 over 300
# replicas at eps 1e-3, whose phi draws include finite b and windows of up to
# 411 points, 39 rows a block.  Any change to a draw or a float moves a digest.
_GOLDEN_REPLICA_AXIS = {
    ('scaled_row_arrays', 2, 0.01): {
        (1, 1): (-107.22403719761834, '51247958b36aa977'),
        (2, 1): (-32.16105579642752, 'a758951323af59ce'),
        (2, 2): (-133.87701859880917, '52ce16632be4d3da'),
    },
    ('scaled_row_arrays', 2, 0.005): {
        (1, 1): (-108.07847330960725, '754f176222957cfa'),
        (2, 1): (-32.64520996441078, '095fe4813ea9f1d7'),
        (2, 2): (-134.88173665480363, '5539e2985511cc54'),
    },
    ('scaled_col_arrays', 2, 0.01): {
        (1, 1): (107.22403719761834, '4a6c9ba541b3b82d'),
        (2, 1): (114.93701859880917, '1d10df7caa7546ad'),
        (2, 2): (51.10105579642751, 'a4690656979fbed0'),
    },
    ('scaled_col_arrays', 2, 0.005): {
        (1, 1): (108.07847330960725, '8d59565a23df3555'),
        (2, 1): (115.83173665480362, '54ea895ba200f058'),
        (2, 2): (51.69520996441077, 'df263a37f9aa0256'),
    },
    ('scaled_row_arrays', 3, 0.001): {
        (1, 1): (-470.07975108392304, '220a8bb233a2160d'),
        (2, 1): (-97.14533477856396, '871357fbdf8cb237'),
        (2, 2): (-665.365167389282, '7231e93a9bc6cff2'),
        (3, 1): (48.72508152679505, '02a5a2d3793d6c63'),
        (3, 2): (-651.2807510839231, 'a232acd92a33390c'),
        (3, 3): (-512.919583694641, 'afde03ca9e7a010d'),
    },
    ('scaled_col_arrays', 3, 0.001): {
        (1, 1): (492.926751083923, '77419dcd34019978'),
        (2, 1): (671.272167389282, '798d913902833310'),
        (2, 2): (104.76433477856403, 'f3dcbba7c2e84b3c'),
        (3, 1): (507.153583694641, '66a750d880bc5bd2'),
        (3, 2): (662.511751083923, '19d6bbef43ecbbcb'),
        (3, 3): (-53.073081526794994, 'ef1486a1088d5a6c'),
    },
}

_GOLDEN_POLYMER_LOG_RATIOS = {
    ('LogGamma', 2): {
        (1, 1): (-113.66982774387577, 'dc5c875575c12595'),
        (2, 1): (-52.338608982673186, '47b4f1d1fd1ff10c'),
        (2, 2): (-123.01632126479356, '7dc60b67fcd8a4ec'),
    },
    ('StrictWeak', 2): {
        (1, 1): (113.66982774387577, '96b8ab3323cecb6f'),
        (2, 1): (134.43910622056097, '53db501a0782b4ea'),
        (2, 2): (40.91582402690577, 'ba87409a85597b9f'),
    },
    ('LogGamma', 3): {
        (1, 1): (-479.301697389154, 'a472dd13e6d0095d'),
        (2, 1): (-52.82532848276067, '0a9b66a7144506a2'),
        (2, 2): (-645.0778715835796, '3018609be5d9d32d'),
        (3, 1): (52.905701793260796, 'a108865d8642d9b7'),
        (3, 2): (-636.7177796707819, 'f77d97d019f69fc1'),
        (3, 3): (-505.90286805149873, '30c97231444ada9a'),
    },
    ('StrictWeak', 3): {
        (1, 1): (479.301697389154, '2b369ecca7cab1e2'),
        (2, 1): (653.4325119929038, '159a5c98b6e29eda'),
        (2, 2): (44.47068807343652, '1ea7564a97588b37'),
        (3, 1): (517.759348443114, 'ced29621d07739e4'),
        (3, 2): (654.5956952597692, '086edc153035df34'),
        (3, 3): (-82.64009777386349, 'd901d259ffedc44d'),
    },
}

_REPLICA_AXIS_ARGS = {2: ([1.2, 0.8], [0.9, 1.1], 100), 3: ([1.2, 0.8, 1.0], [0.9, 1.1, 1.0], 300)}


def _sums_and_digests(out):
    return {cell: (math.fsum(vals), hashlib.sha256(np.array(vals).tobytes()).hexdigest()[:16])
            for cell, vals in out.items()}


@pytest.mark.parametrize("name, n, eps", sorted(_GOLDEN_REPLICA_AXIS))
def test_seeded_replica_axis_runs_keep_every_bit(name, n, eps, monkeypatch):
    th, thh, reps = _REPLICA_AXIS_ARGS[n]
    finite_b = []
    draw = qnum._phi_inverse_batch_draw

    def recording(q, a, b, c, lo, hi, u):
        finite_b.append(qnum._finite(b))
        return draw(q, a, b, c, lo, hi, u)

    monkeypatch.setattr(qnum, "_phi_inverse_batch_draw", recording)
    out = getattr(polymers, name)(n, n, th, thh, eps, reps, random.Random(26))
    assert _sums_and_digests(out) == _GOLDEN_REPLICA_AXIS[name, n, eps]
    assert any(finite_b) == (n == 3)


@pytest.mark.parametrize("mode, n", sorted(_GOLDEN_POLYMER_LOG_RATIOS))
def test_seeded_polymer_log_ratios_keep_every_bit(mode, n):
    th, thh, reps = _REPLICA_AXIS_ARGS[n]
    kind = "RowAlpha" if mode == "LogGamma" else "ColAlpha"
    targets = polymers._scaling_targets(kind, n, n)
    out = polymer_log_ratios(mode, n, n, th, thh, reps, random.Random(26), targets)
    assert _sums_and_digests(out) == _GOLDEN_POLYMER_LOG_RATIOS[mode, n]


def test_polymer_log_ratios_build_one_matrix_per_environment(monkeypatch):
    built = []
    for name in ("_single_path_sums_loggamma", "_h_product_strictweak"):
        def counting(env, t, _build=getattr(polymers, name), _name=name):
            built.append(_name)
            return _build(env, t)

        monkeypatch.setattr(polymers, name, counting)
    th, thh = [1.2, 0.8, 1.0], [0.9, 1.1, 1.0]
    for mode, kind, name in (("LogGamma", "RowAlpha", "_single_path_sums_loggamma"),
                             ("StrictWeak", "ColAlpha", "_h_product_strictweak")):
        built.clear()
        targets = polymers._scaling_targets(kind, 3, 3)
        polymer_log_ratios(mode, 3, 3, th, thh, 20, random.Random(3), targets)
        assert built == [name], mode


@pytest.mark.parametrize("mode", ["LogGamma", "StrictWeak"])
def test_polymer_log_ratios_raise_where_a_partition_function_is_not_finite_and_positive(mode):
    # theta_j + theta-hat_s = 0.1: the Gamma(0.1) weights spread over some 30 orders
    # of magnitude, and Z^3_2 cancels to 0 or below on some replicas; its log
    # ratios were nan
    th = [0.05] * 4
    kind = "RowAlpha" if mode == "LogGamma" else "ColAlpha"
    targets = polymers._scaling_targets(kind, 4, 4)
    with pytest.raises(ValueError, match=r"Z\^3_2 is not finite and > 0 .* theta = \[0.05, 0.05, 0.05, 0.05\]"):
        polymer_log_ratios(mode, 4, 4, th, th, 500, random.Random(1), targets)
