"""Geometric RSK insertions, lattice polymer partition functions, and the
q -> 1 scaling-limit experiments.

Real triangular arrays are stored as lists of words; word k holds the
entries with level indices k..n.  Row arrays have all-positive or empty
words; column arrays carry a positive prefix ending in a 1 followed by
zeros (the empty word (1, 0, ..., 0) is the length-1 prefix case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .dynamics import COL_ALPHA, ROW_ALPHA, _sample_col_alpha_level, _sample_row_alpha_level
from .qnum import _q_geometric_table, np, sample_q_geometric

RealWord = List[float]
RealArray = List[RealWord]


def empty_word(length: int) -> RealWord:
    return [1.0] + [0.0] * (length - 1)


def is_empty_word(w: Sequence[float]) -> bool:
    return w[0] == 1.0 and all(x == 0.0 for x in w[1:])


def empty_array(n: int) -> RealArray:
    return [empty_word(n - k + 1) for k in range(1, n + 1)]


def _insert_row(lam: RealWord, a: RealWord) -> Tuple[RealWord, Optional[RealWord]]:
    """Row insertion of word a into word lam; returns (nu, b) with b possibly None."""
    m = len(a)
    if is_empty_word(lam):
        nu = []
        p = 1.0
        for x in a:
            p *= x
            nu.append(p)
        return nu, None
    nu = [lam[0] * a[0]]
    for j in range(1, m):
        nu.append((lam[j] + nu[j - 1]) * a[j])
    if m == 1:
        return nu, None
    b = [a[j] * lam[j] * nu[j - 1] / (lam[j - 1] * nu[j]) for j in range(1, m)]
    return nu, b


def _grsk_insert(insert_word, array: RealArray, a: Sequence[float]) -> RealArray:
    """Insert a into the array's words in turn; each insertion passes on the next word, or None."""
    arr = [list(w) for w in array]
    cur: Optional[RealWord] = list(a)
    for k in range(len(arr)):
        if cur is None:
            break
        arr[k], cur = insert_word(arr[k], cur)
    return arr


def grsk_row_insert(array: RealArray, a: Sequence[float]) -> RealArray:
    """Geometric RSK row insertion of the word a into the array (new array)."""
    return _grsk_insert(_insert_row, array, a)


def _insert_col(lam: RealWord, a: RealWord) -> Tuple[RealWord, Optional[RealWord]]:
    """Column insertion of word a into word lam (three-branch output word)."""
    m = len(a)
    nu = [a[0] * lam[0]]
    for j in range(1, m):
        nu.append(lam[j] * a[j] + lam[j - 1])
    if m == 1:
        return nu, None
    b = []
    for j in range(1, m):
        if lam[j] > 0:
            b.append(a[j] * lam[j] * nu[j - 1] / (lam[j - 1] * nu[j]))
        elif lam[j - 1] > 0:
            b.append(a[j] * nu[j - 1])
        else:
            b.append(a[j])
    return nu, b


def grsk_col_insert(array: RealArray, a: Sequence[float]) -> RealArray:
    """Geometric RSK column insertion of the word a into the array (new array)."""
    return _grsk_insert(_insert_col, array, a)


# ---------------------------------------------------------------------------
# lattice polymer partition functions
# ---------------------------------------------------------------------------

@dataclass
class PolymerEnv:
    """Deterministic or sampled weights for one of the two lattice polymers.

    mode 'LogGamma': weights[t-1][j-1] is the vertex weight at (t, j).
    mode 'StrictWeak': weights[t-1][j-1] is the weight of the horizontal edge
    (t-1, j) -> (t, j).

    A batch of environments is a numpy array of shape (t, n, replicas): each
    weight is then a vector over replicas, and partition functions come out
    as vectors too.
    """

    mode: str
    weights: Union[List[List[float]], np.ndarray]

    @property
    def n(self) -> int:
        return len(self.weights[0])

    @property
    def batch_shape(self) -> Tuple[int, ...]:
        """() for one environment, (replicas,) for a batch."""
        return np.shape(self.weights)[2:]

    def w(self, t: int, j: int):
        return self.weights[t - 1][j - 1]


def _loggamma_tuples(env: PolymerEnv, j: int, k: int, t: int):
    """Nonintersecting up/right path k-tuples from (1, i) to (t, j-k+i).

    A path is encoded by the heights h_1 <= ... <= h_t at which it leaves
    each column; its vertex run in column s is [h_{s-1}, h_s] (h_0 = start).
    Vertex-disjointness of consecutive tuples means the run of path m in
    column s ends strictly below where the run of path m+1 starts, i.e.
    h^m_s < h^{m+1}_{s-1}; paths are enumerated bottom-up so the previous
    path's heights act as strict floors.
    """
    def tuples(m, below_heights, acc):
        if m == k:
            yield acc
            return
        start, target = m + 1, j - k + m + 1

        def rec(s, prev, heights, w):
            # entering column s+1 at height prev: must clear the lower path's
            # exit height in that column
            if below_heights is not None and s < t and prev <= below_heights[s]:
                return
            if s == t:
                if prev == target:
                    yield from tuples(m + 1, list(heights), acc * w)
                return
            for h in range(prev, target + 1):
                ww = w
                for i in range(prev, h + 1):
                    ww = ww * env.w(s + 1, i)  # not in place: ww may share a batch array
                heights.append(h)
                yield from rec(s + 1, h, heights, ww)
                heights.pop()

        yield from rec(0, start, [], 1.0)

    yield from tuples(0, None, 1.0)


def _strictweak_tuples(env: PolymerEnv, j: int, k: int, t: int):
    """Nonintersecting strict-weak path k-tuples from (0, i) to (t, j-k+i).

    Paths take horizontal (weighted) or diagonal-up (unweighted) steps; the
    m-th path must stay strictly below the (m+1)-st at every time.
    """
    def tuples(m, below_heights, acc):
        if m == k:
            yield acc
            return
        start, target = m + 1, j - k + m + 1

        def rec(s, h, heights, w):
            if s == t:
                if h == target:
                    yield from tuples(m + 1, list(heights), acc * w)
                return
            for step in (0, 1):
                nh = h + step
                if nh > target or target - nh > t - s - 1:
                    continue
                if below_heights is not None and nh <= below_heights[s + 1]:
                    continue
                ww = w * (env.w(s + 1, h) if step == 0 else 1.0)
                heights.append(nh)
                yield from rec(s + 1, nh, heights, ww)
                heights.pop()

        if below_heights is not None and start <= below_heights[0]:
            return
        yield from rec(0, start, [start], 1.0)

    yield from tuples(0, None, 1.0)


def _single_path_sums_loggamma(env: PolymerEnv, t: int, jmax: int) -> np.ndarray:
    """E[..., p, r] = weighted sum over single up/right paths (1, p) -> (t, r)."""
    n = jmax
    batch = env.batch_shape
    E = np.zeros(batch + (n + 1, n + 1))
    for p in range(1, n + 1):
        dp = np.zeros(batch + (t + 1, n + 1))
        dp[..., 1, p] = env.w(1, p)
        for i in range(p + 1, n + 1):
            dp[..., 1, i] = dp[..., 1, i - 1] * env.w(1, i)
        for s in range(2, t + 1):
            dp[..., s, p] = dp[..., s - 1, p] * env.w(s, p)
            for i in range(p + 1, n + 1):
                dp[..., s, i] = (dp[..., s - 1, i] + dp[..., s, i - 1]) * env.w(s, i)
        E[..., p, 1:] = dp[..., t, 1:]
    return E


def _h_product_strictweak(env: PolymerEnv, t: int) -> np.ndarray:
    """H(a_1) ... H(a_t) for the strict-weak weights (bidiagonal transfers)."""
    n = env.n
    batch = env.batch_shape
    M = np.broadcast_to(np.eye(n), batch + (n, n))
    for s in range(1, t + 1):
        H = np.zeros(batch + (n, n))
        for i in range(n):
            H[..., i, i] = env.w(s, i + 1)
            if i + 1 < n:
                H[..., i, i + 1] = 1.0
        M = M @ H
    return M


def _scalar_or_batch(x):
    """A float for one environment, an array over replicas for a batch."""
    return float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)


def lgv_partition(
    env: PolymerEnv, j: int, k: int, t: int, method: str = "enumerate"
) -> Union[float, np.ndarray]:
    """Partition function over nonintersecting path k-tuples.

    method 'enumerate' sums tuples directly; 'determinant' uses the
    nonintersecting-path determinant of single-path sums as an independent
    second route.  A batch environment gives one value per replica.
    """
    if env.mode == "LogGamma":
        if t < k:
            raise ValueError("LogGamma needs t >= k")
        if method == "enumerate":
            return _scalar_or_batch(sum(_loggamma_tuples(env, j, k, t)))
        E = _single_path_sums_loggamma(env, t, max(j, k))
        return _scalar_or_batch(np.linalg.det(E[..., 1:k + 1, j - k + 1:j + 1]))
    if env.mode == "StrictWeak":
        if t < j - k:
            raise ValueError("StrictWeak needs t >= j - k")
        if method == "enumerate":
            return _scalar_or_batch(sum(_strictweak_tuples(env, j, k, t)))
        M = _h_product_strictweak(env, t)
        return _scalar_or_batch(np.linalg.det(M[..., 0:k, j - k:j]))
    raise ValueError(f"unknown polymer mode {env.mode!r}")


# ---------------------------------------------------------------------------
# transfer matrices for the column insertion
# ---------------------------------------------------------------------------

def h_matrix(a: Sequence[float], n: int, k: int = 1) -> np.ndarray:
    """H_k(a): identity on the first k-1 coordinates, bidiagonal (a; ones) after."""
    m = np.eye(n)
    for idx, val in enumerate(a):
        i = k - 1 + idx
        m[i, i] = val
        if i + 1 < n:
            m[i, i + 1] = 1.0
    return m


def g_matrix(word: Sequence[float], n: int, k: int = 1) -> np.ndarray:
    """G(word) built from a column word with the positive-prefix convention."""
    j = k - 1
    for idx, v in enumerate(word):
        if v > 0:
            j = k + idx
        else:
            break
    m = np.eye(n)
    prefix = [1.0] + [word[i] for i in range(j - k + 1)]
    for p in range(1, j - k + 2):
        for r in range(p, j - k + 2):
            m[k - 2 + p, k - 2 + r] = prefix[r] / prefix[p - 1]
    return m


def transfer_matrix_check(lam: Sequence[float], a: Sequence[float], k: int = 1,
                          n: Optional[int] = None, rel_tol: float = 1e-12) -> bool:
    """G(lam) H_k(a) = H_{k+1}(b) G(nu) for one column insertion step."""
    if n is None:
        n = k - 1 + len(lam)
    nu, b = _insert_col(list(lam), list(a))
    lhs = g_matrix(lam, n, k) @ h_matrix(a, n, k)
    rhs = g_matrix(nu, n, k)
    if b is not None:
        rhs = h_matrix(b, n, k + 1) @ rhs
    return bool(np.allclose(lhs, rhs, rtol=rel_tol, atol=1e-300))


def transfer_product_check(words: Sequence[Sequence[float]], rel_tol: float = 1e-10) -> bool:
    """G(y_n(t)) ... G(y_1(t)) = H(a_1) ... H(a_t) after t column insertions."""
    n = len(words[0])
    arr = empty_array(n)
    for a in words:
        arr = grsk_col_insert(arr, a)
    lhs = np.eye(n)
    for kk in range(n, 0, -1):
        lhs = lhs @ g_matrix(arr[kk - 1], n, kk)
    rhs = np.eye(n)
    for a in words:
        rhs = rhs @ h_matrix(a, n, 1)
    return bool(np.allclose(lhs, rhs, rtol=rel_tol, atol=1e-300))


# ---------------------------------------------------------------------------
# The scaling-limit experiments
# ---------------------------------------------------------------------------

def _scaled_replicas(level, n, t, thetas, theta_hats, eps, replicas, rng):
    """Final array of `replicas` runs of t steps of a q-geometric insertion dynamics.

    q = e^-eps, alpha_s = e^(-theta_hat_s eps), a_j = e^(-theta_j eps); `level`
    is the shared level update of the kind.  All replicas step together:
    each part of the array is an int64 array over replicas, and every draw
    comes from a numpy generator seeded from `rng` (one 64-bit draw).  The
    draws read the memoised sampling tables of `qnum`: each q-geometric table
    is built once per (alpha_s a_j, q) in the call.  The log (q;q)_n prefix
    and the normalisers log (alpha;q)_inf of the tables outlive the call;
    their values depend on q, n and alpha alone, so the same `rng` state
    gives the same arrays whatever ran before.
    """
    q = math.exp(-eps)
    a = [math.exp(-thetas[j] * eps) for j in range(n)]
    alphas = [math.exp(-theta_hats[s] * eps) for s in range(t)]
    # every call builds its q-geometric tables again, so that the traced
    # benchmark, which records in the process that has just run these
    # replicas, sees the log (alpha;q)_inf calls that table builds make;
    # this goes once its probes record in a fresh interpreter (ROADMAP item 1)
    _q_geometric_table.cache_clear()
    gen = np.random.default_rng(rng.getrandbits(64))
    arr = [tuple(np.zeros(replicas, dtype=np.int64) for _ in range(j)) for j in range(1, n + 1)]
    for alpha in alphas:
        v = [sample_q_geometric(alpha * aj, q, gen, size=replicas) for aj in a]
        out = [(arr[0][0] + v[0],)]
        for j in range(2, n + 1):
            out.append(level(arr[j - 2], out[j - 2], arr[j - 1], v[j - 1], q, gen))
        arr = out
    return arr


def _scaling_targets(kind: str, n: int, t: int) -> List[Tuple[int, int]]:
    """The (j, k) ratios the scaled arrays of `kind` report: 1 <= k <= min(t, j) <= n
    for RowAlpha, 1 <= k <= j <= min(n, k + t - 1) for ColAlpha."""
    if kind == ROW_ALPHA:
        return [(j, k) for j in range(1, n + 1) for k in range(1, min(t, j) + 1)]
    return [(j, k) for j in range(1, n + 1) for k in range(1, j + 1) if j <= min(n, k + t - 1)]


def scaled_row_arrays(n, t, thetas, theta_hats, eps, replicas, rng):
    """Replicas of log R-hat ratios from the scaled row insertion dynamics.

    Returns a dict (j, k) -> list of log(R-hat^j_k(t, eps)) over replicas,
    for 1 <= k <= min(t, j) <= n.  The replicas' draws come from a numpy
    generator seeded from one `rng.getrandbits(64)`: the same `rng` state
    gives the same lists.
    """
    arr = _scaled_replicas(_sample_row_alpha_level, n, t, thetas, theta_hats, eps, replicas, rng)
    log_inv_eps = math.log(1.0 / eps)
    return {
        (j, k): (eps * arr[j - 1][k - 1] - (t + j - 2 * k + 1) * log_inv_eps).tolist()
        for j, k in _scaling_targets(ROW_ALPHA, n, t)
    }


def scaled_col_arrays(n, t, thetas, theta_hats, eps, replicas, rng):
    """Replicas of log L-hat ratios from the scaled column insertion dynamics.

    Returns (j, k) -> list of log(L-hat^j_k(t, eps)), 1 <= k <= j <= min(n, k+t-1).
    The replicas' draws come from a numpy generator seeded from one
    `rng.getrandbits(64)`: the same `rng` state gives the same lists.
    """
    arr = _scaled_replicas(_sample_col_alpha_level, n, t, thetas, theta_hats, eps, replicas, rng)
    log_inv_eps = math.log(1.0 / eps)
    # arr[j - 1][j - k] is the k-th particle from the left
    return {
        (j, k): ((t - j + 2 * k - 1) * log_inv_eps - eps * arr[j - 1][j - k]).tolist()
        for j, k in _scaling_targets(COL_ALPHA, n, t)
    }


def polymer_log_ratios(mode, n, t, thetas, theta_hats, replicas, rng, targets):
    """Replicas of log(Z^j_k / Z^j_{k-1}) for the random-weight polymer.

    The weights of all replicas are drawn at once from a numpy generator
    seeded from `rng` (one 64-bit draw), and the partition functions are
    computed over the replica axis, each Z^j_k once however many targets
    share it.
    """
    gen = np.random.default_rng(rng.getrandbits(64))
    shape = np.add.outer(theta_hats[:t], thetas[:n])[:, :, None]
    weights = gen.gamma(shape, size=(t, n, replicas))
    if mode == "LogGamma":
        weights = 1.0 / weights
    env = PolymerEnv(mode, weights)
    z = {}

    def partition(j, k):
        if k == 0:
            return 1.0
        if (j, k) not in z:
            z[j, k] = lgv_partition(env, j, k, t, method="determinant")
        return z[j, k]

    return {(j, k): np.log(partition(j, k) / partition(j, k - 1)).tolist() for j, k in targets}


def ks_statistic(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    two empirical CDFs, which is attained at a point of the merged sample."""
    xs, ys = np.sort(xs), np.sort(ys)
    merged = np.concatenate((xs, ys))
    cdf_x = np.searchsorted(xs, merged, side="right") / xs.size
    cdf_y = np.searchsorted(ys, merged, side="right") / ys.size
    return float(np.abs(cdf_x - cdf_y).max())


def scaling_limit_experiment(
    kind: str,
    n: int,
    t: int,
    thetas: Sequence[float],
    theta_hats: Sequence[float],
    eps_list: Sequence[float],
    replicas: int,
    rng,
    targets: Optional[Sequence[Tuple[int, int]]] = None,
    raw_samples: Optional[list] = None,
) -> dict:
    """Compare scaled-dynamics marginals with polymer partition ratios.

    kind RowAlpha (log-Gamma side) or ColAlpha (strict-weak side).  For
    each epsilon the report records per-(j, k) means, quartiles and the
    two-sample KS statistic between eps * (scaled positions) and the polymer
    log-ratios.  Convergence shows up as KS decreasing in epsilon.
    """
    if kind not in (ROW_ALPHA, COL_ALPHA):
        raise ValueError(kind)
    mode = "LogGamma" if kind == ROW_ALPHA else "StrictWeak"
    scaled = scaled_row_arrays if kind == ROW_ALPHA else scaled_col_arrays
    if targets is None:
        targets = _scaling_targets(kind, n, t)
    poly = polymer_log_ratios(mode, n, t, thetas, theta_hats, replicas, rng, targets)
    report = {
        "kind": kind,
        "n": n,
        "t": t,
        "thetas": list(thetas),
        "theta_hats": list(theta_hats),
        "replicas": replicas,
        "results": [],
    }
    if raw_samples is not None:
        for (j, k), vals in poly.items():
            raw_samples.extend(("", j, k, t, "polymer", v) for v in vals)
    for eps in eps_list:
        if eps > 0.2:
            report.setdefault("warnings", []).append(
                f"eps = {eps} is outside the asymptotic regime"
            )
        dyn = scaled(n, t, thetas, theta_hats, eps, replicas, rng)
        if raw_samples is not None:
            for (j, k) in targets:
                raw_samples.extend((eps, j, k, t, "dynamics", v) for v in dyn[(j, k)])
        for (j, k) in targets:
            xs, ys = dyn[(j, k)], poly[(j, k)]
            entry = {
                "eps": eps,
                "j": j,
                "k": k,
                "t": t,
                "dynamics_mean": float(np.mean(xs)),
                "polymer_mean": float(np.mean(ys)),
                "dynamics_quartiles": [float(v) for v in np.percentile(xs, [25, 50, 75])],
                "polymer_quartiles": [float(v) for v in np.percentile(ys, [25, 50, 75])],
                "ks_stat": ks_statistic(xs, ys),
            }
            report["results"].append(entry)
    return report
