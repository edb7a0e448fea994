"""The four benchmark workloads, built from a seed and run through qrsk's public API.

Every workload has the same shape:

* ``build(seed)`` makes the inputs (this is the set-up that ``setup_s`` times);
* ``run(tr, tally, budget_s)`` is the measured phase: ops are timed one
  unit at a time into the tally and checked outside the timed
  regions, and an exception fails its op without stopping the run;
* ``slice(tr, tally)`` is a small fixed run that fills this workload's span
  metrics when another workload is the one being traced;
* ``known_defects(tr)`` runs the segments that hit a documented defect of the
  library; they are checked and counted apart from the workload's ops;
* ``record()`` makes the calls whose arguments the per-layer probes replay.

Library functions are looked up on their modules at call time, so a patched
function (probe recording, the self-test's fault injection) is seen.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F
from time import perf_counter

from qrsk import dynamics, gt, moments, particles, polymers

from spans import Tally, Tracer

# Statistical checks fail only beyond this many standard errors.
SIGMAS = 6.0


def q_geometric_moments(x: float, q: float):
    """Mean and variance of the q-geometric law with parameter x: a sum of
    independent geometric variables with ratios x q^i."""
    m = v = 0.0
    r = x
    while r > 1e-18:
        m += r / (1.0 - r)
        v += r / (1.0 - r) ** 2
        r *= q
    return m, v


def repeat_rounds(tally: Tally, budget_s: float, one_round) -> None:
    """Run whole rounds, ``one_round(i)`` for i = 0, 1, ..., until the timed
    units add up to ``budget_s``; at least one round."""
    i = 0
    while True:
        one_round(i)
        tally.end_round()
        i += 1
        if tally.timed_s >= budget_s:
            return


def _mean_within(values_sum: float, count: int, expected: float, variance: float) -> bool:
    if count == 0:
        return True
    return abs(values_sum / count - expected) <= SIGMAS * math.sqrt(variance / count)


# ---------------------------------------------------------------------------
# verify-main-eq
# ---------------------------------------------------------------------------

MAIN_EQ_KINDS = (
    dynamics.ROW_BETA,
    dynamics.COL_BETA,
    dynamics.ROW_ALPHA,
    dynamics.COL_ALPHA,
    dynamics.PUSH_BLOCK_BETA,
)
MAIN_EQ_LEVELS = (2, 3, 4)
MAIN_EQ_MAX_PART = 3
# One (q, par, a_j) tuple per pass.  A pass never repeats a tuple within a
# run, so a cache keyed on the tuple helps inside a pass, as it would for one
# `qrsk verify main-eq` invocation, and not across passes.
RATIONAL_TUPLES = (
    (F(1, 2), F(1, 3), F(1)),
    (F(2, 3), F(1, 5), F(1, 2)),
    (F(1, 7), F(1, 2), F(1)),
    (F(3, 5), F(2, 7), F(3, 4)),
    (F(2, 5), F(3, 7), F(5, 6)),
    (F(1, 3), F(1, 4), F(2, 3)),
    (F(3, 4), F(1, 6), F(1, 3)),
    (F(2, 7), F(2, 5), F(4, 5)),
)


class MainEq:
    name = "verify-main-eq"

    def __init__(self, design: dict):
        self.squares = design["workloads"][self.name]["squares_per_pass"]

    def build(self, seed: int) -> None:
        # exact and deterministic: the seed does not enter
        self.tuples = RATIONAL_TUPLES

    def _pass(self, tr: Tracer, tally: Tally, tup, levels) -> None:
        q, par, aj = tup
        for kind in MAIN_EQ_KINDS:
            sweep = tr.wrap(dynamics.main_equation_sweep, "dynamics.main_equation_sweep", kind)
            for j in levels:
                expected = self.squares[kind][str(j)]
                report: list = []
                t0 = perf_counter()
                try:
                    n = sweep(kind, j, MAIN_EQ_MAX_PART, par, aj, q, report=report)
                except Exception as exc:  # the op fails, the run goes on
                    tally.time((kind, j), perf_counter() - t0)
                    tr.record_error(exc, "dynamics")
                    tally.add(expected, expected)
                    continue
                tally.time((kind, j), perf_counter() - t0)
                tr.counts["main_eq.squares", kind] += n
                if n != expected:
                    tally.add(max(n, expected), max(n, expected))
                else:
                    tally.add(n, len(report))

    def run(self, tr: Tracer, tally: Tally, budget_s: float) -> None:
        repeat_rounds(tally, budget_s, lambda i: self._pass(
            tr, tally, self.tuples[i % len(self.tuples)], MAIN_EQ_LEVELS))

    def slice(self, tr: Tracer, tally: Tally) -> None:
        self._pass(tr, tally, self.tuples[0], (2, 3))

    def known_defects(self, tr: Tracer) -> dict:
        return {}

    def record(self) -> None:
        self._pass(Tracer(False, ""), Tally(), self.tuples[0], (3,))


# ---------------------------------------------------------------------------
# verify-moments
# ---------------------------------------------------------------------------

MOMENT_PARAMS = tuple((q, beta) for q, beta, _ in RATIONAL_TUPLES)
MOMENT_A = (F(1), F(2, 3), F(1, 2))


def moment_queries(q, beta) -> list:
    """BernoulliPush at N = 3, t <= 3 (k = 1 and 2), plus TwoPart."""
    MQ = moments.MomentQuery
    out = [MQ(1, ns, t, q, beta, MOMENT_A) for ns in ((1,), (2,), (3,)) for t in (1, 2, 3)]
    out += [
        MQ(2, ns, t, q, beta, MOMENT_A)
        for ns, t in (((2, 1), 1), ((2, 1), 2), ((2, 1), 3), ((3, 1), 2), ((2, 2), 2))
    ]
    out += [
        MQ(len(ns), ns, tr_, q, beta, system="TwoPart", t_left=tl)
        for ns, tr_, tl in (((1,), 1, 1), ((3,), 2, 2), ((2, 1), 1, 1))
    ]
    return out


class Moments:
    name = "verify-moments"

    def __init__(self, design: dict):
        pass

    def build(self, seed: int) -> None:
        # exact and deterministic: the seed does not enter
        self.passes = [moment_queries(q, beta) for q, beta in MOMENT_PARAMS]

    def _queries(self, tr: Tracer, tally: Tally, queries) -> None:
        residues = {
            k: tr.wrap(moments.nested_moment_residues, "moments.nested_moment_residues", f"k{k}")
            for k in (1, 2)
        }
        oracle = tr.wrap(moments.exact_qmoment, "moments.exact_qmoment")
        for i, qy in enumerate(queries):
            t0 = perf_counter()
            try:
                r = residues[qy.k](qy)
                e = oracle(qy)
            except Exception as exc:
                tally.time(i, perf_counter() - t0)
                tr.record_error(exc, "moments")
                tally.add(1, 1)
                continue
            tally.time(i, perf_counter() - t0)
            tally.add(1, 0 if r == e else 1)

    def run(self, tr: Tracer, tally: Tally, budget_s: float) -> None:
        repeat_rounds(tally, budget_s, lambda i: self._queries(
            tr, tally, self.passes[i % len(self.passes)]))

    def _sample(self) -> list:
        """The first k = 1, k = 2 and TwoPart queries of the first pass."""
        qs = self.passes[0]
        return [
            next(qy for qy in qs if qy.k == 1 and qy.system == "BernoulliPush"),
            next(qy for qy in qs if qy.k == 2 and qy.system == "BernoulliPush"),
            next(qy for qy in qs if qy.system == "TwoPart"),
        ]

    def slice(self, tr: Tracer, tally: Tally) -> None:
        self._queries(tr, tally, self._sample())

    def known_defects(self, tr: Tracer) -> dict:
        return {}

    def record(self) -> None:
        self._queries(Tracer(False, ""), Tally(), self._sample())


# ---------------------------------------------------------------------------
# sample-dynamics
# ---------------------------------------------------------------------------

Q = 0.5
BETA = 0.4
ALPHA = 0.35
ARRAY_KINDS = (
    dynamics.ROW_BETA,
    dynamics.COL_BETA,
    dynamics.ROW_ALPHA,
    dynamics.COL_ALPHA,
    dynamics.PUSH_BLOCK_BETA,
    dynamics.PUSH_BLOCK_ALPHA,
)
ARRAY_SIZES = (3, 6)
PARTICLE_SYSTEMS = ("bernoulli_qpush", "bernoulli_qtasep", "geometric_qpush", "geometric_qtasep")
PARTICLE_N = 6
# Steps per independent trajectory from the zero array (or the step initial
# configuration).  Push-block steps get dearer as t grows, so their
# trajectories are kept short.
TRAJ_STEPS = {
    (dynamics.PUSH_BLOCK_BETA, 6): 8,
    (dynamics.PUSH_BLOCK_ALPHA, 3): 8,
    (dynamics.PUSH_BLOCK_ALPHA, 6): 4,
}
DEFAULT_TRAJ_STEPS = 20
# A round runs a fixed number of trajectories of every group.  The counts
# give each group about ROUND_GROUP_S of a round at the seed commit, from
# these per-step costs measured there (2-core x86-64, CPython 3.11), and are
# fixed: a faster group then shortens the round instead of taking more ops.
ROUND_GROUP_S = 0.125
SEED_STEP_US = {
    (dynamics.ROW_BETA, 3): 14, (dynamics.COL_BETA, 3): 17,
    (dynamics.ROW_ALPHA, 3): 50, (dynamics.COL_ALPHA, 3): 62,
    (dynamics.PUSH_BLOCK_BETA, 3): 950, (dynamics.PUSH_BLOCK_ALPHA, 3): 15000,
    (dynamics.ROW_BETA, 6): 44, (dynamics.COL_BETA, 6): 48,
    (dynamics.ROW_ALPHA, 6): 143, (dynamics.COL_ALPHA, 6): 240,
    (dynamics.PUSH_BLOCK_BETA, 6): 7000, (dynamics.PUSH_BLOCK_ALPHA, 6): 33000,
    ("bernoulli_qpush", 6): 5, ("bernoulli_qtasep", 6): 6,
    ("geometric_qpush", 6): 74, ("geometric_qtasep", 6): 28,
}
# The long-horizon PushBlockBeta segment starts from a RowBeta state at
# t = LONG_START (from the zero array every beta kind samples the same
# q-Whittaker process, so that state is a valid push-block state).
LONG_A = (1.0, 0.9, 0.8)
LONG_START = 1500
LONG_STEPS = 100


def level_params(n: int) -> tuple:
    return tuple(1.0 - 0.1 * i for i in range(n))


class _Group:
    """Independent short trajectories of one array kind or particle system at size n.

    Checks: every state is an interlacing array (arrays; sample_step's own
    check is an assert, which -O strips) or strictly decreasing (particles),
    and the mean displacement of level 1 / particle 1 per step is within
    SIGMAS standard errors of its exact expectation.
    """

    def __init__(self, what: str, n: int):
        self.what, self.n = what, n
        self.is_array = what in ARRAY_KINDS
        self.alpha = what in dynamics.ALPHA_KINDS or what.startswith("geometric")
        self.par = ALPHA if self.alpha else BETA
        self.a = level_params(n)
        x = self.par * self.a[0]
        if self.alpha:
            self.exp1, self.var1 = q_geometric_moments(x, Q)
        else:
            self.exp1 = x / (1 + x)
            self.var1 = self.exp1 * (1 - self.exp1)
        if what.endswith("qpush"):
            self.exp1 = -self.exp1  # PushTASEPs jump left
        self.steps = TRAJ_STEPS.get((what, n), DEFAULT_TRAJ_STEPS)
        self.per_round = max(1, round(ROUND_GROUP_S / (self.steps * SEED_STEP_US[what, n] * 1e-6)))
        self.ops = self.failed = self.d_count = 0
        self.d_sum = 0.0

    def stepper(self, tr: Tracer):
        if not self.is_array:
            fn = tr.wrap(getattr(particles, f"{self.what}_step"), f"particles.{self.what}_step")
            a = list(self.a)
            return lambda cfg, rng: fn(cfg, self.par, a, Q, rng)
        spec = dynamics.DynamicsSpec(self.what, Q, self.par, self.a)
        inputs = tr.wrap(dynamics.sample_inputs, "dynamics.sample_inputs",
                         "alpha" if self.alpha else "beta")
        step = tr.wrap(dynamics.sample_step, "dynamics.sample_step", f"{self.what}.N{self.n}")
        return lambda arr, rng: step(spec, arr, rng, inputs=inputs(spec, rng))

    def valid(self, state) -> bool:
        if self.is_array:
            return gt.is_interlacing_array(state)
        return len(state) == self.n and all(state[i] > state[i + 1] for i in range(self.n - 1))

    def first(self, state) -> int:
        return state[0][0] if self.is_array else state[0]

    def trajectories(self, tr: Tracer, count: int, rng) -> float:
        """Run ``count`` trajectories; returns the seconds spent stepping."""
        step = self.stepper(tr)
        start = gt.zero_array(self.n) if self.is_array else particles.step_config(self.n)
        timed = 0.0
        for _ in range(count):
            states = [start]
            errors = []
            t0 = perf_counter()
            for _ in range(self.steps):
                try:
                    states.append(step(states[-1], rng))
                except Exception as exc:
                    errors.append(exc)
            timed += perf_counter() - t0
            for exc in errors:
                tr.record_error(exc, "dynamics" if self.is_array else "particles")
            self.ops += self.steps
            self.failed += len(errors)
            for prev, cur in zip(states, states[1:]):
                if not self.valid(cur):
                    self.failed += 1
                self.d_sum += self.first(cur) - self.first(prev)
                self.d_count += 1
        return timed

    def settle(self, tally: Tally) -> None:
        """Add this group's ops to ``tally``; a failed mean check fails them all."""
        if not _mean_within(self.d_sum, self.d_count, self.exp1, self.var1):
            self.failed = self.ops
        tally.add(self.ops, self.failed)


class SampleDynamics:
    name = "sample-dynamics"

    def __init__(self, design: dict):
        pass

    def build(self, seed: int) -> None:
        self.seed = seed
        spec = dynamics.DynamicsSpec(dynamics.ROW_BETA, Q, BETA, LONG_A)
        rng = random.Random(f"{seed}/long-start")
        arr = gt.zero_array(len(LONG_A))
        for _ in range(LONG_START):
            arr = dynamics.sample_step(spec, arr, rng, inputs=dynamics.sample_inputs(spec, rng))
        self.long_start = arr

    def _rounds(self, tr: Tracer, tally: Tally, budget_s: float, label: str, cap: int) -> None:
        groups = [_Group(kind, n) for n in ARRAY_SIZES for kind in ARRAY_KINDS]
        groups += [_Group(system, PARTICLE_N) for system in PARTICLE_SYSTEMS]

        def one_round(i):
            for g in groups:
                rng = random.Random(f"{self.seed}/{label}{i}/{g.what}/N{g.n}")
                tally.time((g.what, g.n), g.trajectories(tr, min(cap, g.per_round), rng))

        repeat_rounds(tally, budget_s, one_round)
        for g in groups:
            g.settle(tally)

    def run(self, tr: Tracer, tally: Tally, budget_s: float) -> None:
        self._rounds(tr, tally, budget_s, "run", math.inf)

    def slice(self, tr: Tracer, tally: Tally) -> None:
        self._rounds(tr, tally, 0.0, "slice", 1)

    def known_defects(self, tr: Tracer) -> dict:
        """PushBlockBeta from t = 1500: every particle must move at least once.

        In floating mode x ** |nu| underflows past |nu| ~ 700, after which the
        lower parts of levels 2 and 3 freeze (ROADMAP aim 3).
        """
        spec = dynamics.DynamicsSpec(dynamics.PUSH_BLOCK_BETA, Q, BETA, LONG_A)
        step = tr.wrap(dynamics.sample_step, "dynamics.sample_step", "PushBlockBeta.long")
        rng = random.Random(f"{self.seed}/long")
        arr = self.long_start
        moved = [[False] * len(level) for level in arr]
        failed = 0
        for _ in range(LONG_STEPS):
            try:
                new = step(spec, arr, rng, inputs=dynamics.sample_inputs(spec, rng))
            except Exception as exc:
                tr.record_error(exc, "dynamics")
                failed += 1
                continue
            if not gt.is_interlacing_array(new):
                failed += 1
            for j, level in enumerate(new):
                for i, v in enumerate(level):
                    moved[j][i] = moved[j][i] or v != arr[j][i]
            arr = new
        if not all(all(row) for row in moved):
            failed = LONG_STEPS
        return {"dynamics.step.PushBlockBeta.long": (LONG_STEPS, failed)}

    def record(self) -> None:
        self._rounds(Tracer(False, ""), Tally(), 0.0, "record", 1)


# ---------------------------------------------------------------------------
# polymer-limit
# ---------------------------------------------------------------------------

POLY_N = POLY_T = 2
THETAS = (1.2, 0.8)
THETA_HATS = (0.9, 1.1)
POLY_TARGETS = ((1, 1), (2, 1), (2, 2))
POLY_EPS = (1e-2, 5e-3)
DEFECT_EPS = 1e-3
POLY_REPLICAS = 100


def eps_label(eps: float) -> str:
    return {1e-2: "eps1e-2", 5e-3: "eps5e-3", 1e-3: "eps1e-3"}[eps]


POLY_SIDES = (
    ("row", "scaled_row_arrays", "LogGamma"),
    ("col", "scaled_col_arrays", "StrictWeak"),
)


class PolymerLimit:
    name = "polymer-limit"

    def __init__(self, design: dict):
        pass

    def build(self, seed: int) -> None:
        self.seed = seed
        # scipy.stats is imported lazily by ks_statistic; pay that here, once
        polymers.ks_statistic([0.0, 1.0], [0.5, 1.5])

    def _batch(self, tr, dyn_name, mode, eps, reps, rng):
        """One (side, eps) batch: reps dynamics replicas and reps polymer
        replicas.  Returns (ops, failed, timed_s)."""
        dyn_fn = tr.wrap(getattr(polymers, dyn_name), f"polymers.{dyn_name}", eps_label(eps))
        poly_fn = tr.wrap(polymers.polymer_log_ratios, "polymers.polymer_log_ratios", mode)
        ks_fn = tr.wrap(polymers.ks_statistic, "polymers.ks_statistic")
        th, thh = list(THETAS), list(THETA_HATS)
        tr.counts["replicas", dyn_name, eps_label(eps)] += reps
        tr.counts["replicas", "polymer_log_ratios", mode] += reps
        ops = 2 * reps
        t0 = perf_counter()
        try:
            dyn = dyn_fn(POLY_N, POLY_T, th, thh, eps, reps, rng)
            poly = poly_fn(mode, POLY_N, POLY_T, th, thh, reps, rng, list(POLY_TARGETS))
            for cell in POLY_TARGETS:
                ks_fn(dyn[cell], poly[cell])
        except Exception as exc:
            timed = perf_counter() - t0
            tr.record_error(exc, "polymers")
            return ops, ops, timed
        timed = perf_counter() - t0
        for cell in POLY_TARGETS:
            xs, ys = dyn[cell], poly[cell]
            mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
            vx = math.fsum((v - mx) ** 2 for v in xs) / (len(xs) - 1)
            vy = math.fsum((v - my) ** 2 for v in ys) / (len(ys) - 1)
            if not abs(mx - my) <= SIGMAS * math.sqrt(vx / len(xs) + vy / len(ys)):
                return ops, ops, timed
        return ops, 0, timed

    def _round(self, tr, tally, label, reps) -> None:
        for side, dyn_name, mode in POLY_SIDES:
            for eps in POLY_EPS:
                rng = random.Random(f"{self.seed}/{label}/{side}/{eps}")
                ops, failed, timed = self._batch(tr, dyn_name, mode, eps, reps, rng)
                tally.add(ops, failed)
                tally.time((side, eps), timed)

    def run(self, tr: Tracer, tally: Tally, budget_s: float) -> None:
        repeat_rounds(tally, budget_s, lambda i: self._round(tr, tally, f"run{i}", POLY_REPLICAS))

    def slice(self, tr: Tracer, tally: Tally) -> None:
        self._round(tr, tally, "slice", POLY_REPLICAS)

    def known_defects(self, tr: Tracer) -> dict:
        """eps = 1e-3: log (alpha;q)_inf < -745, so the q-geometric weight
        underflows and the sampler returns a constant (ROADMAP aim 3)."""
        ops = failed = 0
        for side, dyn_name, mode in POLY_SIDES:
            rng = random.Random(f"{self.seed}/defect/{side}")
            o, f, _ = self._batch(tr, dyn_name, mode, DEFECT_EPS, POLY_REPLICAS, rng)
            ops += o
            failed += f
        return {"polymers.eps1e-3": (ops, failed)}

    def record(self) -> None:
        self._round(Tracer(False, ""), Tally(), "record", 4)


WORKLOADS = {w.name: w for w in (MainEq, Moments, SampleDynamics, PolymerLimit)}
