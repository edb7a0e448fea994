"""Command-line front end: exact verification suites, simulators, experiments.

Exit codes: 0 success, 1 verification failure, 2 usage/configuration error.
All randomness is drawn from one ``random.Random`` stream seeded by ``--seed``;
each side of ``polymer-limit`` (the dynamics at each epsilon, and the
polymer) draws from a ``numpy.random.Generator`` seeded with one 64-bit draw
from that stream.  So every subcommand is reproducible from its flags.  Rationals are accepted as
"p/q" strings so the exact suites are driveable without code changes.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import re
import sys
import time
from fractions import Fraction

from . import __version__, dynamics, gt, moments, particles, polymers, whittaker
from .qnum import check_step_params
from .qnum import qbinom_switch_identity as _qbinom_switch_identity
from .qnum import qbinom_triple_sum as _qbinom_triple_sum


def rational(text: str) -> Fraction:
    return Fraction(text)


def _parse_params(args, count=None):
    a = [Fraction(x) for x in (args.a or ["1"])]
    if count is not None and len(a) == 1:
        a = a * count
    return a


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _suite_main_eq(args):
    failures = []
    tuples = [
        (Fraction(1, 2), Fraction(1, 3), Fraction(1)),
        (Fraction(2, 3), Fraction(1, 5), Fraction(1, 2)),
        (Fraction(1, 7), Fraction(1, 2), Fraction(1)),
    ]
    by_kind = {kind: 0 for kind, rule in dynamics.KINDS.items() if rule.exact}
    as_float = getattr(args, "mode", "exact") == "float"
    for q, par, aj in tuples[: args.tuples]:
        if as_float:
            q, par, aj = float(q), float(par), float(aj)
        for kind in by_kind:
            for j in range(2, args.levels + 1):
                by_kind[kind] += dynamics.main_equation_sweep(
                    kind, j, args.max_part, par, aj, q, report=failures,
                    tol=1e-9 if as_float else None,
                )
    return sum(by_kind.values()), failures, {"cases_by_kind": by_kind}


def _suite_gibbs(args):
    q = Fraction(1, 2)
    a = (Fraction(1), Fraction(2, 3), Fraction(1, 2))[: args.levels]
    spec = whittaker.SpecParams.betas(Fraction(1, 3), Fraction(1, 4))
    failures = []
    cases = 0
    tops = [
        lam
        for lam in gt.enumerate_signatures(args.max_part, len(a))
    ]
    weights = {}
    for top in tops:
        for arr in gt.enumerate_arrays_with_top(top):
            weights[arr] = whittaker.process_weight(arr, a, spec, q)
    cases += 1
    if not whittaker.check_gibbs(weights, a, q):
        failures.append({"instance": "process weights", "lhs": "ratio", "rhs": "not constant"})
    # uniform weights at q = 0, a = 1 are Gibbs as well
    uni = {arr: Fraction(1) for arr in weights}
    cases += 1
    if not whittaker.check_gibbs(uni, [Fraction(1)] * len(a), Fraction(0)):
        failures.append({"instance": "uniform q=0", "lhs": "ratio", "rhs": "not constant"})
    return cases, failures


def _suite_cauchy(args):
    q = Fraction(1, 2)
    aj = Fraction(2, 3)
    beta = Fraction(1, 3)
    failures = []
    cases = 0
    for lam in gt.enumerate_signatures(args.max_part, args.levels):
        for nu_bar in gt.enumerate_signatures(args.max_part, args.levels - 1):
            lhs = Fraction(0)
            for lam_bar in gt.enumerate_signatures(args.max_part, args.levels - 1):
                lhs += (
                    whittaker.psi(lam, lam_bar, q)
                    * aj ** (gt.weight(lam) - gt.weight(lam_bar))
                    * whittaker.psi_prime(nu_bar, lam_bar, q)
                    * beta ** (gt.weight(nu_bar) - gt.weight(lam_bar))
                )
            rhs = Fraction(0)
            for nu in dynamics._v_strips_above(lam):
                rhs += (
                    whittaker.psi(nu, nu_bar, q)
                    * aj ** (gt.weight(nu) - gt.weight(nu_bar))
                    * whittaker.psi_prime(nu, lam, q)
                    * beta ** (gt.weight(nu) - gt.weight(lam))
                )
            rhs /= 1 + beta * aj
            cases += 1
            if lhs != rhs:
                failures.append(
                    {"instance": f"lam={lam} nu_bar={nu_bar}", "lhs": str(lhs), "rhs": str(rhs)}
                )
    return cases, failures


def _suite_complementation(args):
    q = Fraction(1, 2)
    beta = Fraction(1, 3)
    aj = Fraction(1)
    failures = []
    cases = 0
    S = args.max_part + 2
    for j in range(2, args.levels + 1):
        for lam in gt.enumerate_signatures(args.max_part, j):
            for lam_bar in gt.enumerate_signatures(args.max_part, j - 1):
                if not gt.interlaces_h(lam_bar, lam):
                    continue
                for nu_bar in dynamics._v_strips_above(lam_bar):
                    ctx = dynamics.LevelUpdateContext(lam_bar, nu_bar, lam)
                    for nu in dynamics._v_strips_above(lam):
                        lhs = dynamics.col_beta_prob(ctx, nu, beta, aj, q)
                        cctx = dynamics.LevelUpdateContext(
                            gt.complement(lam_bar, S, j - 1),
                            gt.complement(tuple(x - 1 for x in nu_bar), S, j - 1),
                            gt.complement(lam, S, j),
                        )
                        cnu = gt.complement(tuple(x - 1 for x in nu), S, j)
                        expo = -2 * (
                            (gt.weight(lam) - gt.weight(nu))
                            - (gt.weight(lam_bar) - gt.weight(nu_bar))
                        ) - 1
                        rhs = (aj * beta) ** expo * dynamics.row_beta_prob(
                            cctx, cnu, beta, aj, q
                        )
                        cases += 1
                        if lhs != rhs:
                            failures.append(
                                {
                                    "instance": f"j={j} lam={lam} nu={nu} "
                                    f"lam_bar={lam_bar} nu_bar={nu_bar}",
                                    "lhs": str(lhs),
                                    "rhs": str(rhs),
                                }
                            )
    return cases, failures


def _suite_coupling(args):
    q = Fraction(1, 2)
    beta = Fraction(1, 3)
    a = _parse_params(args, args.levels)[: args.levels]
    failures = []
    cases = 0
    for n in range(1, args.levels + 1):
        for t in range(1, args.steps + 1):
            cases += 1
            if not particles.coupling_check(n, t, beta, a[:n], q):
                failures.append({"instance": f"n={n} t={t}", "lhs": "push", "rhs": "tasep"})
    return cases, failures


def _suite_moments(args):
    q = Fraction(1, 2)
    beta = Fraction(1, 3)
    a = (Fraction(1), Fraction(2, 3), Fraction(1, 2))
    failures = []
    values = []
    cases = 0
    grids = [(1, (1,)), (1, (2,)), (2, (2, 1))]
    for k, ns in grids:
        for t in range(0, args.steps + 1):
            qy = moments.MomentQuery(k, ns, t, q, beta, a)
            r = moments.nested_moment_residues(qy)
            e = moments.exact_qmoment(qy)
            cases += 1
            values.append(
                {"k": k, "n": list(ns), "t": t, "value": str(r), "decimal": float(r)}
            )
            if r != e:
                failures.append({"instance": f"k={k} n={ns} t={t}", "lhs": str(r), "rhs": str(e)})
    return cases, failures, {"values": values}


def _suite_qbinom(args):
    import random as _random

    rnd = _random.Random(args.seed)
    failures = []
    cases = 0
    for _ in range(5):
        q = Fraction(rnd.randint(1, 6), rnd.randint(7, 12))
        s = rnd.randint(0, 4)
        ell = rnd.randint(0, 4)
        rr = rnd.randint(0, 4)
        b = rnd.randint(4, 8)
        h = rnd.randint(0, 4)
        cases += 1
        if not _qbinom_switch_identity(q, s, ell, rr, b, h):
            failures.append({"instance": f"q={q} s={s} l={ell} R={rr} b={b} h={h}",
                             "lhs": "switch-lhs", "rhs": "switch-rhs"})
        A = rnd.randint(0, 4)
        B = rnd.randint(0, 4)
        C = rnd.randint(0, 4)
        ell2 = rnd.randint(0, min(4, B + C))
        r2 = rnd.randint(0, min(4, A + B))
        cases += 1
        val = _qbinom_triple_sum(q, A, B, C, ell2, r2)
        if val != 1:
            failures.append({"instance": f"q={q} A={A} B={B} C={C} l={ell2} r={r2}",
                             "lhs": str(val), "rhs": "1"})
    return cases, failures


def _suite_grsk_lgv(args):
    import random as _random

    rnd = _random.Random(args.seed)
    failures = []
    cases = 0
    for n, t in [(3, 4), (4, 5)]:
        words = [[0.5 + rnd.random() for _ in range(n)] for _ in range(t)]
        row = polymers.empty_array(n)
        col = polymers.empty_array(n)
        for a in words:
            row = polymers.grsk_row_insert(row, a)
            col = polymers.grsk_col_insert(col, a)
        envR = polymers.PolymerEnv("LogGamma", words)
        envL = polymers.PolymerEnv("StrictWeak", words)
        for k in range(1, n + 1):
            for j in range(k, n + 1):
                if t >= k:
                    Rk = polymers.lgv_partition(envR, j, k, t)
                    Rk1 = polymers.lgv_partition(envR, j, k - 1, t) if k > 1 else 1.0
                    cases += 1
                    if abs(row[k - 1][j - k] - Rk / Rk1) > 1e-10 * abs(Rk / Rk1):
                        failures.append({"instance": f"row n={n} t={t} j={j} k={k}",
                                         "lhs": str(row[k - 1][j - k]), "rhs": str(Rk / Rk1)})
                if t >= j - k + 1:
                    Lk = polymers.lgv_partition(envL, j, k, t)
                    Lk1 = polymers.lgv_partition(envL, j, k - 1, t) if k > 1 else 1.0
                    cases += 1
                    if abs(col[k - 1][j - k] - Lk / Lk1) > 1e-10 * abs(Lk / Lk1):
                        failures.append({"instance": f"col n={n} t={t} j={j} k={k}",
                                         "lhs": str(col[k - 1][j - k]), "rhs": str(Lk / Lk1)})
        cases += 1
        if not polymers.transfer_product_check(words):
            failures.append({"instance": f"transfer product n={n} t={t}", "lhs": "G-prod",
                             "rhs": "H-prod"})
    for _ in range(5):
        n = rnd.choice((2, 3))
        lam = [0.5 + rnd.random() for _ in range(n)]
        a = [0.5 + rnd.random() for _ in range(n)]
        cases += 1
        if not polymers.transfer_matrix_check(lam, a, 1, n):
            failures.append({"instance": f"transfer step lam={lam} a={a}", "lhs": "GH",
                             "rhs": "HG"})
    return cases, failures


SUITES = {
    "main-eq": _suite_main_eq,
    "gibbs": _suite_gibbs,
    "cauchy": _suite_cauchy,
    "complementation": _suite_complementation,
    "coupling": _suite_coupling,
    "moments": _suite_moments,
    "qbinom": _suite_qbinom,
    "grsk-lgv": _suite_grsk_lgv,
}


def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    t0 = time.perf_counter()
    result = suite(args)
    elapsed = time.perf_counter() - t0
    cases, failures = result[0], result[1]
    report = {"suite": args.suite, "cases": cases, "elapsed_s": round(elapsed, 3),
              "failures": failures}
    if len(result) > 2:
        report.update(result[2])
    text = json.dumps(report, indent=2, default=str)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    print(text)
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

# "RowAlpha" -> "row-alpha", ..., "PushBlockBeta" -> "push-block-beta"
ARRAY_SYSTEMS = {re.sub(r"(?<!^)(?=[A-Z])", "-", kind).lower(): kind for kind in dynamics.KINDS}

PARTICLE_SYSTEMS = {
    "bernoulli-qpush": particles.bernoulli_qpush_step,
    "bernoulli-qtasep": particles.bernoulli_qtasep_step,
    "geometric-qpush": particles.geometric_qpush_step,
    "geometric-qtasep": particles.geometric_qtasep_step,
}


def cmd_simulate(args) -> int:
    if args.levels < 1 or args.steps < 0:
        print("need --levels >= 1 and --steps >= 0", file=sys.stderr)
        return 2
    is_alpha = args.system.startswith("geometric-") or (
        ARRAY_SYSTEMS.get(args.system) in dynamics.ALPHA_KINDS)
    if args.mode == "exact" and is_alpha:
        print("exact mode cannot sample q-geometric input (needs the infinite "
              "product); use --mode float", file=sys.stderr)
        return 2
    if args.alpha and args.beta:
        print("give --alpha or --beta, not both", file=sys.stderr)
        return 2
    wrong, right = ("beta", "alpha") if is_alpha else ("alpha", "beta")
    if getattr(args, wrong):
        print(f"{args.system} takes --{right}, not --{wrong}", file=sys.stderr)
        return 2
    if not 0 <= args.q < 1:
        print(f"need 0 <= q < 1, got q = {args.q}", file=sys.stderr)
        return 2
    n = args.levels
    if args.a and len(args.a) not in (1, n):
        print(f"give one --a, or one per level ({n})", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    exact = args.mode == "exact"
    a_given = _parse_params(args, n)
    pars_given = args.alpha or args.beta or [Fraction(1, 3)]
    # checked before any step, as q is: a particle system checks them only as it steps
    try:
        check_step_params(pars_given, a_given, is_alpha)
    except ValueError as e:
        print(e, file=sys.stderr)
        return 2
    # the run's parameters as given, for the JSON report: rationals as "p/q" strings
    run = {"system": args.system, "version": __version__, "seed": args.seed, "mode": args.mode,
           "q": str(args.q), right: [str(x) for x in pars_given], "a": [str(x) for x in a_given]}
    q = args.q if exact else float(args.q)
    a = [x if exact else float(x) for x in a_given]
    pars = [x if exact else float(x) for x in pars_given]

    def par_at(t):
        # repeatable per time step; the last value carries on
        return pars[min(t, len(pars) - 1)]

    rows = []
    if args.system in ARRAY_SYSTEMS:
        kind = ARRAY_SYSTEMS[args.system]
        arr = gt.zero_array(n)
        v_log = []
        # one spec per step parameter, so its sampling tables serve every step;
        # building them all first validates every parameter before any output
        specs = {par: dynamics.DynamicsSpec(kind, q, par, tuple(a)) for par in pars}
        for t in range(1, args.steps + 1):
            spec = specs[par_at(t - 1)]
            inputs = dynamics.sample_inputs(spec, rng)
            v_log.append(list(inputs))
            arr = dynamics.sample_step(spec, arr, rng, inputs=inputs)
            for j, level in enumerate(arr, start=1):
                for i, x in enumerate(level, start=1):
                    rows.append((t, j, i, x))
        header = ["t", "level", "index", "position"]
        final = dict(run, levels=[list(level) for level in arr], v_draws=v_log)
    elif args.system in PARTICLE_SYSTEMS:
        step = PARTICLE_SYSTEMS[args.system]
        cfg = particles.step_config(n)
        for t in range(1, args.steps + 1):
            cfg = step(cfg, par_at(t - 1), a, q, rng)
            for i, x in enumerate(cfg, start=1):
                rows.append((t, i, x))
        header = ["t", "i", "x_i"]
        final = dict(run, x=list(cfg))
    else:
        print(f"unknown system {args.system!r}", file=sys.stderr)
        return 2
    base = args.out or f"{args.system}"
    with open(base + ".csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    with open(base + ".json", "w") as f:
        json.dump(final, f, indent=2)
        f.write("\n")
    print(f"wrote {base}.csv and {base}.json")
    return 0


def cmd_polymer_limit(args) -> int:
    rng = random.Random(args.seed)
    n = args.levels
    thetas = [float(x) for x in (args.theta or ["1.0"] * n)]
    theta_hats = [float(x) for x in (args.theta_hat or ["1.0"] * args.steps)]
    if len(thetas) != n or len(theta_hats) != args.steps:
        print("need one --theta per level and one --theta-hat per step", file=sys.stderr)
        return 2
    kind = dynamics.ROW_ALPHA if args.kind == "row" else dynamics.COL_ALPHA
    raw = [] if args.csv else None
    report = polymers.scaling_limit_experiment(
        kind,
        n,
        args.steps,
        thetas,
        theta_hats,
        [float(e) for e in args.eps],
        args.replicas,
        rng,
        raw_samples=raw,
    )
    report["seed"] = args.seed
    report["version"] = __version__
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["eps", "j", "k", "t", "side", "log_value"])
            w.writerows(raw)
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qrsk", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run an exact verification suite")
    v.add_argument("suite", choices=sorted(SUITES))
    v.add_argument("--levels", type=int, default=3)
    v.add_argument("--steps", type=int, default=3)
    v.add_argument("--max-part", type=int, dest="max_part", default=2)
    v.add_argument("--tuples", type=int, default=1, help="number of parameter tuples")
    v.add_argument("--mode", choices=["exact", "float"], default="exact")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--a", action="append", help="level parameter (rational), repeatable")
    v.add_argument("--out", help="write the JSON report here as well")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("simulate", help="simulate a dynamics or particle system")
    s.add_argument("system", choices=sorted(ARRAY_SYSTEMS) + sorted(PARTICLE_SYSTEMS))
    s.add_argument("--levels", "-N", type=int, default=3)
    s.add_argument("--steps", "-T", type=int, default=5)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--mode", choices=["exact", "float"], default="float")
    s.add_argument("--q", type=rational, default=Fraction(1, 2))
    s.add_argument("--alpha", type=rational, action="append",
                   help="step parameter of the q-geometric (alpha) systems, "
                        "repeatable per time step")
    s.add_argument("--beta", type=rational, action="append",
                   help="step parameter of the Bernoulli (beta) systems, "
                        "repeatable per time step")
    s.add_argument("--a", action="append", help="level parameter, repeatable")
    s.add_argument("--out", help="output path prefix")
    s.set_defaults(func=cmd_simulate)

    pl = sub.add_parser("polymer-limit", help="scaling-limit Monte Carlo report")
    pl.add_argument("--kind", choices=["row", "col"], default="row")
    pl.add_argument("--levels", "-N", type=int, default=2)
    pl.add_argument("--steps", "-T", type=int, default=2)
    pl.add_argument("--theta", action="append")
    pl.add_argument("--theta-hat", action="append", dest="theta_hat")
    pl.add_argument("--eps", action="append", required=True)
    pl.add_argument("--replicas", type=int, default=1000)
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--out")
    pl.add_argument("--csv", help="also dump the raw per-replica log values")
    pl.set_defaults(func=cmd_polymer_limit)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, NotImplementedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
