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
import math
import random
import re
import sys
import time
from fractions import Fraction

from . import __version__, dynamics, gt, identities, moments, particles, polymers, whittaker
from .qnum import check_step_params


def rational(text: str) -> Fraction:
    return Fraction(text)


def _parse_params(args, count=None):
    a = [Fraction(x) for x in (args.a or ["1"])]
    if count is not None and len(a) == 1:
        a = a * count
    return a


# ---------------------------------------------------------------------------
# verification suites: each returns the cases of one generator of
# `identities` and the tolerance of their residuals |lhs - rhs| (0: exact),
# taken relative to |rhs| or absolute
# ---------------------------------------------------------------------------

_Q, _BETA = Fraction(1, 2), Fraction(1, 3)
_A = (Fraction(1), Fraction(2, 3), Fraction(1, 2))
_MAIN_EQ_TUPLES = [(_Q, _BETA, Fraction(1)), (Fraction(2, 3), Fraction(1, 5), Fraction(1, 2)),
                   (Fraction(1, 7), Fraction(1, 2), Fraction(1))]


def _suite_main_eq(args):
    if args.tuples > len(_MAIN_EQ_TUPLES):
        raise ValueError(f"main-eq has {len(_MAIN_EQ_TUPLES)} parameter tuples, got --tuples {args.tuples}")
    tuples = _MAIN_EQ_TUPLES[: args.tuples]
    as_float = args.mode == "float"
    if as_float:
        tuples = [tuple(map(float, t)) for t in tuples]
    kinds = [kind for kind, rule in dynamics.KINDS.items() if rule.exact]
    cases = identities.main_equation(tuples, kinds, range(2, args.levels + 1), args.max_part)
    return cases, dynamics.MAIN_EQ_FLOAT_TOL if as_float else 0, False


def _suite_gibbs(args):
    if not 1 <= args.levels <= len(_A):
        raise ValueError(f"gibbs has {len(_A)} level parameters, got --levels {args.levels}")
    spec = whittaker.SpecParams.betas(_BETA, Fraction(1, 4))
    return identities.gibbs(_Q, _A[: args.levels], spec, args.max_part), 0, False


def _suite_cauchy(args):
    return identities.skew_cauchy_dual(_Q, Fraction(2, 3), _BETA, args.max_part, args.levels), 0, False


def _suite_complementation(args):
    cases = identities.complementation(_Q, _BETA, Fraction(1), args.max_part + 2, args.max_part,
                                       range(2, args.levels + 1))
    return cases, 0, False


def _suite_coupling(args):
    a = _parse_params(args, args.levels)[: args.levels]
    return identities.coupling(_Q, _BETA, a, range(1, args.levels + 1), range(1, args.steps + 1)), 0, False


def _suite_moments(args):
    queries = [moments.MomentQuery(k, ns, t, _Q, _BETA, _A)
               for k, ns in [(1, (1,)), (1, (2,)), (2, (2, 1))] for t in range(args.steps + 1)]
    return identities.q_moments(queries), 0, False


def _suite_qbinom(args):
    return identities.q_binomial_sums(args.seed, 5), 0, False


def _suite_grsk_lgv(args):
    return identities.grsk_lgv(args.seed, [(3, 4), (4, 5)], 5, (2, 3)), 1e-10, True


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
    if args.mode == "float" and args.suite != "main-eq":
        print(f"verify {args.suite}: --mode float is for main-eq, the only float suite",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    cases, tol, relative = SUITES[args.suite](args)
    by_kind, failures, worst = {}, [], 0
    for kind, instance, lhs, rhs in cases:
        by_kind[kind] = by_kind.get(kind, 0) + 1
        residual = abs(lhs - rhs)
        if relative:
            residual /= abs(rhs)
        worst = max(worst, residual)
        if not residual <= tol:
            failures.append({"kind": kind, **instance, "lhs": lhs, "rhs": rhs, "residual": residual})
    if not by_kind:
        print(f"verify {args.suite}: no cases at these arguments", file=sys.stderr)
        return 2
    report = {"suite": args.suite, "cases": sum(by_kind.values()), "cases_by_kind": by_kind,
              "worst_residual": float(worst), "residual": "relative" if relative else "absolute",
              "tolerance": tol, "elapsed_s": round(time.perf_counter() - t0, 3),
              "failures": failures}
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
        spec = None
        for t in range(1, args.steps + 1):
            # a new spec only where the step parameter changes (one costs half a RowBeta step)
            if spec is None or spec.step_param != par_at(t - 1):
                spec = dynamics.DynamicsSpec(kind, q, par_at(t - 1), tuple(a))
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
    if args.levels < 1 or args.steps < 1 or args.replicas < 1:
        print("need --levels, --steps and --replicas >= 1", file=sys.stderr)
        return 2
    eps = [float(e) for e in args.eps]
    if not all(e > 0 for e in eps):
        print(f"need every --eps > 0, got {', '.join(args.eps)}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    n = args.levels
    thetas = [float(x) for x in (args.theta or ["1.0"] * n)]
    theta_hats = [float(x) for x in (args.theta_hat or ["1.0"] * args.steps)]
    if len(thetas) != n or len(theta_hats) != args.steps:
        print("need one --theta per level and one --theta-hat per step", file=sys.stderr)
        return 2
    # the polymer weights are Gamma(theta_j + theta-hat_s), and the dynamics draw
    # q-geometric inputs of parameter e^(-(theta_j + theta-hat_s) eps) < 1
    if not all(math.isfinite(th + th_hat) and th + th_hat > 0 for th in thetas for th_hat in theta_hats):
        print(f"need every --theta + --theta-hat finite and > 0, got --theta {', '.join(map(str, thetas))}"
              f" and --theta-hat {', '.join(map(str, theta_hats))}", file=sys.stderr)
        return 2
    kind = dynamics.ROW_ALPHA if args.kind == "row" else dynamics.COL_ALPHA
    raw = [] if args.csv else None
    report = polymers.scaling_limit_experiment(
        kind,
        n,
        args.steps,
        thetas,
        theta_hats,
        eps,
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
