"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, prints a last line with exactly the
   keys correct / attempted / failed / metrics, and its metrics are exactly
   the end_to_end (untraced) or per_layer (traced) metrics of
   BENCHMARK.json, each with its unit and a finite value.
2. With a result forced wrong inside each workload, the bad ops are counted
   in ``failed``, left out of the ops_per_s numerator, and nothing crashes.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import run

run.import_library()

import workloads as wl  # noqa: E402
from qrsk import dynamics, moments, polymers  # noqa: E402
from spans import Tally, Tracer  # noqa: E402


def shrink() -> None:
    """Tiny sizes: the same code paths, a fraction of a second of work each."""
    wl.MAIN_EQ_LEVELS = (2,)
    full = wl.moment_queries

    def tiny_queries(q, beta):
        qs = full(q, beta)
        return [
            next(qy for qy in qs if qy.k == 1 and qy.system == "BernoulliPush"),
            next(qy for qy in qs if qy.k == 2 and qy.system == "BernoulliPush"),
            next(qy for qy in qs if qy.system == "TwoPart"),
        ]

    wl.moment_queries = tiny_queries
    wl.DEFAULT_TRAJ_STEPS = 3
    wl.ROUND_GROUP_S = 0.0
    wl.TRAJ_STEPS = {(k, n): 1 for k, n in wl.TRAJ_STEPS}
    wl.LONG_START = 30
    wl.LONG_STEPS = 5
    wl.POLY_REPLICAS = 20


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)
    print(f"ok   {msg}")


def check_emission(bench: dict) -> None:
    for name in run.WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.01",
                                 "--trace", str(trace)])
            result = json.loads(buf.getvalue().strip().splitlines()[-1])
            check(code == 0, f"{name} trace={trace}: exit code 0")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace={trace}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name} trace={trace}: correct with {result['attempted']} ops")
            expected = {m["name"]: m["unit"] for m in bench[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            check(got == expected, f"{name} trace={trace}: all {len(expected)} {key} metrics, units")
            check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                      for v in result["metrics"].values()),
                  f"{name} trace={trace}: finite values")


@contextlib.contextmanager
def patched(module, attr, replacement):
    original = getattr(module, attr)
    setattr(module, attr, replacement(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def bad_residual(original):
    def residual(kind, lam, nu, nu_bar, par, a_j, q, alpha_float=False):
        r = original(kind, lam, nu, nu_bar, par, a_j, q, alpha_float)
        return r + 1 if lam[0] == 1 else r
    return residual


def bad_oracle(original):
    def oracle(query):
        e = original(query)
        return e + 1 if query.k == 1 else e
    return oracle


def bad_step(original):
    calls = [0]

    def step(spec, arr, rng, inputs=None):
        calls[0] += 1
        if calls[0] % 5 == 0:
            raise RuntimeError("forced failure")
        out = original(spec, arr, rng, inputs=inputs)
        if calls[0] % 7 == 0 and len(out) > 1:
            out = out[:-1] + ((-1,) * len(out[-1]),)  # not a signature
        return out
    return step


def bad_polymer(original):
    def ratios(*args):
        return {key: [v + 10.0 for v in vals] for key, vals in original(*args).items()}
    return ratios


def check_fault_accounting(design: dict) -> None:
    faults = {
        "verify-main-eq": (dynamics, "main_equation_residual", bad_residual),
        "verify-moments": (moments, "exact_qmoment", bad_oracle),
        "sample-dynamics": (dynamics, "sample_step", bad_step),
        "polymer-limit": (polymers, "polymer_log_ratios", bad_polymer),
    }
    for name, (module, attr, fault) in faults.items():
        for traced in (False, True):
            workload = wl.WORKLOADS[name](design)
            workload.build(3)
            tracer, tally = Tracer(traced, "selftest"), Tally()
            with patched(module, attr, fault):
                workload.run(tracer, tally, 0.01)
            label = f"{name} forced wrong, traced={traced}"
            check(0 < tally.failed <= tally.attempted,
                  f"{label}: {tally.failed} of {tally.attempted} ops counted failed")
            check(math.isclose(tally.ops_per_s() * tally.robust_s(), tally.passed),
                  f"{label}: ops_per_s counts passed ops only")
            if name == "sample-dynamics":
                check(tracer.errors["dynamics"] > 0, f"{label}: exceptions counted as dynamics.errors")


def main() -> int:
    bench = run.load_json(run.ROOT / "BENCHMARK.json")
    design = run.load_json(run.HERE / "design.json")
    shrink()
    check_emission(bench)
    check_fault_accounting(design)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
