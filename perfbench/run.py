"""qrsk benchmark: exact verifier, samplers and q -> 1 Monte Carlo.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload verify-main-eq --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate traced run that reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it say the same
by name, with units.  ``--workload all`` runs every workload, each in a fresh
interpreter, and prints a table.

The library is imported from ``src/`` of the checkout this file sits in and
nowhere else; without it the benchmark exits with code 2.  The workloads,
their checks and the metric predictions are described in
``perfbench/design.json``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One process, one BLAS thread: the benchmark machine has two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tally, Tracer, machine_speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
TRACE_DIR = ROOT / ".perfbench_traces"
WORKLOAD_NAMES = ("verify-main-eq", "verify-moments", "sample-dynamics", "polymer-limit")


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_library():
    if not (SRC / "qrsk" / "__init__.py").is_file():
        fail(f"no qrsk package under {SRC}; run from the root of a qrsk checkout")
    sys.path.insert(0, str(SRC))
    import qrsk

    if Path(qrsk.__file__).resolve().parent != (SRC / "qrsk").resolve():
        fail(f"imported qrsk from {qrsk.__file__}, not from {SRC}")
    return qrsk


def load_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, print the seconds that took, exit")
    return p.parse_args(argv)


def setup_samples(args, own_setup_s: float) -> list:
    """Set-up time of this process plus SETUP_SAMPLES - 1 fresh interpreters."""
    samples = [own_setup_s]
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(args, workload, own_setup_s):
    tracer = Tracer(False, "")
    setup = setup_samples(args, own_setup_s)
    tally = Tally()
    workload.run(tracer, tally, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    defects = workload.known_defects(tracer)
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (tally.ops_per_s(), "ops/s"),
        "ops_ok_frac": (1.0 - failed_frac, "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"[{args.workload}] seed={args.seed} measured {tally.timed_s:.3f} s, "
          f"robust {tally.robust_s():.3f} s; setup samples {[round(s, 4) for s in setup]} s")
    for name, (value, unit) in metrics.items():
        print(f"[{args.workload}] {name} = {value:.6g} {unit}")
    print(f"[{args.workload}] ops_failed_frac = {failed_frac:.6g} "
          f"(ops = {tally.attempted}, ops_failed = {tally.failed})")
    for name, (ops, failed) in defects.items():
        print(f"[{args.workload}] known defect {name}: ops = {ops}, ops_failed = {failed}")
    return tally, metrics


def per_layer(args, workloads, bench):
    from metrics import layer_metrics
    from probes import run_probes

    for name, other in workloads.items():
        if name != args.workload:
            other.build(args.seed)
    tracer = Tracer(True, f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}")
    workload = workloads[args.workload]
    # a short untraced phase, for the tracing overhead
    plain = Tally()
    workload.run(Tracer(False, ""), plain, args.seconds / 4)
    tally = Tally()
    with tracer.root("workload", args.workload):
        workload.run(tracer, tally, args.seconds)
    defects = workload.known_defects(tracer)
    for name, other in workloads.items():
        if name != args.workload:
            other.slice(tracer, Tally())
            defects.update(other.known_defects(tracer))
    probes = run_probes(workloads)
    metrics = layer_metrics(tracer, probes, defects, tally, plain)
    expected = {m["name"]: m["unit"] for m in bench["per_layer"]}
    missing = set(expected) - set(metrics)
    extra = set(metrics) - set(expected)
    if missing or extra:
        raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: "
                           f"missing {sorted(missing)}, extra {sorted(extra)}")
    metrics = {name: (metrics[name], expected[name]) for name in expected}
    tracer.write(str(TRACE_DIR / f"{args.workload}.tsv.gz"),
                 f"workload={args.workload} seed={args.seed} seconds={args.seconds}")
    for name, (value, unit) in metrics.items():
        print(f"[{args.workload}] {name} = {value:.6g} {unit}")
    return tally, metrics


def run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = out.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            print(f"[{name}] failed with exit code {out.returncode}")
            return 1
        results[name] = json.loads(lines[-1])
    if args.trace == 0:
        print()
        print(f"{'workload':<18}{'setup_s':>10}{'ops_per_s':>14}{'ops_failed_frac':>17}"
              f"{'ops':>9}{'ops_failed':>12}{'peak_rss_mb':>13}")
        for name, res in results.items():
            m = res["metrics"]
            print(f"{name:<18}{m['setup_s']['value']:>10.4f}{m['ops_per_s']['value']:>14.2f}"
                  f"{res['failed'] / res['attempted']:>17.4g}{res['attempted']:>9}{res['failed']:>12}"
                  f"{m['peak_rss_mb']['value']:>13.1f}")
        print("units: setup_s s, ops_per_s ops/s, ops_failed_frac failed/attempted, peak_rss_mb MB")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = load_json(ROOT / "BENCHMARK.json")
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    import_library()
    import workloads as wl

    design = load_json(HERE / "design.json")
    workloads = {name: cls(design) for name, cls in wl.WORKLOADS.items()}
    workload = workloads[args.workload]
    workload.build(args.seed)
    # set-up time, scaled to the reference machine speed like ops_per_s
    own_setup_s = (time.perf_counter() - _T0) * machine_speed(5)
    if args.setup_only:
        print(f"{own_setup_s:.6f}")
        return 0
    if args.trace:
        tally, metrics = per_layer(args, workloads, bench)
    else:
        tally, metrics = end_to_end(args, workload, own_setup_s)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
