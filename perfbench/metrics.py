"""Per-layer metrics of a traced run, from its spans, counters and probes."""

from __future__ import annotations

from statistics import fmean as mean

from spans import MODULES, Tally, Tracer, percentile
from workloads import (
    ARRAY_KINDS,
    ARRAY_SIZES,
    DEFECT_EPS,
    MAIN_EQ_KINDS,
    PARTICLE_SYSTEMS,
    POLY_EPS,
    POLY_SIDES,
    eps_label,
)


def layer_metrics(tr: Tracer, probes: dict, defects: dict, traced: Tally, plain: Tally) -> dict:
    m = dict(probes)
    for kind in MAIN_EQ_KINDS:
        total = sum(tr.durations("dynamics.main_equation_sweep", kind))
        m[f"dynamics.main_eq.{kind}.us_per_square"] = 1e6 * total / tr.counts["main_eq.squares", kind]
    for kind in ARRAY_KINDS:
        for n in ARRAY_SIZES:
            steps = tr.durations("dynamics.sample_step", f"{kind}.N{n}")
            m[f"dynamics.step.{kind}.N{n}.p50_us"] = 1e6 * percentile(steps, 50)
            m[f"dynamics.step.{kind}.N{n}.p99_us"] = 1e6 * percentile(steps, 99)
    m["dynamics.step.PushBlockBeta.long.p50_us"] = 1e6 * percentile(
        tr.durations("dynamics.sample_step", "PushBlockBeta.long"), 50)
    m["dynamics.step.PushBlockBeta.long.ops_failed"] = defects["dynamics.step.PushBlockBeta.long"][1]
    for family in ("alpha", "beta"):
        m[f"dynamics.sample_inputs.{family}.us"] = 1e6 * mean(
            tr.durations("dynamics.sample_inputs", family))
    for system in PARTICLE_SYSTEMS:
        m[f"particles.step.{system}.us"] = 1e6 * mean(tr.durations(f"particles.{system}_step"))
    for k in (1, 2):
        m[f"moments.nested_moment_residues.k{k}_ms"] = 1e3 * mean(
            tr.durations("moments.nested_moment_residues", f"k{k}"))
    m["moments.exact_qmoment.ms"] = 1e3 * mean(tr.durations("moments.exact_qmoment"))
    for _, dyn_name, mode in POLY_SIDES:
        for eps in POLY_EPS + (DEFECT_EPS,):
            label = eps_label(eps)
            total = sum(tr.durations(f"polymers.{dyn_name}", label))
            m[f"polymers.{dyn_name}.{label}.us_per_replica"] = (
                1e6 * total / tr.counts["replicas", dyn_name, label])
        total = sum(tr.durations("polymers.polymer_log_ratios", mode))
        m[f"polymers.polymer_log_ratios.{mode}.us_per_replica"] = (
            1e6 * total / tr.counts["replicas", "polymer_log_ratios", mode])
    m["polymers.ks_statistic.ms"] = 1e3 * mean(tr.durations("polymers.ks_statistic"))
    m["polymers.eps1e-3.ops_failed"] = defects["polymers.eps1e-3"][1]
    for module in MODULES:
        m[f"{module}.errors"] = tr.errors[module]
    m["trace.overhead_ratio"] = traced.ops_per_s() / plain.ops_per_s()
    return m
