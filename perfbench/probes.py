"""Per-layer probes: time single qrsk functions on arguments recorded from a workload.

Recording swaps a function for a recorder on every qrsk module that binds
it, runs the workload's ``record()`` calls, and swaps the original back.  A
reservoir keeps a fixed-size uniform sample of the calls.  A probe then
calls the original function on that sample and reports the mean time per
call, the median over a few repeats.
"""

from __future__ import annotations

import random
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

RESERVOIR = 200
REPEATS = 3
PROBE_BUDGET_S = 0.25


def _resolve(path: str):
    module, attr = path.split(".")
    return getattr(sys.modules[f"qrsk.{module}"], attr)


class _Reservoir:
    def __init__(self, seed: str):
        self.items: list = []
        self.seen = 0
        self._rng = random.Random(seed)

    def offer(self, item) -> None:
        self.seen += 1
        if len(self.items) < RESERVOIR:
            self.items.append(item)
        else:
            k = self._rng.randrange(self.seen)
            if k < RESERVOIR:
                self.items[k] = item


@contextmanager
def recording(paths):
    """Record the calls to each ``<module>.<function>`` in ``paths``."""
    reservoirs = {p: _Reservoir(p) for p in paths}
    patched = []
    for path in paths:
        original = _resolve(path)
        res = reservoirs[path]

        def recorder(*args, _fn=original, _res=res, **kwargs):
            # an rng argument is replaced by the probe's own rng on replay
            _res.offer((tuple(None if isinstance(a, random.Random) else a for a in args), kwargs))
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "qrsk" or name.startswith("qrsk."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, recorder)
                        patched.append((module, attr, original))
    try:
        yield reservoirs
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)


def time_calls(fn, calls, per_item: bool = False, override: dict | None = None) -> float:
    """Mean seconds per call (or per yielded item) over ``calls``; median of repeats."""
    if not calls:
        raise ValueError(f"no recorded calls for {fn.__name__}")
    results = []
    start = perf_counter()
    while len(results) < REPEATS and (not results or perf_counter() - start < PROBE_BUDGET_S):
        rng = random.Random(0)
        items = 0
        t0 = perf_counter()
        for args, kwargs in calls:
            args = tuple(rng if a is None else a for a in args)
            if override:
                kwargs = dict(kwargs, **override)
            out = fn(*args, **kwargs)
            if per_item:
                items += sum(1 for _ in out)
        dt = perf_counter() - t0
        results.append(dt / (items if per_item else len(calls)))
    return statistics.median(results)


# metric -> (function, workload whose calls are recorded, unit scale, options)
PROBES = {
    "qnum.q_binomial.exact_us": ("qnum.q_binomial", "verify-main-eq", 1e6, {}),
    "qnum.phi_weight.exact_us": ("qnum.phi_weight", "verify-main-eq", 1e6, {}),
    "qnum.q_binomial.float_us": ("qnum.q_binomial", "sample-dynamics", 1e6, {}),
    "qnum.phi_sample.short_us": ("qnum.phi_sample", "sample-dynamics", 1e6, {}),
    "qnum.sample_q_geometric.short_us": ("qnum.sample_q_geometric", "sample-dynamics", 1e6, {}),
    "qnum.phi_sample.long_us": ("qnum.phi_sample", "polymer-limit", 1e6, {}),
    "qnum.sample_q_geometric.long_us": ("qnum.sample_q_geometric", "polymer-limit", 1e6, {}),
    "qnum.log_q_pochhammer_inf.us": ("qnum.log_q_pochhammer_inf", "polymer-limit", 1e6, {}),
    "gt.enumerate_signatures.us_per_item": (
        "gt.enumerate_signatures", "verify-main-eq", 1e6, {"per_item": True}),
    "gt.interlaces_h.us": ("gt.interlaces_h", "verify-main-eq", 1e6, {}),
    "whittaker.psi.exact_us": ("whittaker.psi", "verify-main-eq", 1e6, {}),
    "whittaker.psi_prime.exact_us": ("whittaker.psi_prime", "verify-main-eq", 1e6, {}),
    "whittaker.phi_coef.exact_us": ("whittaker.phi_coef", "verify-main-eq", 1e6, {}),
    "whittaker.psi.float_us": ("whittaker.psi", "sample-dynamics", 1e6, {}),
    "whittaker.phi_coef.float_us": ("whittaker.phi_coef", "sample-dynamics", 1e6, {}),
    "dynamics.level_prob.RowBeta.exact_us": ("dynamics.row_beta_prob", "verify-main-eq", 1e6, {}),
    "dynamics.level_prob.ColBeta.exact_us": ("dynamics.col_beta_prob", "verify-main-eq", 1e6, {}),
    "dynamics.level_prob.RowAlpha.exact_us": ("dynamics.row_alpha_v", "verify-main-eq", 1e6, {}),
    "dynamics.level_prob.ColAlpha.exact_us": ("dynamics.col_alpha_v", "verify-main-eq", 1e6, {}),
    "dynamics.level_prob.PushBlockBeta.exact_us": (
        "dynamics.push_block_prob", "verify-main-eq", 1e6, {}),
    "particles.exact_trajectory_distribution.ms": (
        "particles.exact_trajectory_distribution", "verify-moments", 1e3, {}),
    "polymers.lgv_partition.determinant_us": ("polymers.lgv_partition", "polymer-limit", 1e6, {}),
    "polymers.lgv_partition.enumerate_us": (
        "polymers.lgv_partition", "polymer-limit", 1e6, {"override": {"method": "enumerate"}}),
}


def run_probes(workloads: dict) -> dict:
    """Record from each workload, then time every probe. Returns metric -> value."""
    by_workload: dict = {}
    for path, wname, _, _ in PROBES.values():
        by_workload.setdefault(wname, set()).add(path)
    recorded: dict = {}
    for wname, paths in by_workload.items():
        with recording(sorted(paths)) as reservoirs:
            workloads[wname].record()
        for path, res in reservoirs.items():
            recorded[wname, path] = res.items
    out = {}
    for metric, (path, wname, scale, opts) in PROBES.items():
        out[metric] = time_calls(_resolve(path), recorded[wname, path], **opts) * scale
    return out
