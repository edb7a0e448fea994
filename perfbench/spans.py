"""Spans, op accounting and machine-speed calibration for the benchmark.

A span has a name ``<module>.<function>``, a tag saying which kind / size /
eps the call served, a start, an end, its parent span (-1 at the top) and
the time covered by its direct children, so its self time is
``end - start - child``.  All spans of one run share the tracer's
``trace_id``.  Spans are kept in flat arrays (a traced sample-dynamics run
records about a million) and written out at the end.  With tracing off,
:meth:`Tracer.wrap` hands back the bare function, so untraced runs pay
nothing per call.
"""

from __future__ import annotations

import gzip
import math
import os
import statistics
import traceback
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

MODULES = ("qnum", "gt", "whittaker", "dynamics", "particles", "moments", "polymers")


class Tracer:
    def __init__(self, enabled: bool, trace_id: str):
        self.on = enabled
        self.trace_id = trace_id
        self.labels: list = []          # label id -> (name, tag)
        self._label_ids: dict = {}
        self.label = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.child = array("d")
        self._stack: list = []
        self._durations: dict | None = None
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()

    def _label_id(self, name: str, tag: str) -> int:
        key = (name, tag)
        if key not in self._label_ids:
            self._label_ids[key] = len(self.labels)
            self.labels.append(key)
        return self._label_ids[key]

    def begin(self, label_id: int) -> None:
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.start))
        self.label.append(label_id)
        self.end.append(0.0)
        self.child.append(0.0)
        self.start.append(perf_counter())

    def end_span(self) -> None:
        t = perf_counter()
        i = self._stack.pop()
        self.end[i] = t
        p = self.parent[i]
        if p >= 0:
            self.child[p] += t - self.start[i]

    def wrap(self, fn, name: str, tag: str = ""):
        """``fn`` itself when tracing is off, else ``fn`` inside a span."""
        if not self.on:
            return fn
        label_id = self._label_id(name, tag)

        def traced(*args, **kwargs):
            self.begin(label_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end_span()

        return traced

    @contextmanager
    def root(self, name: str, tag: str = ""):
        """A span that groups a whole phase (traced runs only)."""
        if not self.on:
            yield
            return
        self.begin(self._label_id(name, tag))
        try:
            yield
        finally:
            self.end_span()

    def record_error(self, exc: BaseException, fallback_module: str) -> None:
        """Count an exception against the innermost qrsk module on its traceback."""
        module = fallback_module
        for frame in traceback.extract_tb(exc.__traceback__):
            parts = frame.filename.replace("\\", "/").split("/")
            if len(parts) >= 2 and parts[-2] == "qrsk":
                stem = parts[-1].rsplit(".", 1)[0]
                if stem in MODULES:
                    module = stem
        self.errors[module] += 1

    # -- aggregation ------------------------------------------------------

    def durations(self, name: str, tag: str = "") -> list:
        """Durations of the finished spans with this name and tag."""
        if self._durations is None:
            self._durations = defaultdict(list)
            for lab, s, e in zip(self.label, self.start, self.end):
                self._durations[self.labels[lab]].append(e - s)
        return self._durations.get((name, tag), [])

    def write(self, path: str, header: str) -> None:
        """Write every span as a tab-separated line, gzip-compressed, under a
        header naming the run's trace id; times in microseconds from the first span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(f"# {header} trace_id={self.trace_id} spans={len(self.start)}\n")
            f.write("id\tparent\tname\ttag\tstart_us\tend_us\tself_us\n")
            for i, (lab, s, e, p, c) in enumerate(
                zip(self.label, self.start, self.end, self.parent, self.child)
            ):
                name, tag = self.labels[lab]
                f.write(f"{i}\t{p}\t{name}\t{tag}\t{(s - t0) * 1e6:.1f}\t"
                        f"{(e - t0) * 1e6:.1f}\t{(e - s - c) * 1e6:.1f}\n")


# On a shared 2-core VM (Xeon, 2.1 GHz, CPython 3.11) the machine's speed
# varied by up to 2x over tens of seconds with load from other tenants.  Two
# fixed pure-Python loops, one on small ints and one on Fractions (Gaussian
# binomials, the shape of the exact verifier's hot path), are timed in the
# same rounds as the workload; the geometric mean of their speeds relative
# to their reference times tracks the workloads' own speed best (it cut the
# 8-seed spread of ops_per_s from 16-19% to 1-3% on the float workloads), so
# measured times are scaled by it.
def _int_loop() -> int:
    s = 0
    for i in range(30000):
        s += i * i % 7
    return s


def _fraction_loop():
    acc = Fraction(0)
    for q in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 5)):
        for n in range(1, 9):
            for k in range(n + 1):
                num = den = Fraction(1)
                for i in range(1, k + 1):
                    num *= 1 - q ** (n - k + i)
                    den *= 1 - q ** i
                acc += num / den
    return acc


# (loop, its time at the reference machine speed: its median on that VM)
CALIBRATION = ((_int_loop, 0.0023), (_fraction_loop, 0.0045))


def speed_sample() -> float:
    """The machine's speed now relative to the reference speed (> 1: faster)."""
    product = 1.0
    for loop, ref_s in CALIBRATION:
        t0 = perf_counter()
        loop()
        product *= ref_s / (perf_counter() - t0)
    return product ** (1.0 / len(CALIBRATION))


def machine_speed(samples: int) -> float:
    """Median of ``samples`` speed samples."""
    return statistics.median(speed_sample() for _ in range(samples))


class Tally:
    """Attempted and failed ops of one phase, and the time of each timed unit.

    A phase runs the same units (a sweep, a query, a group of trajectories,
    a batch of replicas) once per round.  After each unit the machine's
    speed is sampled; at the end of a round every unit time of the round is
    scaled by the round's median speed.
    The robust time of the phase takes each unit's scaled time as its median
    over the rounds, so a burst of load during one round does not move it.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.timed_s = 0.0
        self.unit_s: dict = defaultdict(list)
        self._round: list = []
        self._speed: list = []

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def time(self, unit, seconds: float) -> None:
        self.timed_s += seconds
        self._round.append((unit, seconds))
        self._speed.append(speed_sample())

    def end_round(self) -> None:
        if not self._round:
            return
        speed = statistics.median(self._speed)
        for unit, seconds in self._round:
            self.unit_s[unit].append(seconds * speed)
        self._round, self._speed = [], []

    @property
    def passed(self) -> int:
        return self.attempted - self.failed

    def robust_s(self) -> float:
        return sum(statistics.median(v) * len(v) for v in self.unit_s.values())

    def ops_per_s(self) -> float:
        """Passed ops over the robust time of the phase."""
        t = self.robust_s()
        return self.passed / t if t > 0 else 0.0


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile; values need not be sorted."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]

