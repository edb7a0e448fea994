"""Signatures, interlacing arrays, strip relations, enumerators and finite laws.

A signature is a plain tuple of weakly decreasing nonnegative ints; an
interlacing array (Gelfand-Tsetlin pattern) is a tuple of signatures with
level j of length j, consecutive levels related by a horizontal strip.
Signatures keep their stored length; comparisons zero-pad on the fly.
A law is a dict {state: probability}, exact or float.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

Signature = Tuple[int, ...]
InterlacingArray = Tuple[Signature, ...]


def is_signature(parts: Sequence[int]) -> bool:
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1)) and (
        len(parts) == 0 or parts[-1] >= 0
    )


def part(lam: Sequence[int], i: int) -> int:
    """1-based part access with zero padding beyond the stored length."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def weight(lam: Sequence[int]) -> int:
    return sum(lam)


def padded(lam: Sequence[int], n: int) -> Signature:
    """lam as a tuple, zero-padded to length n if it is shorter."""
    return (*lam, *(0,) * (n - len(lam)))


def interlaces_h(mu: Sequence[int], lam: Sequence[int]) -> bool:
    """True iff lam/mu is a horizontal strip (lam_1 >= mu_1 >= lam_2 >= ...)."""
    n = max(len(mu), len(lam))
    lam = padded(lam, n + 1)
    for m, upper, lower in zip(padded(mu, n), lam, lam[1:]):
        if m > upper or lower > m:
            return False
    return True


def interlaces_v(mu: Sequence[int], lam: Sequence[int]) -> bool:
    """True iff lam/mu is a vertical strip (0 <= lam_i - mu_i <= 1 for all i)."""
    n = max(len(mu), len(lam))
    for m, l in zip(padded(mu, n), padded(lam, n)):
        if not 0 <= l - m <= 1:
            return False
    return True


def transpose(lam: Sequence[int]) -> Signature:
    """Conjugate Young diagram."""
    if len(lam) == 0 or lam[0] == 0:
        return ()
    return tuple(sum(1 for x in lam if x > j) for j in range(lam[0]))


def complement(lam: Sequence[int], S: int, j: int) -> Signature:
    """Complement of lam in the j x S rectangle: (S - lam_j, ..., S - lam_1)."""
    if len(lam) > j:
        raise ValueError("signature longer than the rectangle height")
    if any(x > S for x in lam):
        raise ValueError("signature wider than the rectangle")
    return tuple(S - part(lam, i) for i in range(j, 0, -1))


def enumerate_signatures(max_part: int, length: int) -> Iterator[Signature]:
    """All weakly decreasing length-`length` tuples with parts in 0..max_part."""
    def rec(prefix, bound, remaining):
        if remaining == 0:
            yield tuple(prefix)
            return
        for x in range(bound, -1, -1):
            prefix.append(x)
            yield from rec(prefix, x, remaining - 1)
            prefix.pop()

    yield from rec([], max_part, length)


def signatures_between(lower: Sequence[int], upper_bounds: Sequence[int]) -> Iterator[Signature]:
    """Weakly decreasing tuples mu with lower_i <= mu_i <= upper_bounds_i."""
    n = len(upper_bounds)

    def rec(prefix, i):
        if i == n:
            yield tuple(prefix)
            return
        hi = upper_bounds[i]
        if prefix:
            hi = min(hi, prefix[-1])
        lo = part(lower, i + 1)
        for x in range(hi, lo - 1, -1):
            prefix.append(x)
            yield from rec(prefix, i + 1)
            prefix.pop()

    yield from rec([], 0)


def enumerate_interlacing_below(lam: Sequence[int]) -> Iterator[Signature]:
    """All mu of length len(lam) - 1 with mu interlacing below lam; none for an empty lam."""
    if lam:
        yield from signatures_between(lam[1:], lam[:-1])


def enumerate_arrays_with_top(top: Sequence[int]) -> Iterator[InterlacingArray]:
    """All GT patterns with the given top row (lazy)."""
    top = tuple(top)
    n = len(top)
    if n == 0:
        yield ()
        return
    if n == 1:
        yield (top,)
        return
    for mu in enumerate_interlacing_below(top):
        for arr in enumerate_arrays_with_top(mu):
            yield arr + (top,)


def is_interlacing_array(arr: Sequence[Sequence[int]]) -> bool:
    if any(len(arr[j]) != j + 1 for j in range(len(arr))):
        return False
    if not all(is_signature(level) for level in arr):
        return False
    return all(interlaces_h(arr[j - 1], arr[j]) for j in range(1, len(arr)))


def zero_array(n: int) -> InterlacingArray:
    return tuple((0,) * j for j in range(1, n + 1))


def array_to_json(arr: InterlacingArray) -> str:
    return json.dumps({"levels": [list(level) for level in arr]})


def array_from_json(text: str) -> InterlacingArray:
    arr = tuple(tuple(level) for level in json.loads(text)["levels"])
    if not is_interlacing_array(arr):
        raise ValueError("not an interlacing array")
    return arr


def gl_dimension(lam: Sequence[int], n: int) -> int:
    """Weyl dimension formula for GL(n); counts GT patterns with top row lam."""
    lam = tuple(lam) + (0,) * (n - len(lam))
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


def chain_paths(n: int, choices: Callable[[int, tuple], Iterable[tuple]], one) -> List[tuple]:
    """Every path (x_0, ..., x_{n-1}) with its weight, one times the product of
    its step weights.

    choices(i, path) gives the (x_i, weight) steps from a path of length i.
    Steps of weight 0 are dropped.  The paths come in the lexicographic order
    that the steps' order sets.
    """
    paths = [((), one)]
    for i in range(n):
        paths = [(path + (x,), w * pw) for path, w in paths for x, pw in choices(i, path) if pw != 0]
    return paths


def evolve(dist: Dict, steps: int, transitions: Callable[[object], Iterable[tuple]], zero) -> Dict:
    """The law `dist` ({state: p}) after `steps` steps of a chain whose
    transitions(state) gives the (next state, probability) pairs of a state.

    `zero` starts each sum; a state whose total is 0 is dropped.
    """
    for _ in range(steps):
        new = {}
        for state, p in dist.items():
            for nxt, tp in transitions(state):
                new[nxt] = new.get(nxt, zero) + p * tp
        dist = {state: p for state, p in new.items() if p != 0}
    return dist
