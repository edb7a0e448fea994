import math
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qrsk.gt import (
    array_from_json,
    array_to_json,
    chain_paths,
    complement,
    enumerate_arrays_with_top,
    enumerate_interlacing_below,
    enumerate_signatures,
    evolve,
    gl_dimension,
    interlaces_h,
    interlaces_v,
    is_interlacing_array,
    transpose,
    zero_array,
)
from qrsk.whittaker import psi


def test_interlaces_h_adjacent_length():
    assert interlaces_h((4, 2, 1, 1), (5, 3, 1, 1, 0))
    assert interlaces_h((3, 1), (3, 1))
    assert not interlaces_h((3,), (5, 4))  # mu_1 < lam_2


def test_interlaces_v():
    assert interlaces_v((2, 1), (3, 2))
    assert not interlaces_v((2, 1), (4, 1))
    assert interlaces_v((5, 3, 3, 2), (5, 4, 3, 2))


def test_transpose_examples():
    assert transpose((5, 3, 3, 2)) == (4, 4, 3, 1, 1)
    assert transpose(()) == ()
    rnd = random.Random(0)
    for _ in range(25):
        lam = tuple(sorted((rnd.randint(0, 6) for _ in range(rnd.randint(0, 5))), reverse=True))
        assert transpose(transpose(lam)) == tuple(x for x in lam if x > 0)


def test_transpose_strip_duality():
    rnd = random.Random(1)
    for _ in range(50):
        lam = tuple(sorted((rnd.randint(0, 4) for _ in range(4)), reverse=True))
        mu = tuple(min(lam[i], rnd.randint(0, 4)) for i in range(4))
        mu = tuple(sorted(mu, reverse=True))
        if interlaces_h(mu, lam):
            assert interlaces_v(transpose(mu), transpose(lam))


def test_complement_basics():
    assert complement((0, 0, 0), 5, 3) == (5, 5, 5)
    lam = (4, 2, 1)
    assert complement(complement(lam, 6, 4), 6, 4) == (4, 2, 1, 0)
    with pytest.raises(ValueError):
        complement((7,), 5, 2)


def test_complement_preserves_h_strips_and_psi():
    # the branching coefficient is invariant under complementation
    rnd = random.Random(2)
    q = F(1, 2)
    S = 9
    for _ in range(60):
        k = rnd.randint(2, 4)
        mu = tuple(sorted((rnd.randint(0, 4) for _ in range(k)), reverse=True))
        mu_bar = tuple(sorted((rnd.randint(0, 4) for _ in range(k - 1)), reverse=True))
        if not interlaces_h(mu_bar, mu):
            continue
        cm, cmb = complement(mu, S, k), complement(mu_bar, S, k - 1)
        assert interlaces_h(cmb, cm)
        assert psi(cm, cmb, q) == psi(mu, mu_bar, q)


def test_enumerate_signatures():
    assert set(enumerate_signatures(1, 2)) == {(0, 0), (1, 0), (1, 1)}
    assert len(list(enumerate_signatures(2, 2))) == 6  # stars and bars C(4,2)
    assert list(enumerate_signatures(0, 3)) == [(0, 0, 0)]
    sigs = list(enumerate_signatures(3, 4))
    assert len(sigs) == len(set(sigs)) == 35  # C(7,4)


def test_enumerate_arrays_with_top():
    assert len(list(enumerate_arrays_with_top((1, 0)))) == 2
    # count equals the Weyl dimension of the GL(3) irrep (2,1,0)
    arrs = list(enumerate_arrays_with_top((2, 1, 0)))
    assert len(arrs) == gl_dimension((2, 1, 0), 3) == 8
    assert all(is_interlacing_array(a) for a in arrs)
    assert list(enumerate_arrays_with_top((0, 0, 0))) == [((0,), (0, 0), (0, 0, 0))]


def test_enumerate_interlacing_below():
    assert set(enumerate_interlacing_below((2, 0))) == {(0,), (1,), (2,)}


def test_json_round_trip():
    arr = ((1,), (2, 0), (2, 1, 0))
    assert array_from_json(array_to_json(arr)) == arr
    with pytest.raises(ValueError):
        array_from_json('{"levels": [[1], [0, 0]]}')


def test_zero_array():
    assert zero_array(3) == ((0,), (0, 0), (0, 0, 0))


def test_complement_shift_preserves_v_strips():
    # with the S+1 shift on the upper signature, vertical strips map to
    # vertical strips
    rnd = random.Random(3)
    S = 9
    for _ in range(60):
        k = rnd.randint(1, 4)
        mu = tuple(sorted((rnd.randint(0, 4) for _ in range(k)), reverse=True))
        kap = tuple(mu[i] + rnd.randint(0, 1) for i in range(k))
        if not all(kap[i] >= kap[i + 1] for i in range(k - 1)):
            continue
        assert interlaces_v(mu, kap)
        cm = complement(mu, S, k)
        ck = complement(tuple(x - 1 for x in kap), S, k)  # the S+1 shift
        assert interlaces_v(cm, ck)
        assert psi_prime_invariant(kap, mu, cm, ck)


def psi_prime_invariant(kap, mu, cm, ck):
    from fractions import Fraction as F

    from qrsk.whittaker import psi_prime

    q = F(1, 2)
    return psi_prime(ck, cm, q) == psi_prime(kap, mu, q)


# Step laws of a chain on tuples: law i has weights laws[i] on the values
# 0, 1, ..., and a step reads the law that its state and path pick.
_laws = st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(any),
                 min_size=1, max_size=4)


def _choices(laws, state):
    def choices(i, path):
        weights = laws[(sum(state) + 3 * i + sum(path)) % len(laws)]
        return [(x, F(w, sum(weights))) for x, w in enumerate(weights)]
    return choices


@given(_laws, st.integers(0, 4), st.lists(st.integers(0, 3), max_size=3))
def test_chain_paths_are_the_nonzero_paths_in_lexicographic_order(laws, n, state):
    choices = _choices(laws, state)
    paths = chain_paths(n, choices, F(1))
    expected = []
    for path in product(*[range(4)] * n):  # every path, in lexicographic order
        steps = [dict(choices(i, path[:i])).get(x, 0) for i, x in enumerate(path)]
        if all(steps):
            expected.append((path, math.prod(steps, start=F(1))))
    assert paths == expected
    assert sum(w for _, w in paths) == 1
    assert paths == sorted(paths)


@given(_laws, st.integers(1, 3), st.integers(0, 4))
def test_evolve_conserves_the_mass_of_a_stochastic_chain(laws, n, steps):
    def moves(state):
        return [(tuple((s + x) % 3 for s, x in zip(state, path)), w)
                for path, w in chain_paths(n, _choices(laws, state), F(1))]

    dist = evolve({(0,) * n: F(1, 3), (1,) * n: F(2, 3)}, steps, moves, F(0))
    assert sum(dist.values()) == 1 and all(p > 0 for p in dist.values())


@given(st.dictionaries(st.integers(0, 5), st.integers(-3, 3)),
       st.lists(st.tuples(st.integers(0, 5), st.integers(-3, 3)), max_size=6))
def test_evolve_drops_the_states_whose_total_is_zero(dist, moves):
    # a signed chain: every state moves by the same (shift, weight) pairs
    out = evolve(dist, 1, lambda s: [((s + d) % 6, w) for d, w in moves], 0)
    totals = {}
    for s, p in dist.items():
        for d, w in moves:
            totals[(s + d) % 6] = totals.get((s + d) % 6, 0) + p * w
    assert out == {s: p for s, p in totals.items() if p != 0}
    assert 0 not in out.values()


@given(st.dictionaries(st.tuples(st.integers(), st.integers()), st.fractions()))
def test_evolve_of_no_steps_is_the_identity(dist):
    assert evolve(dist, 0, lambda s: [(s, 1)], F(0)) == dist
