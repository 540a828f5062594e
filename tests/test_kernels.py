"""Checks for the arithmetic kernels: the convolution against a counting
oracle, the batched dot walk against the scalar walk, and the kernels on
inputs of any size: wide coordinates, huge counts, empty operands, rank 8.
"""

import itertools
import random
from collections import Counter

from hypothesis import given, settings, strategies as st

import bottnull
from bottnull import _kernels as kern
from bottnull import rootsys, weyl
from bottnull._kernels import _pykernels


def _random_multiset(rng, rank, size, span):
    out = {}
    for _ in range(size):
        w = tuple(rng.randint(-span, span) for _ in range(rank))
        out[w] = out.get(w, 0) + rng.randint(1, 4)
    return out


def test_backend_name_matches_flag():
    assert kern.backend_name() == "pure"
    assert bottnull.backend_name() == "pure"
    assert kern.convolve is _pykernels.convolve
    assert kern.dot_walk_batch is _pykernels.dot_walk_batch


def test_pure_convolve_matches_counter_oracle():
    rng = random.Random(11)
    for rank in (1, 2, 3):
        a = _random_multiset(rng, rank, 5, 6)
        b = _random_multiset(rng, rank, 4, 6)
        expanded_a = [w for w, c in a.items() for _ in range(c)]
        expanded_b = [w for w, c in b.items() for _ in range(c)]
        oracle = Counter(
            tuple(x + y for x, y in zip(wa, wb))
            for wa, wb in itertools.product(expanded_a, expanded_b)
        )
        assert _pykernels.convolve(a, b) == dict(oracle)


# Coordinates of every size: small ones, which merge often, and ones up to
# 2^70, including the extremes, which need fields wider than a machine word.
_COORD = st.one_of(st.integers(-3, 3),
                   st.integers(-(1 << 70), 1 << 70),
                   st.sampled_from([1 << 70, -(1 << 70), (1 << 70) - 1]))


@st.composite
def _operands(draw):
    rank = draw(st.integers(1, 8))
    multiset = st.dictionaries(st.tuples(*[_COORD] * rank), st.integers(1, 3),
                               max_size=6)
    return draw(multiset), draw(multiset)


def _first_seen(a, b):
    """Distinct sums in the order the pair loop meets them: the larger
    operand outside, the other inside."""
    if len(a) < len(b):
        a, b = b, a
    return list(dict.fromkeys(tuple(x + y for x, y in zip(wa, wb))
                              for wa in a for wb in b))


@settings(max_examples=300, deadline=None, database=None)
@given(_operands())
def test_convolve_matches_counter_oracle_at_any_width(operands):
    a, b = operands
    oracle = Counter(
        tuple(x + y for x, y in zip(wa, wb))
        for wa, wb in itertools.product(
            [w for w, c in a.items() for _ in range(c)],
            [w for w, c in b.items() for _ in range(c)]))
    got = kern.convolve(a, b)
    assert got == dict(oracle)
    assert list(got) == _first_seen(a, b)


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 8).flatmap(
    lambda rank: st.lists(st.tuples(*[_COORD] * rank), min_size=1, max_size=5)))
def test_packed_keys_add_and_round_trip(ws):
    bound = max(abs(c) for w in ws for c in w)
    pack, unpack = _pykernels._packer(len(ws[0]), 2 * bound)
    assert unpack([pack(w) for w in ws]) == ws
    assert sorted(ws, key=pack) == sorted(ws)  # wedge/sym rely on this order
    sums = [tuple(x + y for x, y in zip(u, v)) for u in ws for v in ws]
    assert unpack([pack(u) + pack(v) for u in ws for v in ws]) == sums


def test_dot_walk_agrees_with_scalar_walk():
    rng = random.Random(99)
    for family, rank in (("A", 2), ("A", 3), ("B", 2)):
        rs = rootsys.build_root_system(family, rank)
        weights = [
            tuple(rng.randint(-9, 9) for _ in range(rank)) for _ in range(200)
        ]
        batch = kern.dot_walk_batch(weights, rs.cartan)
        for w, res in zip(weights, batch):
            ref = weyl.to_dominant(rs, w)
            if ref.singular:
                assert res is None
            else:
                assert res == (ref.length, ref.dominant)


def test_convolve_dispatch_falls_back_on_wide_coords():
    a = {(300, 0): 2, (-1, 4): 1}
    b = {(5, 5): 3}
    assert kern.convolve(a, b) == {(305, 5): 6, (4, 9): 3}


def test_convolve_dispatch_falls_back_on_huge_counts():
    a = {(1, 0): 1 << 40}
    b = {(0, 1): 1 << 40}
    assert kern.convolve(a, b) == {(1, 1): 1 << 80}


def test_convolve_dispatch_falls_back_on_empty():
    assert kern.convolve({}, {(1, 2): 3}) == {}
    assert kern.convolve({(1, 2): 3}, {}) == {}


def test_dot_walk_dispatch_falls_back_on_high_rank():
    rank = 8
    cartan = [
        [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(rank)]
        for i in range(rank)
    ]
    out = kern.dot_walk_batch([(0,) * rank, (-2,) + (0,) * (rank - 1)], cartan)
    assert out[0] == (0, (0,) * rank)
    assert out[1] is None  # -2 on one node shifts to -1: a wall


def test_dot_walk_dispatch_falls_back_on_huge_coords():
    rs = rootsys.build_root_system("A", 2)
    big = 1 << 21
    (res,) = kern.dot_walk_batch([(big, big)], rs.cartan)
    assert res == (0, (big, big))
    # s_2 s_1 . (-big, 0) = (0, big - 3): two reflections at full width.
    (res,) = kern.dot_walk_batch([(-big, 0)], rs.cartan)
    assert res == (2, (0, big - 3))
    assert weyl.dot(rs, (2, 1), (-big, 0)) == (0, big - 3)
