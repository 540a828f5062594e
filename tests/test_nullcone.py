import json
import random
from fractions import Fraction as Q

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import oracles
from bottnull import nullcone
from bottnull.errors import (InputError, InvalidWeight, NotStrictlyUpper,
                             NotTraceFree, SingularMatrix)


def _mt(*rows_list):
    mats = tuple(tuple(tuple(Q(x) for x in row) for row in rows)
                 for rows in rows_list)
    return nullcone.MatrixTuple(n=len(rows_list[0]), matrices=mats)


def test_jordan_block_is_member():
    t = _mt([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert nullcone.in_nullcone(t)
    assert t.r == 1 and t.n == 3


def test_diagonal_is_not_member():
    t = _mt([[1, 0], [0, -1]])
    assert not nullcone.in_nullcone(t)
    assert nullcone.common_flag(t) is None


def test_trace_validation():
    with pytest.raises(NotTraceFree):
        _mt([[1, 0], [0, 0]])
    # Non-square rejected too.
    with pytest.raises(Exception):
        nullcone.MatrixTuple(n=2, matrices=(((Q(0), Q(1)),),))


def test_pair_with_no_common_flag():
    # x strictly upper, y strictly lower: each nilpotent but the pair
    # generates a non-nilpotent algebra.
    t = _mt([[0, 1], [0, 0]], [[0, 0], [1, 0]])
    assert not nullcone.in_nullcone(t)
    assert nullcone.common_flag(t) is None
    assert not oracles.brute_nullcone_member(t.matrices)


def test_conjugated_uppers_are_members():
    rng = random.Random(101)
    for n in (2, 3, 4):
        for _ in range(10):
            g = oracles.random_unimodular(rng, n)
            ginv = nullcone.mat_inverse(g)
            mats = tuple(oracles.conjugate(g, ginv,
                                           oracles.random_strictly_upper(rng, n))
                         for _ in range(rng.randint(1, 3)))
            t = nullcone.MatrixTuple(n=n, matrices=mats)
            assert nullcone.in_nullcone(t)
            flag = nullcone.common_flag(t)
            assert flag is not None
            tri = nullcone.triangularize(t, flag)
            assert all(nullcone.is_strictly_upper(m) for m in tri)


def test_three_way_equivalence_seeded():
    rng = random.Random(7)
    agree = 0
    for n in (2, 3):
        for _ in range(60):
            mats = tuple(oracles.random_traceless(rng, n)
                         for _ in range(rng.randint(1, 3)))
            t = nullcone.MatrixTuple(n=n, matrices=mats)
            member = nullcone.in_nullcone(t)
            assert member == oracles.brute_nullcone_member(mats)
            assert member == (nullcone.common_flag(t) is not None)
            agree += 1
    assert agree == 120


def test_flag_triangularizes_all_members():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.choice((2, 3, 4))
        g = oracles.random_unimodular(rng, n)
        ginv = nullcone.mat_inverse(g)
        mats = tuple(oracles.conjugate(g, ginv,
                                       oracles.random_strictly_upper(rng, n))
                     for _ in range(2))
        t = nullcone.MatrixTuple(n=n, matrices=mats)
        flag = nullcone.common_flag(t)
        for m in nullcone.triangularize(t, flag):
            assert nullcone.is_strictly_upper(m)


def test_single_matrix_membership_is_nilpotency():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.choice((2, 3, 4))
        x = oracles.random_traceless(rng, n)
        t = nullcone.MatrixTuple(n=n, matrices=(x,))
        # x^n == 0 iff member
        power = x
        for _ in range(n - 1):
            power = oracles.mat_mul(power, x)
        zero = tuple(tuple(Q(0) for _ in range(n)) for _ in range(n))
        assert nullcone.in_nullcone(t) == (power == zero)


def test_resolution_sample_round_trip():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.choice((2, 3, 4))
        uppers = tuple(oracles.random_strictly_upper(rng, n) for _ in range(2))
        t = nullcone.MatrixTuple(n=n, matrices=uppers)
        g = oracles.random_unimodular(rng, n)
        sample = nullcone.resolution_sample(g, t)
        assert nullcone.in_nullcone(sample)
        # Conjugating back by the flag recovers strict upper-triangularity.
        flag = nullcone.common_flag(sample)
        assert flag is not None


def test_resolution_sample_rejects_bad_inputs():
    rng = random.Random(29)
    t = _mt([[0, 1], [1, 0]])  # traceless but not strictly upper
    g = oracles.random_unimodular(rng, 2)
    with pytest.raises(NotStrictlyUpper):
        nullcone.resolution_sample(g, t)
    upper = _mt([[0, 1], [0, 0]])
    singular = ((Q(1), Q(1)), (Q(1), Q(1)))
    with pytest.raises(SingularMatrix):
        nullcone.resolution_sample(singular, upper)


def test_flag_basis_is_ascending_invariant_chain():
    # Each x maps span(v_1..v_k) into span(v_1..v_{k-1}).
    rng = random.Random(31)
    for _ in range(20):
        n = rng.choice((3, 4))
        g = oracles.random_unimodular(rng, n)
        ginv = nullcone.mat_inverse(g)
        mats = tuple(oracles.conjugate(g, ginv,
                                       oracles.random_strictly_upper(rng, n))
                     for _ in range(2))
        t = nullcone.MatrixTuple(n=n, matrices=mats)
        flag = nullcone.common_flag(t)
        basis = flag.basis
        for x in t.matrices:
            for k, vec in enumerate(basis):
                image = nullcone.mat_vec(x, vec)
                # Solve for coordinates in the first k basis vectors.
                coords = _solve_in_span(basis[:k], image)
                assert coords is not None, "image left the flag step"


def _solve_in_span(vectors, target):
    """Coordinates of target in span(vectors) over Q, or None."""
    n = len(target)
    # Gaussian elimination on the transpose system.
    aug = [[vectors[j][i] for j in range(len(vectors))] + [target[i]]
           for i in range(n)]
    rank_pos = 0
    cols = len(vectors)
    for col in range(cols):
        pivot = next((r for r in range(rank_pos, n) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[rank_pos], aug[pivot] = aug[pivot], aug[rank_pos]
        pv = aug[rank_pos][col]
        aug[rank_pos] = [v / pv for v in aug[rank_pos]]
        for r in range(n):
            if r != rank_pos and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[rank_pos])]
        rank_pos += 1
    for r in range(rank_pos, n):
        if aug[r][-1] != 0:
            return None
    return True


def test_json_round_trip():
    t = _mt([[0, Q(1, 2), 0], [0, 0, Q(-2, 3)], [0, 0, 0]],
            [[0, 1, 1], [0, 0, 0], [0, 0, 0]])
    text = nullcone.tuple_to_json(t)
    doc = json.loads(text)
    assert doc["n"] == 3 and doc["r"] == 2
    assert doc["matrices"][0][0][1] == "1/2"
    assert nullcone.tuple_from_json(text) == t
    assert text.endswith("\n")
    # Deterministic bytes.
    assert nullcone.tuple_to_json(t) == text


def test_json_rejects_malformed():
    with pytest.raises(InputError):
        nullcone.tuple_from_json('{"n": 2}')
    with pytest.raises(InputError):
        nullcone.tuple_from_json('{not json')


def test_early_stabilization_matches_full_chain():
    # A tuple whose chain stabilizes early at a nonzero subspace.
    t = _mt([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert not nullcone.in_nullcone(t)


def test_zero_tuple():
    t = _mt([[0, 0], [0, 0]])
    assert nullcone.in_nullcone(t)
    flag = nullcone.common_flag(t)
    assert flag is not None
    assert len(flag.basis) == 2


# Mostly small entries and many zeros, so that rank-deficient and singular
# matrices come up often.
_ENTRY = st.one_of(st.just(Q(0)),
                   st.fractions(min_value=-4, max_value=4, max_denominator=3))


def _matrices(rows, cols):
    return st.lists(st.lists(_ENTRY, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def _sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in rows])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(lambda c: _matrices(r, c))))
def test_rref_matches_sympy(rows):
    reduced = _sympy(rows).rref()[0]
    want = [tuple(Q(int(x.p), int(x.q)) for x in reduced.row(i))
            for i in range(reduced.rows) if any(reduced.row(i))]
    assert nullcone.rref([tuple(row) for row in rows]) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: _matrices(n, n)))
def test_mat_inverse_matches_sympy_determinant(rows):
    m = nullcone.matrix_from_rows(rows)
    if _sympy(rows).det() == 0:
        with pytest.raises(SingularMatrix):
            nullcone.mat_inverse(m)
    else:
        inv = nullcone.mat_inverse(m)
        assert nullcone.mat_mul(inv, m) == nullcone.identity(len(m))
        assert _sympy(inv) == _sympy(rows).inv()
