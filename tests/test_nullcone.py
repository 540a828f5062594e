import itertools
import json
import pickle
import random
from fractions import Fraction as Q

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import oracles
from bottnull import nullcone
from bottnull.rootsys import build_root_system
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


def test_wrong_size_flag_or_g_is_refused_before_any_work():
    jordan = _mt([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    short = nullcone.Flag(basis=((Q(1), Q(0)), (Q(0), Q(1))))
    with pytest.raises(ValueError,
                       match="flag basis is 2x2 but the matrices are 3x3"):
        nullcone.triangularize(jordan, short)
    ragged = nullcone.Flag(basis=((1, 0, 0), (0, 1), (0, 0, 1)))
    with pytest.raises(ValueError, match="flag basis is 3x2/3 but"):
        nullcone.triangularize(jordan, ragged)
    g4 = nullcone.identity(4)
    with pytest.raises(ValueError, match="g is 4x4 but the matrices are 3x3"):
        nullcone.resolution_sample(g4, jordan)
    # The size comes first: this tuple is not strictly upper either.
    with pytest.raises(ValueError, match="g is 4x4"):
        nullcone.resolution_sample(g4, _mt([[0, 0, 0], [1, 0, 0], [0, 0, 0]]))
    assert vars(jordan).keys() == {"n", "matrices"}  # nothing cleared


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


@pytest.mark.parametrize("entry", [True, 0.5, float("inf"), float("nan"),
                                   "1e4000000", " 1", "1.0", "0x10", "1/0",
                                   "\u0661", "1/-2", None, [1]])
def test_matrix_entries_must_be_exact(entry):
    with pytest.raises(ValueError, match="bad matrix entry"):
        nullcone.matrix_from_rows([[entry]])


def test_long_bad_entry_is_shown_truncated():
    with pytest.raises(ValueError) as err:
        nullcone.matrix_from_rows([["1.5" + "0" * 100]])
    assert str(err.value) == ("bad matrix entry '1.500000000000000000000000000"
                              "0000000...: expected an integer or a \"p/q\" "
                              "string with q > 0")


def test_matrix_entries_read_exactly():
    assert nullcone.matrix_from_rows([[3, Q(1, 3), "-7", "+4/6"]]) == (
        (Q(3), Q(1, 3), Q(-7), Q(2, 3)),)
    with pytest.raises(ValueError, match="list of rows"):
        nullcone.matrix_from_rows(["01"])


@pytest.mark.parametrize("n", [-1, 0, 2.7, True, "2", None])
def test_json_rejects_matrix_size_that_is_not_a_positive_int(n):
    doc = {"n": n, "matrices": [[["0", "1"], ["0", "0"]]] if n == 2.7 else []}
    with pytest.raises(InputError, match="bad matrix-tuple document"):
        nullcone.tuple_from_json(json.dumps(doc))


def test_matrix_tuple_needs_a_positive_size():
    with pytest.raises(ValueError, match="at least 1"):
        nullcone.MatrixTuple(n=0, matrices=())
    with pytest.raises(ValueError, match="at least 1"):
        nullcone.MatrixTuple(n=-1, matrices=())


def test_matrix_tuple_needs_a_matrix():
    # Without one, n alone would size the row reductions.
    with pytest.raises(ValueError, match="at least one matrix"):
        nullcone.MatrixTuple(n=10**9, matrices=())


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


# ----------------------------------------------- integer rows inside, checked
# against sympy's inverse and brute-force word products.

def _sympy_inverse(rows):
    inv = _sympy(rows).inv()
    return tuple(tuple(Q(int(inv[i, j].p), int(inv[i, j].q))
                       for j in range(inv.cols)) for i in range(inv.rows))


def _scaled(m, s):
    return tuple(tuple(x * s for x in row) for row in m)


_SCALE = st.builds(Q, st.integers(-10**30, 10**30).filter(bool),
                   st.integers(1, 10**30))


def _integer_matrix(n, entries):
    return st.lists(entries, min_size=n * n, max_size=n * n).map(
        lambda e: tuple(tuple(Q(e[i * n + j]) for j in range(n))
                        for i in range(n)))


def _strictly_upper(n):
    return _integer_matrix(n, st.integers(-3, 3)).map(
        lambda m: tuple(tuple(x if j > i else Q(0) for j, x in enumerate(row))
                        for i, row in enumerate(m)))


@st.composite
def _invertible(draw, n):
    """An integer g with |det g| > 1, so g x g^-1 carries denominators."""
    g = draw(_integer_matrix(n, st.integers(-2, 2)))
    assume(abs(_sympy(g).det()) > 1)
    return g


@st.composite
def _tuples(draw):
    n = draw(st.integers(2, 4))
    r = draw(st.integers(1, 3))
    if draw(st.booleans()):  # a member: conjugated strictly upper matrices
        g = draw(_invertible(n))
        ginv = _sympy_inverse(g)
        mats = tuple(oracles.conjugate(g, ginv, draw(_strictly_upper(n)))
                     for _ in range(r))
    else:  # mostly not a member
        mats = []
        for _ in range(r):
            m = [list(row) for row in draw(_matrices(n, n))]
            m[-1][-1] -= sum(m[i][i] for i in range(n))
            mats.append(tuple(tuple(row) for row in m))
        mats = tuple(mats)
    return nullcone.MatrixTuple(n=n, matrices=mats)


@settings(max_examples=80, deadline=None)
@given(_tuples(), st.lists(_SCALE, min_size=3, max_size=3))
def test_scaling_each_matrix_keeps_membership_and_flag(t, scales):
    scaled = nullcone.MatrixTuple(n=t.n, matrices=tuple(
        _scaled(m, s) for m, s in zip(t.matrices, scales)))
    member = oracles.brute_nullcone_member(t.matrices)
    assert nullcone.in_nullcone(t) == nullcone.in_nullcone(scaled) == member
    flag = nullcone.common_flag(t)
    assert nullcone.common_flag(scaled) == flag
    assert (flag is not None) == member


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    _invertible(n), st.lists(_strictly_upper(n), min_size=1, max_size=3))),
    _SCALE)
def test_conjugations_match_a_sympy_inverse(g_and_uppers, s):
    g, uppers = g_and_uppers
    t = nullcone.MatrixTuple(n=len(g), matrices=tuple(uppers))
    # A rational multiple of g gives the same point.
    sample = nullcone.resolution_sample(_scaled(g, s), t)
    ginv = _sympy_inverse(g)
    assert sample.matrices == tuple(oracles.conjugate(g, ginv, x)
                                    for x in uppers)
    flag = nullcone.common_flag(sample)
    f = flag.matrix
    finv = _sympy_inverse(f)
    tri = nullcone.triangularize(sample, flag)
    assert tri == tuple(oracles.conjugate(finv, f, x) for x in sample.matrices)
    assert all(type(x) is Q for m in tri + sample.matrices
               for row in m for x in row)


def test_boundary_values_are_fractions():
    # Integer inputs still give Fraction outputs.
    assert nullcone.rref([(2, 4, 6), (1, 1, 0)]) == [(1, 0, -3), (0, 1, 3)]
    assert all(type(x) is Q for row in nullcone.rref([(2, 4, 6), (1, 1, 0)])
               for x in row)
    inv = nullcone.mat_inverse(((2, 1), (1, 1)))
    assert inv == ((1, -1), (-1, 2))
    assert all(type(x) is Q for row in inv for x in row)
    flag = nullcone.common_flag(_mt([[0, 2, 4], [0, 0, 6], [0, 0, 0]]))
    assert all(type(x) is Q for vec in flag.basis for x in vec)


@pytest.mark.parametrize("family,rank",
                         [("A", k) for k in range(1, 8)] + [("B", 2)])
def test_cartan_inverse_matches_sympy(family, rank):
    rs = build_root_system(family, rank)
    assert rs._cartan_inverse == _sympy_inverse(rs.cartan)
    assert all(type(x) is Q for row in rs._cartan_inverse for x in row)


# ------------------------------------------- what a tuple keeps between calls

@st.composite
def _cache_cases(draw):
    """(tuple, flag f, f-conjugates): half resolution points g x g^-1 with
    |det g| > 1 and f the columns of g, so the conjugates are x; half
    trace-free tuples with fractional entries and f the standard basis."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, 3))
    if draw(st.booleans()):
        g = draw(_invertible(n))
        ginv = _sympy_inverse(g)
        uppers = tuple(draw(_strictly_upper(n)) for _ in range(r))
        mats = tuple(oracles.conjugate(g, ginv, x) for x in uppers)
        basis = tuple(zip(*g))
        return nullcone.MatrixTuple(n=n, matrices=mats), basis, uppers
    mats = []
    for _ in range(r):
        m = [list(row) for row in draw(_matrices(n, n))]
        m[-1][-1] -= sum(m[i][i] for i in range(n))
        mats.append(tuple(tuple(row) for row in m))
    return (nullcone.MatrixTuple(n=n, matrices=tuple(mats)),
            nullcone.identity(n), tuple(mats))


def _answers(t, order, f):
    ops = {"member": lambda: nullcone.in_nullcone(t),
           "flag": lambda: nullcone.common_flag(t),
           "triangularize": lambda: nullcone.triangularize(t, f)}
    first = {op: ops[op]() for op in order}
    again = {op: ops[op]() for op in order}
    assert again == first
    return first


def _fresh(t):
    return nullcone.MatrixTuple(n=t.n, matrices=t.matrices)


@settings(max_examples=60, deadline=None)
@given(_cache_cases())
def test_cached_tuple_state_changes_no_answer(case):
    t, basis, conjugates = case
    f = nullcone.Flag(basis=basis)
    cold = _fresh(t)
    want = {"member": nullcone.in_nullcone(_fresh(t)),
            "flag": nullcone.common_flag(_fresh(t)),
            "triangularize": nullcone.triangularize(_fresh(t), f)}
    assert want["member"] == oracles.brute_nullcone_member(t.matrices)
    assert (want["flag"] is not None) == want["member"]
    assert want["triangularize"] == conjugates
    for order in itertools.permutations(want):
        assert _answers(_fresh(t), order, f) == want
    assert _answers(t, tuple(want), f) == want
    # No question changes the chain that membership alone builds.
    member_only = _fresh(t)
    nullcone.in_nullcone(member_only)
    assert t._chain == member_only._chain
    assert all(type(row) is tuple for u in (t._chain, *t._chain) for row in u)
    # Other tuples of the same size still get their own answers.
    n = t.n
    assert nullcone.in_nullcone(_mt([[0] * n] * n))
    if n > 1:  # diag(1, -1, 0, ...)
        split = _mt([[(i == j == 0) - (i == j == 1) for j in range(n)]
                     for i in range(n)])
        assert nullcone.common_flag(split) is None
        assert not nullcone.in_nullcone(split)
    # The warm tuple keeps its value semantics, and shares nothing.
    assert t == cold and hash(t) == hash(cold) and repr(t) == repr(cold)
    assert pickle.dumps(t) == pickle.dumps(cold)
    back = pickle.loads(pickle.dumps(t))
    assert back == t and repr(back) == repr(t)
    assert vars(back).keys() == vars(cold).keys() == {"n", "matrices"}
    assert _answers(back, tuple(want), f) == want
    assert t._chain is not back._chain and t._cleared is not back._cleared
    assert t._chain == back._chain and t._cleared == back._cleared
