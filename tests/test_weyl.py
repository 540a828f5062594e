import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bottnull import _kernels, weyl
from bottnull._kernels._pykernels import chamber_walk
from bottnull.errors import InputError, NotDominant
from bottnull.rootsys import (build_root_system, invariant_form,
                              weight_to_root_coords)

SUPPORTED = [("A", rank) for rank in range(1, 8)] + [("B", 2)]


def _neg(k, coords):
    return tuple(-k * c for c in coords)


def test_simple_reflection():
    rs = build_root_system("A", 2)
    assert weyl.simple_reflection(rs, 1, (1, 0)) == (-1, 1)
    assert weyl.simple_reflection(rs, 2, (0, 1)) == (1, -1)
    assert weyl.simple_reflection(rs, 1, (2, -1)) == (-2, 1)


def test_act_composes_rightmost_first():
    rs = build_root_system("A", 2)
    lam = (3, 0)
    step = weyl.simple_reflection(rs, 2, lam)
    assert weyl.act(rs, (1, 2), lam) == weyl.simple_reflection(rs, 1, step)


def test_act_is_a_group_action():
    rng = random.Random(7)
    for family, rank in [("A", 3), ("B", 2)]:
        rs = build_root_system(family, rank)
        for _ in range(25):
            u = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 4)))
            v = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 4)))
            lam = tuple(rng.randint(-4, 4) for _ in range(rank))
            assert weyl.act(rs, u + v, lam) == \
                weyl.act(rs, u, weyl.act(rs, v, lam))


def test_dot_action_identities_rank2():
    rs = build_root_system("A", 2)
    a1 = rs.positive_roots[0].fund_coords
    a2 = rs.positive_roots[1].fund_coords
    a12 = rs.positive_roots[2].fund_coords
    # -3*alpha_1 = (s1 s2).(2a1+a2),  -3*alpha_2 = (s2 s1).(a1+2a2)
    assert weyl.dot(rs, (1, 2), (3, 0)) == _neg(3, a1)
    assert weyl.dot(rs, (2, 1), (0, 3)) == _neg(3, a2)
    # -3(a1+a2) = (s1 s2 s1).(a1+a2)
    assert weyl.dot(rs, (1, 2, 1), (1, 1)) == _neg(3, a12)
    # -2a1-(a1+a2) = (s1 s2).(a1+a2) and symmetric partner
    want = tuple(-2 * x - y for x, y in zip(a1, a12))
    assert weyl.dot(rs, (1, 2), (1, 1)) == want
    want = tuple(-2 * x - y for x, y in zip(a2, a12))
    assert weyl.dot(rs, (2, 1), (1, 1)) == want


def test_dot_action_identity_rank3():
    rs = build_root_system("A", 3)
    a2 = rs.positive_roots[1].fund_coords
    # alpha_1 + 2 alpha_2 + alpha_3 has fundamental coords (0,2,0)
    assert weyl.dot(rs, (2, 1, 3), (0, 2, 0)) == _neg(3, a2)


def test_dot_action_identity_rank5():
    rs = build_root_system("A", 5)
    a3 = rs.positive_roots[2].fund_coords
    # The length-5 element whose letters apply in the order 5,1,4,2,3;
    # written as a composition (rightmost first) it is (3,2,4,1,5).
    word = (3, 2, 4, 1, 5)
    assert weyl.dot(rs, word, (0, 0, 2, 0, 0)) == _neg(4, a3)
    # Same element with the commuting letters s1, s4 swapped.
    assert weyl.dot(rs, (3, 2, 1, 4, 5), (0, 0, 2, 0, 0)) == _neg(4, a3)


def test_to_dominant_regular():
    rs = build_root_system("A", 2)
    res = weyl.to_dominant(rs, (-6, 3))
    assert not res.singular
    assert res.length == 2
    assert res.word == (2, 1)
    assert res.dominant == (3, 0)
    assert weyl.dot(rs, res.word, (-6, 3)) == (3, 0)


def test_to_dominant_singular():
    rs = build_root_system("A", 2)
    # -(a1+a2) + rho = 0 lies on every wall
    res = weyl.to_dominant(rs, (-1, -1))
    assert res.singular
    assert res.word is None and res.dominant is None
    assert not res.regular
    res = weyl.to_dominant(rs, (-4, 2))
    assert res.singular


def test_to_dominant_fixed_point():
    rs = build_root_system("A", 3)
    res = weyl.to_dominant(rs, (2, 0, 1))
    assert res.length == 0 and res.word == () and res.dominant == (2, 0, 1)


def test_to_dominant_word_property_random():
    rng = random.Random(3)
    for family, rank in [("A", 3), ("A", 5), ("B", 2)]:
        rs = build_root_system(family, rank)
        for _ in range(200):
            lam = tuple(rng.randint(-8, 8) for _ in range(rank))
            res = weyl.to_dominant(rs, lam)
            if res.singular:
                # Some Weyl image of lam + rho must hit a wall.
                orbit = {weyl.act(rs, w, tuple(c + 1 for c in lam))
                         for w in weyl.enumerate_elements(rs)}
                assert any(0 in v for v in orbit)
                continue
            assert weyl.dot(rs, res.word, lam) == res.dominant
            assert all(c >= 0 for c in res.dominant)
            assert res.length == len(res.word)


def test_reduce_word():
    rs = build_root_system("A", 2)
    assert weyl.reduce_word(rs, (1, 1)) == ()
    assert weyl.reduce_word(rs, (1, 2, 2, 1)) == ()
    # Braid: s1 s2 s1 = s2 s1 s2
    assert weyl.reduce_word(rs, (1, 2, 1)) == weyl.reduce_word(rs, (2, 1, 2))
    with pytest.raises(InputError):
        weyl.reduce_word(rs, (0,))
    with pytest.raises(InputError):
        weyl.reduce_word(rs, (3,))


def test_reduce_word_random_is_equivalent():
    rng = random.Random(11)
    for family, rank in [("A", 3), ("B", 2)]:
        rs = build_root_system(family, rank)
        for _ in range(50):
            word = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 8)))
            red = weyl.reduce_word(rs, word)
            assert len(red) <= len(word)
            assert weyl.act(rs, red, rs.rho) == weyl.act(rs, word, rs.rho)
            # A reduced word reduces to itself.
            assert weyl.reduce_word(rs, red) == red


def test_length():
    rs = build_root_system("A", 2)
    assert weyl.length(rs, ()) == 0
    assert weyl.length(rs, (1, 2, 1)) == 3
    assert weyl.length(rs, (1, 2, 1, 2)) == 2  # = s2 s1 reduced? no: length 2


def test_inversion_set():
    rs = build_root_system("A", 2)
    a1 = rs.positive_roots[0].fund_coords
    a12 = rs.positive_roots[2].fund_coords
    assert weyl.inversion_set(rs, (1, 2)) == frozenset({a1, a12})
    assert weyl.inversion_set(rs, ()) == frozenset()
    longest = weyl.inversion_set(rs, (1, 2, 1))
    assert longest == frozenset(r.fund_coords for r in rs.positive_roots)


def test_dot_of_zero_equals_minus_inversion_sum():
    # w.0 = -sum(Phi_w) for every Weyl element.
    for family, rank in [("A", 3), ("B", 2)]:
        rs = build_root_system(family, rank)
        zero = (0,) * rank
        for word in weyl.enumerate_elements(rs):
            inv = weyl.inversion_set(rs, word)
            assert len(inv) == len(word)
            total = [0] * rank
            for g in inv:
                for j in range(rank):
                    total[j] += g[j]
            assert weyl.dot(rs, word, zero) == tuple(-t for t in total)


def test_enumerate_elements_and_order():
    assert weyl.order(build_root_system("A", 2)) == 6
    assert weyl.order(build_root_system("A", 5)) == 720
    assert weyl.order(build_root_system("B", 2)) == 8
    rs = build_root_system("A", 3)
    words = weyl.enumerate_elements(rs)
    assert len(words) == 24
    assert len({weyl.act(rs, w, rs.rho) for w in words}) == 24
    # All words are reduced and sorted by (length, letters).
    assert all(weyl.reduce_word(rs, w) == w for w in words)
    assert list(words) == sorted(words, key=lambda w: (len(w), w))


def test_poincare_counts():
    assert weyl.poincare_counts(build_root_system("A", 2)) == \
        {0: 1, 1: 2, 2: 2, 3: 1}
    assert weyl.poincare_counts(build_root_system("A", 3)) == \
        {0: 1, 1: 3, 2: 5, 3: 6, 4: 5, 5: 3, 6: 1}
    assert weyl.poincare_counts(build_root_system("B", 2)) == \
        {0: 1, 1: 2, 2: 2, 3: 2, 4: 1}


def test_dot_dominantize_batch_matches_scalar():
    rng = random.Random(5)
    for family, rank in [("A", 4), ("B", 2)]:
        rs = build_root_system(family, rank)
        weights = [tuple(rng.randint(-9, 9) for _ in range(rank))
                   for _ in range(300)]
        batch = _kernels.dot_walk_batch(weights, rs.cartan)
        for lam, out in zip(weights, batch):
            res = weyl.to_dominant(rs, lam)
            if res.singular:
                assert out is None
            else:
                assert out == (res.length, res.dominant)


@st.composite
def _system_and_weight(draw):
    family, rank = draw(st.sampled_from(SUPPORTED))
    lam = draw(st.tuples(*[st.integers(-12, 12)] * rank))
    return build_root_system(family, rank), lam


@settings(max_examples=250, deadline=None, database=None)
@given(_system_and_weight())
def test_chamber_walk_against_coroot_pairings(case):
    # Oracle independent of the walk: the pairings <lam + rho, alpha^vee>
    # over all positive roots alpha, from the invariant form.
    rs, lam = case
    shifted = tuple(c + 1 for c in lam)
    pairings = [oracles.coroot_pairing(rs, shifted, root)
                for root in rs.positive_roots]
    res = weyl.to_dominant(rs, lam)
    (batch,) = _kernels.dot_walk_batch([lam], rs.cartan)
    if 0 in pairings:
        assert res.singular and batch is None
    else:
        assert not res.singular
        assert res.length == len(res.word) == sum(p < 0 for p in pairings)
        assert all(c >= 0 for c in res.dominant)
        assert weyl.dot(rs, res.word, lam) == res.dominant
        assert batch == (res.length, res.dominant)
    lin = weyl.linear_dominant(rs, lam)
    assert all(c >= 0 for c in lin)
    assert invariant_form(rs, lin, lin) == invariant_form(rs, lam, lam)


@settings(max_examples=250, deadline=None, database=None)
@given(_system_and_weight())
def test_chamber_walk_stops_exactly_on_walls(case):
    # Stopped at a wall: None exactly when lam + rho pairs to 0 with some
    # positive coroot; otherwise the letters of the walk to the chamber.
    rs, lam = case
    shifted = [c + 1 for c in lam]
    on_wall = any(oracles.coroot_pairing(rs, shifted, root) == 0
                  for root in rs.positive_roots)
    full = list(shifted)
    letters = chamber_walk(full, rs.simple_root_support)
    assert (0 in full) == on_wall
    stopped = chamber_walk(list(shifted), rs.simple_root_support, True)
    if on_wall:
        assert stopped is None
    else:
        assert stopped == letters


def test_chamber_walk_stops_at_its_first_wall():
    # On A3, s_1 takes (-1, 1, -5) to (1, 0, -5), on the wall of alpha_2;
    # the walk to the chamber would go on through s_3, s_2, s_1.
    rs = build_root_system("A", 3)
    full = [-1, 1, -5]
    assert chamber_walk(full, rs.simple_root_support) == [1, 3, 2, 1]
    assert full == [4, 1, 0]
    mu = [-1, 1, -5]
    assert chamber_walk(mu, rs.simple_root_support, True) is None
    assert mu == [1, 0, -5]
    # (-2, 0, -4) is (-1, 1, -5) - rho: singular after one reflection.
    assert weyl.to_dominant(rs, (-2, 0, -4)).singular
    assert _kernels.dot_walk_batch([(-2, 0, -4)], rs.cartan) == [None]


def test_linear_dominant():
    rs = build_root_system("A", 2)
    assert weyl.linear_dominant(rs, (-1, -1)) == (1, 1)
    assert weyl.linear_dominant(rs, (0, 0)) == (0, 0)
    assert weyl.linear_dominant(rs, (2, 1)) == (2, 1)
    # The walk of (-1, 1, -5) passes (1, 0, -5) and (-4, 5, 0), where a dot
    # walk would stop, on its way to the dominant chamber.
    rs3 = build_root_system("A", 3)
    assert weyl.linear_dominant(rs3, (-1, 1, -5)) == (4, 1, 0)
    # The result is always in the same linear orbit.
    rng = random.Random(2)
    for _ in range(50):
        lam = tuple(rng.randint(-6, 6) for _ in range(3))
        dom = weyl.linear_dominant(rs3, lam)
        assert all(c >= 0 for c in dom)
        assert any(weyl.act(rs3, w, lam) == dom
                   for w in weyl.enumerate_elements(rs3))


@st.composite
def _system_and_regular_top(draw):
    family, rank = draw(st.sampled_from(
        [("A", rank) for rank in range(1, 7)] + [("B", 2)]))
    top = draw(st.tuples(*[st.integers(1, 6)] * rank))
    return build_root_system(family, rank), top


def _full_cap(rs, top):
    """rc(top) - rc(w0 top): the cap that keeps the whole orbit of top."""
    w0_top = tuple(-c for c in weyl.linear_dominant(rs, [-c for c in top]))
    drop = [a - b for a, b in zip(weight_to_root_coords(rs, top),
                                   weight_to_root_coords(rs, w0_top))]
    assert all(d.denominator == 1 for d in drop)
    return tuple(int(d) for d in drop)


@settings(max_examples=60, deadline=None, database=None)
@given(_system_and_regular_top())
def test_signed_orbit_matches_word_oracle(case):
    # The oracle builds every canonical word and applies it with ``act``.
    rs, top = case
    signed = list(weyl.signed_orbit(rs, top, _full_cap(rs, top)))
    assert len(signed) == weyl.order(rs)
    assert dict(signed) == oracles._alternating_orbit(rs, top)
    assert {img for img, _ in signed} == weyl.orbit(rs, top)


def test_signed_orbit_rejects_non_regular_top():
    rs = build_root_system("A", 2)
    with pytest.raises(NotDominant):
        list(weyl.signed_orbit(rs, (1, 0), (1, 0)))
    with pytest.raises(NotDominant):
        list(weyl.signed_orbit(rs, (2, -1), (1, 0)))


@pytest.mark.parametrize("family,rank", [("A", r) for r in range(1, 7)] + [("B", 2)])
def test_poincare_counts_and_order_match_words(family, rank):
    rs = build_root_system(family, rank)
    by_length: dict[int, int] = {}
    for word in weyl.enumerate_elements(rs):
        by_length[len(word)] = by_length.get(len(word), 0) + 1
    assert weyl.poincare_counts(rs) == by_length
    assert weyl.order(rs) == len(weyl.enumerate_elements(rs))


def test_order_a7_without_words(monkeypatch):
    def no_words(rs):
        raise AssertionError("enumerate_elements called")

    monkeypatch.setattr(weyl, "enumerate_elements", no_words)
    rs = build_root_system("A", 7)
    assert weyl.order(rs) == 40320
    # Sum of lengths: |W| times half the number of positive roots.
    assert sum(k * n for k, n in weyl.poincare_counts(rs).items()) == 40320 * 14
