import random
from functools import lru_cache

import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

import oracles
from conftest import rebuilt
from bottnull import bundles, bwb, repthy, weyl
from bottnull.errors import (CheckFailed, InvalidWeight, NotAGModule,
                             NotDominant, SizeCapExceeded)
from bottnull.rootsys import A_RANKS, build_root_system


def test_weyl_dim_values():
    rs2 = build_root_system("A", 2)
    assert repthy.weyl_dim(rs2, (0, 0)) == 1
    assert repthy.weyl_dim(rs2, (1, 0)) == 3
    assert repthy.weyl_dim(rs2, (1, 1)) == 8
    assert repthy.weyl_dim(rs2, (3, 0)) == 10
    rs5 = build_root_system("A", 5)
    assert repthy.weyl_dim(rs5, (1, 0, 0, 0, 1)) == 35
    assert repthy.weyl_dim(rs5, (0, 0, 2, 0, 0)) == 175
    rsb = build_root_system("B", 2)
    assert repthy.weyl_dim(rsb, (0, 1)) == 5
    assert repthy.weyl_dim(rsb, (1, 0)) == 4
    assert repthy.weyl_dim(rsb, (2, 0)) == 10  # adjoint
    assert repthy.weyl_dim(rsb, (1, 1)) == 16
    assert repthy.weyl_dim(rsb, (0, 2)) == 14


def test_weyl_dim_rejects_non_dominant():
    rs = build_root_system("A", 2)
    with pytest.raises(NotDominant):
        repthy.weyl_dim(rs, (-1, 0))


def test_weyl_dim_matches_character_size():
    rng = random.Random(13)
    for family, rank in [("A", 2), ("A", 3), ("B", 2)]:
        rs = build_root_system(family, rank)
        for _ in range(6):
            lam = tuple(rng.randint(0, 2) for _ in range(rank))
            char = oracles.wcf_character(rs, lam)
            assert repthy.weyl_dim(rs, lam) == sum(char.values())


def test_irrep_character_matches_wcf_oracle():
    rng = random.Random(29)
    for family, rank in [("A", 2), ("A", 3), ("B", 2)]:
        rs = build_root_system(family, rank)
        seen = set()
        for _ in range(8):
            lam = tuple(rng.randint(0, 2) for _ in range(rank))
            if lam in seen:
                continue
            seen.add(lam)
            ours = repthy.irrep_character(rs, lam)
            assert ours.counts == oracles.wcf_character(rs, lam)


def test_irrep_character_adjoint():
    rs = build_root_system("A", 2)
    char = repthy.irrep_character(rs, (1, 1))
    assert char == bundles.weights(rs, "g").counts
    assert char.get((0, 0)) == 2


def test_irrep_character_rejects_non_dominant():
    with pytest.raises(NotDominant, match=r"\(0, -1\) is not dominant"):
        repthy.irrep_character(build_root_system("A", 2), (0, -1))


def test_mult_in_adjoint_square():
    rs = build_root_system("A", 2)
    assert repthy.mult_in(rs, "g*g", (1, 1)) == 2
    assert repthy.mult_in(rs, "g*g", (0, 0)) == 1
    assert repthy.mult_in(rs, "g*g", (2, 2)) == 1
    assert repthy.mult_in(rs, "g*g", (3, 0)) == 1
    assert repthy.mult_in(rs, "g*g", (5, 5)) == 0
    with pytest.raises(NotDominant):
        repthy.mult_in(rs, "g*g", (-1, 0))


def test_invariant_dims():
    for family, rank in [("A", 2), ("A", 3), ("A", 4)]:
        rs = build_root_system(family, rank)
        assert repthy.invariant_dim(rs, "g*g") == 1
        assert repthy.invariant_dim(rs, "g^3") == 2
    rsb = build_root_system("B", 2)
    assert repthy.invariant_dim(rsb, "g*g") == 1


def test_decompose_adjoint_square():
    rs = build_root_system("A", 2)
    mod = repthy.decompose(rs, "g*g")
    assert mod == {(0, 0): 1, (1, 1): 2, (3, 0): 1, (0, 3): 1, (2, 2): 1}
    assert mod.dimension(rs) == 64


def test_decompose_matches_stripping_oracle():
    rng = random.Random(41)
    exprs = ["g*g", "b*q", "n*n", "wedge^2(g)", "sym^2(g)", "g*L[1,1]"]
    for family, rank in [("A", 2), ("B", 2)]:
        rs = build_root_system(family, rank)
        for text in exprs:
            ws = bundles.weights(rs, text)
            try:
                want = oracles.stripping_decompose(rs, ws)
            except AssertionError:
                continue  # not a G-module (e.g. b*q over B2): skip
            mod = repthy.decompose(rs, text)
            assert mod == want, text


def test_decompose_random_g_module_exprs():
    rng = random.Random(59)
    atoms = ["g", "(n+h+q)", "wedge^2(g)", "sym^2(g)"]
    for _ in range(10):
        family, rank = rng.choice([("A", 2), ("A", 3), ("B", 2)])
        rs = build_root_system(family, rank)
        text = "*".join(rng.choice(atoms) for _ in range(rng.randint(1, 2)))
        ws = bundles.weights(rs, text)
        assert repthy.decompose(rs, text) == oracles.stripping_decompose(rs, ws)


def test_decompose_character_is_delta():
    rng = random.Random(61)
    for family, rank in [("A", 3), ("B", 2)]:
        rs = build_root_system(family, rank)
        for _ in range(5):
            lam = tuple(rng.randint(0, 2) for _ in range(rank))
            char = repthy.irrep_character(rs, lam)
            ws = bundles.WeightMultiset(char.counts)
            assert repthy.decompose_multiset(rs, ws) == {lam: 1}


def test_decompose_rejects_non_module():
    rs = build_root_system("A", 2)
    with pytest.raises(NotAGModule):
        repthy.decompose(rs, "b")
    with pytest.raises(NotAGModule):
        repthy.decompose(rs, "n")
    with pytest.raises(NotAGModule):
        repthy.mult_in(rs, "q*q*n", (0, 0))


def _drop_root(rs, text, root):
    counts = bundles.weights(rs, text).counts
    counts[root] -= 1
    return counts


def _add_weight(rs, text, weight):
    counts = bundles.weights(rs, text).counts
    counts[weight] = counts.get(weight, 0) + 1
    return counts


# The texts the check gave when it tried every s_i at every weight, before
# it skipped the reflections that fix a weight.  (0, 0, 5) and (0, 3) lie
# outside every orbit of g and are fixed by every s_i but the last.
@pytest.mark.parametrize("family,rank,build,where", [
    ("A", 3, lambda rs: _drop_root(rs, "g", (2, -1, 0)), "(1, 1, -1) (s_2)"),
    ("A", 3, lambda rs: _drop_root(rs, "g^2", (2, -1, 0)), "(1, 1, -1) (s_2)"),
    ("A", 3, lambda rs: _add_weight(rs, "g", (0, 0, 5)), "(0, 0, 5) (s_3)"),
    ("B", 2, lambda rs: _drop_root(rs, "g", (2, -1)), "(0, 1) (s_2)"),
    ("B", 2, lambda rs: _drop_root(rs, "g^2", (2, -1)), "(0, 1) (s_2)"),
    ("B", 2, lambda rs: _add_weight(rs, "g", (0, 3)), "(0, 3) (s_2)"),
])
def test_not_a_module_names_the_first_failing_reflection(family, rank, build,
                                                         where):
    rs = build_root_system(family, rank)
    ws = bundles.WeightMultiset(build(rs))
    for fn in (repthy.decompose, lambda rs, ws: repthy.mult_in(rs, ws, (0,) * rank)):
        with pytest.raises(NotAGModule) as err:
            fn(rs, ws)
        assert str(err.value) == f"weight multiset is not Weyl-invariant at {where}"


G_MODULE_EXPRS = ("g", "g^2", "g^3", "wedge^2(g)", "wedge^3(g)", "sym^2(g)",
                  "g+wedge^2(g)")


@lru_cache(maxsize=None)
def _module_counts(family, rank, text):
    return bundles.weights(build_root_system(family, rank), text).counts


def _first_non_invariant(rs, counts):
    """Oracle: the first (weight, s_i) in map order whose image count
    differs, trying every reflection at every weight."""
    for w, m in counts.items():
        for i in range(1, rs.rank + 1):
            if counts.get(weyl.simple_reflection(rs, i, w), 0) != m:
                return f"{w} (s_{i})"
    return None


@st.composite
def _module_minus_one_weight(draw):
    family, rank = draw(st.sampled_from([("A", 2), ("A", 3), ("A", 4), ("B", 2)]))
    text = draw(st.sampled_from(G_MODULE_EXPRS))
    counts = _module_counts(family, rank, text)
    # The zero weight is fixed by the whole group: only it may go unnoticed.
    moved = sorted(w for w in counts if any(w))
    weight = draw(st.sampled_from(moved))
    whole = draw(st.booleans())  # remove the weight, or one copy of it
    return build_root_system(family, rank), counts, weight, whole


@settings(max_examples=150, deadline=None, database=None)
@given(_module_minus_one_weight())
def test_module_passes_and_fails_without_any_one_weight(case):
    rs, counts, weight, whole = case
    repthy._check_invariant(rs, bundles.WeightMultiset(counts))
    broken = dict(counts)
    broken[weight] = 0 if whole else broken[weight] - 1
    broken = {w: m for w, m in broken.items() if m}
    with pytest.raises(NotAGModule) as err:
        repthy._check_invariant(rs, bundles.WeightMultiset(broken))
    where = _first_non_invariant(rs, broken)
    assert str(err.value) == f"weight multiset is not Weyl-invariant at {where}"


def test_virtual_decompose_without_check():
    # Unchecked decomposition is the alternating dominantization: its
    # dimension equals the Euler characteristic of the expression.
    rs = build_root_system("A", 2)
    mod = repthy.decompose_multiset(rs, bundles.weights(rs, "b"), check=False)
    assert mod == {}  # chi(X, b) = 0: everything cancels or is singular
    mod = repthy.decompose_multiset(rs, bundles.weights(rs, "q"), check=False)
    assert mod == {(1, 1): 1}
    assert mod.dimension(rs) == bwb.euler_characteristic(rs, "q") == 8


def test_tensor_step_with_cancelling_virtual_entries_leaves_no_zero():
    # (L(2) - L(0)) (x) g on A1: the convolved weights 2 and 0 cancel to
    # zero and must leave the map, as must every cancelled module entry.
    rs = build_root_system("A", 1)
    g = bundles.weights(rs, "g")
    step = repthy._tensor_step(rs, repthy.FormalGModule({(2,): 1, (0,): -1}), g)
    assert step == {(4,): 1, (0,): 1}
    # L(0) (x) (L[0] + L[-2]): degrees 0 and 1 both land on L(0) and cancel.
    ws = bundles.WeightMultiset({(0,): 1, (-2,): 1})
    assert repthy._tensor_step(rs, repthy.FormalGModule({(0,): 1}), ws)._data == {}


def test_size_cap():
    # One cap: decompose is bounded by the evaluation cost (39,380 weight
    # terms here), not by the module dimension, so A4 g^5 decomposes.
    # tests/test_bundles.py::test_cost_cap_refuses_before_running_away pins
    # the refusal of runaway input for decompose and mult_in.
    rs = build_root_system("A", 4)
    module = repthy.decompose(rs, "g^5")
    assert module.dimension(rs) == bundles.dim(rs, "g^5") == 7_962_624


def test_virtual_dimension_equals_euler_characteristic():
    # Two independent paths to chi: walk + Weyl dimension vs the exact
    # product formula on each line.
    rng = random.Random(67)
    for family, rank in [("A", 2), ("B", 2)]:
        rs = build_root_system(family, rank)
        for _ in range(20):
            lam = tuple(rng.randint(-3, 3) for _ in range(rank))
            ws = bundles.WeightMultiset({lam: 1, (0,) * rank: 2})
            mod = repthy.decompose_multiset(rs, ws, check=False)
            chi = sum(m * bwb.euler_line(rs, w) for w, m in ws.counts.items())
            assert mod.dimension(rs) == chi


def test_formal_module_is_not_a_weight_multiset():
    # One map type underneath, but a module keyed by highest weights never
    # equals, or passes for, the weight multiset with the same entries.
    data = {(1, 1): 1, (0, 0): 2}
    mod, ws = repthy.FormalGModule(data), bundles.WeightMultiset(data)
    assert mod != ws and ws != mod
    assert mod == data and ws == data
    assert mod == repthy.FormalGModule(dict(data))
    assert not isinstance(mod, bundles.WeightMultiset)
    assert repr(mod) == "FormalGModule({(0, 0): 2, (1, 1): 1})"
    assert repr(ws) == "WeightMultiset({(0, 0): 2, (1, 1): 1})"
    assert repr(repthy.FormalGModule({(1, 1): 0})) == "FormalGModule({})"
    rs = build_root_system("A", 2)
    with pytest.raises(TypeError):
        bwb.psupp(rs, mod)
    with pytest.raises(TypeError):
        repthy.mult_in(rs, mod, (0, 0))


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2)])
def test_decompose_multiset_matches_stripping_oracle(family, rank):
    # decompose_multiset reads psupp's buckets with sign (-1)^k; stripping
    # characters off the top is an independent route to the same module.
    rs = build_root_system(family, rank)
    for text in ("g^2", "wedge^2(g)"):
        ws = bundles.weights(rs, text)
        assert repthy.decompose_multiset(rs, ws) == \
            oracles.stripping_decompose(rs, ws), text
    # b^2*q is not a G-module: both routes refuse it, and the unchecked
    # alternating sum is its Euler characteristic.
    ws = bundles.weights(rs, "b^2*q")
    with pytest.raises(NotAGModule):
        repthy.decompose_multiset(rs, ws)
    with pytest.raises(AssertionError):
        oracles.stripping_decompose(rs, ws)
    virtual = repthy.decompose_multiset(rs, ws, check=False)
    assert virtual.dimension(rs) == bwb.euler_characteristic(rs, ws)


def test_formal_module_api():
    rs = build_root_system("A", 2)
    mod = repthy.decompose(rs, "g")
    assert mod.mults == {(1, 1): 1}
    assert mod.get((1, 1)) == 1 and mod.get((9, 9)) == 0
    assert mod.support() == frozenset({(1, 1)})
    assert mod.sorted_items() == [((1, 1), 1)]
    assert len(mod) == 1 and bool(mod)


def _g_times_irrep(rs, lam):
    from bottnull._kernels import convolve
    return bundles.WeightMultiset(convolve(
        repthy.irrep_character(rs, lam).counts, bundles.weights(rs, "g").counts))


def test_mult_in_matches_decompose_and_word_sum():
    # Three independent routes to one multiplicity: the signed orbit, the
    # dominantization pass of decompose, and every canonical word via dot.
    rng = random.Random(41)
    for family, rank in [("A", 2), ("A", 3), ("B", 2)]:
        rs = build_root_system(family, rank)
        lam = tuple(rng.randint(0, 2) for _ in range(rank))
        cases = [bundles.weights(rs, e) for e in ("g^2", "g^3", "wedge^2(g)")]
        cases.append(_g_times_irrep(rs, lam))
        for ws in cases:
            dec = repthy.decompose_multiset(rs, ws)
            for _ in range(12):
                mu = tuple(rng.randint(0, 4) for _ in range(rank))
                want = oracles.word_mult(rs, ws.counts, mu)
                assert repthy.mult_in(rs, ws, mu) == dec.get(mu) == want
            for mu in dec.support():
                assert repthy.mult_in(rs, ws, mu) == dec.get(mu)


def test_mult_in_builds_no_words(monkeypatch):
    from bottnull import weyl

    def forbidden(*args):
        raise AssertionError("word-based path used")

    rs = build_root_system("A", 4)
    ws = bundles.weights(rs, "g^3")
    monkeypatch.setattr(weyl, "enumerate_elements", forbidden)
    monkeypatch.setattr(weyl, "dot", forbidden)
    assert repthy.mult_in(rs, ws, (0,) * 4) == 2
    adjoint = (1, 0, 0, 1)
    assert repthy.mult_in(rs, ws, adjoint) == repthy.decompose(rs, "g^3").get(adjoint)


@st.composite
def _system_and_invariant_multiset(draw):
    family, rank = draw(st.sampled_from([("A", r) for r in A_RANKS] + [("B", 2)]))
    rs = build_root_system(family, rank)
    text = draw(st.sampled_from(("g*g", "g^3", "wedge^2(g)", None)))
    if text is None:
        # g tensor L(lam), lam a sum of at most two fundamental weights, so
        # Freudenthal stays cheap on A7.
        picks = draw(st.lists(st.integers(0, rank - 1), max_size=2))
        lam = tuple(picks.count(i) for i in range(rank))
        return rs, None, _g_times_irrep(rs, lam)
    return rs, text, bundles.weights(rs, text)


@settings(max_examples=40, deadline=None, database=None)
@given(_system_and_invariant_multiset(), st.data())
def test_mult_in_matches_the_unbounded_orbit_sum(case, data):
    # The cut sum against the whole signed orbit (tests/oracles.py) and the
    # dominantization pass of decompose, at a weight of the multiset and
    # at a dominant weight outside it.
    rs, text, ws = case
    dec = repthy.decompose(rs, text or ws)
    inside = data.draw(st.sampled_from(
        sorted(w for w in ws.counts if min(w) >= 0)))
    outside = data.draw(st.tuples(*[st.integers(0, 4)] * rs.rank).filter(
        lambda mu: mu not in ws.counts))
    for mu in (inside, outside):
        got = repthy.mult_in(rs, ws, mu)
        assert got == oracles.orbit_mult(rs, ws.counts, mu) == dec.get(mu)


def test_mult_in_walks_a_tenth_of_the_a7_orbit():
    # Invariants of g*g on A7: the cut keeps 268 of the 40,320 images.
    rs = build_root_system("A", 7)
    ws = bundles.weights(rs, "g*g")
    zero = (0,) * rs.rank
    cap = repthy._orbit_cap(rs, ws, zero)
    images = list(weyl.signed_orbit(rs, rs.rho, cap))
    assert len(images) < weyl.order(rs) // 10
    assert repthy.mult_in(rs, ws, zero) == oracles.orbit_mult(rs, ws.counts, zero) == 1


# ------------------------------------------------------------- answer memo

SYSTEMS = [("A", r) for r in A_RANKS] + [("B", 2)]
# Weyl-invariant pool expressions; sums and products of G-modules.
G_MODULE_POOL = ("g", "g^2", "g^3", "wedge^2(g)", "wedge^3(g)", "sym^2(g)",
                 "g+wedge^2(g)", "g*wedge^2(g)", "(n+h+q)^2+h")


@st.composite
def _system_and_module_expr(draw):
    family, rank = draw(st.sampled_from(SYSTEMS))
    rs = build_root_system(family, rank)
    pool = [e for e in G_MODULE_POOL if bundles.dim(rs, e) <= 2000]
    return family, rank, draw(st.sampled_from(pool))


@settings(max_examples=100, deadline=None, database=None)
@given(_system_and_module_expr())
def test_memo_decompositions_match_the_oracles(case):
    family, rank, text = case
    cold = rebuilt(build_root_system(family, rank))
    first = repthy.decompose(cold, text)
    assert repthy.decompose(cold, text) is first
    warm = repthy.decompose(build_root_system(family, rank), text)
    expanded = bundles.WeightMultiset(
        oracles.expand_weights(cold, bundles.parse(text)))
    assert first == warm == repthy.decompose(cold, expanded)
    assert first.dimension(cold) == expanded.total_dim
    if len(cold.positive_roots) <= 6:  # the oracle's Weyl sums grow with |W|
        assert first == oracles.stripping_decompose(cold, expanded)


def test_decompose_memo_checks_invariance_once(cold_memos, monkeypatch):
    rs = build_root_system("A", 3)
    checked = []
    real = repthy._check_invariant
    monkeypatch.setattr(repthy, "_check_invariant",
                        lambda rs, ws: checked.append(1) or real(rs, ws))
    mod = repthy.decompose(rs, "wedge^2(g)")
    assert repthy.decompose(rs, bundles.parse("wedge^2(g)")) is mod
    assert len(checked) == 1
    assert rs.expr_memo == {("decompose", bundles.parse("wedge^2(g)")): mod}
    # decompose and psupp keep separate entries for one expression.
    bwb.psupp(rs, "wedge^2(g)")
    assert len(rs.expr_memo) == 2
    # A weight multiset is checked and decomposed on every call, unstored.
    ws = bundles.weights(rs, "wedge^2(g)")
    assert repthy.decompose(rs, ws) == repthy.decompose(rs, ws) == mod
    assert len(checked) == 3 and len(rs.expr_memo) == 2


def test_decompose_memos_are_per_root_system(cold_memos):
    a2, b2 = build_root_system("A", 2), build_root_system("B", 2)
    a, b = repthy.decompose(a2, "g"), repthy.decompose(b2, "g")
    assert a == {(1, 1): 1} and b == {(2, 0): 1}
    assert a2.expr_memo == {("decompose", bundles.parse("g")): a}
    assert b2.expr_memo == {("decompose", bundles.parse("g")): b}


def test_non_module_is_refused_on_every_call(cold_memos):
    rs = build_root_system("A", 2)
    for _ in range(2):
        with pytest.raises(NotAGModule):
            repthy.decompose(rs, "b")
    assert rs.expr_memo == {}


def test_past_the_cap_is_refused_on_every_call(cold_memos):
    rs = build_root_system("A", 1)
    for _ in range(2):
        with pytest.raises(SizeCapExceeded):
            repthy.decompose(rs, "g^3000000")
    assert rs.expr_memo == {}


# ------------------------------------------------------ representation ring

def _leaves(rank, pure):
    zero = "L[" + ",".join(["0"] * rank) + "]"
    line = "L[" + ",".join(["1"] + ["0"] * (rank - 1)) + "]"
    invariant = ["g", "h", zero]
    # (n+q) is an invariant sum of two non-invariant atoms and a virtual
    # module: L(theta) minus rank copies of the trivial one.
    return invariant if pure else invariant + ["n", "q", "b", line, "(n+q)"]


def _tree(leaves):
    """Expression texts over ``*``, ``^``, ``+``, ``wedge^k`` and ``sym^k``."""
    def grow(kids):
        def join(op):
            return st.lists(kids, min_size=2, max_size=3).map(
                lambda ks: "(" + op.join(ks) + ")")
        return st.one_of(
            join("*"), join("+"),
            st.tuples(kids, st.integers(0, 3)).map(
                lambda a: f"({a[0]})^{a[1]}"),
            st.tuples(st.sampled_from(("wedge", "sym")), st.integers(0, 3),
                      kids).map(lambda a: f"{a[0]}^{a[1]}({a[2]})"))
    return st.recursive(st.sampled_from(leaves), grow, max_leaves=4)


@st.composite
def _system_and_tree(draw):
    family, rank = draw(st.sampled_from([("A", 1), ("A", 2), ("B", 2)]))
    pure = draw(st.booleans())  # only invariant leaves
    text = draw(_tree(_leaves(rank, pure)))
    assume(bundles.dim(build_root_system(family, rank), text) <= 400)
    return family, rank, text, pure


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(_system_and_tree())
@example(("A", 2, "wedge^3(n+q)*g", False))  # virtual, ring route
@example(("B", 2, "(n+q)^2+sym^2(n+q)", False))  # virtual, ring route
@example(("A", 2, "n+q+h", False))  # invariant, evaluated after a fallback
def test_ring_decompose_matches_the_oracles_on_random_trees(case):
    # Products, powers and wedges are decomposed in the representation ring;
    # the weights expanded one by one (no packing) and stripped character by
    # character are an independent route.  A virtual module (wedge^2(n+q))
    # has no stripping: its multiplicities come from the literal
    # alternating orbit sum instead.
    family, rank, text, pure = case
    rs = rebuilt(build_root_system(family, rank))
    expanded = oracles.expand_weights(rs, bundles.parse(text))
    where = _first_non_invariant(rs, bundles.weights(rs, text).counts)
    if where is not None:
        assert not pure
        with pytest.raises(NotAGModule) as err:
            repthy.decompose(rs, text)
        assert str(err.value) == f"weight multiset is not Weyl-invariant at {where}"
        return
    got = repthy.decompose(rs, text)
    if pure:  # every operand is invariant: the ring route answered
        assert repthy._ring(rs, bundles.parse(text), bundles._Budget()) == got
    assert got.dimension(rs) == sum(expanded.values())
    try:
        want = oracles.stripping_decompose(rs, expanded)
    except AssertionError:  # not a genuine module
        assert not pure
        dominant = {w for w in expanded if min(w) >= 0}
        for mu in sorted(dominant | got.support()):
            assert got.get(mu) == oracles.orbit_mult(rs, expanded, mu)
        return
    assert got == want


@pytest.mark.parametrize("family,rank,text", [
    ("A", 3, "b^2"),
    ("A", 2, "L[1,0]*g"),
    ("A", 2, "g*L[1,0]^2"),
    ("B", 2, "wedge^2(b)+q"),
    ("B", 2, "wedge^2(g)*n"),
    ("A", 2, "g+wedge^2(g)+sym^2(b)"),
])
def test_fallback_names_the_weight_of_the_evaluated_path(cold_memos, family,
                                                          rank, text):
    rs = build_root_system(family, rank)
    with pytest.raises(NotAGModule) as evaluated:
        repthy.decompose_multiset(rs, bundles.weights(rs, text))
    with pytest.raises(NotAGModule) as ring:
        repthy.decompose(rs, text)
    assert str(ring.value) == str(evaluated.value)


def test_invariant_sums_of_non_invariant_operands_decompose(cold_memos):
    a2 = build_root_system("A", 2)
    assert repthy.decompose(a2, "n+q+h") == repthy.decompose(a2, "g") == {(1, 1): 1}
    assert repthy.decompose(a2, "L[1,0]*L[-1,0]") == {(0, 0): 1}
    assert repthy.decompose(a2, "(n+q+h)*g") == repthy.decompose(a2, "g^2")


def test_a7_g_cubed_evaluates_only_g(cold_memos, monkeypatch):
    rs = build_root_system("A", 7)
    evaluated = []
    real = repthy.weights
    monkeypatch.setattr(repthy, "weights", lambda rs, expr, *budget: (
        evaluated.append(expr) or real(rs, expr, *budget)))
    module = repthy.decompose(rs, "g^3")
    assert evaluated == [bundles.parse("g")]
    assert module.dimension(rs) == bundles.dim(rs, "g^3") == 63 ** 3
    assert module.get((0,) * 7) == repthy.invariant_dim(rs, "g^3") == 2


@pytest.mark.parametrize("rank,text", [
    (1, "g^3000000"),                # the look-ahead of the first step
    (2, "wedge^100000000(L[0,0])"),  # the degree, charged up front
    # One weight of multiplicity 7^20: 8,002,000 Newton steps ahead.
    (7, "wedge^4000(h^20)"),
])
def test_ring_refuses_before_any_tensor_step(cold_memos, monkeypatch, rank,
                                             text):
    steps = []
    real = repthy._tensor_step
    monkeypatch.setattr(repthy, "_tensor_step",
                        lambda *args: steps.append(1) or real(*args))
    with pytest.raises(SizeCapExceeded):
        repthy.decompose(build_root_system("A", rank), text)
    assert steps == []


class _FirstStep(Exception):
    pass


@pytest.mark.parametrize("k,admitted", [(314, True), (315, False)])
def test_newton_steps_are_charged_a_fixed_cost(cold_memos, monkeypatch, k,
                                               admitted):
    """A7 wedge^k(h^20): one weight, so each of the k(k+1)/2 Newton steps
    costs NEWTON_STEP_TERMS plus one pair.  With the operand's 40 terms and
    the k + 1 charged up front, k = 314 fits under COST_CAP and k = 315 is
    refused before its first tensor step."""
    step = repthy.NEWTON_STEP_TERMS
    charged = 40 + (k + 1) + (step + 1) * (k * (k + 1) // 2)
    assert (charged <= bundles.COST_CAP) == admitted
    steps = []

    def first_step(*args):
        steps.append(1)
        raise _FirstStep

    monkeypatch.setattr(repthy, "_tensor_step", first_step)
    expected = _FirstStep if admitted else SizeCapExceeded
    with pytest.raises(expected):
        repthy.decompose(build_root_system("A", 7), f"wedge^{k}(h^20)")
    assert steps == ([1] if admitted else [])


def test_zero_exponent_and_degree_still_evaluate_the_operand(cold_memos):
    rs = build_root_system("A", 2)
    for text in ("L[1,2,3]^0", "wedge^0(L[1,2,3])", "g*L[1,2,3]^0"):
        with pytest.raises(InvalidWeight):
            repthy.decompose(rs, text)
    assert repthy.decompose(rs, "g^0") == repthy.decompose(rs, "wedge^0(b)") \
        == {(0, 0): 1}


def test_wedge_past_the_dimension_is_zero_and_newton_checks_its_division(
        cold_memos, monkeypatch):
    rs = build_root_system("A", 2)
    assert repthy.decompose(rs, "wedge^9(g)") == {}
    assert repthy.decompose(rs, "wedge^8(g)") == {(0, 0): 1}
    # A step off by one irreducible leaves a remainder in wedge^2 = (psi^1
    # (x) wedge^1 - psi^2) / 2.
    real = repthy._tensor_step

    def off_by_one(rs, module, ws):
        out = dict(real(rs, module, ws).mults)
        out[(0, 0)] = out.get((0, 0), 0) + 1
        return repthy.FormalGModule(out)
    monkeypatch.setattr(repthy, "_tensor_step", off_by_one)
    with pytest.raises(CheckFailed, match="remainder mod 2 in wedge"):
        repthy.decompose(build_root_system("B", 2), "wedge^2(g)")
