import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import rebuilt
from bottnull import bundles, bwb, weyl
from bottnull.bundles import WeightMultiset
from bottnull.errors import CheckFailed, InvalidWeight, SizeCapExceeded
from bottnull.rootsys import A_RANKS, build_root_system, coroot_pairing


def test_line_cohomology_dominant():
    rs = build_root_system("A", 2)
    res = bwb.line_cohomology(rs, (1, 1))
    assert res.concentrated and not res.vanishes
    assert res.degree == 0 and res.weight == (1, 1)


def test_line_cohomology_shifted_example():
    rs = build_root_system("A", 2)
    res = bwb.line_cohomology(rs, (-6, 3))
    assert (res.degree, res.weight) == (2, (3, 0))


def test_line_cohomology_singular():
    rs = build_root_system("A", 2)
    res = bwb.line_cohomology(rs, (-1, -1))
    assert res.vanishes and not res.concentrated
    assert res.degree is None and res.weight is None
    # -rho itself is singular
    assert bwb.line_cohomology(rs, (-1, 0)).vanishes


def test_line_cohomology_serre_duality_partner():
    # H^k(L(lambda)) = H^{N-k}(L(-2rho - lambda)) as dominantizations:
    # both walks meet the same dominant weight up to the duality flip.
    rs = build_root_system("A", 2)
    n_pos = len(rs.positive_roots)
    rng = random.Random(9)
    for _ in range(100):
        lam = tuple(rng.randint(-5, 5) for _ in range(2))
        dual = tuple(-2 - c for c in lam)
        a, b = bwb.line_cohomology(rs, lam), bwb.line_cohomology(rs, dual)
        assert a.vanishes == b.vanishes
        if not a.vanishes:
            assert a.degree + b.degree == n_pos
            # Dual weight: -w0(mu) where w0 reverses A2's diagram.
            assert b.weight == (a.weight[1], a.weight[0])


def test_singular_shift_certificates_type_a():
    # -2*alpha_i + rho is orthogonal to the coroot of the height-2 root
    # through alpha_i, so its line bundle vanishes in all degrees.
    for rank in range(2, 6):
        rs = build_root_system("A", rank)
        roots_by_rc = {r.root_coords: r for r in rs.positive_roots}
        for i in range(rank):
            lam = tuple(-2 * c for c in rs.positive_roots[i].fund_coords)
            assert bwb.line_cohomology(rs, lam).vanishes
            shifted = tuple(c + 1 for c in lam)
            neighbours = []
            for j in (i - 1, i + 1):
                if 0 <= j < rank:
                    rc = tuple(1 if k in (i, j) else 0 for k in range(rank))
                    neighbours.append(roots_by_rc[tuple(map(int, rc))]
                                      if rc in roots_by_rc else
                                      roots_by_rc[rc])
            assert neighbours
            assert any(coroot_pairing(rs, shifted, beta) == 0
                       for beta in neighbours)


def test_psupp_borel():
    rs = build_root_system("A", 2)
    ps = bwb.psupp(rs, "b")
    assert ps.degrees() == (0, 1)
    assert ps.multiset(0) == {(0, 0): 2}
    assert ps.multiset(1) == {(0, 0): 2}


def test_psupp_tensor_cube_rank2():
    rs = build_root_system("A", 2)
    ps = bwb.psupp(rs, "b^3")
    assert ps.support(2) == frozenset({(0, 0), (1, 1), (3, 0), (0, 3)})
    assert ps.multiset(2).get((1, 1)) == 6
    assert ps.multiset(3) == {(0, 0): 12, (1, 1): 1}
    assert ps.degrees() == (0, 1, 2, 3)


def test_psupp_additive_in_sums():
    rs = build_root_system("B", 2)
    combined = bwb.psupp(rs, "b^2 + n*n")
    left = bwb.psupp(rs, "b^2")
    right = bwb.psupp(rs, "n*n")
    for k in set(left.degrees()) | set(right.degrees()) | set(combined.degrees()):
        want = {}
        for src in (left, right):
            for w, m in src.multiset(k).counts.items():
                want[w] = want.get(w, 0) + m
        assert combined.multiset(k) == want


def test_psupp_of_line_bundle():
    rs = build_root_system("A", 2)
    ps = bwb.psupp(rs, "L[-6,3]")
    assert ps.degrees() == (2,)
    assert ps.multiset(2) == {(3, 0): 1}
    # Singular lines contribute nothing.
    assert bwb.psupp(rs, "L[-1,-1]").degrees() == ()


def test_kostant_profiles():
    assert [bwb.kostant_check(build_root_system("A", 2), k)
            for k in range(4)] == [1, 2, 2, 1]
    assert [bwb.kostant_check(build_root_system("A", 3), k)
            for k in range(7)] == [1, 3, 5, 6, 5, 3, 1]
    assert [bwb.kostant_check(build_root_system("B", 2), k)
            for k in range(5)] == [1, 2, 2, 2, 1]


def test_kostant_check_detects_mismatch(monkeypatch):
    rs = build_root_system("A", 2)
    counts = weyl.poincare_counts(rs)
    monkeypatch.setitem(counts, 1, 99)
    monkeypatch.setattr(weyl, "poincare_counts", lambda _: counts)
    with pytest.raises(CheckFailed):
        bwb.kostant_check(rs, 1)


def test_distinct_roots_exhaustive():
    for family, rank, subsets in [("A", 2, 8), ("B", 2, 16), ("A", 3, 64)]:
        rep = bwb.distinct_roots_check(build_root_system(family, rank))
        assert rep.exhaustive
        assert rep.subsets_checked == subsets
        assert rep.violations == ()


def test_distinct_roots_sampled():
    rs = build_root_system("A", 6)  # 21 positive roots: sampled path
    rep = bwb.distinct_roots_check(rs, seed=1, samples=200)
    assert not rep.exhaustive
    assert rep.subsets_checked == 200
    assert rep.violations == ()


def test_euler_line_values():
    rs = build_root_system("A", 2)
    assert bwb.euler_line(rs, (0, 0)) == 1
    assert bwb.euler_line(rs, (1, 1)) == 8           # adjoint
    assert bwb.euler_line(rs, (-1, -1)) == 0         # singular
    assert bwb.euler_line(rs, (-6, 3)) == 10         # degree 2, dim 10
    assert bwb.euler_line(rs, (-2, 1)) == -1         # degree 1, trivial


def test_euler_characteristic_values():
    for family, rank, e1, e2 in [("A", 2, 0, -1), ("A", 3, 0, -1),
                                 ("A", 5, 0, -1), ("B", 2, 0, 4)]:
        rs = build_root_system(family, rank)
        assert bwb.euler_characteristic(rs, "b") == e1
        assert bwb.euler_characteristic(rs, "b^2") == e2


def test_euler_cube_branch_values():
    for rank, want in [(2, 62), (3, -18), (4, 2), (5, 2), (6, 2)]:
        rs = build_root_system("A", rank)
        assert bwb.euler_characteristic(rs, "b^3") == want


def test_euler_from_psupp_consistency():
    rng = random.Random(31)
    exprs = ["b", "b^2", "n*q", "g", "wedge^2(b)", "sym^2(n)", "L[1,0]*n"]
    for family, rank in [("A", 2), ("B", 2)]:
        rs = build_root_system(family, rank)
        for text in exprs:
            expr = bundles.parse(text)
            assert bwb.euler_characteristic(rs, expr) == \
                bwb.euler_from_psupp(rs, bwb.psupp(rs, expr))


def test_highest_root_shift_norm_type_a():
    for rank in range(1, 8):
        rs = build_root_system("A", rank)
        assert bwb.highest_root_shift_norm(rs) == 2 * (rank + 1)
    assert bwb.highest_root_shift_norm(build_root_system("B", 2)) == 12


def test_potential_support_equality_and_views():
    rs = build_root_system("A", 2)
    ps = bwb.psupp(rs, "b")
    assert ps == bwb.psupp(rs, "n + h")
    assert ps.set_view() == {0: frozenset({(0, 0)}), 1: frozenset({(0, 0)})}
    assert ps.multiset_view() == {0: {(0, 0): 2}, 1: {(0, 0): 2}}
    assert ps.multiset(17) == {}
    assert ps.support(17) == frozenset()


def _flag_one_sum(monkeypatch, target):
    """Make the batch walk report -target as a nontrivial dominant weight.

    Its tests take ``cold_memos``: ``psupp`` reaches the patched walk only
    for an expression that no earlier test left in the answer memo."""
    real = weyl.dot_dominantize_batch
    seen = []

    def patched(rs, weights):
        weights = list(weights)
        seen.append(len(weights))
        out = real(rs, weights)
        bad = tuple(-c for c in target)
        return [(1, (1,) + (0,) * (rs.rank - 1)) if w == bad else res
                for w, res in zip(weights, out)]

    monkeypatch.setattr(weyl, "dot_dominantize_batch", patched)
    return seen


def _root_sum(rank, subset):
    return tuple(sum(r[j] for r in subset) for j in range(rank))


@pytest.mark.usefixtures("cold_memos")
def test_distinct_roots_maps_a_flagged_sum_to_its_subsets(monkeypatch):
    rs = build_root_system("A", 3)
    roots = [r.fund_coords for r in rs.positive_roots]
    target = _root_sum(3, roots[:2])  # also the sum of {alpha_1 + alpha_2}
    seen = _flag_one_sum(monkeypatch, target)
    rep = bwb.distinct_roots_check(rs)
    brute = [s for k in range(len(roots) + 1)
             for s in itertools.combinations(roots, k)
             if _root_sum(3, s) == target]
    assert len(brute) > 1
    assert sorted(rep.violations) == sorted(brute)
    assert rep.subsets_checked == 64 and rep.exhaustive
    # Every distinct sum is walked once, in one batch.
    distinct = {_root_sum(3, s) for k in range(len(roots) + 1)
                for s in itertools.combinations(roots, k)}
    assert seen == [len(distinct)]


@pytest.mark.usefixtures("cold_memos")
def test_distinct_roots_sampled_maps_a_flagged_sum(monkeypatch):
    rs = build_root_system("A", 6)
    n = len(rs.positive_roots)
    roots = [r.fund_coords for r in rs.positive_roots]
    rng = random.Random(9)  # the same draws as the check's seeded sample
    masks = [rng.getrandbits(n) for _ in range(300)]
    subsets = [tuple(roots[i] for i in range(n) if m >> i & 1) for m in masks]
    target = _root_sum(6, subsets[0])
    _flag_one_sum(monkeypatch, target)
    rep = bwb.distinct_roots_check(rs, seed=9, samples=300)
    assert not rep.exhaustive and rep.subsets_checked == 300
    assert list(rep.violations) == [s for s in subsets
                                   if _root_sum(6, s) == target]


@pytest.mark.usefixtures("cold_memos")
def test_distinct_roots_a5_walks_2932_sums(monkeypatch):
    seen = _flag_one_sum(monkeypatch, (99,) * 5)
    rep = bwb.distinct_roots_check(build_root_system("A", 5))
    assert rep.subsets_checked == 2 ** 15 and rep.violations == ()
    assert seen == [2932]


@pytest.mark.parametrize("family,rank", [("A", r) for r in range(1, 6)]
                         + [("B", 2)])
def test_distinct_roots_walks_each_subset_sum_once(monkeypatch, family, rank):
    """The exhaustive check's sums, built by closure over the roots, are
    exactly the sums of the subsets that ``itertools.combinations`` lists."""
    rs = build_root_system(family, rank)
    roots = [r.fund_coords for r in rs.positive_roots]
    oracle = {_root_sum(rank, s) for k in range(len(roots) + 1)
              for s in itertools.combinations(roots, k)}
    batches = []
    real = weyl.dot_dominantize_batch
    monkeypatch.setattr(weyl, "dot_dominantize_batch",
                        lambda rs, ws: batches.append(list(ws)) or real(rs, ws))
    rep = bwb.distinct_roots_check(rs)
    assert rep.exhaustive and rep.violations == ()
    assert rep.subsets_checked == 2 ** len(roots)
    [walked] = batches
    assert [tuple(-c for c in w) for w in walked] == sorted(oracle)


# ------------------------------------------------------------- answer memo

SYSTEMS = [("A", r) for r in A_RANKS] + [("B", 2)]
POOL = ("b", "b^2", "b^3", "g", "g^2", "n*q", "wedge^2(n)", "wedge^2(g)",
        "sym^2(q)", "sym^3(q)", "b^2+wedge^2(n)", "g+wedge^2(g)")


@st.composite
def _system_and_pool_expr(draw):
    """A supported root system and a pool expression of dimension at most
    2000 on it (``oracles.expand_weights`` expands wedge and sym pick by
    pick), or a line times ``b^k``."""
    family, rank = draw(st.sampled_from(SYSTEMS))
    rs = build_root_system(family, rank)
    line = "L[" + ",".join(map(str, draw(st.tuples(
        *[st.integers(-3, 3)] * rank)))) + "]"
    pool = [e for e in POOL if bundles.dim(rs, e) <= 2000]
    pool += [f"{line}*b^{k}" for k in (1, 2) if bundles.dim(rs, f"b^{k}") <= 2000]
    return family, rank, draw(st.sampled_from(pool))


@settings(max_examples=100, deadline=None, database=None)
@given(_system_and_pool_expr())
def test_memo_answers_match_the_unpacked_oracle(case):
    family, rank, text = case
    cold = rebuilt(build_root_system(family, rank))
    first = bwb.psupp(cold, text)
    assert bwb.psupp(cold, text) is first
    warm = bwb.psupp(build_root_system(family, rank), text)
    oracle = WeightMultiset(oracles.expand_weights(cold, bundles.parse(text)))
    assert first == warm == bwb.psupp(cold, oracle)


def test_text_and_parsed_expression_share_one_entry(cold_memos, monkeypatch):
    rs = build_root_system("A", 3)
    evaluated = []
    real = bundles.weights
    monkeypatch.setattr(bundles, "weights",
                        lambda rs, expr: evaluated.append(expr) or real(rs, expr))
    ps = bwb.psupp(rs, "b^2")
    assert bwb.psupp(rs, bundles.parse("b^2")) is ps
    assert bwb.psupp(rs, " b ^ 2 ") is ps
    assert evaluated == [bundles.parse("b^2")]
    assert rs.expr_memo == {("psupp", bundles.parse("b^2")): ps}
    # A different text for the same bundle is a different entry.
    assert bwb.psupp(rs, "(n+h)^2") == ps and len(rs.expr_memo) == 2


def test_memos_are_per_root_system(cold_memos):
    a2, b2 = build_root_system("A", 2), build_root_system("B", 2)
    assert a2.expr_memo is not b2.expr_memo
    # One key, two root systems: each answers its own.
    a, b = bwb.psupp(a2, "sym^2(q)"), bwb.psupp(b2, "sym^2(q)")
    assert a != b
    assert a2.expr_memo == {("psupp", bundles.parse("sym^2(q)")): a}
    assert b2.expr_memo == {("psupp", bundles.parse("sym^2(q)")): b}
    # A copy of a cached root system starts with an empty memo of its own.
    copy = rebuilt(a2)
    assert copy.expr_memo == {} and bwb.psupp(copy, "sym^2(q)") == a
    assert copy.expr_memo is not a2.expr_memo


def test_weight_multiset_bypasses_the_memo(cold_memos, monkeypatch):
    rs = build_root_system("A", 2)
    walks = []
    real = weyl.dot_dominantize_batch
    monkeypatch.setattr(weyl, "dot_dominantize_batch",
                        lambda rs, ws: walks.append(1) or real(rs, ws))
    ws = bundles.weights(rs, "b^2")
    assert bwb.psupp(rs, ws) == bwb.psupp(rs, ws) == bwb.psupp(rs, "b^2")
    assert len(walks) == 3 and len(rs.expr_memo) == 1
    assert bwb.psupp(rs, "b^2") == bwb.psupp(rs, ws) and len(walks) == 4


@pytest.mark.parametrize("rank,text,error", [
    (1, "b^3000000", SizeCapExceeded),  # refused before its first convolution
    (2, "b*L[1,0,0]", InvalidWeight),
])
def test_errors_are_raised_on_every_call_and_not_stored(cold_memos, rank, text,
                                                        error):
    rs = build_root_system("A", rank)
    for _ in range(2):
        with pytest.raises(error):
            bwb.psupp(rs, text)
    assert rs.expr_memo == {}
