import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import flag_one_sum, nested, rebuilt
from bottnull import _kernels, bundles, bwb, repthy, weyl
from bottnull._kernels import _pykernels
from bottnull.bundles import WeightMultiset
from bottnull.errors import (CheckFailed, ExprSyntaxError, InvalidWeight,
                             NotAGModule, SizeCapExceeded, UnknownAtom)
from bottnull.rootsys import A_RANKS, build_root_system


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
            assert any(oracles.coroot_pairing(rs, shifted, beta) == 0
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
    assert bwb.kostant_check(build_root_system("A", 2)) == (1, 2, 2, 1)
    assert bwb.kostant_check(build_root_system("A", 3)) == \
        (1, 3, 5, 6, 5, 3, 1)
    assert bwb.kostant_check(build_root_system("B", 2)) == (1, 2, 2, 2, 1)


def test_kostant_check_detects_mismatch(monkeypatch):
    rs = build_root_system("A", 2)
    counts = weyl.poincare_counts(rs)
    monkeypatch.setitem(counts, 1, 99)
    monkeypatch.setattr(weyl, "poincare_counts", lambda _: counts)
    with pytest.raises(CheckFailed, match=r"^wedge\^1\(n\) potential support"):
        bwb.kostant_check(rs)


@pytest.mark.parametrize("family,rank", [("A", r) for r in range(1, 5)]
                         + [("B", 2)])
def test_kostant_profile_matches_subset_sum_oracle(family, rank):
    """Each k-subset sum pushed through a Weyl-group search, never through
    the graded pass or the batch walk, gives the profile's count at weight
    0 in degree k and nothing else."""
    rs = build_root_system(family, rank)
    profile = bwb.kostant_check(rs)
    assert len(profile) == len(rs.positive_roots) + 1
    zero = (0,) * rank
    for k, count in enumerate(profile):
        assert oracles.psupp_by_enumeration(
            rs, oracles.subset_sum_counts(rs, k)) == {k: {zero: count}}


def test_distinct_roots_sampled():
    rs = build_root_system("A", 6)  # 21 positive roots: sampled path
    rep = bwb.distinct_roots_check(rs, seed=1)
    assert rep.subsets_checked == bwb.SAMPLE_SIZE
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


def test_psupp_views_sort_each_degree():
    # The buckets fill in the order the weights are walked; the views and
    # the repr (and so kostant_check's message) list them sorted.
    rs = build_root_system("A", 2)
    items = bundles.weights(rs, "g^2").sorted_items()
    shuffled = items[:]
    random.Random(5).shuffle(shuffled)
    ps = bwb.psupp(rs, WeightMultiset(dict(items)))
    mixed = bwb.psupp(rs, WeightMultiset(dict(shuffled)))
    assert mixed == ps and repr(mixed) == repr(ps)
    for k, counts in mixed.multiset_view().items():
        assert list(counts) == sorted(counts) == sorted(mixed.multiset(k).support())


@st.composite
def _multiset_and_shuffle(draw):
    """A root system of A1-A3 or B2, a random multiset of small weights
    (made Weyl-invariant by taking whole orbits, or not), and the same
    entries inserted in a shuffled order."""
    family, rank = draw(st.sampled_from([("A", 1), ("A", 2), ("A", 3), ("B", 2)]))
    rs = build_root_system(family, rank)
    weight = st.tuples(*[st.integers(-4, 4)] * rank)
    drawn = draw(st.lists(st.tuples(weight, st.integers(1, 3)),
                          min_size=1, max_size=8))
    invariant = draw(st.booleans())
    counts: dict = {}
    for w, m in drawn:
        for v in (weyl.orbit(rs, weyl.linear_dominant(rs, w)) if invariant
                  else (w,)):
            counts[v] = counts.get(v, 0) + m
    items = sorted(counts.items())
    return rs, invariant, items, draw(st.permutations(items))


@settings(max_examples=150, deadline=None, database=None)
@given(_multiset_and_shuffle())
def test_psupp_decompose_and_euler_agree_with_enumeration(case):
    rs, invariant, items, shuffled = case
    ws, mixed = WeightMultiset(dict(items)), WeightMultiset(dict(shuffled))
    oracle = oracles.psupp_by_enumeration(rs, dict(items))
    ps, ps_mixed = bwb.psupp(rs, ws), bwb.psupp(rs, mixed)
    assert ps.multiset_view() == oracle
    assert ps_mixed == ps and repr(ps_mixed) == repr(ps)
    signed: dict = {}
    for k, bucket in oracle.items():
        for w, m in bucket.items():
            signed[w] = signed.get(w, 0) + (-1) ** k * m
    module = bwb.alternating_module(ps)
    assert module == repthy.FormalGModule(signed)
    for src in (ws, mixed):
        # The signed walk and the potential support's alternating sum are
        # two implementations of one sum.
        walked = repthy._signed_walk(rs, list(src._data), src._data.values())
        assert walked == module
        if invariant:
            assert repthy.decompose_multiset(rs, src) == module
        assert bwb.euler_characteristic(rs, src) == module.dimension(rs)


@pytest.mark.parametrize("family,rank", [("A", r) for r in A_RANKS]
                         + [("B", 2)])
def test_psupp_of_b_powers_satisfies_serre_duality(family, rank):
    # The dual of b^k, with the weights -lam - 2 rho, is L[-2,...,-2]*(h+q)^k;
    # k runs up to the psupp goldens' b^4.
    rs = build_root_system(family, rank)
    line = ",".join(["-2"] * rank)
    for k in range(1, 5):
        assert bwb.psupp(rs, f"b^{k}").multiset_view() == oracles.serre_dual(
            rs, bwb.psupp(rs, f"L[{line}]*(h+q)^{k}")), k


def _root_sum(rank, subset):
    return tuple(sum(r[j] for r in subset) for j in range(rank))


@pytest.mark.parametrize("rank", [3, 5])
def test_kostant_check_fails_on_a_flagged_sum(monkeypatch, rank):
    rs = build_root_system("A", rank)
    roots = [r.fund_coords for r in rs.positive_roots]
    # The first sum of two subsets or more whose negation has no coordinate
    # -1: the check walks it.
    sums = [_root_sum(rank, s) for k in range(len(roots) + 1)
            for s in itertools.combinations(roots, k)]
    target = next(t for t in sums if 1 not in t and sums.count(t) > 1)
    first = min(k for k in range(len(roots) + 1)
                if tuple(-c for c in target) in oracles.subset_sum_counts(rs, k))
    flag_one_sum(monkeypatch, target)
    with pytest.raises(CheckFailed,
                       match=rf"^wedge\^{first}\(n\) potential support .* "
                             rf"for A{rank}$"):
        bwb.kostant_check(rs)


def _count_chamber_walks(monkeypatch):
    """Make the batch walk record the shifted weight of every chamber walk
    it starts; returns that list."""
    real = _pykernels.chamber_walk
    started = []
    monkeypatch.setattr(
        _pykernels, "chamber_walk", lambda mu, support, stop_at_wall=False: (
            started.append(tuple(mu)) or real(mu, support, stop_at_wall)))
    return started


def test_kostant_check_drops_wall_sums_before_the_walk(monkeypatch):
    # -(alpha_1 + alpha_2) = (-1, -1, 1) on A3 lies on a wall: the batch
    # walk answers it None without starting a chamber walk for it.
    rs = build_root_system("A", 3)
    roots = [r.fund_coords for r in rs.positive_roots]
    target = tuple(-c for c in _root_sum(3, roots[:2]))
    assert -1 in target
    started = _count_chamber_walks(monkeypatch)
    assert bwb.kostant_check(rs) == (1, 3, 5, 6, 5, 3, 1)
    assert tuple(c + 1 for c in target) not in started
    assert len(started) == 26


@pytest.mark.usefixtures("cold_memos")
def test_distinct_roots_sampled_maps_a_flagged_sum(monkeypatch):
    rs = build_root_system("A", 6)
    n = len(rs.positive_roots)
    roots = [r.fund_coords for r in rs.positive_roots]
    rng = random.Random(9)  # the same draws as the check's seeded sample
    masks = [rng.getrandbits(n) for _ in range(bwb.SAMPLE_SIZE)]
    subsets = [tuple(roots[i] for i in range(n) if m >> i & 1) for m in masks]
    target = _root_sum(6, subsets[0])
    flag_one_sum(monkeypatch, target)
    rep = bwb.distinct_roots_check(rs, seed=9)
    assert rep.subsets_checked == bwb.SAMPLE_SIZE
    assert list(rep.violations) == [s for s in subsets
                                   if _root_sum(6, s) == target]


def test_distinct_roots_a5_walks_1476_of_2932_sums(monkeypatch):
    """The A5 wedge profile's 2,932 distinct subset sums (8,072 weights
    over its 16 layers) go to the walk in one batch, which starts a chamber
    walk for the 1,476 with no coordinate -1."""
    rs = build_root_system("A", 5)
    layers = [oracles.subset_sum_counts(rs, k) for k in range(16)]
    assert sum(map(len, layers)) == 8072
    distinct = set().union(*layers)
    assert len(distinct) == 2932
    assert sum(-1 not in w for w in distinct) == 1476
    seen = flag_one_sum(monkeypatch, (99,) * 5)
    started = _count_chamber_walks(monkeypatch)
    assert bwb.kostant_check(rs) == (
        1, 5, 14, 29, 49, 71, 90, 101, 101, 90, 71, 49, 29, 14, 5, 1)
    assert seen == [2932] and len(started) == 1476


@pytest.mark.parametrize("family,rank", [("A", r) for r in range(1, 6)]
                         + [("B", 2)])
def test_distinct_roots_walks_each_subset_sum_once(monkeypatch, family, rank):
    """The wedge profile's one batch walk holds each sum of distinct positive
    roots that ``itertools.combinations`` lists, negated, exactly once."""
    rs = build_root_system(family, rank)
    roots = [r.fund_coords for r in rs.positive_roots]
    oracle = {_root_sum(rank, s) for k in range(len(roots) + 1)
              for s in itertools.combinations(roots, k)}
    batches = []
    real = _kernels.dot_walk_batch
    monkeypatch.setattr(_kernels, "dot_walk_batch",
                        lambda ws, cartan: batches.append(ws) or real(ws, cartan))
    bwb.kostant_check(rs)
    [walked] = batches
    assert sorted(tuple(-c for c in w) for w in walked) == sorted(oracle)


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
    real = bundles._weights
    monkeypatch.setattr(bundles, "_weights",
                        lambda rs, expr: evaluated.append(expr) or real(rs, expr))
    ps = bwb.psupp(rs, "b^2")
    assert bwb.psupp(rs, bundles.parse("b^2")) is ps
    assert bwb.psupp(rs, " b ^ 2 ") is ps
    assert evaluated == [bundles.parse("b^2")]
    # The answer, and the weights it was walked from.
    assert rs.expr_memo == {("psupp", "b^2"): ps,
                            ("weights", "b^2"): bundles.weights(rs, "b^2")}
    # A different text for the same bundle is a different entry.
    assert bwb.psupp(rs, "(n+h)^2") == ps and len(rs.expr_memo) == 4


def test_memos_are_per_root_system(cold_memos):
    a2, b2 = build_root_system("A", 2), build_root_system("B", 2)
    assert a2.expr_memo is not b2.expr_memo
    # One key, two root systems: each answers its own.
    a, b = bwb.psupp(a2, "sym^2(q)"), bwb.psupp(b2, "sym^2(q)")
    assert a != b
    assert a2.expr_memo[("psupp", "sym^2(q)")] is a
    assert b2.expr_memo[("psupp", "sym^2(q)")] is b
    assert a2.expr_memo.keys() == b2.expr_memo.keys() == {
        ("psupp", "sym^2(q)"), ("weights", "sym^2(q)")}
    # A copy of a cached root system starts with an empty memo of its own.
    copy = rebuilt(a2)
    assert copy.expr_memo == {} and bwb.psupp(copy, "sym^2(q)") == a
    assert copy.expr_memo is not a2.expr_memo


def test_weight_multiset_bypasses_the_memo(cold_memos, monkeypatch):
    rs = build_root_system("A", 2)
    walks = []
    real = _kernels.dot_walk_batch
    monkeypatch.setattr(_kernels, "dot_walk_batch",
                        lambda ws, cartan: walks.append(1) or real(ws, cartan))
    ws = bundles.weights(rs, "b^2")
    assert bwb.psupp(rs, ws) == bwb.psupp(rs, ws) == bwb.psupp(rs, "b^2")
    # The weights of b^2 and the answer of psupp for b^2: two entries.
    assert len(walks) == 3 and len(rs.expr_memo) == 2
    assert bwb.psupp(rs, "b^2") == bwb.psupp(rs, ws) and len(walks) == 4


def _count_parses(monkeypatch):
    """Start the text cache of ``memoized`` empty for one test and record
    the text of every parse; returns that list."""
    monkeypatch.setattr(bundles, "_canonical",
                        lru_cache(maxsize=None)(bundles._canonical.__wrapped__))
    parsed = []

    class Spy(bundles._Parser):
        def __init__(self, text):
            parsed.append(text)
            super().__init__(text)

    monkeypatch.setattr(bundles, "_Parser", Spy)
    return parsed


def test_repeats_of_a_text_parse_it_once(cold_memos, monkeypatch):
    parsed = _count_parses(monkeypatch)
    a3, b2 = build_root_system("A", 3), build_root_system("B", 2)
    answers = {}
    for _ in range(3):
        for rs in (a3, b2):
            for reader in (bundles.weights, bwb.psupp, repthy.decompose):
                out = reader(rs, "wedge^2(g)")
                assert answers.setdefault((rs.family, reader), out) is out
    assert parsed == ["wedge^2(g)"]
    assert a3.expr_memo.keys() == b2.expr_memo.keys() == {
        ("weights", "wedge^2(g)"), ("psupp", "wedge^2(g)"),
        ("decompose", "wedge^2(g)")}
    # Two texts of one tree: each parsed once, one entry between them.
    ws = bundles.weights(a3, "b^2")
    for _ in range(2):
        assert bundles.weights(a3, " b ^ 2 ") is bundles.weights(a3, "b^2") is ws
    assert parsed == ["wedge^2(g)", "b^2", " b ^ 2 "]
    assert ("weights", "b^2") in a3.expr_memo and len(a3.expr_memo) == 4


@pytest.mark.parametrize("text,error", [
    ("b^", ExprSyntaxError),
    ("b*x", UnknownAtom),
])
def test_texts_that_do_not_parse_raise_on_every_call(monkeypatch, text, error):
    parsed = _count_parses(monkeypatch)
    rs = build_root_system("A", 2)
    for reader in (bundles.weights, bwb.psupp, repthy.decompose):
        for _ in range(2):
            with pytest.raises(error):
                reader(rs, text)
    assert parsed == [text] * 6


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


# --------------------------------------------------------------- weights memo

@settings(max_examples=100, deadline=None, database=None)
@given(_system_and_pool_expr())
def test_weights_memo_matches_the_unpacked_oracle(case):
    family, rank, text = case
    cold = rebuilt(build_root_system(family, rank))
    first = bundles.weights(cold, text)
    assert bundles.weights(cold, text) is first
    warm = bundles.weights(build_root_system(family, rank), text)
    assert first == warm == oracles.expand_weights(cold, bundles.parse(text))


def test_weights_keep_one_entry_per_text_and_tree(cold_memos, monkeypatch):
    a3 = build_root_system("A", 3)
    evaluated = []
    real = bundles._weights
    monkeypatch.setattr(bundles, "_weights", lambda rs, expr: (
        evaluated.append(expr) or real(rs, expr)))
    ws = bundles.weights(a3, "b^2")
    assert bundles.weights(a3, bundles.parse("b^2")) is ws
    assert bundles.weights(a3, " b ^ 2 ") is ws
    assert evaluated == [bundles.parse("b^2")]
    assert a3.expr_memo == {("weights", "b^2"): ws}
    # One memo per root system, and a copy starts with an empty one.
    b2 = build_root_system("B", 2)
    assert bundles.weights(b2, "b^2") != ws
    assert b2.expr_memo.keys() == {("weights", "b^2")}
    copy = rebuilt(a3)
    assert bundles.weights(copy, "b^2") == ws
    assert bundles.weights(copy, "b^2") is not ws
    assert len(evaluated) == 3 and len(a3.expr_memo) == 1
    # A grouped sum is a tree, and an entry, of its own.
    flat = bundles.weights(a3, "b^2+n+h")
    assert bundles.weights(a3, "(b^2+n)+h") == flat
    assert len(evaluated) == 5 and len(a3.expr_memo) == 3


@pytest.mark.parametrize("rank,text,error", [
    (1, "b^3000000", SizeCapExceeded),  # refused before its first convolution
    (2, "b*L[1,0,0]", InvalidWeight),
])
def test_weights_errors_are_raised_on_every_call_and_not_stored(
        cold_memos, rank, text, error):
    rs = build_root_system("A", rank)
    for _ in range(2):
        with pytest.raises(error):
            bundles.weights(rs, text)
    assert rs.expr_memo == {}


def test_budgeted_weights_leave_the_memo_alone(cold_memos):
    rs = build_root_system("A", 2)
    ws = bundles._weights(rs, bundles.parse("b^2"))
    assert rs.expr_memo == {}
    assert bundles.weights(rs, "b^2") == ws and len(rs.expr_memo) == 1
    # decompose's fallback for a non-module reads and fills the weights
    # memo; its ring walk spent nothing of the weights' budget.
    with pytest.raises(NotAGModule):
        repthy.decompose(rs, "b^2")
    assert rs.expr_memo.keys() == {("weights", "b^2")}
    with pytest.raises(NotAGModule):
        repthy.decompose(rs, "b")
    assert rs.expr_memo.keys() == {("weights", "b^2"), ("weights", "b")}


READERS = {
    "weights": bundles.weights,
    "psupp": bwb.psupp,
    "decompose": repthy.decompose,
    "mult": lambda rs, expr: repthy.mult_in(rs, expr, (0, 0)),
}


@pytest.mark.parametrize("reader", list(READERS))
def test_two_parses_of_the_deepest_tree_stay_inside_the_recursion_limit(
        cold_memos, reader):
    # The second parse finds the first one's entry: decompose stores no
    # error but its fallback's weights, and psupp stores its weights too.
    # Two such trees compared node by node pass Python's default limit.
    rs = build_root_system("A", 2)
    ask = READERS[reader]
    trees = [bundles.parse(nested(100)) for _ in range(2)]
    if reader in ("decompose", "mult"):  # b plus trivial terms: no G-module
        for tree in trees:
            with pytest.raises(NotAGModule):
                ask(rs, tree)
    else:
        assert ask(rs, trees[0]) is ask(rs, trees[1])
    assert len(rs.expr_memo) == (2 if reader == "psupp" else 1)
