import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from conftest import rebuilt
from bottnull import bundles, bwb, repthy
from bottnull.bundles import (Atom, Line, Power, Sum, Sym, Tensor, Wedge,
                              WeightMultiset)
from bottnull.errors import (ExprSyntaxError, InvalidWeight, SizeCapExceeded,
                             UnknownAtom)
from bottnull.rootsys import MAX_COORD_DIGITS, build_root_system


def test_parse_atoms_and_precedence():
    e = bundles.parse("n + h * g^2")
    assert isinstance(e, Sum)
    assert e.terms[0] == Atom("n")
    prod = e.terms[1]
    assert isinstance(prod, Tensor)
    assert prod.factors == (Atom("h"), Power(Atom("g"), 2))


def test_parse_wedge_sym_line():
    e = bundles.parse("wedge^3(n) + sym^2(b) * L[-1,2]")
    assert e.terms[0] == Wedge(3, Atom("n"))
    assert e.terms[1].factors == (Sym(2, Atom("b")), Line((-1, 2)))


def test_parse_whitespace_and_parens():
    assert bundles.parse(" ( b ) ^ 2 ") == Power(Atom("b"), 2)
    assert bundles.parse("(n+h)*q") == Tensor((Sum((Atom("n"), Atom("h"))),
                                               Atom("q")))


def test_parse_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as err:
        bundles.parse("b + ")
    assert err.value.position == 4
    with pytest.raises(ExprSyntaxError):
        bundles.parse("wedge^(b)")        # missing exponent
    with pytest.raises(ExprSyntaxError):
        bundles.parse("b^-2")             # negative power
    with pytest.raises(ExprSyntaxError):
        bundles.parse("(b")               # unclosed paren
    with pytest.raises(ExprSyntaxError):
        bundles.parse("b b")              # trailing junk
    with pytest.raises(ExprSyntaxError):
        bundles.parse("")
    # More digits than Python converts from text.
    for text in ("b^" + "1" * 5000, "L[" + "1" * 5000 + ",0]"):
        with pytest.raises(ExprSyntaxError):
            bundles.parse(text)
    with pytest.raises(UnknownAtom) as err:
        bundles.parse("b * zz")
    assert err.value.name == "zz"


def test_line_coordinates_are_bounded_in_digits():
    widest = "-" + "9" * MAX_COORD_DIGITS
    assert bundles.parse(f"L[{widest},0]") == Line((int(widest), 0))
    with pytest.raises(ExprSyntaxError,
                       match="line coordinate has more than 100 digits "
                             r"\(at position 4\)"):
        bundles.parse("b*L[1" + "0" * MAX_COORD_DIGITS + ",0]")
    # The bound is for line coordinates only, not for exponents.
    assert bundles.parse("b^1" + "0" * 200) == Power(Atom("b"), 10 ** 200)


def test_unparse_round_trip():
    rng = random.Random(17)
    rs = build_root_system("A", 2)
    for _ in range(120):
        expr = _random_expr(rng, rank=2, depth=0)
        text = bundles.unparse(expr)
        again = bundles.parse(text)
        assert again == expr and bundles.unparse(again) == text
        assert bundles.weights(rs, again) == bundles.weights(rs, expr)


def test_unparse_keeps_the_parentheses_that_make_a_tree():
    # The text is the memo key of its tree, so two trees never share one.
    # A power of a power once printed "b^2^3", which does not parse, and a
    # grouped sum or tensor printed as the flat one.
    for text in ("(b^2)^3", "((b^2)^3)^4*L[1,2]^2", "wedge^2(b^2)^3",
                 "(b+n)+h", "b+(n+h)", "(b*n)*h", "b*(n*h)*(g*q)",
                 "(b+n)*h+g^2", "b*n^2+h"):
        assert bundles.unparse(bundles.parse(text)) == text
    assert bundles.unparse(bundles.parse("((b)^2)^3")) == "(b^2)^3"
    assert bundles.unparse(bundles.parse("(b*n)+(h^2)")) == "b*n+h^2"
    flat, grouped = bundles.parse("b+n+h"), bundles.parse("(b+n)+h")
    assert flat != grouped and bundles.unparse(flat) == "b+n+h"


def _random_expr(rng, rank, depth):
    choices = ["atom", "atom", "line", "power"]
    if depth < 2:
        choices += ["sum", "tensor", "wedge", "sym"]
    kind = rng.choice(choices)
    if kind == "atom":
        return Atom(rng.choice("nhbgq"))
    if kind == "line":
        return Line(tuple(rng.randint(-2, 2) for _ in range(rank)))
    if kind == "power":
        return Power(Atom(rng.choice("nhbg")), rng.randint(1, 3))
    if kind == "sum":
        return Sum(tuple(_random_expr(rng, rank, depth + 1)
                         for _ in range(rng.randint(2, 3))))
    if kind == "tensor":
        return Tensor(tuple(_random_expr(rng, rank, depth + 1)
                            for _ in range(2)))
    inner = _random_expr(rng, rank, depth + 1)
    k = rng.randint(1, 2)
    return Wedge(k, inner) if kind == "wedge" else Sym(k, inner)


def test_atom_weight_multisets():
    rs = build_root_system("A", 2)
    roots = [r.fund_coords for r in rs.positive_roots]
    n = bundles.weights(rs, "n")
    assert n == {tuple(-c for c in r): 1 for r in roots}
    h = bundles.weights(rs, "h")
    assert h == {(0, 0): 2}
    b = bundles.weights(rs, "b")
    assert b.get((0, 0)) == 2 and b.total_dim == 5
    q = bundles.weights(rs, "q")
    assert q == {tuple(r): 1 for r in roots}
    g = bundles.weights(rs, "g")
    assert g.total_dim == 8 and g.get((0, 0)) == 2


def test_line_weights_and_validation():
    rs = build_root_system("A", 2)
    assert bundles.weights(rs, "L[-6,3]") == {(-6, 3): 1}
    with pytest.raises(InvalidWeight):
        bundles.weights(rs, "L[1,2,3]")


def test_tensor_is_weight_convolution():
    rs = build_root_system("A", 2)
    bb = bundles.weights(rs, "b*b")
    b = bundles.weights(rs, "b")
    manual = {}
    for w1, m1 in b.counts.items():
        for w2, m2 in b.counts.items():
            key = (w1[0] + w2[0], w1[1] + w2[1])
            manual[key] = manual.get(key, 0) + m1 * m2
    assert bb == manual
    assert bb.total_dim == 25


def test_sum_and_power():
    rs = build_root_system("A", 2)
    assert bundles.weights(rs, "n+h+q") == bundles.weights(rs, "g")
    assert bundles.weights(rs, "n+h") == bundles.weights(rs, "b")
    gg = bundles.weights(rs, "g^2")
    assert gg == bundles.weights(rs, "g*g")
    assert bundles.weights(rs, "b^4").total_dim == 625


def test_wedge_and_sym_dimensions():
    rs = build_root_system("A", 3)
    n_dim = bundles.weights(rs, "n").total_dim
    assert n_dim == 6
    for k in range(8):
        wedge = bundles.weights(rs, f"wedge^{k}(n)")
        assert wedge.total_dim == math.comb(6, k)
        sym = bundles.weights(rs, f"sym^{k}(n)")
        assert sym.total_dim == math.comb(6 + k - 1, k)
    # Wedge beyond the dimension is empty.
    assert not bundles.weights(rs, "wedge^7(n)")


def test_wedge_sym_decompose_square():
    # E (x) E = Sym^2 E (+) Wedge^2 E as weight multisets.
    rs = build_root_system("B", 2)
    for expr in ["n", "b", "g", "n*n+h"]:
        square = bundles.weights(rs, f"({expr})*({expr})")
        split = bundles.weights(rs, f"sym^2({expr}) + wedge^2({expr})")
        assert square == split


def test_wedge_top_of_n_is_minus_two_rho():
    for family, rank in [("A", 3), ("B", 2)]:
        rs = build_root_system(family, rank)
        top = len(rs.positive_roots)
        ws = bundles.weights(rs, f"wedge^{top}(n)")
        assert ws == {tuple(-2 * c for c in rs.rho): 1}


def test_g_weights_invariant_under_simple_reflections():
    from bottnull import weyl
    for family, rank in [("A", 3), ("B", 2)]:
        rs = build_root_system(family, rank)
        g = bundles.weights(rs, "g")
        for i in range(1, rank + 1):
            reflected = {weyl.simple_reflection(rs, i, w): m
                         for w, m in g.counts.items()}
            assert g == reflected


_LINE_SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("A", 5), ("A", 7), ("B", 2)]
_COORD = st.one_of(st.integers(-4, 4), st.integers(-(1 << 70), 1 << 70))


@st.composite
def _sum_of_lines(draw):
    family, rank = draw(st.sampled_from(_LINE_SYSTEMS))
    lines = draw(st.lists(st.tuples(*[_COORD] * rank), min_size=1, max_size=5))
    lines += draw(st.lists(st.sampled_from(lines), max_size=2))  # repeats
    return build_root_system(family, rank), lines, draw(st.integers(0, 4))


@settings(max_examples=200, deadline=None, database=None)
@given(_sum_of_lines())
def test_wedge_and_sym_of_lines_match_combinations(case):
    # Index-expansion semantics: wedge^k picks k distinct summands, sym^k
    # picks k summands with repetition; each pick contributes its weight sum.
    rs, lines, k = case
    text = "+".join("L[" + ",".join(map(str, w)) + "]" for w in lines)
    for op, picks in (("wedge", itertools.combinations),
                      ("sym", itertools.combinations_with_replacement)):
        oracle = Counter(tuple(sum(w[i] for w in pick) for i in range(rs.rank))
                         for pick in picks(lines, k))
        assert bundles.weights(rs, f"{op}^{k}({text})") == dict(oracle)


def _trees(rank):
    """Expression trees of all seven node kinds over rank-``rank`` lines."""
    leaves = st.one_of(st.sampled_from([Atom(k) for k in bundles.ATOMS]),
                       st.tuples(*[_COORD] * rank).map(Line))
    k = st.integers(0, 3)
    return st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(lambda fs: Tensor(tuple(fs))),
        st.lists(kids, min_size=2, max_size=3).map(lambda ts: Sum(tuple(ts))),
        st.builds(Power, kids, k),
        st.builds(Wedge, k, kids),
        st.builds(Sym, k, kids)), max_leaves=5)


def _subexpressions(expr):
    yield expr
    for child in getattr(expr, "factors", getattr(expr, "terms", ())):
        yield from _subexpressions(child)
    for child in (getattr(expr, "base", None), getattr(expr, "inner", None)):
        if child is not None:
            yield from _subexpressions(child)


@st.composite
def _system_and_tree(draw):
    family, rank = draw(st.sampled_from([("A", 1), ("A", 2), ("B", 2), ("A", 3)]))
    return build_root_system(family, rank), draw(_trees(rank))


@settings(max_examples=300, deadline=None, database=None)
@given(_system_and_tree())
def test_weights_match_the_unpacked_oracle(case):
    # One packed width serves a whole evaluation, so it must bound every
    # subexpression: wide lines through sums, tensors, powers, wedge and sym.
    rs, expr = case
    # The oracle expands wedge and sym weight by weight.
    assume(all(bundles.dim(rs, e) <= 2000 for e in _subexpressions(expr)))
    assert bundles.weights(rs, expr) == oracles.expand_weights(rs, expr)


@settings(max_examples=300, deadline=None, database=None)
@given(_system_and_tree())
def test_psupp_drops_walls_like_the_unpacked_oracle(case):
    # psupp of an expression drops the weights with a coordinate -1 while
    # they are packed; psupp of a multiset hands every weight to the walk.
    rs, expr = case
    assume(all(bundles.dim(rs, e) <= 2000 for e in _subexpressions(expr)))
    cold = rebuilt(rs)
    oracle = WeightMultiset(oracles.expand_weights(rs, expr))
    assert bwb.psupp(cold, expr) == bwb.psupp(cold, oracle)


def test_power_past_the_cap_stops_after_six_convolutions(monkeypatch):
    # The look-ahead charge of a power assumes the accumulated multiset
    # stops growing, so b^9 on A7 is refused only before its seventh step.
    calls = []
    real = bundles._convolve_packed

    def counting(a, b):
        calls.append(len(a) * len(b))
        return real(a, b)

    monkeypatch.setattr(bundles, "_convolve_packed", counting)
    with pytest.raises(SizeCapExceeded):
        bundles.weights(build_root_system("A", 7), "b^9")
    assert len(calls) == 6


def test_structural_dim_matches_total_dim():
    rng = random.Random(23)
    rs = build_root_system("A", 2)
    for _ in range(60):
        expr = _random_expr(rng, rank=2, depth=1)
        assert bundles.dim(rs, expr) == bundles.weights(rs, expr).total_dim


def test_dim_shortcuts():
    rs = build_root_system("A", 5)
    assert bundles.dim(rs, "b") == 20
    assert bundles.dim(rs, "g") == 35
    assert bundles.dim(rs, "b^4") == 160000
    assert bundles.dim(rs, "wedge^3(g)") == math.comb(35, 3)
    assert bundles.dim(rs, "sym^4(n)") == math.comb(15 + 3, 4)


def test_weight_multiset_api():
    rs = build_root_system("A", 2)
    ws = bundles.weights(rs, "h")
    assert len(ws) == 1 and bool(ws)
    assert ws.support() == frozenset({(0, 0)})
    assert ws.sorted_items() == [((0, 0), 2)]
    assert ws.get((5, 5)) == 0
    empty = bundles.weights(rs, "wedge^9(n)")
    assert not empty and empty.total_dim == 0


def test_weight_map_is_a_zero_free_copy():
    from bottnull.repthy import FormalGModule
    for cls in (bundles.WeightMultiset, FormalGModule):
        zeros = {(1, 0): Fraction(0), (0, 0): 2, (0, 1): 0, (2, 0): -1}
        assert cls(zeros) == {(0, 0): 2, (2, 0): -1}
        data = {(0, 0): 2, (2, 0): -1}
        m = cls(data)
        data[(0, 0)] = 5
        data[(3, 3)] = 1
        del data[(2, 0)]
        assert m == {(0, 0): 2, (2, 0): -1}
        assert cls() == cls({}) == {}


@pytest.mark.parametrize("family,rank,text", [
    ("A", 7, "sym^12(g)"),                # dimension 2.2e13
    ("A", 7, "b^1000000000"),             # more convolution calls than the cap
    ("A", 2, "wedge^100000000(L[0,0])"),  # more layers than the cap
    ("A", 2, "sym^100000(g)"),            # quadratic layer loop
    ("A", 7, "h^6000"),                   # one weight, 5,071 digits of it
])
def test_cost_cap_refuses_before_running_away(family, rank, text):
    from bottnull import bwb, repthy
    rs = build_root_system(family, rank)
    for fn in (bundles.weights, bwb.psupp, bwb.euler_characteristic,
               lambda rs, text: repthy.mult_in(rs, text, (0,) * rs.rank)):
        with pytest.raises(SizeCapExceeded):
            fn(rs, text)
    if text == "sym^12(g)":
        # The ring's Newton walk never builds the weights of sym^12(g):
        # 78 Brauer-Klimyk steps over the 57 weights of g answer it.
        module = repthy.decompose(rs, text)
        dims = (m * repthy.weyl_dim(rs, w) for w, m in module.mults.items())
        assert sum(dims) == bundles.dim(rs, text) == 21_944_067_106_416
    else:
        with pytest.raises(SizeCapExceeded):
            repthy.decompose(rs, text)


def test_dim_refuses_past_the_digit_limit():
    # 35^2784 has 4299 digits and 35^2785 has 4301: the limit is exact.
    a7 = build_root_system("A", 7)
    assert bundles.dim(a7, "b^2784") == 35 ** 2784
    for text in ("b^2785", "b^1000000000", "b^2000*b^2000",
                 "wedge^100000000(b^2000)"):
        with pytest.raises(SizeCapExceeded):
            bundles.dim(a7, text)
    assert bundles.dim(a7, "sym^1000000000(g)") == math.comb(10 ** 9 + 62, 62)
    # sym^0 of the zero module is the trivial module; sym^k of it is zero.
    a2 = build_root_system("A", 2)
    for text, want in (("sym^0(wedge^2(L[0,0]))", 1),
                       ("sym^3(wedge^2(L[0,0]))", 0)):
        assert bundles.dim(a2, text) == bundles.weights(a2, text).total_dim == want


def test_cost_cap_charges_terms_not_dimension():
    # Dimension 30,035,125 but 160 distinct weights: cheap, so evaluated.
    rs = build_root_system("A", 2)
    text = "sym^2(wedge^2(b^3))"
    assert bundles.dim(rs, text) > bundles.COST_CAP
    assert bundles.weights(rs, text).total_dim == bundles.dim(rs, text)
    # The largest benchmark expression stays well under the cap.
    a7, b4 = build_root_system("A", 7), bundles.parse("b^4")
    pack, _ = bundles._packer(a7.rank, bundles._shape(a7, b4)[1])
    budget = bundles._Budget()
    bundles._eval(a7, b4, budget, pack)
    assert budget.spent < bundles.COST_CAP // 10


def test_zero_exponent_or_degree_is_trivial_without_evaluating(
        cold_memos, monkeypatch):
    a7 = build_root_system("A", 7)

    def evaluated(*args):
        raise AssertionError("an operand under a zero exponent was evaluated")

    monkeypatch.setattr(bundles, "_convolve_packed", evaluated)
    monkeypatch.setattr(bundles, "_graded_power", evaluated)
    trivial = {(0,) * 7: 1}
    # (b^9)^0: an operand past the cost cap is not evaluated, so not refused.
    for text in ("wedge^0(b^4)", "sym^0(b^4)", "(b^4)^0", "(b^9)^0",
                 "wedge^0(sym^0(b^9))"):
        assert bundles.weights(a7, text) == trivial
        assert repthy.decompose(a7, text) == trivial
    assert bundles.weights(a7, "(b^4)^0+wedge^0(g)") == {(0,) * 7: 2}
    # The structural pass still checks the operand: its line rank and its
    # printable dimension (7^6000 has more than 4300 digits).
    a2 = build_root_system("A", 2)
    for text in ("L[1,2,3]^0", "wedge^0(L[1,2,3])", "sym^0(L[1])"):
        with pytest.raises(InvalidWeight):
            bundles.weights(a2, text)
    with pytest.raises(SizeCapExceeded, match="decimal digits"):
        bundles.weights(a7, "(h^6000)^0")
