import random

import pytest

import oracles
from bottnull import bundles, bwb, repthy
from bottnull.errors import NotAGModule, NotDominant
from bottnull.rootsys import build_root_system


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


def test_virtual_decompose_without_check():
    # Unchecked decomposition is the alternating dominantization: its
    # dimension equals the Euler characteristic of the expression.
    rs = build_root_system("A", 2)
    mod = repthy.decompose_multiset(rs, bundles.weights(rs, "b"), check=False)
    assert mod == {}  # chi(X, b) = 0: everything cancels or is singular
    mod = repthy.decompose_multiset(rs, bundles.weights(rs, "q"), check=False)
    assert mod == {(1, 1): 1}
    assert mod.dimension(rs) == bwb.euler_characteristic(rs, "q") == 8


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
