import random
from fractions import Fraction as Q

import pytest

import oracles
from bottnull import rootsys, weyl
from bottnull.errors import (InvalidWeight, NonIntegralWeight,
                             UnsupportedFamilyRank)
from bottnull.rootsys import (MAX_COORD_DIGITS, build_root_system,
                              format_weight, invariant_form,
                              parse_weight, root_to_weight,
                              weight_to_root_coords)


def test_supported_systems():
    for rank in range(1, 8):
        rs = build_root_system("A", rank)
        assert rs.rank == rank
        assert rs.dim_g == (rank + 1) ** 2 - 1
    rs = build_root_system("B", 2)
    assert rs.dim_g == 10


@pytest.mark.parametrize("family,rank", [("A", 0), ("A", 8), ("B", 3),
                                         ("C", 2), ("D", 4), ("B", 1)])
def test_unsupported_systems(family, rank):
    with pytest.raises(UnsupportedFamilyRank):
        build_root_system(family, rank)


def test_positive_root_counts():
    assert len(build_root_system("A", 2).positive_roots) == 3
    assert len(build_root_system("A", 5).positive_roots) == 15
    assert len(build_root_system("B", 2).positive_roots) == 4
    # A_{n-1} has n(n-1)/2 positive roots.
    for rank in range(1, 8):
        n = rank + 1
        assert len(build_root_system("A", rank).positive_roots) == n * (n - 1) // 2


def test_simple_roots_come_first_in_index_order():
    for family, rank in [("A", 3), ("A", 5), ("B", 2)]:
        rs = build_root_system(family, rank)
        for i in range(rank):
            rc = rs.positive_roots[i].root_coords
            assert rc == tuple(Q(1) if j == i else Q(0) for j in range(rank))


def test_cartan_matrices():
    rs = build_root_system("A", 2)
    assert rs.cartan == ((2, -1), (-1, 2))
    rs = build_root_system("B", 2)
    assert rs.cartan == ((2, -2), (-1, 2))
    rs = build_root_system("A", 3)
    assert rs.cartan == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))


SUPPORTED = [("A", rank) for rank in range(1, 8)] + [("B", 2)]


@pytest.mark.parametrize("family,rank", SUPPORTED)
def test_root_data_matches_sympy(family, rank):
    cartan, positive_count, order = oracles.sympy_root_data(family, rank)
    rs = build_root_system(family, rank)
    # sympy pairs <alpha_i, alpha_j^vee>; bottnull stores the transpose.
    # Either orientation is accepted, because B2's nodes are also labelled
    # the other way round (sympy's alpha_1 is long, bottnull's is short).
    assert cartan in (rs.cartan, tuple(zip(*rs.cartan)))
    assert len(rs.positive_roots) == positive_count
    assert weyl.order(rs) == order


def test_fundamental_coords_of_simple_roots_are_cartan_columns():
    for family, rank in [("A", 4), ("B", 2)]:
        rs = build_root_system(family, rank)
        for j in range(rank):
            col = tuple(rs.cartan[i][j] for i in range(rank))
            assert rs.positive_roots[j].fund_coords == col


@pytest.mark.parametrize("family,rank", SUPPORTED)
def test_simple_root_support_lists_nonzero_cartan_entries(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.simple_root_support) == rank
    for i, entries in enumerate(rs.simple_root_support):
        dense = [0] * rank
        for j, a in entries:
            dense[j] = a
        assert tuple(dense) == rs.positive_roots[i].fund_coords
        assert [j for j, _ in entries] == sorted({j for j, a in entries if a})
        assert (i, 2) in entries


def test_highest_roots():
    rs = build_root_system("A", 3)
    # theta = alpha_1 + alpha_2 + alpha_3, fundamental coords (1,0,1)
    assert rs.highest_root.root_coords == (1, 1, 1)
    assert rs.highest_root.fund_coords == (1, 0, 1)
    rs = build_root_system("B", 2)
    assert rs.highest_root.root_coords == (2, 1)
    assert rs.highest_root.fund_coords == (2, 0)


def test_rho_in_root_coordinates():
    # Half the sum of the positive roots equals rho = (1,...,1) in
    # fundamental coordinates.
    for family, rank in [("A", 3), ("A", 5), ("B", 2)]:
        rs = build_root_system(family, rank)
        half = [Q(0)] * rank
        for r in rs.positive_roots:
            for j in range(rank):
                half[j] += Q(r.root_coords[j], 2)
        assert weight_to_root_coords(rs, rs.rho) == tuple(half)
    assert weight_to_root_coords(build_root_system("A", 3), (1, 1, 1)) == \
        (Q(3, 2), 2, Q(3, 2))


def test_root_weight_round_trip():
    rs = build_root_system("A", 2)
    assert root_to_weight(rs, (Q(1), Q(0))) == (2, -1)
    for r in rs.positive_roots:
        assert root_to_weight(rs, r.root_coords) == r.fund_coords
        assert weight_to_root_coords(rs, r.fund_coords) == r.root_coords


def test_non_integral_root_coords_rejected():
    rs = build_root_system("A", 2)
    with pytest.raises(NonIntegralWeight):
        root_to_weight(rs, (Q(1, 3), Q(0)))


def test_invariant_form_b2():
    rs = build_root_system("B", 2)
    a1 = rs.positive_roots[0].fund_coords  # short
    a2 = rs.positive_roots[1].fund_coords  # long
    assert invariant_form(rs, a1, a1) == 2
    assert invariant_form(rs, a2, a2) == 4
    assert invariant_form(rs, a1, a2) == -2


def test_invariant_form_type_a_simply_laced():
    rs = build_root_system("A", 3)
    for r in rs.positive_roots:
        assert invariant_form(rs, r.fund_coords, r.fund_coords) == 2


def test_coroot_pairing_recovers_fundamental_coords():
    for family, rank in [("A", 3), ("B", 2)]:
        rs = build_root_system(family, rank)
        lam = tuple(range(1, rank + 1))
        for i in range(rank):
            assert oracles.coroot_pairing(
                rs, lam, rs.positive_roots[i]) == lam[i]


def test_coroot_pairing_highest_root():
    rs = build_root_system("A", 3)
    # <rho, theta^vee> = ht(theta) = 3 in type A
    assert oracles.coroot_pairing(rs, rs.rho, rs.highest_root) == 3


def test_parse_and_format_weights():
    rs = build_root_system("A", 2)
    assert parse_weight(rs, "f:-6,3") == (-6, 3)
    assert parse_weight(rs, "r:1,1") == (1, 1)
    assert parse_weight(rs, "r:2,1") == (3, 0)
    assert format_weight((-6, 3)) == "f:-6,3"
    with pytest.raises(InvalidWeight):
        parse_weight(rs, "f:1")          # wrong length
    with pytest.raises(InvalidWeight):
        parse_weight(rs, "x:1,2")        # unknown prefix
    with pytest.raises(InvalidWeight):
        parse_weight(rs, "f:1,a")        # not an integer
    with pytest.raises(NonIntegralWeight):
        parse_weight(rs, "r:1/3,0")      # not in the weight lattice
    with pytest.raises(InvalidWeight, match="expected 2 coordinates, got 3"):
        parse_weight(rs, "r:1,1,0")      # wrong length


@pytest.mark.parametrize("text", ["r:1e3000000,0", "r:1.5,0", "r: 1,0",
                                  "r:1_0,0", "r:1/-2,0", "r:\u0661,0", "r:,0",
                                  "r:1/0,0"])
def test_root_coordinates_are_signed_integers_or_fractions(text):
    with pytest.raises(InvalidWeight, match="bad root coordinates"):
        parse_weight(build_root_system("A", 2), text)


def test_weight_coordinates_are_bounded_in_digits():
    rs = build_root_system("A", 2)
    widest = "-" + "9" * MAX_COORD_DIGITS
    assert parse_weight(rs, f"f:{widest},0") == (int(widest), 0)
    assert parse_weight(rs, f"r:{widest},0") == (2 * int(widest), -int(widest))
    for text in ("f:1" + "0" * MAX_COORD_DIGITS + ",0",
                 "r:1/1" + "0" * MAX_COORD_DIGITS + ",0",
                 "f:" + "9" * 5000 + ",0"):
        with pytest.raises(InvalidWeight, match="more than 100 digits"):
            parse_weight(rs, text)


def test_describe():
    rs = build_root_system("B", 2)
    assert rs.describe() == {"family": "B", "rank": 2}


@pytest.mark.parametrize("family,rank", [("A", r) for r in range(1, 8)]
                         + [("B", 2)])
def test_weyl_product_matches_invariant_form_oracle(family, rank):
    rs = build_root_system(family, rank)
    rng = random.Random(rank)
    weights = [tuple(rng.randint(-5, 5) for _ in range(rank))
               for _ in range(150)]
    # Singular ones: a coordinate -1 puts lam + rho on a simple wall, and
    # (-3, 1, ..., 1) has lam + rho on the wall of alpha_1 + alpha_2 (type A)
    # or of 2 alpha_1 + alpha_2 (B2) only.
    weights += [(-1,) + w[1:] for w in weights[:20]]
    if rank >= 2:
        weights.append((-3,) + (1,) * (rank - 1))
    values = [rootsys.weyl_product(rs, lam) for lam in weights]
    assert values == [oracles.weyl_product_by_form(rs, lam) for lam in weights]
    assert 0 in values and any(values)
