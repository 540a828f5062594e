"""Root-system data for the supported families.

Supported: A_rank for rank 1..7 (sl_{rank+1}) and B_2 (so_5).  Weights are
stored as integer tuples of fundamental coordinates; root coordinates are
exact ``Fraction`` tuples.  The Cartan matrix follows the convention
``cartan[i][j] = <alpha_j, alpha_i^vee>``, so column j holds the fundamental
coordinates of the simple root alpha_j.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from math import prod
from typing import Sequence

from ._record import Record
from .errors import NonIntegralWeight, UnsupportedFamilyRank
from .nullcone import _ENTRY, mat_inverse

Weight = tuple[int, ...]
RootCoords = tuple[Q, ...]

A_RANKS = range(1, 8)
B_RANKS = (2,)

# Most digits in one coordinate of a weight given as text.  With 100-digit
# coordinates, A7's Weyl product over 28 roots stays under about 2,900
# digits, inside Python's default int-to-text limit of 4,300.
MAX_COORD_DIGITS = 100

# One fundamental coordinate; a root coordinate is a ``nullcone._ENTRY``.
_INTEGER = re.compile(r"[+-]?[0-9]+")


class Root(Record):
    """A positive root in both coordinate systems."""

    root_coords: tuple[int, ...]
    fund_coords: Weight

    @property
    def height(self) -> int:
        return sum(self.root_coords)


def _cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    if family == "A":
        rows = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(rank)]
                for i in range(rank)]
        return tuple(tuple(r) for r in rows)
    # B2: alpha_1 short, alpha_2 long; <alpha_2, alpha_1^vee> = -2.
    return ((2, -2), (-1, 2))


def _positive_roots(cartan, rank):
    """Closure by root strings: level-by-level saturation from the simple roots."""
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    levels = {1: set(simple)}
    known = set(simple)
    height = 1
    while levels.get(height):
        nxt = set()
        for rc in levels[height]:
            for i in range(rank):
                # Pairing <beta, alpha_i^vee> from root coordinates (row i of cartan).
                pairing = sum(cartan[i][j] * rc[j] for j in range(rank))
                p = 0
                while tuple(c - (p + 1) * s for c, s in zip(rc, simple[i])) in known:
                    p += 1
                if p - pairing > 0:  # string extends above beta
                    up = tuple(c + s for c, s in zip(rc, simple[i]))
                    if up not in known:
                        nxt.add(up)
        if nxt:
            levels[height + 1] = nxt
            known |= nxt
        height += 1
    # Height, then leading simple-root index: alpha_1 before alpha_2, etc.
    return sorted(known, key=lambda rc: (sum(rc), tuple(-c for c in rc)))


class RootSystem(Record):
    """Immutable root-system descriptor for one supported family/rank."""

    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    symmetrizer: tuple[int, ...]  # d_i with (alpha_i, alpha_j) = d_i * cartan[i][j]

    @property
    def rho(self) -> Weight:
        return (1,) * self.rank

    @property
    def highest_root(self) -> Root:
        return self.positive_roots[-1]

    @property
    def dim_g(self) -> int:
        return 2 * len(self.positive_roots) + self.rank

    @cached_property
    def root_coord_bound(self) -> int:  # largest |fund coordinate| of a root
        return max(abs(c) for r in self.positive_roots for c in r.fund_coords)

    @cached_property
    def simple_fund_columns(self) -> tuple[Weight, ...]:
        """Fundamental coordinates of each simple root (Cartan column j)."""
        return tuple(tuple(self.cartan[i][j] for i in range(self.rank))
                     for j in range(self.rank))

    @cached_property
    def simple_root_support(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero ``(j, a)`` entries of each simple root's fundamental
        coordinates: reflecting in alpha_i changes only coordinates j of
        ``simple_root_support[i - 1]`` (i and its Dynkin neighbours)."""
        return tuple(tuple((j, a) for j, a in enumerate(col) if a)
                     for col in self.simple_fund_columns)

    @cached_property
    def expr_memo(self) -> dict[tuple[str, str], object]:
        """``bundles.memoized``'s answers on this root system: (kind, the
        expression's canonical text) -> the ``bundles.WeightMultiset`` of
        kind ``"weights"``, the ``bwb.PotentialSupport`` of kind ``"psupp"``
        or the ``repthy.FormalGModule`` of kind ``"decompose"``."""
        return {}

    @cached_property
    def _packed_atoms(self) -> dict[int, dict[str, dict[int, int]]]:
        """``bundles``' maps of the atoms on packed keys, per packing."""
        return {}

    @cached_property
    def _cartan_inverse(self) -> tuple[tuple[Q, ...], ...]:
        return mat_inverse(self.cartan)

    @cached_property
    def _weyl_chain(self) -> tuple[tuple[tuple[int, int], ...], int]:
        """Per non-simple positive root, in height order, ``(parent, j)``:
        the root is ``positive_roots[parent] + alpha_{j+1}``.  Also the
        product of (rho, alpha) over all positive roots."""
        index = {r.root_coords: k for k, r in enumerate(self.positive_roots)}
        steps = []
        for r in self.positive_roots[self.rank:]:
            rc = r.root_coords
            for j in range(self.rank):
                parent = rc[:j] + (rc[j] - 1,) + rc[j + 1:]
                if parent in index:
                    steps.append((index[parent], j))
                    break
        steps = tuple(steps)
        # (rho, alpha_j) = d_j.
        return steps, _chain_product(steps, self.symmetrizer)

    def describe(self) -> dict:
        return {"family": self.family, "rank": self.rank}


def _chain_product(steps, simple_pairings) -> int:
    """Product of (mu, alpha) over the positive roots, from the pairings
    (mu, alpha_j) with the simple roots and the chain ``steps``."""
    pairings = list(simple_pairings)
    for parent, j in steps:
        pairings.append(pairings[parent] + pairings[j])
    return prod(pairings)


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system, or raise UnsupportedFamilyRank."""
    if family == "A" and rank in A_RANKS:
        pass
    elif family == "B" and rank in B_RANKS:
        pass
    else:
        raise UnsupportedFamilyRank(
            f"unsupported root system {family}{rank}; "
            "supported: A1..A7 and B2")
    cartan = _cartan_matrix(family, rank)
    sym = (1,) * rank if family == "A" else (1, 2)
    roots = []
    for rc in _positive_roots(cartan, rank):
        fund = tuple(sum(cartan[i][j] * rc[j] for j in range(rank))
                     for i in range(rank))
        roots.append(Root(root_coords=rc, fund_coords=fund))
    return RootSystem(family=family, rank=rank, cartan=cartan,
                      positive_roots=tuple(roots), symmetrizer=sym)


def weight_to_root_coords(rs: RootSystem, weight: Sequence[int]) -> RootCoords:
    """Fundamental -> root coordinates (exact rationals)."""
    inv = rs._cartan_inverse
    return tuple(sum(inv[i][j] * weight[j] for j in range(rs.rank))
                 for i in range(rs.rank))


def root_to_weight(rs: RootSystem, coords: Sequence[Q | int]) -> Weight:
    """Root -> fundamental coordinates; raises NonIntegralWeight when fractional."""
    fund = [sum(Q(rs.cartan[i][j]) * Q(coords[j]) for j in range(rs.rank))
            for i in range(rs.rank)]
    if any(f.denominator != 1 for f in fund):
        raise NonIntegralWeight(f"root coordinates {tuple(map(str, coords))} "
                                "are not an integral weight")
    return tuple(int(f) for f in fund)


def invariant_form(rs: RootSystem, lam: Sequence[int], mu: Sequence[int]) -> Q:
    """W-invariant symmetric form, normalized so short roots have length^2 = 2.

    (lambda, mu) = sum_i rc(mu)_i * d_i * fund(lambda)_i, where (omega_i, alpha_j)
    = d_j * delta_ij.
    """
    rc_mu = weight_to_root_coords(rs, mu)
    return sum(rc_mu[i] * rs.symmetrizer[i] * lam[i] for i in range(rs.rank))


def weyl_product(rs: RootSystem, lam: Sequence[int]) -> int:
    """prod over positive roots alpha of (lam+rho, alpha) / (rho, alpha).

    Exact integer arithmetic.  Zero exactly when lam + rho lies on a wall;
    otherwise (-1)^l(w) dim L(w . lam) for the w that makes w . lam
    dominant, so dim L(lam) for dominant lam (Weyl dimension formula).
    """
    steps, den = rs._weyl_chain
    # (lam + rho, alpha_j) = d_j (lam + rho)_j, since (omega_i, alpha_j) =
    # d_j delta_ij; every other pairing is one addition along the chain.
    num = _chain_product(steps, [d * (c + 1) for d, c in zip(rs.symmetrizer, lam)])
    val, rem = divmod(num, den)
    assert rem == 0
    return val


def format_weight(weight: Sequence[int]) -> str:
    return "f:" + ",".join(str(c) for c in weight)


def format_root_coords(coords: Sequence[Q]) -> str:
    return "r:" + ",".join(str(c) for c in coords)


def parse_weight(rs: RootSystem, text: str) -> Weight:
    """Parse ``f:c1,...`` (fundamental, each ``[+-]digits``) or
    ``r:p/q,...`` (root coords, each ``[+-]digits(/digits)?``); a coordinate
    has at most ``MAX_COORD_DIGITS`` digits."""
    from .errors import InvalidWeight

    kind, parts = text[:2], text[2:].split(",")
    if kind not in ("f:", "r:"):
        raise InvalidWeight(f"weight must start with 'f:' or 'r:': {text!r}")
    if any(sum(map(str.isdigit, p)) > MAX_COORD_DIGITS for p in parts):
        raise InvalidWeight(
            f"a weight coordinate has more than {MAX_COORD_DIGITS} digits")
    pattern = _INTEGER if kind == "f:" else _ENTRY
    try:
        if not all(map(pattern.fullmatch, parts)):
            raise ValueError
        coords = tuple(map(int if kind == "f:" else Q, parts))
    except (ValueError, ZeroDivisionError):
        name = "fundamental" if kind == "f:" else "root"
        raise InvalidWeight(f"bad {name} coordinates: {text!r}") from None
    if len(coords) != rs.rank:
        raise InvalidWeight(
            f"expected {rs.rank} coordinates, got {len(coords)}: {text!r}")
    return coords if kind == "f:" else root_to_weight(rs, coords)
