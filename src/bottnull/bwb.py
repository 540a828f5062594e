"""Borel-Weil-Bott machinery: line cohomology, potential cohomology supports,
and the classical consistency checks (Kostant wedge profile, distinct-roots
vanishing, Euler characteristics).

The potential support of H^k(X, E) collects, for each degree k, the dominant
weights w . chi with chi in the weight multiset of E and l(w) = k, together
with their accumulated multiplicities.  It bounds the actual cohomology of any
bundle whose associated graded has weight multiset chi(E).
"""

from __future__ import annotations

import random
from fractions import Fraction as Q
from operator import add

from . import _kernels, bundles, weyl
from ._record import Record
from .bundles import Expr, WeightMultiset, memoized, weights
from .errors import CheckFailed
from .rootsys import RootSystem, Weight, invariant_form, weyl_product


class LineCohomology(Record):
    """BWB outcome for one line bundle: all-degrees vanishing (singular shifted
    weight) or a single irreducible in one degree."""

    vanishes: bool
    degree: int | None = None
    weight: Weight | None = None

    @property
    def concentrated(self) -> bool:
        return not self.vanishes


def line_cohomology(rs: RootSystem, lam: Weight) -> LineCohomology:
    """Cohomology of the line bundle with weight lam on the full flag variety."""
    res = weyl.to_dominant(rs, lam)
    if res.singular:
        return LineCohomology(vanishes=True)
    return LineCohomology(vanishes=False, degree=res.length, weight=res.dominant)


class PotentialSupport:
    """Per-degree dominant-weight multisets bounding cohomology."""

    __slots__ = ("_by_degree",)

    def __init__(self, by_degree: dict[int, dict[Weight, int]]):
        multisets = ((k, WeightMultiset(v)) for k, v in sorted(by_degree.items()))
        self._by_degree = {k: ms for k, ms in multisets if ms}

    def degrees(self) -> tuple[int, ...]:
        return tuple(self._by_degree)

    def multiset(self, degree: int) -> WeightMultiset:
        return self._by_degree.get(degree, WeightMultiset())

    def support(self, degree: int) -> frozenset[Weight]:
        return self.multiset(degree).support()

    def set_view(self) -> dict[int, frozenset[Weight]]:
        return {k: ms.support() for k, ms in self._by_degree.items()}

    def multiset_view(self) -> dict[int, dict[Weight, int]]:
        return {k: dict(ms.sorted_items()) for k, ms in self._by_degree.items()}

    def __eq__(self, other) -> bool:
        if isinstance(other, PotentialSupport):
            return self._by_degree == other._by_degree
        return NotImplemented

    def __repr__(self) -> str:
        return f"PotentialSupport({self.multiset_view()!r})"


def psupp(rs: RootSystem, expr: Expr | str | WeightMultiset) -> PotentialSupport:
    """Potential support of H^*(X, E): every weight of E pushed through BWB.

    The answer for an expression (text or parsed tree) is memoized per root
    system for the life of the process (``bundles.memoized``), so a repeat
    evaluates and walks nothing; a ``WeightMultiset`` is answered afresh on
    every call and never stored.
    """
    if isinstance(expr, WeightMultiset):
        return _potential_support(rs, expr)
    return memoized(rs, "psupp", expr, lambda rs, expr: _potential_support(
        rs, bundles.weights(rs, expr)))


def _potential_support(rs: RootSystem, ws: WeightMultiset) -> PotentialSupport:
    data = ws._data
    walked = _kernels.dot_walk_batch(list(data), rs.cartan)
    acc: dict[int, dict[Weight, int]] = {}
    for mult, res in zip(data.values(), walked):
        if res is None:
            continue
        k, dom = res
        bucket = acc.setdefault(k, {})
        bucket[dom] = bucket.get(dom, 0) + mult
    return PotentialSupport(acc)


def kostant_check(rs: RootSystem, k: int) -> int:
    """Verify H^i(X, wedge^k n) is trivial^{#\\{l(w)=k\\}} exactly at i = k.

    Returns the verified count; raises CheckFailed on any deviation.
    """
    ps = psupp(rs, f"wedge^{k}(n)")
    expected = weyl.poincare_counts(rs).get(k, 0)
    view = ps.multiset_view()
    want = {k: {(0,) * rs.rank: expected}} if expected else {}
    if view != want:
        raise CheckFailed(
            f"wedge^{k}(n) potential support {view!r} != {want!r} for "
            f"{rs.family}{rs.rank}")
    return expected


class DistinctRootsReport(Record):
    """Subsets checked, and the violating subsets (tuples of roots, in the
    order the check visited them)."""

    subsets_checked: int
    exhaustive: bool
    violations: tuple[tuple[Weight, ...], ...]


# Subsets drawn by the seeded sample of ``distinct_roots_check``.
SAMPLE_SIZE = 1024


def distinct_roots_check(rs: RootSystem, *, seed: int = 0) -> DistinctRootsReport:
    """Sums of distinct positive roots: -sum(S) never has nontrivial cohomology.

    For every subset S of the positive roots, the line bundle of -sum(S)
    either vanishes in all degrees or contributes the trivial module (its
    dominantization is 0).  Exhaustive when 2^{#roots} is small; otherwise
    ``SAMPLE_SIZE`` subsets drawn with ``random.Random(seed)``.  Subsets are
    bit masks over the positive roots, drawn once, and each distinct sum is
    dominantized once.  The exhaustive check builds the distinct sums by
    adding each root to every sum so far (A5: 2,932 sums for 32,768
    subsets); a subset's own sum is taken only for a sampled subset or to
    list the subsets of a flagged sum.
    """
    n_roots = len(rs.positive_roots)
    roots = [r.fund_coords for r in rs.positive_roots]
    zero = (0,) * rs.rank
    exhaustive = n_roots <= 15

    def subset(mask):
        return tuple(roots[i] for i in range(n_roots) if mask >> i & 1)

    def root_sum(chosen):
        return tuple(map(sum, zip(zero, *chosen)))

    if exhaustive:
        masks = range(1 << n_roots)
        sums = {zero}
        for root in roots:
            sums |= {tuple(map(add, total, root)) for total in sums}
    else:
        rng = random.Random(seed)
        masks = [rng.getrandbits(n_roots) for _ in range(SAMPLE_SIZE)]
        sums = {root_sum(subset(mask)) for mask in masks}
    distinct = sorted(sums)
    walked = _kernels.dot_walk_batch(
        [tuple(-c for c in total) for total in distinct], rs.cartan)
    bad = {total for total, res in zip(distinct, walked)
           if res is not None and res[1] != zero}
    violations = tuple(s for s in map(subset, masks)
                       if root_sum(s) in bad) if bad else ()
    return DistinctRootsReport(subsets_checked=len(masks),
                               exhaustive=exhaustive, violations=violations)


def euler_line(rs: RootSystem, lam: Weight) -> int:
    """Euler characteristic of a line bundle: Weyl-dimension product formula
    at lam + rho (zero exactly when the shifted weight is singular)."""
    return weyl_product(rs, lam)


def euler_characteristic(rs: RootSystem, expr: Expr | str | WeightMultiset) -> int:
    """chi(X, E) = sum over weights of E of the line Euler characteristics."""
    ws = expr if isinstance(expr, WeightMultiset) else weights(rs, expr)
    return sum(mult * euler_line(rs, w) for w, mult in ws._data.items())


def euler_from_psupp(rs: RootSystem, ps: PotentialSupport) -> int:
    """Alternating sum over the potential support (Weyl dimensions).

    Equals euler_characteristic of the originating expression: both reorganize
    the same signed sum.
    """
    from .repthy import alternating_module

    return alternating_module(ps).dimension(rs)


def highest_root_shift_norm(rs: RootSystem) -> Q:
    """(theta+rho, theta+rho) - (rho, rho) for the highest root theta.

    In type A_{n-1} this equals 2n (the doubled Coxeter number)."""
    theta = rs.highest_root.fund_coords
    shifted = tuple(t + 1 for t in theta)
    return invariant_form(rs, shifted, shifted) - invariant_form(rs, rs.rho, rs.rho)
