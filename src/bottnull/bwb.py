"""Borel-Weil-Bott machinery: line cohomology, potential cohomology supports,
and the classical consistency checks (Euler characteristics; sums of distinct
positive roots, through Kostant's wedge profile or a seeded sample).

The potential support of H^k(X, E) collects, for each degree k, the dominant
weights w . chi with chi in the weight multiset of E and l(w) = k, together
with their accumulated multiplicities.  It bounds the actual cohomology of any
bundle whose associated graded has weight multiset chi(E).
"""

from __future__ import annotations

import random
from fractions import Fraction as Q

from . import _kernels, bundles, weyl
from ._record import Record
from .bundles import Expr, WeightMultiset, memoized, weights
from .errors import CheckFailed
from .repthy import FormalGModule
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
    evaluates and walks nothing.  Its weights come from ``weights`` and stay
    in the memo too, so ``weights``, ``mult_in`` and ``euler_characteristic``
    of the expression evaluate nothing either.  A ``WeightMultiset`` is
    answered afresh on every call and never stored.
    """
    if isinstance(expr, WeightMultiset):
        return _potential_support(rs, expr._data)
    return memoized(rs, "psupp", expr, lambda rs, expr: _potential_support(
        rs, weights(rs, expr)._data))


def _potential_support(rs: RootSystem,
                       data: dict[Weight, int]) -> PotentialSupport:
    # The walk answers None for a weight with a coordinate -1 (w + rho on a
    # wall) without walking it.
    return _bucket(data, _kernels.dot_walk_batch(list(data), rs.cartan))


def _bucket(data: dict[Weight, int], walked) -> PotentialSupport:
    """``data``'s multiplicities summed by walk result, one per weight."""
    acc: dict[int, dict[Weight, int]] = {}
    for mult, res in zip(data.values(), walked):
        if res is None:
            continue
        k, dom = res
        bucket = acc.setdefault(k, {})
        bucket[dom] = bucket.get(dom, 0) + mult
    return PotentialSupport(acc)


def alternating_module(ps: PotentialSupport) -> FormalGModule:
    """sum_k (-1)^k psupp_k: by Borel-Weil-Bott, the virtual G-module
    sum_p (-1)^p H^p(X, E) of the bundle E whose potential support is ps."""
    acc: dict[Weight, int] = {}
    for k in ps.degrees():
        for w, m in ps.multiset(k)._data.items():
            acc[w] = acc.get(w, 0) + (-m if k % 2 else m)
    return FormalGModule(acc)


def kostant_check(rs: RootSystem) -> tuple[int, ...]:
    """Verify that H^*(X, wedge^k n) is trivial^{#\\{l(w)=k\\}} in degree k
    for every k; return that profile, or raise CheckFailed at the first k
    that deviates.  Its weights are the -sum(S) over k-subsets S of the
    positive roots, so this checks every sum of distinct positive roots.
    One graded pass gives every layer, and each distinct weight is walked
    once."""
    layers = bundles.wedge_layers(rs, "n", len(rs.positive_roots))
    distinct = list(dict.fromkeys(w for layer in layers for w in layer))
    walked = dict(zip(distinct, _kernels.dot_walk_batch(distinct, rs.cartan)))
    counts = weyl.poincare_counts(rs)  # every length 0..#roots occurs
    for k, layer in enumerate(layers):
        view = _bucket(layer._data, map(walked.get, layer)).multiset_view()
        want = {k: {(0,) * rs.rank: counts[k]}}
        if view != want:
            raise CheckFailed(
                f"wedge^{k}(n) potential support {view!r} != {want!r} for "
                f"{rs.family}{rs.rank}")
    return tuple(counts[k] for k in range(len(layers)))


class DistinctRootsReport(Record):
    """Subsets checked, and the violating subsets (tuples of roots, in the
    order the check drew them)."""

    subsets_checked: int
    violations: tuple[tuple[Weight, ...], ...]


# Subsets drawn by the seeded sample of ``distinct_roots_check``.
SAMPLE_SIZE = 1024

# ``report`` runs ``kostant_check`` up to this many positive roots (A1-A5,
# B2) and samples above: A6's graded pass and walk (36,961 distinct sums)
# take 0.30-0.40 s in process on a 2-vCPU VM, a fifth of a cold run of every
# ``report``, and A7's pass exceeds ``bundles.COST_CAP``.
PROFILE_MAX_ROOTS = 15


def distinct_roots_check(rs: RootSystem, *, seed: int = 0) -> DistinctRootsReport:
    """Sums of distinct positive roots: -sum(S) never has nontrivial cohomology.

    For ``SAMPLE_SIZE`` subsets S, bit masks over the positive roots drawn
    with ``random.Random(seed)``, the line bundle of -sum(S) vanishes in all
    degrees or contributes the trivial module (its dominantization is 0).
    """
    roots = [r.fund_coords for r in rs.positive_roots]
    zero = (0,) * rs.rank
    rng = random.Random(seed)
    masks = [rng.getrandbits(len(roots)) for _ in range(SAMPLE_SIZE)]
    subsets = [tuple(r for i, r in enumerate(roots) if m >> i & 1) for m in masks]
    walked = _kernels.dot_walk_batch(
        [tuple(-sum(c) for c in zip(zero, *s)) for s in subsets], rs.cartan)
    violations = tuple(s for s, res in zip(subsets, walked)
                       if res is not None and res[1] != zero)
    return DistinctRootsReport(subsets_checked=len(subsets),
                               violations=violations)


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
    return alternating_module(ps).dimension(rs)


def highest_root_shift_norm(rs: RootSystem) -> Q:
    """(theta+rho, theta+rho) - (rho, rho) for the highest root theta.

    In type A_{n-1} this equals 2n (the doubled Coxeter number)."""
    theta = rs.highest_root.fund_coords
    shifted = tuple(t + 1 for t in theta)
    return invariant_form(rs, shifted, shifted) - invariant_form(rs, rs.rho, rs.rho)
