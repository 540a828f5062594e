"""Finite-dimensional representation combinatorics: dimensions, characters,
multiplicities, decompositions.

Two mechanisms with disjoint roles: multiplicities/decompositions use the
alternating Weyl-group sum (dot-action dominantization with sign), while full
irreducible characters use Freudenthal's recursion.  Both are exact.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import product

from . import bwb, weyl
from .bundles import Expr, WeightMultiset, _WeightMap, weights
from .errors import NotAGModule, NotDominant
from .rootsys import (RootSystem, Weight, invariant_form,
                      weight_to_root_coords, weyl_product)


class FormalGModule(_WeightMap):
    """Formal integer combination of irreducibles, keyed by highest weight.

    Multiplicities are usually positive; virtual (negative) entries can arise
    when decomposing Weyl-invariant multisets that are not genuine characters.
    Not a ``WeightMultiset``: a module is never taken for the weights of one.
    """

    __slots__ = ()

    @property
    def mults(self) -> dict[Weight, int]:
        return dict(self._data)

    def dimension(self, rs: RootSystem) -> int:
        return sum(m * weyl_dim(rs, w) for w, m in self._data.items())


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """Weyl dimension formula for a dominant integral weight."""
    if any(c < 0 for c in lam):
        raise NotDominant(f"{lam} is not dominant")
    return weyl_product(rs, lam)


def _check_invariant(rs: RootSystem, ws: WeightMultiset) -> None:
    counts = ws.counts
    for w, m in counts.items():
        for i in range(1, rs.rank + 1):
            if counts.get(weyl.simple_reflection(rs, i, w), 0) != m:
                raise NotAGModule(
                    f"weight multiset is not Weyl-invariant at {w} (s_{i})")


def mult_in(rs: RootSystem, expr: Expr | str | WeightMultiset, mu: Weight) -> int:
    """Multiplicity of the irreducible with highest weight mu, by the literal
    alternating Weyl-group sum: sum of sign(w) * m(w(mu + rho) - rho) over
    the signed orbit of mu + rho."""
    if any(c < 0 for c in mu):
        raise NotDominant(f"{mu} is not dominant")
    ws = expr if isinstance(expr, WeightMultiset) else weights(rs, expr)
    _check_invariant(rs, ws)
    # Key the multiplicities by weight + rho, so orbit images look up directly.
    shifted = {tuple(c + 1 for c in w): m for w, m in ws.counts.items()}
    get = shifted.get
    top = tuple(c + 1 for c in mu)
    return sum(sign * get(img, 0) for img, sign in weyl.signed_orbit(rs, top))


def invariant_dim(rs: RootSystem, expr: Expr | str | WeightMultiset) -> int:
    """Dimension of the invariant subspace (multiplicity of the trivial)."""
    return mult_in(rs, expr, (0,) * rs.rank)


def decompose_multiset(rs: RootSystem, ws: WeightMultiset, *,
                       check: bool = True) -> FormalGModule:
    """Alternating sum of the potential support: each weight lands on its
    dot-dominant representative with the sign of the walk length, so degree
    k of ``bwb.psupp`` contributes with sign (-1)^k."""
    if check:
        _check_invariant(rs, ws)
    return alternating_module(bwb.psupp(rs, ws))


def alternating_module(ps: bwb.PotentialSupport) -> FormalGModule:
    """sum_k (-1)^k psupp_k: by Borel-Weil-Bott, the virtual G-module
    sum_p (-1)^p H^p(X, E) of the bundle E whose potential support is ps."""
    acc: dict[Weight, int] = {}
    for k in ps.degrees():
        sign = -1 if k % 2 else 1
        for w, m in ps.multiset(k).sorted_items():
            acc[w] = acc.get(w, 0) + sign * m
    return FormalGModule(acc)


def decompose(rs: RootSystem, expr: Expr | str | WeightMultiset) -> FormalGModule:
    """Decomposition into irreducibles of the G-module with the expression's
    weight multiset; sum of mult * weyl_dim equals the total dimension."""
    ws = expr if isinstance(expr, WeightMultiset) else weights(rs, expr)
    return decompose_multiset(rs, ws, check=True)


def _dominant_character(rs: RootSystem, lam: Weight) -> dict[Weight, int]:
    """Freudenthal recursion: multiplicities of the dominant weights of L(lam)."""
    inv = weight_to_root_coords(rs, lam)
    bounds = [int(c) for c in inv]  # C^{-1} > 0 entrywise, so 0 <= c <= rc(lam)
    cols = rs.simple_fund_columns
    candidates = []
    for c in product(*(range(b + 1) for b in bounds)):
        mu = tuple(lam[i] - sum(c[j] * cols[j][i] for j in range(rs.rank))
                   for i in range(rs.rank))
        if all(x >= 0 for x in mu):
            candidates.append((sum(c), mu))
    candidates.sort()
    lam_norm = invariant_form(rs, tuple(x + 1 for x in lam),
                              tuple(x + 1 for x in lam))
    mults: dict[Weight, int] = {}
    for depth, mu in candidates:
        if depth == 0:
            mults[mu] = 1
            continue
        acc = Q(0)
        for root in rs.positive_roots:
            alpha = root.fund_coords
            k = 1
            while True:
                nu = tuple(mu[i] + k * alpha[i] for i in range(rs.rank))
                # stop once lam - nu leaves the positive root cone
                diff = weight_to_root_coords(
                    rs, tuple(lam[i] - nu[i] for i in range(rs.rank)))
                if any(d < 0 or d.denominator != 1 for d in diff):
                    break
                m_nu = mults.get(weyl.linear_dominant(rs, nu), 0)
                if m_nu:
                    acc += m_nu * invariant_form(rs, nu, alpha)
                k += 1
        mu_norm = invariant_form(rs, tuple(x + 1 for x in mu),
                                 tuple(x + 1 for x in mu))
        denom = lam_norm - mu_norm
        val = 2 * acc / denom
        assert val.denominator == 1 and val >= 0
        mults[mu] = int(val)
    return {w: m for w, m in mults.items() if m}


def irrep_character(rs: RootSystem, lam: Weight) -> WeightMultiset:
    """Full weight multiset of the irreducible L(lam) (Freudenthal + orbits)."""
    if any(c < 0 for c in lam):
        raise NotDominant(f"{lam} is not dominant")
    out: dict[Weight, int] = {}
    for mu, m in _dominant_character(rs, lam).items():
        for nu in weyl.orbit(rs, mu):
            out[nu] = m
    return WeightMultiset(out)
