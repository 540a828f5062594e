"""Finite-dimensional representation combinatorics: dimensions, characters,
multiplicities, decompositions.

``decompose`` of an expression works in the representation ring.  Only the
operands of the walk over the parsed tree are evaluated to weights, and
checked Weyl-invariant unless they are invariant by construction (built
from ``g``, ``h`` and zero lines); a tensor factor or power step is one
Brauer-Klimyk step (``_tensor_step``: the module's highest weights shifted
by the operand's weights and dominantized with sign), and ``wedge^k`` and
``sym^k`` share one Newton walk.  The walk adds weights on keys packed
once per expression, and unpacks only the sums it walks.  ``mult_in``
takes the alternating Weyl-group sum over the evaluated weights, an
independent route to the same multiplicities.  Full irreducible
characters use Freudenthal's recursion.  All are exact.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import product
from math import lcm

from . import bwb, weyl
from ._kernels._pykernels import _convolve_packed, _packer
from .bundles import (Atom, Expr, Line, Power, Sum, Sym, Tensor, Wedge,
                      WeightMultiset, _Budget, _eval, _shape, _WeightMap,
                      _weights, memoized, weights)
from .errors import CheckFailed, NotAGModule, NotDominant
from .rootsys import (RootSystem, Weight, invariant_form,
                      weight_to_root_coords, weyl_product)

# Weight terms charged to each Newton step of ``_newton`` on top of its
# pairs.  A step's fixed cost (a convolution call, a ``psupp`` build, an
# ``alternating_module``) is 38-46 us on A7 (``wedge^k(h^20)``, k = 50-200:
# one weight, one pair a step), about 100 times the 360-470 ns that
# ``bundles.weights`` of b^4, b*b*b*b*b and g^2*b^2 on A7 spends per charged
# term (in process on a 2-vCPU VM).  So ``COST_CAP`` bounds the time of a
# long Newton walk as it bounds that of an evaluation: the largest admitted
# A7 ``wedge^k(h^18)``, k = 314 (4,128 digits), takes about 3 s at that
# step cost; on packed keys its 49,455 steps take about 0.8 s.
NEWTON_STEP_TERMS = 100


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
    # s_i fixes w when w[i] == 0, and the map holds no zero counts, so only
    # the other reflections can fail; the first failing (w, s_i) is the
    # same as when every reflection is checked.
    get = ws._data.get
    support = rs.simple_root_support
    for w, m in ws._data.items():
        for i, col in enumerate(support):
            c = w[i]
            if c:
                img = list(w)
                for j, a in col:
                    img[j] -= c * a
                if get(tuple(img), 0) != m:
                    raise NotAGModule(
                        f"weight multiset is not Weyl-invariant at {w} (s_{i + 1})")


def _orbit_cap(rs: RootSystem, ws: WeightMultiset, mu: Weight) -> tuple[int, ...]:
    """How far each root coordinate of an image w(mu + rho) may lie below
    that of mu + rho while w(mu + rho) - rho is still in the support of ws:
    rc_i(mu) - min_nu rc_i(nu), floored.  The support is Weyl-invariant, so
    the minimum is -rc_i(-w0 lam) for a dominant lam in it.  Exact, in
    integers: root coordinates times the common denominator of the inverse
    Cartan matrix."""
    inv = rs._cartan_inverse
    den = lcm(*(q.denominator for row in inv for q in row))
    scaled = [[int(q * den) for q in row] for row in inv]

    def rc(weight):
        return [sum(a * c for a, c in zip(row, weight)) for row in scaled]

    deepest = [0] * rs.rank
    for lam in ws._data:
        if min(lam) >= 0:
            low = rc(weyl.linear_dominant(rs, [-c for c in lam]))
            deepest = list(map(max, deepest, low))
    return tuple((m + d) // den for m, d in zip(rc(mu), deepest))


def mult_in(rs: RootSystem, expr: Expr | str | WeightMultiset, mu: Weight) -> int:
    """Multiplicity of the irreducible with highest weight mu, by the
    alternating Weyl-group sum: sum of sign(w) * m(w(mu + rho) - rho) over
    the signed orbit of mu + rho, cut at the support's root-coordinate floor
    (``_orbit_cap``), below which every term is zero."""
    if any(c < 0 for c in mu):
        raise NotDominant(f"{mu} is not dominant")
    ws = expr if isinstance(expr, WeightMultiset) else weights(rs, expr)
    _check_invariant(rs, ws)
    get = ws._data.get
    top = tuple(c + 1 for c in mu)
    cap = _orbit_cap(rs, ws, mu)
    return sum(sign * get(tuple(c - 1 for c in img), 0)
               for img, sign in weyl.signed_orbit(rs, top, cap))


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
        for w, m in ps.multiset(k)._data.items():
            acc[w] = acc.get(w, 0) + sign * m
    return FormalGModule(acc)


def decompose(rs: RootSystem, expr: Expr | str | WeightMultiset) -> FormalGModule:
    """Decomposition into irreducibles of the G-module with the expression's
    weight multiset; sum of mult * weyl_dim equals the total dimension.

    An expression is decomposed in the representation ring (``_ring``).
    When one of its operands is not Weyl-invariant, the whole expression is
    evaluated and checked instead, so an invariant sum of non-invariant
    pieces (``n+q+h``) still decomposes, and ``NotAGModule`` names the first
    failing weight of the whole multiset.  The answer for an expression
    (text or parsed tree) is memoized per root system for the life of the
    process (``bundles.memoized``); ``NotAGModule`` is not stored.  A
    ``WeightMultiset`` is checked and decomposed on every call.
    """
    if isinstance(expr, WeightMultiset):
        return decompose_multiset(rs, expr)
    return memoized(rs, "decompose", expr, _decompose_expr)


def _decompose_expr(rs: RootSystem, expr: Expr) -> FormalGModule:
    try:
        return _ring(rs, expr, _Budget())
    except NotAGModule:
        # Evaluated afresh, like the ring's operands (see ``bundles._weights``).
        return decompose_multiset(rs, _weights(rs, expr, _Budget()))


# Packed keys.  A ring walk packs at one width (``_packer``): ``_shape``'s
# bound for the whole expression, or for ``tensor_power`` its module's
# largest |coordinate| plus k times its operand's.  A step unpacks only the
# sums lam + mu of a module entry lam and an operand weight mu, so every
# such sum must lie within that bound.  Two facts give it.  Each entry of
# the decomposition of a Weyl-invariant multiset M, genuine or virtual,
# lies in the convex hull of M's weights (the highest entry is a weight of
# M; take its character off and repeat), so within M's coordinate bound.
# And a constituent L(nu) of L(lam) (x) L(kappa) has nu = lam + a weight
# of L(kappa).  So the entries of module (x) V^s lie within the module's
# bound plus s times V's, those of Lambda^m V and S^m V within m times V's,
# and the weights of psi^j(V) within j times V's: the bounds add up as
# ``_shape`` adds them.

def _tensor_step(rs: RootSystem, module: FormalGModule, operand: dict,
                 packer) -> FormalGModule:
    """Brauer-Klimyk: for a Weyl-invariant V whose weights ``operand``
    holds on keys packed by ``packer`` (``_packer``'s pair),
    L(lam) (x) V = sum over the weights mu of V of m_V(mu) times the
    signed L(dot-dominant(lam + mu)).  L(0) (x) V is V: no convolution.
    The module's highest weights are packed, the sums unpacked."""
    pack, unpack = packer
    if module == {(0,) * rs.rank: 1}:
        sums = operand
    else:
        sums = _convolve_packed({pack(w): m for w, m in module._data.items()},
                                operand)
        if 0 in sums.values():  # cancelled virtual entries are not walked
            sums = {key: c for key, c in sums.items() if c}
    ws = WeightMultiset._adopt(dict(zip(unpack(sums), sums.values())))
    return decompose_multiset(rs, ws, check=False)


def tensor_power(rs: RootSystem, module: FormalGModule, ws: WeightMultiset,
                 k: int, budget: _Budget | None = None) -> FormalGModule:
    """module (x) V^{(x)k} in k ``_tensor_step``s, for a Weyl-invariant V
    with weights ``ws``, packed once for all k.  Charged as
    ``bundles.weights`` charges a power: k up front, then each step's
    pairs, refused early when the later steps, none smaller, would pass
    the cap."""
    def bound(m):
        return max((abs(c) for w in m._data for c in w), default=0)

    packer = _packer(rs.rank, bound(module) + k * bound(ws))
    operand = {packer[0](w): m for w, m in ws._data.items()}
    return _power(rs, module, operand, k,
                  _Budget() if budget is None else budget, packer)


def _power(rs: RootSystem, module: FormalGModule, operand: dict, k: int,
           budget: _Budget, packer) -> FormalGModule:
    """``tensor_power`` on a packed operand."""
    budget.charge(k)
    for step in range(k):
        pairs = len(module) * len(operand)
        budget.charge(pairs, ahead=pairs * (k - step - 1))
        module = _tensor_step(rs, module, operand, packer)
    return module


def _invariant_by_construction(expr: Expr) -> bool:
    """Built from ``g``, ``h`` and all-zero lines by ``+``, ``*``, ``^``,
    ``wedge`` and ``sym``: Weyl-invariant, as each of these keeps a
    Weyl-invariant weight multiset invariant."""
    if isinstance(expr, Atom):
        return expr.kind in ("g", "h")
    if isinstance(expr, Line):
        return not any(expr.coords)
    if isinstance(expr, (Sum, Tensor)):
        kids = expr.terms if isinstance(expr, Sum) else expr.factors
        return all(map(_invariant_by_construction, kids))
    if isinstance(expr, Power):
        return _invariant_by_construction(expr.base)
    return _invariant_by_construction(expr.inner)  # Wedge or Sym


def _operand(rs: RootSystem, expr: Expr, budget: _Budget, packer) -> dict:
    """The packed weights of an operand of the ring walk, checked
    Weyl-invariant unless it is invariant by construction."""
    pack, unpack = packer
    packed = _eval(rs, expr, budget, pack)
    if not _invariant_by_construction(expr):
        _check_invariant(rs, WeightMultiset._adopt(
            dict(zip(unpack(packed), packed.values()))))
    return packed


def _ring(rs: RootSystem, expr: Expr, budget: _Budget,
          packer=None) -> FormalGModule:
    """Decomposition of ``expr`` in the representation ring.  The walk
    enters a sum's terms and a product's first factor; every other node it
    meets gives one operand (a power its base, a wedge or sym its module,
    none at a zero exponent or degree), which ``_operand`` evaluates and
    checks once.  The top call runs ``_shape`` on the whole expression,
    which refuses it before any operand is evaluated, and packs at its
    bound (``packer``) for the whole walk."""
    if packer is None:
        packer = _packer(rs.rank, _shape(rs, expr)[1])
    if isinstance(expr, Sum):
        acc: dict[Weight, int] = {}
        for t in expr.terms:
            term = _ring(rs, t, budget, packer)
            budget.charge(len(term))
            for w, m in term._data.items():
                acc[w] = acc.get(w, 0) + m
        return FormalGModule(acc)
    if isinstance(expr, (Wedge, Sym)):
        return _newton(rs, expr, budget, packer)
    if isinstance(expr, Tensor):
        module = _ring(rs, expr.factors[0], budget, packer)
        factors = expr.factors[1:]
    else:  # a power or an operand: one factor of the trivial module
        module, factors = FormalGModule({(0,) * rs.rank: 1}), (expr,)
    for f in factors:
        base, k = (f.base, f.exponent) if isinstance(f, Power) else (f, 1)
        if k:  # base^0 is the trivial module: the base is not evaluated
            module = _power(rs, module, _operand(rs, base, budget, packer), k,
                            budget, packer)
    return module


def _newton(rs: RootSystem, expr: Wedge | Sym, budget: _Budget,
            packer) -> FormalGModule:
    """Lambda^k V and S^k V by Newton's identities,
    m Lambda^m V = sum_{j=1..m} (-1)^(j-1) psi^j(V) (x) Lambda^(m-j) V,
    m S^m V = sum_{j=1..m} psi^j(V) (x) S^(m-j) V,
    where psi^j(V) has the weights of V times j (its packed keys times j).
    Lambda^m V is zero for m > dim V and nonzero below, as S^m V is for
    V nonzero, so each of the k(k+1)/2 steps costs at least
    ``NEWTON_STEP_TERMS`` plus the distinct weights of V: that is the
    look-ahead."""
    k, wedge = expr.degree, isinstance(expr, Wedge)
    if not k:  # the trivial module: the operand is not evaluated
        return FormalGModule({(0,) * rs.rank: 1})
    ws = _operand(rs, expr.inner, budget, packer)
    budget.charge(k + 1)
    if wedge and k > sum(ws.values()):
        return FormalGModule()
    psi: list[dict] = []
    powers = [FormalGModule({(0,) * rs.rank: 1})]
    left = k * (k + 1) // 2
    for m in range(1, k + 1):
        psi.append({m * key: n for key, n in ws.items()})
        acc: dict[Weight, int] = {}
        for j in range(1, m + 1):
            left -= 1
            prev = powers[m - j]
            budget.charge(NEWTON_STEP_TERMS + len(prev) * len(ws),
                          ahead=(NEWTON_STEP_TERMS + len(ws)) * left)
            sign = -1 if wedge and not j % 2 else 1
            step = _tensor_step(rs, prev, psi[j - 1], packer)
            for w, c in step._data.items():
                acc[w] = acc.get(w, 0) + sign * c
        if any(c % m for c in acc.values()):
            raise CheckFailed(f"Newton's identity leaves a remainder mod {m} "
                              f"in {'wedge' if wedge else 'sym'}^{m}")
        powers.append(FormalGModule({w: c // m for w, c in acc.items()}))
    return powers[k]


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
