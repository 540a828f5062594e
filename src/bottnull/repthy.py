"""Finite-dimensional representation combinatorics: dimensions, characters,
multiplicities, decompositions.

``decompose`` of an expression works in the representation ring.  Only the
operands of the walk over the parsed tree are evaluated to weights and
checked Weyl-invariant; a tensor factor or power step is one Brauer-Klimyk
step (``_tensor_step``: the module's highest weights shifted by the
operand's weights and dominantized with sign), and ``wedge^k`` follows
Newton's identity.  ``mult_in`` takes the alternating Weyl-group sum over
the evaluated weights, an independent route to the same multiplicities.
Full irreducible characters use Freudenthal's recursion.  All are exact.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import product
from math import lcm

from . import _kernels, bwb, weyl
from .bundles import (Expr, Power, Sum, Tensor, Wedge, WeightMultiset,
                      _Budget, _WeightMap, memoized, weights)
from .errors import CheckFailed, NotAGModule, NotDominant
from .rootsys import (RootSystem, Weight, invariant_form,
                      weight_to_root_coords, weyl_product)

# Weight terms charged to each Newton step of ``_wedge`` on top of its
# pairs.  A step's fixed cost (a convolution call, a ``psupp`` build, an
# ``alternating_module``) is 38-46 us on A7 (``wedge^k(h^20)``, k = 50-200:
# one weight, one pair a step), about 100 times the 360-470 ns that
# ``bundles.weights`` of b^4, b*b*b*b*b and g^2*b^2 on A7 spends per charged
# term (in process on a 2-vCPU VM).  So ``COST_CAP`` bounds the time of a
# long Newton walk as it bounds that of an evaluation: the largest admitted
# A7 ``wedge^k(h^20)``, k = 314, takes about 2.2 s.
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
        return decompose_multiset(rs, weights(rs, expr))


def _tensor_step(rs: RootSystem, module: FormalGModule,
                 ws: WeightMultiset) -> FormalGModule:
    """Brauer-Klimyk: for a Weyl-invariant V with weights ``ws``,
    L(lam) (x) V = sum over the weights mu of V of m_V(mu) times the
    signed L(dot-dominant(lam + mu)).  L(0) (x) V is V: no convolution."""
    if module != {(0,) * rs.rank: 1}:
        ws = WeightMultiset(_kernels.convolve(module._data, ws._data))
    return decompose_multiset(rs, ws, check=False)


def tensor_power(rs: RootSystem, module: FormalGModule, ws: WeightMultiset,
                 k: int, budget: _Budget | None = None) -> FormalGModule:
    """module (x) V^{(x)k} in k ``_tensor_step``s, for a Weyl-invariant V
    with weights ``ws``.  Charged as ``bundles.weights`` charges a power:
    k up front, then each step's pairs, refused early when the later steps,
    none smaller, would pass the cap."""
    budget = _Budget() if budget is None else budget
    budget.charge(k)
    for step in range(k):
        pairs = len(module) * len(ws)
        budget.charge(pairs, ahead=pairs * (k - step - 1))
        module = _tensor_step(rs, module, ws)
    return module


def _operand(rs: RootSystem, expr: Expr, budget: _Budget) -> WeightMultiset:
    """The weights of an operand of the ring walk, checked Weyl-invariant."""
    ws = weights(rs, expr, budget)
    _check_invariant(rs, ws)
    return ws


def _ring(rs: RootSystem, expr: Expr, budget: _Budget) -> FormalGModule:
    """Decomposition of ``expr`` in the representation ring.  The walk
    enters a sum's terms and a product's first factor; every other node it
    meets gives one operand (a power its base, a wedge its module), which
    ``_operand`` evaluates and checks once."""
    if isinstance(expr, Sum):
        acc: dict[Weight, int] = {}
        for t in expr.terms:
            term = _ring(rs, t, budget)
            budget.charge(len(term))
            for w, m in term._data.items():
                acc[w] = acc.get(w, 0) + m
        return FormalGModule(acc)
    if isinstance(expr, Wedge):
        return _wedge(rs, expr, budget)
    if isinstance(expr, Tensor):
        module, factors = _ring(rs, expr.factors[0], budget), expr.factors[1:]
    else:  # a power or an operand: one factor of the trivial module
        module, factors = FormalGModule({(0,) * rs.rank: 1}), (expr,)
    for f in factors:
        base, k = (f.base, f.exponent) if isinstance(f, Power) else (f, 1)
        module = tensor_power(rs, module, _operand(rs, base, budget), k, budget)
    return module


def _wedge(rs: RootSystem, expr: Wedge, budget: _Budget) -> FormalGModule:
    """Lambda^k V by Newton's identity,
    m Lambda^m V = sum_{j=1..m} (-1)^(j-1) psi^j(V) (x) Lambda^(m-j) V,
    where psi^j(V) has the weights of V times j.  Lambda^m V is nonzero for
    m <= dim V, so each of the k(k+1)/2 steps costs at least
    ``NEWTON_STEP_TERMS`` plus the distinct weights of V: that is the
    look-ahead."""
    ws = _operand(rs, expr.inner, budget)
    k = expr.degree
    budget.charge(k + 1)
    if k > ws.total_dim:
        return FormalGModule()
    psi: list[WeightMultiset] = []
    wedges = [FormalGModule({(0,) * rs.rank: 1})]
    left = k * (k + 1) // 2
    for m in range(1, k + 1):
        psi.append(WeightMultiset({tuple(m * c for c in w): n
                                   for w, n in ws._data.items()}))
        acc: dict[Weight, int] = {}
        for j in range(1, m + 1):
            left -= 1
            prev = wedges[m - j]
            budget.charge(NEWTON_STEP_TERMS + len(prev) * len(ws),
                          ahead=(NEWTON_STEP_TERMS + len(ws)) * left)
            sign = 1 if j % 2 else -1
            for w, c in _tensor_step(rs, prev, psi[j - 1])._data.items():
                acc[w] = acc.get(w, 0) + sign * c
        if any(c % m for c in acc.values()):
            raise CheckFailed(
                f"Newton's identity leaves a remainder mod {m} in wedge^{m}")
        wedges.append(FormalGModule({w: c // m for w, c in acc.items()}))
    return wedges[k]


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
