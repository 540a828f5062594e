"""Independent reference implementations used to check the library.

Everything here recomputes results by a different algorithm than the
package: characters by division of alternating sums, decompositions by
iterated highest-weight stripping, potential supports by searching the
Weyl group for each weight's dominant chamber, the weights of wedge powers
of n by listing subsets of roots, page cells by convolving full characters,
certain survivors by total degree instead of lanes, null-cone membership by
brute-force word products, subspace chains and their flags by sympy's
rational ``rref`` of every image, root data from sympy's ``liealgebras``,
Weyl products and coroot pairings from the invariant form.  Slow but simple;
meant for small inputs only.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import Counter
from fractions import Fraction as Q

from bottnull import _kernels, bundles, repthy, weyl
from bottnull.rootsys import (Root, RootSystem, invariant_form,
                              weight_to_root_coords)

Weight = tuple[int, ...]

_height_basis: dict[tuple[str, int], tuple[Q, ...]] = {}
_char_cache: dict[tuple[str, int, Weight], dict[Weight, int]] = {}


def _rc_height_basis(rs: RootSystem) -> tuple[Q, ...]:
    """Root-coordinate height is linear; value on each fundamental weight."""
    key = (rs.family, rs.rank)
    if key not in _height_basis:
        basis = []
        for i in range(rs.rank):
            e = tuple(1 if j == i else 0 for j in range(rs.rank))
            basis.append(sum(weight_to_root_coords(rs, e)))
        _height_basis[key] = tuple(basis)
    return _height_basis[key]


class _MaxTracker:
    """Heap view of a weight dict, popping in (rc-height, lex) max order.

    Valid whenever every update below the current top stays below it, which
    holds for both division by the Weyl denominator and character stripping.
    """

    def __init__(self, rs: RootSystem, values: dict[Weight, int]):
        self._hb = _rc_height_basis(rs)
        self.values = values
        self._heap = [self._key(w) for w in values]
        heapq.heapify(self._heap)

    def _key(self, w: Weight):
        h = sum(b * c for b, c in zip(self._hb, w))
        return (-h, tuple(-c for c in w))

    def pop_max(self) -> Weight | None:
        while self._heap:
            _, negw = heapq.heappop(self._heap)
            w = tuple(-c for c in negw)
            if w in self.values:
                return w
        return None

    def update(self, w: Weight, delta: int) -> None:
        old = self.values.get(w, 0)
        val = old + delta
        if val:
            if not old:
                heapq.heappush(self._heap, self._key(w))
            self.values[w] = val
        else:
            self.values.pop(w, None)


def _alternating_orbit(rs: RootSystem, shifted: Weight) -> dict[Weight, int]:
    """sum_w sign(w) e^{w(shifted)} as a dict (shifted must be regular)."""
    acc: dict[Weight, int] = {}
    for word in weyl.enumerate_elements(rs):
        img = weyl.act(rs, word, shifted)
        sign = -1 if len(word) % 2 else 1
        acc[img] = acc.get(img, 0) + sign
    return {w: c for w, c in acc.items() if c}


def psupp_by_enumeration(rs: RootSystem, counts: dict[Weight, int]
                         ) -> dict[int, dict[Weight, int]]:
    """Potential support of a weight multiset by search: for each weight,
    the Weyl element among ``weyl.enumerate_elements`` whose ``weyl.dot``
    image is dominant (there is none when the shifted weight is singular),
    its length the degree.  No dominantizing walk is run."""
    words = weyl.enumerate_elements(rs)
    out: dict[int, dict[Weight, int]] = {}
    for lam, m in counts.items():
        for word in words:
            img = weyl.dot(rs, word, lam)
            if min(img) >= 0:
                bucket = out.setdefault(len(word), {})
                bucket[img] = bucket.get(img, 0) + m
                break
    return out


def subset_sum_counts(rs: RootSystem, k: int) -> Counter:
    """-sum(S) over the k-subsets S of the positive roots, with multiplicity
    (the weights of wedge^k(n)), listed by ``itertools.combinations``."""
    roots = [r.fund_coords for r in rs.positive_roots]
    zero = (0,) * rs.rank
    return Counter(tuple(-sum(c) for c in zip(zero, *subset))
                   for subset in itertools.combinations(roots, k))


def weyl_product_by_form(rs: RootSystem, lam: Weight) -> Q:
    """prod over positive roots alpha of (lam+rho, alpha) / (rho, alpha),
    each factor from ``invariant_form`` on the root's fundamental
    coordinates (through the inverse Cartan matrix)."""
    shifted = tuple(c + 1 for c in lam)
    val = Q(1)
    for root in rs.positive_roots:
        val *= (invariant_form(rs, shifted, root.fund_coords)
                / invariant_form(rs, rs.rho, root.fund_coords))
    return val


def coroot_pairing(rs: RootSystem, weight: Weight, root: Root) -> Q:
    """<weight, beta^vee> = 2 (weight, beta) / (beta, beta) for a positive
    root beta, both products from ``invariant_form``."""
    beta = root.fund_coords
    return (2 * invariant_form(rs, tuple(weight), beta)
            / invariant_form(rs, beta, beta))


def weyl_numerator(rs: RootSystem, counts: dict[Weight, int]) -> dict[Weight, int]:
    """sum over lambda of counts[lambda] * sum_w sign(w) e^{w(lambda + rho)}:
    the Weyl-character numerator of the virtual module sum_lambda
    counts[lambda] * chi(X, L_lambda), one replayed word per element (a
    singular lambda + rho cancels to nothing)."""
    acc: dict[Weight, int] = {}
    for lam, m in counts.items():
        shifted = tuple(c + 1 for c in lam)
        for img, sign in _alternating_orbit(rs, shifted).items():
            acc[img] = acc.get(img, 0) + m * sign
    return {w: c for w, c in acc.items() if c}


def word_mult(rs: RootSystem, counts: dict[Weight, int], mu: Weight) -> int:
    """Multiplicity of L(mu) in a Weyl-invariant multiset: the alternating
    sum of counts[w . mu], replaying every canonical word through ``dot``."""
    total = 0
    for word in weyl.enumerate_elements(rs):
        sign = -1 if len(word) % 2 else 1
        total += sign * counts.get(weyl.dot(rs, word, mu), 0)
    return total


def orbit_mult(rs: RootSystem, counts: dict[Weight, int], mu: Weight) -> int:
    """Multiplicity of L(mu) in a Weyl-invariant multiset: the literal
    alternating sum of counts[w(mu + rho) - rho] over the whole signed orbit
    of mu + rho, one BFS layer per length, with no cut."""
    shifted = {tuple(c + 1 for c in w): m for w, m in counts.items()}
    total, sign = 0, 1
    for layer in weyl._orbit_layers(rs, tuple(c + 1 for c in mu)):
        total += sign * sum(shifted.get(img, 0) for img in layer)
        sign = -sign
    return total


def wcf_character(rs: RootSystem, lam: Weight) -> dict[Weight, int]:
    """Character of the irreducible with highest weight lam, computed by
    dividing alternating orbit sums term by term (Weyl character formula)."""
    assert all(c >= 0 for c in lam)
    cache_key = (rs.family, rs.rank, tuple(lam))
    hit = _char_cache.get(cache_key)
    if hit is not None:
        return dict(hit)
    rho = rs.rho
    numer = _alternating_orbit(rs, tuple(l + r for l, r in zip(lam, rho)))
    denom = _alternating_orbit(rs, rho)
    tracker = _MaxTracker(rs, numer)
    char: dict[Weight, int] = {}
    while True:
        top = tracker.pop_max()
        if top is None:
            break
        coeff = numer[top]
        term = tuple(t - r for t, r in zip(top, rho))
        char[term] = char.get(term, 0) + coeff
        for w, s in denom.items():
            tracker.update(tuple(a + b for a, b in zip(w, term)), -coeff * s)
    assert all(c > 0 for c in char.values())
    _char_cache[cache_key] = dict(char)
    return char


def stripping_decompose(rs: RootSystem, multiset) -> dict[Weight, int]:
    """Decompose a genuine module's weight multiset by repeatedly removing
    the character of a maximal dominant weight."""
    remaining: dict[Weight, int] = {}
    for w in (multiset.support() if hasattr(multiset, "support") else multiset):
        m = multiset.get(w) if hasattr(multiset, "get") else multiset[w]
        if m:
            remaining[w] = m
    out: dict[Weight, int] = {}
    tracker = _MaxTracker(rs, remaining)
    while True:
        top = tracker.pop_max()
        if top is None:
            break
        assert all(c >= 0 for c in top), f"stripping hit non-dominant top {top}"
        mult = remaining[top]
        assert mult > 0, f"negative multiplicity at {top}"
        out[top] = out.get(top, 0) + mult
        for w, c in wcf_character(rs, top).items():
            tracker.update(w, -mult * c)
    return out


def convolved_cell(rs: RootSystem, coh, copies: int, tensor_power: int):
    """The page cell copies * g^tensor_power (x) coh, by convolving g's power
    with the full character (Freudenthal) of each irreducible of coh and
    decomposing the Weyl-invariant result."""
    base = bundles.weights(rs, f"g^{tensor_power}").counts
    content: dict[Weight, int] = {}
    for mu, mult in coh.sorted_items():
        char = repthy.irrep_character(rs, mu).counts
        for w, c in _kernels.convolve(base, char).items():
            content[w] = content.get(w, 0) + copies * mult * c
    return repthy.decompose_multiset(rs, bundles.WeightMultiset(content))


def survivors_by_total_degree(page) -> list[tuple[int, int]]:
    """The candidate cells (a, b), a < 0 with some multiplicity of lo
    positive, that no live cell (a', b'), some multiplicity of hi positive,
    can hit or be hit by: none with a' + b' = a + b + 1 and a' > a (a
    target), none with a' + b' = a + b - 1 and a' < a (a source).  Cells
    are compared by total degree alone, with no lane and no lane bound."""
    live = [(x, y) for (x, y), cell in page.cells.items()
            if any(m > 0 for m in cell.hi.mults.values())]
    return sorted(
        (a, b) for (a, b), cell in page.cells.items()
        if a < 0 and any(m > 0 for m in cell.lo.mults.values())
        and not any(x + y == a + b + 1 and x > a or x + y == a + b - 1 and x < a
                    for x, y in live))


# ------------------------------------------------------------- bundles

def _add_pairs(a: Counter, b: Counter) -> Counter:
    out: Counter = Counter()
    for (u, cu), (v, cv) in itertools.product(a.items(), b.items()):
        out[tuple(x + y for x, y in zip(u, v))] += cu * cv
    return out


def expand_weights(rs: RootSystem, expr) -> Counter:
    """Weight multiset of a bundle expression on tuple keys, with no packing:
    ``Counter`` products for tensors and powers, and wedge/sym as sums over
    the k-subsets / k-multisets of the expanded list of weights."""
    if isinstance(expr, bundles.Atom):
        pos = Counter(r.fund_coords for r in rs.positive_roots)
        neg = Counter(tuple(-c for c in w) for w in pos)
        h = Counter({(0,) * rs.rank: rs.rank})
        return {"n": neg, "h": h, "b": neg + h, "q": pos,
                "g": pos + neg + h}[expr.kind]
    if isinstance(expr, bundles.Line):
        assert len(expr.coords) == rs.rank
        return Counter({expr.coords: 1})
    if isinstance(expr, bundles.Sum):
        return sum((expand_weights(rs, t) for t in expr.terms), Counter())
    if isinstance(expr, bundles.Tensor):
        factors = [expand_weights(rs, f) for f in expr.factors]
    elif isinstance(expr, bundles.Power):
        factors = [expand_weights(rs, expr.base)] * expr.exponent
    else:
        expanded = list(expand_weights(rs, expr.inner).elements())
        picks = (itertools.combinations if isinstance(expr, bundles.Wedge)
                 else itertools.combinations_with_replacement)
        return Counter(tuple(sum(w[i] for w in pick) for i in range(rs.rank))
                       for pick in picks(expanded, expr.degree))
    acc = Counter({(0,) * rs.rank: 1})
    for f in factors:
        acc = _add_pairs(acc, f)
    return +acc


# ------------------------------------------------------------- root data

def sympy_root_data(family: str, rank: int):
    """(Cartan matrix, number of positive roots, Weyl-group order) from
    sympy's ``liealgebras``.

    The Cartan matrix is built from sympy's simple roots (vectors in the
    standard basis) in sympy's convention a_ij = <alpha_i, alpha_j^vee>,
    because ``CartanType("A1").cartan_matrix()`` raises in sympy 1.14.
    """
    from sympy.liealgebras.cartan_type import CartanType
    from sympy.liealgebras.weyl_group import WeylGroup

    name = f"{family}{rank}"
    ct = CartanType(name)
    simple = [ct.simple_root(i) for i in range(1, rank + 1)]

    def form(u, v):
        return sum(a * b for a, b in zip(u, v))

    cartan = tuple(tuple(Q(2 * form(a, b), form(b, b)) for b in simple)
                   for a in simple)
    return cartan, len(ct.positive_roots()), int(WeylGroup(name).group_order())


# ------------------------------------------------------------- null cone

def mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def brute_nullcone_member(matrices) -> bool:
    """All length-n products of the tuple's matrices vanish."""
    n = len(matrices[0])
    zero = tuple(tuple(Q(0) for _ in range(n)) for _ in range(n))
    products = list(matrices)
    for _ in range(n - 1):
        products = [mat_mul(p, x) for p in products for x in matrices]
        # Dedup to keep the word count in check.
        products = list(dict.fromkeys(products))
    return all(p == zero for p in products)


def _rref(rows) -> list[tuple[Q, ...]]:
    """Nonzero rows of sympy's rational ``rref`` of the span of ``rows``."""
    import sympy

    if not rows:
        return []
    reduced = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                             for x in row] for row in rows]).rref()[0]
    return [tuple(Q(int(x.p), int(x.q)) for x in reduced.row(i))
            for i in range(reduced.rows) if any(reduced.row(i))]


def full_subspace_chain(matrices) -> list[list[tuple[Q, ...]]]:
    """U_0 = Q^n, U_{k+1} = span of x_i(U_k) over every x_i and every basis
    row of U_k, each U_k as its rational rref rows, until U_{k+1} is zero or
    equal to U_k.  Every image of every step is reduced: no early stop."""
    n = len(matrices[0])
    chain = [[tuple(Q(int(i == j)) for j in range(n)) for i in range(n)]]
    while chain[-1]:
        images = [tuple(sum(a * b for a, b in zip(row, v)) for row in x)
                  for x in matrices for v in chain[-1]]
        chain.append(_rref(images))
        if chain[-1] == chain[-2]:
            break
    return chain


def chain_flag(chain) -> tuple[tuple[Q, ...], ...]:
    """The flag basis ``common_flag`` promises for a zero-ending chain: the
    subspaces, smallest first, each extended by its rref rows in order; a
    row outside the span so far is taken minus the span's rref rows, so
    that it vanishes at their pivots, and scaled to lead with 1."""
    basis: list[tuple[Q, ...]] = []
    for subspace in reversed(chain):
        for row in subspace:
            for r in _rref(basis):
                f = row[next(j for j, x in enumerate(r) if x)]
                row = tuple(a - f * b for a, b in zip(row, r))
            lead = next((x for x in row if x), None)
            if lead is not None:
                basis.append(tuple(x / lead for x in row))
    return tuple(basis)


def random_strictly_upper(rng: random.Random, n: int):
    return tuple(tuple(Q(rng.randint(-3, 3)) if j > i else Q(0)
                       for j in range(n)) for i in range(n))


def random_unimodular(rng: random.Random, n: int):
    """Product of elementary integer shear matrices: exact inverse exists."""
    m = [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return tuple(tuple(row) for row in m)


def conjugate(g, ginv, x):
    return mat_mul(mat_mul(g, x), ginv)


def random_traceless(rng: random.Random, n: int):
    entries = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    diag_sum = sum(entries[i][i] for i in range(n))
    entries[n - 1][n - 1] -= diag_sum
    return tuple(tuple(row) for row in entries)
