"""Simultaneous nilpotency: membership of matrix tuples in the null-cone of
r copies of sl_n, common invariant flags, and resolution-bundle points.

Arithmetic is exact, and the rows are integer inside.  Membership, the
subspace chain and the flag do not change when a matrix is scaled by a
nonzero rational, so each matrix is cleared to an integer matrix by the lcm
of its denominators.  A ``MatrixTuple`` keeps its cleared matrices and its
subspace chain from the first question asked of it, so the questions asked
of one tuple clear each matrix once and build the chain once.  The chain
shrinks (U_{k+1} <= U_k), so a step stops once its images span dim U_k.  A
``Flag`` from ``common_flag`` keeps its integer basis vectors as the
columns that ``triangularize`` conjugates by.  One elimination step,
``_reduce`` (clear a row at the pivots of an echelon basis by
cross-multiplying, then divide it by the gcd of its entries), is the
package's only row reduction.  ``fractions.Fraction`` appears only at the
boundary: the entries read by ``matrix_from_rows``, the normalized flag
basis, ``rref``, ``mat_inverse``, and the conjugated matrices of
``triangularize`` and ``resolution_sample``.  Vectors are row tuples;
matrices act on column vectors.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction as Q
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Sequence

from ._record import Record
from .errors import InputError, NotStrictlyUpper, NotTraceFree, SingularMatrix

Matrix = tuple[tuple[Q, ...], ...]
Vector = tuple[Q, ...]

_ZERO = Q(0)
_ENTRY = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _entry(x) -> Q:
    """An exact entry: an int (not a bool), a Fraction, or an integer or
    ``"p/q"`` string; Python's int digit limit bounds every string."""
    if type(x) is int or isinstance(x, Q):
        return Q(x)
    if isinstance(x, str) and _ENTRY.fullmatch(x):
        try:
            return Q(x)
        except (ValueError, ZeroDivisionError):  # digit limit, zero denominator
            pass
    shown = repr(x)
    if len(shown) > 40:
        shown = shown[:37] + "..."
    raise ValueError(f"bad matrix entry {shown}: expected an integer or a "
                     "\"p/q\" string with q > 0")


def matrix_from_rows(rows: Sequence[Sequence]) -> Matrix:
    """Rows of exact entries (see ``_entry``); raises ValueError on any other."""
    if not isinstance(rows, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in rows):
        raise ValueError("a matrix must be a list of rows")
    return tuple(tuple(_entry(x) for x in row) for row in rows)


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum(map(mul, r, v)) for r in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _clear(rows: Sequence[Sequence]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer rows and the lcm d of the denominators, so rows == ints / d."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                 for row in rows), d


def _reduce(row: list[int], basis: list[list[int]],
            pivots: list[int]) -> int | None:
    """Clear the integer ``row`` in place at every pivot of the echelon
    ``basis`` by cross-multiplying, then divide it by the gcd of its entries,
    leaving its leading entry positive; return its pivot column, or None if it
    lies in the span.

    The result is the primitive multiple of the one vector of row +
    span(basis) that vanishes at the pivot columns, however far ``basis``
    itself is reduced.
    """
    for p, b in zip(pivots, basis):
        f = row[p]
        if f:
            c = b[p]
            g = gcd(f, c)
            f //= g
            c //= g
            row[:] = [c * x - f * y for x, y in zip(row, b)]
    piv = next((j for j, x in enumerate(row) if x), None)
    if piv is not None:
        g = gcd(*row) if row[piv] > 0 else -gcd(*row)
        if g != 1:
            row[:] = [x // g for x in row]
    return piv


def _echelon(rows, rank: int = -1) -> tuple[list[list[int]], list[int]] | None:
    """Reduced row-echelon basis of the span of integer rows, ordered by
    pivot column, and its pivots.  Each row is primitive and positive at its
    pivot, so dividing it by that entry gives the rational rref row.
    None once ``rank`` rows, a rank the span cannot exceed, are independent."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    for v in rows:
        row = list(v)
        piv = _reduce(row, basis, pivots)
        if piv is not None:
            if len(basis) + 1 == rank:
                return None
            basis.append(row)
            pivots.append(piv)
    order = sorted(range(len(basis)), key=pivots.__getitem__)
    basis, pivots = [basis[i] for i in order], [pivots[i] for i in order]
    for i in range(len(basis) - 2, -1, -1):  # back-substitution
        _reduce(basis[i], basis[i + 1:], pivots[i + 1:])
    return basis, pivots


def _monic(row: Sequence[int], piv: int) -> Vector:
    return tuple(Q(x, row[piv]) for x in row)


def rref(vectors: Sequence[Vector]) -> list[Vector]:
    """Reduced row-echelon basis of the span, rows ordered by pivot column.

    No command calls it.  It stays as the rational face of ``_echelon``: the
    tests check it against sympy's ``Matrix.rref()``, and the benchmark's
    tracer wraps it (``perfbench/tracer.py``'s ``install`` raises when a
    target is missing).
    """
    rows, pivots = _echelon(_clear(vectors)[0])
    return [_monic(row, p) for row, p in zip(rows, pivots)]


def _inverse(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Integer N and den > 0 with inverse(m) == N / den for an integer m.

    The reduced echelon rows of [m | 1] are (p_i e_i | R_i): row i of the
    inverse is R_i / p_i, and den is the lcm of the p_i.  Raises
    SingularMatrix.
    """
    n = len(m)
    rows, pivots = _echelon([(*row, *unit)
                             for row, unit in zip(m, identity(n))])
    if pivots != list(range(n)):  # a pivot past column n-1
        raise SingularMatrix("matrix is not invertible")
    den = lcm(*(row[i] for i, row in enumerate(rows)))
    return [[x * (den // row[i]) for x in row[n:]]
            for i, row in enumerate(rows)], den


def mat_inverse(m: Sequence[Sequence]) -> Matrix:
    """Exact inverse, the right half of rref([m | 1]); raises SingularMatrix."""
    ints, d = _clear(m)
    inv, den = _inverse(ints)
    return tuple(tuple(Q(d * x, den) for x in row) for row in inv)


class MatrixTuple(Record):
    """An r-tuple (r >= 1) of trace-free n x n rational matrices.

    A tuple keeps what its questions share: its matrices cleared to integers
    (``_cleared``) and its subspace chain (``_chain``), each computed on
    first use and kept as long as the tuple; ``resolution_sample`` gives
    its tuple the cleared matrices it conjugated.  Neither is a field, so
    equality, hash, ``repr`` and pickles see the fields only.
    """

    n: int
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"matrix size n must be at least 1, got {self.n}")
        if not self.matrices:  # else n alone would size the work
            raise ValueError("a matrix tuple needs at least one matrix")
        for m in self.matrices:
            if len(m) != self.n or any(len(row) != self.n for row in m):
                raise ValueError(f"matrices must be {self.n}x{self.n}")
            if sum(_clear([[row[i] for i, row in enumerate(m)]])[0][0]):
                raise NotTraceFree("matrix tuple entries must be trace-free")

    def __getstate__(self) -> dict:
        return {f: getattr(self, f) for f in self._fields}

    @property
    def r(self) -> int:
        return len(self.matrices)

    @cached_property
    def _cleared(self) -> tuple[tuple[tuple[tuple[int, ...], ...], int], ...]:
        """``_clear`` of each matrix: (integer rows, d) with m == ints / d."""
        return tuple(_clear(m) for m in self.matrices)

    @cached_property
    def _chain(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """U_0 = C^n, U_{k+1} = sum_i x_i(U_k), until zero or stabilization.

        Each U_k is its reduced-echelon basis of primitive integer rows (see
        ``_echelon``); the x_i act as their integer multiples.  U_{k+1} <= U_k
        by induction, so dim U_k independent images end a step: U_{k+1} = U_k.
        """
        mats = [ints for ints, _ in self._cleared]
        chain = [identity(self.n)]
        while chain[-1]:
            current = chain[-1]
            nxt = _echelon((mat_vec(m, v) for m in mats for v in current),
                           len(current))
            if nxt is None:  # U_{k+1} = U_k
                chain.append(current)
                break
            chain.append(tuple(map(tuple, nxt[0])))
        return tuple(chain)


def in_nullcone(t: MatrixTuple) -> bool:
    """True iff every length-n product of the matrices vanishes (U_n = 0)."""
    return not t._chain[-1]


class Flag(Record):
    """Ordered basis b_1..b_n; F_j = span(b_1..b_j) is the invariant flag."""

    basis: tuple[Vector, ...]

    def __getstate__(self) -> dict:  # the field only, as for MatrixTuple
        return {"basis": self.basis}

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """``matrix`` cleared to integers; ``common_flag`` sets it."""
        return _clear(self.matrix)[0]

    @property
    def matrix(self) -> Matrix:
        """Basis vectors as columns."""
        n = len(self.basis)
        return tuple(tuple(self.basis[j][i] for j in range(n)) for i in range(n))


def common_flag(t: MatrixTuple) -> Flag | None:
    """A full flag with x_i(F_j) <= F_{j-1} for all i, or None if not nilpotent.

    Deterministic: each chain subspace is extended to the next by its
    reduced-echelon rows in pivot-column order.
    """
    chain = t._chain
    if chain[-1]:
        return None
    basis: list[list[int]] = []
    pivots: list[int] = []
    for subspace in reversed(chain):
        for row in subspace:
            vec = list(row)
            piv = _reduce(vec, basis, pivots)
            if piv is not None:
                basis.append(vec)
                pivots.append(piv)
    assert len(basis) == t.n
    flag = Flag(basis=tuple(_monic(vec, p) for vec, p in zip(basis, pivots)))
    # vec is primitive: vec[p] is the lcm of the denominators of vec / vec[p].
    d = lcm(*(vec[p] for vec, p in zip(basis, pivots)))
    vars(flag)["_columns"] = tuple(zip(*([x * (d // vec[p]) for x in vec]
                                         for vec, p in zip(basis, pivots))))
    return flag


def is_strictly_upper(m: Matrix) -> bool:
    n = len(m)
    return all(m[i][j] == 0 for i in range(n) for j in range(n) if j <= i)


def _conjugate(left: Sequence[Sequence[int]],
               x: tuple[Sequence[Sequence[int]], int],
               right: Sequence[Sequence[int]],
               den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """left x right / den for a cleared matrix x = (ints, d), as the integer
    product and its denominator den * d."""
    ints, d = x
    return mat_mul(mat_mul(left, ints), right), den * d


def _fractions(ints: Sequence[Sequence[int]], d: int) -> Matrix:
    """The matrix ints / d."""
    return tuple(tuple(Q(v, d) if v else _ZERO for v in row) for row in ints)


def _reduced(ints: tuple[tuple[int, ...], ...],
             d: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``_clear`` of ints / d for d > 0: the lcm of the denominators of the
    entries p / d is d / gcd(d, every p)."""
    g = gcd(d, *(v for row in ints for v in row))
    if g == 1:
        return ints, d
    return tuple(tuple(v // g for v in row) for row in ints), d // g


def _check_size(rows: Sequence[Sequence], n: int, what: str) -> None:
    """Raise ValueError, naming both sizes, unless ``rows`` is n x n."""
    widths = sorted({len(row) for row in rows}) or [0]
    if len(rows) != n or widths != [n]:
        cols = "/".join(map(str, widths))  # ragged rows list every length
        raise ValueError(f"{what} is {len(rows)}x{cols} but the matrices are "
                         f"{n}x{n}")


def triangularize(t: MatrixTuple, flag: Flag) -> tuple[Matrix, ...]:
    """g^{-1} x_i g for the flag's basis matrix g (strictly upper if valid)."""
    _check_size(flag.basis, t.n, "flag basis")
    g = flag._columns  # a multiple of g conjugates alike
    ginv, den = _inverse(g)
    return tuple(_fractions(*_conjugate(ginv, m, g, den)) for m in t._cleared)


def resolution_sample(g: Matrix, nilpotent: MatrixTuple) -> MatrixTuple:
    """Point of the resolution bundle over the flag g: conjugates g x_i g^{-1}.

    Requires g invertible and n x n, and every x_i strictly upper triangular.
    """
    _check_size(g, nilpotent.n, "g")
    for m, _ in nilpotent._cleared:
        if not is_strictly_upper(m):
            raise NotStrictlyUpper("matrix tuple entries must be strictly upper "
                                   "triangular")
    ints = _clear(g)[0]
    ginv, den = _inverse(ints)  # raises SingularMatrix when g is not invertible
    cleared = tuple(_reduced(*_conjugate(ints, m, ginv, den))
                    for m in nilpotent._cleared)
    out = MatrixTuple(n=nilpotent.n, matrices=tuple(
        _fractions(*m) for m in cleared))
    vars(out)["_cleared"] = cleared  # what ``_clear`` of each matrix gives
    return out


def matrix_to_strings(m: Matrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in m]


def tuple_to_json(t: MatrixTuple) -> str:
    doc = {"n": t.n, "r": t.r,
           "matrices": [matrix_to_strings(m) for m in t.matrices]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def tuple_from_json(text: str) -> MatrixTuple:
    return read_document(text)[0]


def read_document(text: str,
                  resolve: bool = False) -> tuple[MatrixTuple, Matrix | None]:
    """The tuple of a ``nullcone`` document, and its g for ``resolve``: the
    keys are ``n`` (``g`` for resolve), ``matrices`` and an optional ``r``
    that counts the matrices.  Any other key (``"form"``: the matrices are
    sl_n's) and any malformed document raise InputError."""
    what = "resolve document" if resolve else "matrix-tuple document"
    keys = ("g" if resolve else "n", "r", "matrices")
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        for key in doc:
            if key not in keys:
                raise ValueError(f"unknown key {key!r} (expected {', '.join(keys)})")
        g = matrix_from_rows(doc["g"]) if resolve else None
        n = len(g) if resolve else doc["n"]
        if type(n) is not int:
            raise ValueError(f"n must be an integer, got {n!r}")
        if resolve and any(len(row) != n for row in g):
            raise ValueError("g must be a square matrix")
        t = MatrixTuple(n=n, matrices=tuple(map(matrix_from_rows, doc["matrices"])))
        r = doc.get("r", t.r)
        if type(r) is not int or r != t.r:
            raise ValueError(f"r is {r!r}; the number of matrices is {t.r}")
        return t, g
    except KeyError as exc:
        raise InputError(f"bad {what}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad {what}: {exc}") from exc
