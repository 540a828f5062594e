"""Simultaneous nilpotency: membership of matrix tuples in the null-cone of
r copies of sl_n, common invariant flags, and resolution-bundle points.

All arithmetic is exact (``fractions.Fraction``).  Vectors are row tuples;
matrices act on column vectors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Sequence

from .errors import InputError, NotStrictlyUpper, NotTraceFree, SingularMatrix

Matrix = tuple[tuple[Q, ...], ...]
Vector = tuple[Q, ...]


def matrix_from_rows(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Q(x) for x in row) for row in rows)


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum(r[j] * v[j] for j in range(len(v))) for r in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    cols = list(zip(*b))
    return tuple(tuple(sum(a[i][k] * cols[j][k] for k in range(n))
                       for j in range(n)) for i in range(n))


def mat_trace(m: Matrix) -> Q:
    return sum(m[i][i] for i in range(len(m)))


def identity(n: int) -> Matrix:
    return tuple(tuple(Q(1) if i == j else Q(0) for j in range(n))
                 for i in range(n))


def _reduce(row: list[Q], basis: list[list[Q]], pivots: list[int]) -> int | None:
    """Clear ``row`` in place at every pivot of the echelon ``basis`` and scale
    it to a leading 1; return its pivot column, or None if it lies in the span.

    The result is the one vector of row + span(basis) that vanishes at the
    pivot columns, however far ``basis`` itself is reduced.
    """
    for p, b in zip(pivots, basis):
        f = row[p]
        if f != 0:
            for j in range(len(row)):
                row[j] -= f * b[j]
    piv = next((j for j, x in enumerate(row) if x != 0), None)
    if piv is not None:
        scale = Q(1) / row[piv]
        row[:] = [x * scale for x in row]
    return piv


def rref(vectors: Sequence[Vector]) -> list[Vector]:
    """Reduced row-echelon basis of the span, rows ordered by pivot column."""
    basis: list[list[Q]] = []
    pivots: list[int] = []
    for v in vectors:
        row = list(v)
        piv = _reduce(row, basis, pivots)
        if piv is None:
            continue
        for b in basis:  # back-substitution into the earlier rows
            f = b[piv]
            if f != 0:
                for j in range(len(row)):
                    b[j] -= f * row[j]
        basis.append(row)
        pivots.append(piv)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [tuple(basis[i]) for i in order]


def mat_inverse(m: Sequence[Sequence]) -> Matrix:
    """Exact inverse, the right half of rref([m | 1]); raises SingularMatrix."""
    n = len(m)
    reduced = rref([tuple(row) + unit for row, unit in zip(m, identity(n))])
    if any(row[i] != 1 for i, row in enumerate(reduced)):  # a pivot past i
        raise SingularMatrix("matrix is not invertible")
    return tuple(row[n:] for row in reduced)


@dataclass(frozen=True)
class MatrixTuple:
    """An r-tuple of trace-free n x n rational matrices."""

    n: int
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        for m in self.matrices:
            if len(m) != self.n or any(len(row) != self.n for row in m):
                raise ValueError(f"matrices must be {self.n}x{self.n}")
            if mat_trace(m) != 0:
                raise NotTraceFree("matrix tuple entries must be trace-free")

    @property
    def r(self) -> int:
        return len(self.matrices)


def _subspace_chain(t: MatrixTuple) -> list[list[Vector]]:
    """U_0 = C^n, U_{k+1} = sum_i x_i(U_k), until zero or stabilization."""
    chain = [rref(identity(t.n))]
    while True:
        current = chain[-1]
        if not current:
            break
        images = [mat_vec(m, v) for m in t.matrices for v in current]
        nxt = rref(images)
        if len(nxt) == len(current):
            chain.append(nxt)
            break  # stabilized at nonzero dimension
        chain.append(nxt)
        if len(chain) > t.n + 1:
            break
    return chain


def in_nullcone(t: MatrixTuple) -> bool:
    """True iff every length-n product of the matrices vanishes (U_n = 0)."""
    return not _subspace_chain(t)[-1]


@dataclass(frozen=True)
class Flag:
    """Ordered basis b_1..b_n; F_j = span(b_1..b_j) is the invariant flag."""

    basis: tuple[Vector, ...]

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
    chain = _subspace_chain(t)
    if chain[-1]:
        return None
    basis: list[Vector] = []
    echelon: list[list[Q]] = []
    pivots: list[int] = []
    for subspace in reversed(chain):
        for row in subspace:
            vec = list(row)
            piv = _reduce(vec, echelon, pivots)
            if piv is None:
                continue
            basis.append(tuple(vec))
            echelon.append(vec)
            pivots.append(piv)
    assert len(basis) == t.n
    return Flag(basis=tuple(basis))


def is_strictly_upper(m: Matrix) -> bool:
    n = len(m)
    return all(m[i][j] == 0 for i in range(n) for j in range(n) if j <= i)


def triangularize(t: MatrixTuple, flag: Flag) -> tuple[Matrix, ...]:
    """g^{-1} x_i g for the flag's basis matrix g (strictly upper if valid)."""
    g = flag.matrix
    ginv = mat_inverse(g)
    return tuple(mat_mul(mat_mul(ginv, m), g) for m in t.matrices)


def resolution_sample(g: Matrix, nilpotent: MatrixTuple) -> MatrixTuple:
    """Point of the resolution bundle over the flag g: conjugates g x_i g^{-1}.

    Requires g invertible and every x_i strictly upper triangular.
    """
    for m in nilpotent.matrices:
        if not is_strictly_upper(m):
            raise NotStrictlyUpper("matrix tuple entries must be strictly upper "
                                   "triangular")
    ginv = mat_inverse(g)  # raises SingularMatrix when g is not invertible
    conjugated = tuple(mat_mul(mat_mul(g, m), ginv) for m in nilpotent.matrices)
    return MatrixTuple(n=nilpotent.n, matrices=conjugated)


def matrix_to_strings(m: Matrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in m]


def tuple_to_json(t: MatrixTuple) -> str:
    doc = {"n": t.n, "r": t.r,
           "matrices": [matrix_to_strings(m) for m in t.matrices]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def tuple_from_json(text: str) -> MatrixTuple:
    try:
        doc = json.loads(text)
        mats = tuple(matrix_from_rows(m) for m in doc["matrices"])
        return MatrixTuple(n=int(doc["n"]), matrices=mats)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad matrix-tuple document: {exc}") from exc
