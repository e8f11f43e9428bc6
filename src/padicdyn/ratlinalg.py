"""Small exact linear algebra over the rationals: rref, kernel, det, inverse.

Matrices are plain lists of lists of Fraction.  Row reduction is
fraction-free and takes the rows one at a time: each row is cleared of
denominators when it is reached, reduced against the pivot rows kept so
far with integer row operations r <- (a/g) r - (b/g) p (g = gcd(a, b)),
and kept primitive by dividing out the gcd of its entries.  Fractions are
formed only at the end, when each pivot row is divided by its pivot.
Once every column has a pivot, every later row lies in the row space, so
elimination stops there and those rows are never read; kernel_basis,
rank and inverse inherit this.  The reduced row echelon form is unique,
so this gives the same rationals as elimination over Q without reducing
a Fraction at every step.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import DomainError

Matrix = list[list[Fraction]]


def as_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise DomainError("matrix dimension mismatch")
    cols = len(b[0])
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(cols)]
        for i in range(len(a))
    ]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column indices.

    Rows enter one at a time.  A row is reduced against the kept pivot
    rows, which stay reduced against one another, so it comes out zero in
    every pivot column.  If anything is left, its leading column becomes a
    new pivot and is cleared from the kept rows.  Elimination stops when
    every column has a pivot; the rows after that point are never read.
    The echelon holds the pivot rows in column order, each divided by its
    pivot, padded with zero rows to len(rows).
    """
    nrows = len(rows)
    if not nrows:
        return [], []
    kept: list[tuple[int, list[int]]] = []  # (pivot column, primitive row)
    for row in rows:
        r = _primitive_integer_row(row)
        ncols = len(r)
        for c, p in kept:
            if r[c]:
                r = _eliminated(r, p, c)
        c = next((j for j, x in enumerate(r) if x), None)
        if c is None:
            continue
        kept = [(pc, _eliminated(p, r, c) if p[c] else p) for pc, p in kept]
        kept.append((c, r))
        if len(kept) == ncols:
            break
    kept.sort()  # pivot columns are distinct
    echelon = [[Fraction(x, row[c]) for x in row] for c, row in kept]
    echelon += [[Fraction(0)] * ncols for _ in range(len(kept), nrows)]
    return echelon, [c for c, _ in kept]


def _eliminated(row: list[int], prow: list[int], c: int) -> list[int]:
    """The primitive part of a*row - b*prow with the entries at column c
    cancelled: a = prow[c], b = row[c], both divided by their gcd."""
    a, b = prow[c], row[c]
    g = gcd(a, b)
    ag, bg = a // g, b // g
    return _primitive([ag * x - bg * y for x, y in zip(row, prow)])


def _primitive_integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row times the lcm of its denominators, divided by its content."""
    row = [Fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (scale // x.denominator) for x in row])


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def kernel_basis(rows: Sequence[Sequence[Fraction]], ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of {v : A v = 0}, from the rref free columns."""
    ncols = ncols if ncols is not None else (len(rows[0]) if rows else 0)
    if not rows:
        return [[Fraction(1 if i == j else 0) for i in range(ncols)] for j in range(ncols)]
    echelon, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -echelon[r][fc]
        basis.append(v)
    return basis


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    m = [list(map(Fraction, row)) for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise DomainError("determinant of a non-square matrix")
    sign = 1
    out = Fraction(1)
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        out *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out * sign


def inverse(rows: Sequence[Sequence[Fraction]]) -> Matrix:
    n = len(rows)
    aug = [list(row) + unit for row, unit in zip(rows, identity(n))]
    echelon, pivots = rref(aug)
    if pivots != list(range(n)):
        raise DomainError("matrix is singular")
    return [row[n:] for row in echelon[:n]]


def is_diagonal(rows: Sequence[Sequence[Fraction]]) -> bool:
    return all(
        not rows[i][j] for i in range(len(rows)) for j in range(len(rows[i])) if i != j
    )
