"""Small exact linear algebra over the rationals: rref, kernel, det, inverse.

Matrices are plain lists of lists of Fraction.  Row reduction is
fraction-free: each row is cleared of denominators once, eliminated with
integer row operations r_i <- (a/g) r_i - (b/g) r_piv (g = gcd(a, b)) and
kept primitive by dividing out the gcd of its entries, and Fractions are
formed only at the end, when each pivot row is divided by its pivot.  The
reduced row echelon form is unique, so this gives the same rationals as
elimination over Q without reducing a Fraction at every step.
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
    """Reduced row echelon form and the pivot column indices."""
    m = [_primitive_integer_row(row) for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        a = prow[c]
        for i in range(nrows):
            b = m[i][c]
            if i != r and b:
                g = gcd(a, b)
                ag, bg = a // g, b // g
                m[i] = _primitive([ag * x - bg * y for x, y in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    echelon = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    echelon += [[Fraction(0)] * ncols for _ in range(r, nrows)]
    return echelon, pivots


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
