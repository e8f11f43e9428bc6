"""Differential tests of the exact linear algebra against sympy (test-only)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import ratlinalg
from padicdyn.errors import DomainError

sympy = pytest.importorskip("sympy")

BOUND = 10**6

rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-BOUND, BOUND), st.integers(1, BOUND)),
)


@st.composite
def matrices(draw, square=False):
    """Rational matrices, tall (up to 12 rows), wide or square (up to 6
    columns), with dependent and zero rows."""
    nrows = draw(st.integers(1, 6 if square else 12))
    ncols = nrows if square else draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(nrows, ncols)))
    basis = [draw(st.lists(rationals, min_size=ncols, max_size=ncols)) for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["free", "dependent", "zero"]))
        if kind == "free":
            rows.append(draw(st.lists(rationals, min_size=ncols, max_size=ncols)))
        elif kind == "dependent" and basis:
            weights = draw(st.lists(rationals, min_size=rank, max_size=rank))
            rows.append([sum((w * b[j] for w, b in zip(weights, basis)), Fraction(0)) for j in range(ncols)])
        else:
            rows.append([Fraction(0)] * ncols)
    return rows


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def from_sympy(matrix):
    return [[Fraction(int(e.p), int(e.q)) for e in matrix.row(i)] for i in range(matrix.rows)]


def assert_exact(rows):
    assert all(type(x) is Fraction for row in rows for x in row)


class TestAgainstSympy:
    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_rref(self, rows):
        echelon, pivots = ratlinalg.rref(rows)
        expected, expected_pivots = to_sympy(rows).rref()
        assert echelon == from_sympy(expected)
        assert pivots == list(expected_pivots)
        assert_exact(echelon)

    @settings(max_examples=100, deadline=None)
    @given(matrices())
    def test_kernel_basis_and_rank(self, rows):
        basis = ratlinalg.kernel_basis(rows)
        expected = [from_sympy(v.T)[0] for v in to_sympy(rows).nullspace()]
        assert basis == expected
        assert_exact(basis)
        assert ratlinalg.rank(rows) == to_sympy(rows).rank()

    @settings(max_examples=100, deadline=None)
    @given(matrices(square=True))
    def test_det_and_inverse(self, rows):
        m = to_sympy(rows)
        expected_det = m.det()
        assert ratlinalg.det(rows) == Fraction(int(expected_det.p), int(expected_det.q))
        if expected_det == 0:
            with pytest.raises(DomainError):
                ratlinalg.inverse(rows)
        else:
            inverse = ratlinalg.inverse(rows)
            assert inverse == from_sympy(m.inv())
            assert_exact(inverse)

    def test_negative_pivots(self):
        rows = [[Fraction(-3, 7), Fraction(2), Fraction(-1, 2)], [Fraction(-5), Fraction(-1, 3), Fraction(4)]]
        echelon, pivots = ratlinalg.rref(rows)
        expected, expected_pivots = to_sympy(rows).rref()
        assert (echelon, pivots) == (from_sympy(expected), list(expected_pivots))
        square = [[Fraction(-2), Fraction(1, 3)], [Fraction(5, 4), Fraction(-7)]]
        assert ratlinalg.inverse(square) == from_sympy(to_sympy(square).inv())

    def test_empty_matrix(self):
        assert ratlinalg.rref([]) == ([], [])
        assert ratlinalg.rank([]) == 0
        assert ratlinalg.kernel_basis([], 2) == [[1, 0], [0, 1]]
        assert ratlinalg.inverse([]) == []
        assert ratlinalg.det([]) == sympy.Matrix([]).det() == 1


class UnreadableRow:
    """A row that fails the test if rref reads it."""

    def __iter__(self):
        raise AssertionError("a row after full column rank was read")


class TestFullColumnRankStop:
    """Once every column has a pivot, the remaining rows are never read."""

    def test_rows_after_full_rank_are_not_read(self):
        rows = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
        rows += [UnreadableRow(), UnreadableRow()]
        echelon, pivots = ratlinalg.rref(rows)
        assert pivots == [0, 1]
        assert echelon == [[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]]
        assert_exact(echelon)
        assert ratlinalg.rank(rows) == 2
        assert ratlinalg.kernel_basis(rows) == []

    def test_dependent_rows_are_read_until_full_rank(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(-2), Fraction(-4)], [Fraction(1, 2), Fraction(3)], UnreadableRow()]
        echelon, pivots = ratlinalg.rref(rows)
        assert (echelon, pivots) == ([[1, 0], [0, 1], [0, 0], [0, 0]], [0, 1])
