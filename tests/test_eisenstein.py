"""Unit tests for the algebraic-series recursion and denominator analysis."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn.arith import factorize, prime_support
from padicdyn.eisenstein import (
    AlgebraicSeriesSpec,
    XPolynomial,
    coefficients_up_to,
    denominator_support,
    detect_vanishing_order,
)
from padicdyn.errors import DomainError
from padicdyn.series import MultiSeries


def sqrt_one_plus_x():
    """X^2 - (1 + x), seed 1: the square root of 1 + x."""
    relation = XPolynomial.from_terms(
        1, [((0,), 2, Fraction(1)), ((0,), 0, Fraction(-1)), ((1,), 0, Fraction(-1))]
    )
    seed = MultiSeries.constant(1, 1, 0)
    return AlgebraicSeriesSpec.build(relation, seed)


def binomial_sqrt_coeff(k):
    """Oracle: the binomial coefficient C(1/2, k)."""
    return binomial(Fraction(1, 2), k)


def binomial(a, k):
    """The generalized binomial coefficient C(a, k)."""
    num = Fraction(1)
    for i in range(k):
        num *= a - i
    return num / math.factorial(k)


def kth_root_of_one_plus_x(k):
    """X^k - (1 + x), seed 1: the k-th root of 1 + x."""
    relation = XPolynomial.from_terms(
        1, [((0,), k, Fraction(1)), ((0,), 0, Fraction(-1)), ((1,), 0, Fraction(-1))]
    )
    return AlgebraicSeriesSpec.build(relation, MultiSeries.constant(1, 1, 0))


class TestDetectVanishingOrder:
    def test_etale_case(self):
        relation = XPolynomial.from_terms(
            1, [((0,), 2, Fraction(1)), ((0,), 0, Fraction(-1)), ((1,), 0, Fraction(-1))]
        )
        assert detect_vanishing_order(relation, MultiSeries.constant(1, 1, 0)) == 0

    def test_ramified_case_rejected(self):
        # X^2 - x at seed 0: derivative vanishes identically at the seed
        relation = XPolynomial.from_terms(1, [((0,), 2, Fraction(1)), ((1,), 0, Fraction(-1))])
        with pytest.raises(DomainError):
            detect_vanishing_order(relation, MultiSeries.zero(1, 1))

    def test_no_power_series_root_rejected(self):
        # (X - x)^2 - x^3: roots x +- x^(3/2) are not power series
        relation = XPolynomial.from_terms(
            1,
            [
                ((0,), 2, Fraction(1)),
                ((1,), 1, Fraction(-2)),
                ((2,), 0, Fraction(1)),
                ((3,), 0, Fraction(-1)),
            ],
        )
        seed = MultiSeries.variable(0, 1, 1)
        with pytest.raises(DomainError):
            detect_vanishing_order(relation, seed)

    def test_positive_order(self):
        # (X - x)(X - x - x^3 - x^4): derivative at the root x has order 3
        a_plus_b = [((1,), 1, Fraction(-2)), ((3,), 1, Fraction(-1)), ((4,), 1, Fraction(-1))]
        ab = [
            ((2,), 0, Fraction(1)),
            ((4,), 0, Fraction(1)),
            ((5,), 0, Fraction(1)),
        ]
        relation = XPolynomial.from_terms(1, [((0,), 2, Fraction(1))] + a_plus_b + ab)
        seed = MultiSeries.variable(0, 1, 3)
        assert detect_vanishing_order(relation, seed) == 3


class TestCoefficients:
    def test_sqrt_matches_binomial_oracle(self):
        spec = sqrt_one_plus_x()
        phi = coefficients_up_to(spec, 4)
        expected = [binomial_sqrt_coeff(k) for k in range(5)]
        assert expected[:5] == [
            Fraction(1),
            Fraction(1, 2),
            Fraction(-1, 8),
            Fraction(1, 16),
            Fraction(-5, 128),
        ]
        for k, c in enumerate(expected):
            assert phi.coefficient((k,)) == c

    def test_linear_relation_returns_polynomial(self):
        # X - (x + 3x^2) has the polynomial itself as root
        relation = XPolynomial.from_terms(
            1, [((0,), 1, Fraction(1)), ((1,), 0, Fraction(-1)), ((2,), 0, Fraction(-3))]
        )
        spec = AlgebraicSeriesSpec.build(relation, MultiSeries.zero(1, 0))
        phi = coefficients_up_to(spec, 6)
        assert phi.coefficient((1,)) == 1
        assert phi.coefficient((2,)) == 3
        assert phi.coefficient((5,)) == 0

    def test_two_variable_sqrt(self):
        # X^2 - (1 + x1 + x2): substitute u = x1 + x2 into the univariate oracle
        relation = XPolynomial.from_terms(
            2,
            [
                ((0, 0), 2, Fraction(1)),
                ((0, 0), 0, Fraction(-1)),
                ((1, 0), 0, Fraction(-1)),
                ((0, 1), 0, Fraction(-1)),
            ],
        )
        spec = AlgebraicSeriesSpec.build(relation, MultiSeries.constant(1, 2, 0))
        phi = coefficients_up_to(spec, 2)
        u = MultiSeries(2, 2, [((1, 0), Fraction(1)), ((0, 1), Fraction(1))])
        expected = (
            MultiSeries.one(2, 2)
            + u.scale(Fraction(1, 2))
            + (u * u).scale(Fraction(-1, 8))
        )
        assert phi == expected

    def test_pivot_route_agrees_with_hensel(self):
        spec = sqrt_one_plus_x()
        hensel = coefficients_up_to(spec, 12, method="hensel")
        pivot = coefficients_up_to(spec, 12, method="pivot")
        assert hensel == pivot

    def test_positive_vanishing_order_recovers_tail(self):
        # roots x and x + x^3 + x^4; seed x + x^3 continues the second root
        a_plus_b = [((1,), 1, Fraction(-2)), ((3,), 1, Fraction(-1)), ((4,), 1, Fraction(-1))]
        ab = [((2,), 0, Fraction(1)), ((4,), 0, Fraction(1)), ((5,), 0, Fraction(1))]
        relation = XPolynomial.from_terms(1, [((0,), 2, Fraction(1))] + a_plus_b + ab)
        seed = MultiSeries(1, 3, [((1,), Fraction(1)), ((3,), Fraction(1))])
        spec = AlgebraicSeriesSpec.build(relation, seed)
        assert spec.vanishing_order == 3
        phi = coefficients_up_to(spec, 8)
        expected = MultiSeries(1, 8, [((1,), Fraction(1)), ((3,), Fraction(1)), ((4,), Fraction(1))])
        assert phi == expected

    def test_multivariate_positive_order(self):
        # (X - x1)(X - x1 - x2^2): seed x1, vanishing order 2, pivot x2^2
        relation = XPolynomial.from_terms(
            2,
            [
                ((0, 0), 2, Fraction(1)),
                ((1, 0), 1, Fraction(-2)),
                ((0, 2), 1, Fraction(-1)),
                ((2, 0), 0, Fraction(1)),
                ((1, 2), 0, Fraction(1)),
            ],
        )
        seed = MultiSeries(2, 2, [((1, 0), Fraction(1))])
        spec = AlgebraicSeriesSpec.build(relation, seed)
        assert spec.vanishing_order == 2
        assert spec.pivot_monomial == (0, 2)
        phi = coefficients_up_to(spec, 6)
        assert phi == MultiSeries(2, 6, [((1, 0), Fraction(1))])

    def test_stability_under_extension(self):
        spec = sqrt_one_plus_x()
        short = coefficients_up_to(spec, 6)
        long = coefficients_up_to(spec, 12)
        assert long.agrees_through(short, 6)

    def test_root_identity_holds(self):
        spec = sqrt_one_plus_x()
        phi = coefficients_up_to(spec, 10)
        value = spec.relation.evaluate(phi, 10)
        assert value.is_zero()

    def test_agreement_with_linear_hensel_oracle(self):
        # independent oracle: first-order lifting, one degree at a time
        spec = sqrt_one_plus_x()
        phi = coefficients_up_to(spec, 10)
        oracle = MultiSeries.constant(1, 1, 0)
        derivative = spec.relation.derivative_in_x_big()
        for d in range(1, 11):
            work = oracle.as_polynomial(d)
            correction = spec.relation.evaluate(work, d) * derivative.evaluate(work, d).inverse()
            oracle = work - correction
        assert phi == oracle

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            coefficients_up_to(sqrt_one_plus_x(), -1)

    def test_bad_seed_rejected(self):
        relation = XPolynomial.from_terms(
            1, [((0,), 2, Fraction(1)), ((0,), 0, Fraction(-1)), ((1,), 0, Fraction(-1))]
        )
        with pytest.raises(DomainError):
            AlgebraicSeriesSpec.build(relation, MultiSeries.constant(2, 1, 0))


class TestLayerOnlyPivotInduction:
    """The pivot route reads one layer of F(x, phi) per degree."""

    def test_cube_root_pivot_matches_hensel_and_binomials(self):
        # X-degree 3: two full Horner products, then a layer-only one
        spec = kth_root_of_one_plus_x(3)
        pivot = coefficients_up_to(spec, 30, method="pivot")
        assert pivot == coefficients_up_to(spec, 30, method="hensel")
        for k in range(31):
            assert pivot.coefficient((k,)) == binomial(Fraction(1, 3), k)

    def test_ramified_cubic_relation(self):
        # (X + 1)((X - x)^2 - x^6 (1 + x)): root x + x^3 sqrt(1 + x), s = 3
        quadratic = XPolynomial.from_terms(
            1,
            [((0,), 2, 1), ((1,), 1, -2), ((2,), 0, 1), ((6,), 0, -1), ((7,), 0, -1)],
        )
        terms = []
        for k, poly in quadratic.coeffs.items():
            for e, c in poly.items():
                terms += [(e, k + 1, c), (e, k, c)]
        relation = XPolynomial.from_terms(1, terms)
        assert relation.x_degree == 3
        seed = MultiSeries(1, 3, [((1,), Fraction(1)), ((3,), Fraction(1))])
        spec = AlgebraicSeriesSpec.build(relation, seed)
        assert spec.vanishing_order == 3
        phi = coefficients_up_to(spec, 40)
        expected = {(1,): Fraction(1)}
        expected.update({(m + 3,): binomial(Fraction(1, 2), m) for m in range(38)})
        assert dict(phi.terms()) == {e: c for e, c in expected.items() if c}

    def test_two_variable_ramified_root_at_degree_24(self):
        # (X - x1)^2 = x2^4 (1 + x1 + x2), seed x1 + x2^2, s = 2
        relation = XPolynomial.from_terms(
            2,
            [
                ((0, 0), 2, 1),
                ((1, 0), 1, -2),
                ((2, 0), 0, 1),
                ((0, 4), 0, -1),
                ((1, 4), 0, -1),
                ((0, 5), 0, -1),
            ],
        )
        seed = MultiSeries(2, 2, [((1, 0), Fraction(1)), ((0, 2), Fraction(1))])
        spec = AlgebraicSeriesSpec.build(relation, seed)
        assert spec.vanishing_order == 2
        phi = coefficients_up_to(spec, 24)
        expected = {(1, 0): Fraction(1)}
        for a in range(23):
            for b in range(23 - a):
                multinomial = math.comb(a + b, a)
                expected[(a, b + 2)] = binomial(Fraction(1, 2), a + b) * multinomial
        assert dict(phi.terms()) == {e: c for e, c in expected.items() if c}

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 2),
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(-5, 5)),
            max_size=8,
        ),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-5, 5)), max_size=6),
        st.integers(0, 6),
    )
    def test_evaluate_layer_is_a_layer_of_evaluate(self, nvars, rel_terms, phi_terms, degree):
        # the X^4 term keeps the relation nonzero whatever the drawn terms cancel to
        terms = [((a, b)[:nvars], k, c) for a, b, k, c in rel_terms] + [((0,) * nvars, 4, 1)]
        relation = XPolynomial.from_terms(nvars, terms)
        phi = MultiSeries(nvars, 4, [((a, b)[:nvars], c) for a, b, c in phi_terms])
        if phi.trunc < degree:
            phi = phi.as_polynomial(degree)
        assert relation.evaluate(phi, degree, low=degree).layer(degree) == relation.evaluate(phi, degree).layer(degree)


class TestAgainstSympy:
    """Differential test against sympy's series expansion (test-only dependency)."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_kth_root_of_one_plus_x(self, k):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        degree = 25
        expansion = sympy.series((1 + x) ** sympy.Rational(1, k), x, 0, degree + 1).removeO()
        poly = sympy.Poly(expansion, x)
        for method in ("hensel", "pivot"):
            phi = coefficients_up_to(kth_root_of_one_plus_x(k), degree, method=method)
            for m in range(degree + 1):
                c = poly.coeff_monomial(x**m)
                assert phi.coefficient((m,)) == Fraction(int(c.p), int(c.q)), (method, m)


class TestDenominatorSupport:
    def test_sqrt_support_is_two(self):
        spec = sqrt_one_plus_x()
        phi = coefficients_up_to(spec, 60)
        support = denominator_support(phi)
        assert support.primes == frozenset({2})
        assert support.squarefree_product == 2

    def test_integer_series(self):
        phi = MultiSeries(1, 5, [((1,), Fraction(3)), ((2,), Fraction(-7))])
        support = denominator_support(phi)
        assert support.primes == frozenset()
        assert support.squarefree_product == 1

    def test_exponential_truncation_factorials(self):
        terms = [((k,), Fraction(1, math.factorial(k))) for k in range(1, 11)]
        phi = MultiSeries(1, 10, terms)
        support = denominator_support(phi)
        assert support.primes == frozenset({2, 3, 5, 7})

    def test_prime_support_matches_factorizing_every_denominator(self):
        numbers = [1, 2**40, 6**7, 35, 2**3 * 101**2, 999983 * 3, 1]
        expected = set()
        for n in numbers:
            expected |= set(factorize(n))
        assert prime_support(numbers) == expected
        assert prime_support([]) == frozenset()

    def test_monotone_in_degree(self):
        spec = sqrt_one_plus_x()
        small = denominator_support(coefficients_up_to(spec, 8)).primes
        large = denominator_support(coefficients_up_to(spec, 16)).primes
        assert small <= large
