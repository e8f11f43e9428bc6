"""Unit tests for the algebraic-series recursion and denominator analysis."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import eisenstein
from padicdyn.arith import factorize, prime_support
from padicdyn.eisenstein import (
    AlgebraicSeriesSpec,
    XPolynomial,
    coefficients_up_to,
    denominator_support,
    detect_vanishing_order,
)
from padicdyn.errors import DivisionFailureError, DomainError
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


class TestXPolynomialArguments:
    """Exponents and X-powers must be non-negative ints, not bools: a float
    is refused, never floored."""

    @pytest.mark.parametrize(
        "coeffs",
        [
            {1: {(1.5,): 1}},
            {1: {(2.0,): 1}},
            {1: {(True,): 1}},
            {1.7: {(1,): 1}},
            {2.0: {(1,): 1}},
            {True: {(1,): 1}},
            {"1": {(1,): 1}},
            {-1: {(1,): 1}},
            # a bad key is refused even when its coefficient is zero
            {1: {(1.5,): 0, (1,): 1}, 0: {('a', 'b'): 0, (0,): 1}},
        ],
    )
    def test_refused(self, coeffs):
        with pytest.raises(DomainError):
            XPolynomial(1, coeffs)

    def test_from_terms_refuses_a_bad_key_whose_terms_cancel(self):
        with pytest.raises(DomainError):
            XPolynomial.from_terms(1, [((1.5,), 1, 1), ((1.5,), 1, -1), ((0,), 0, 1)])

    def test_from_terms_refuses_a_float_x_power(self):
        with pytest.raises(DomainError):
            XPolynomial.from_terms(1, [((1,), 1.5, 1)])
        assert XPolynomial.from_terms(1, [((1,), 2, 1), ((0,), 0, -1)]).x_degree == 2

    @pytest.mark.parametrize("c", [0.1, 0.5, 0.0, "1/3"])
    def test_float_coefficients_refused(self, c):
        # Fraction(0.1) would store 3602879701896397/36028797018963968
        with pytest.raises(DomainError, match="rational"):
            XPolynomial(1, {1: {(1,): c}, 0: {(0,): 1}})
        with pytest.raises(DomainError, match="rational"):
            XPolynomial.from_terms(1, [((1,), 1, c), ((0,), 0, 1)])


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
        # s = 0, so coefficients_up_to lifts by Hensel; the pivot induction
        # is the reference
        spec = sqrt_one_plus_x()
        assert coefficients_up_to(spec, 12) == eisenstein._pivot_induction(spec, 12)

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
        pivot = eisenstein._pivot_induction(spec, 30)
        assert pivot == coefficients_up_to(spec, 30) == eisenstein._hensel(spec, 30)
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


def horner(relation, phi, trunc):
    """Reference F(x, phi) by Horner's rule, through the ring operations."""
    work = phi.truncated(trunc) if phi.trunc >= trunc else phi.as_polynomial(trunc)
    acc = relation.coefficient_series(relation.x_degree, trunc)
    for k in range(relation.x_degree - 1, -1, -1):
        acc = acc * work + relation.coefficient_series(k, trunc)
    return acc


class TestEvaluateByPowers:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 2),
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 4), st.integers(-5, 5)),
            max_size=8,
        ),
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 5)),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-5, 5)), max_size=6),
        st.integers(0, 6),
        st.integers(0, 7),
    )
    def test_keeps_exactly_the_layers_from_low(self, nvars, rel_terms, lead, phi_terms, degree, low):
        # at most 8 drawn terms of size <= 5 cannot cancel the coefficient 41,
        # so the relation is nonzero; its monomial may be non-constant
        a, b, top = lead
        terms = [((a_, b_)[:nvars], k, c) for a_, b_, k, c in rel_terms] + [((a, b)[:nvars], top, 41)]
        relation = XPolynomial.from_terms(nvars, terms)
        phi = MultiSeries(nvars, 4, [((a_, b_)[:nvars], c) for a_, b_, c in phi_terms])
        full = relation.evaluate(phi, degree)
        assert full == horner(relation, phi, degree)
        part = relation.evaluate(phi, degree, low=low)
        assert part.trunc == full.trunc
        for d in range(degree + 1):
            assert part.layer(d) == (full.layer(d) if d >= low else {})


def relation_from(nvars, coeffs):
    """XPolynomial from {X-power: [(x-exponents, coefficient)]}."""
    return XPolynomial.from_terms(nvars, [(e, k, Fraction(c)) for k, poly in coeffs.items() for e, c in poly])


# non-constant leading coefficient and nonzero a_(m-1); the root through 1
# is a simple root, so Hensel lifting starts from the seed 1
ROUTE_CASES = {
    "quadratic-1d": (1, {2: [((0,), 1), ((1,), 1)], 1: [((1,), 1)], 0: [((0,), -1)]}),
    "quadratic-1d-irrational": (1, {2: [((0,), 1), ((1,), 1)], 1: [((1,), 1)], 0: [((0,), -1), ((1,), -1)]}),
    "cubic-1d": (1, {3: [((0,), 1), ((1,), -1)], 2: [((1,), 1)], 0: [((0,), -1), ((1,), -1)]}),
    "quadratic-2d": (2, {2: [((0, 0), 1), ((1, 1), 1)], 1: [((1, 0), 1), ((0, 1), 2)], 0: [((0, 0), -1), ((1, 0), 1)]}),
    "quartic-2d": (2, {4: [((0, 0), 1), ((1, 0), 1), ((0, 2), 1)], 3: [((1, 0), 1), ((0, 1), -1)], 0: [((0, 0), -1), ((0, 1), -1)]}),
}


class TestRouteAgreement:
    """Hensel, pivot and sympy agree on relations with a non-constant
    leading coefficient (test-only sympy)."""

    @pytest.mark.parametrize(
        "name, degree",
        # Hensel caps 1, 3, 7, 15, 20 and 1, 3, 7, 15, 31; 1, 3, 7, 12 in two variables
        [("quadratic-1d", 20), ("quadratic-1d-irrational", 31), ("quadratic-1d-irrational", 20),
         ("cubic-1d", 20), ("quadratic-2d", 12), ("quartic-2d", 12)],
    )
    def test_hensel_pivot_and_sympy_agree(self, monkeypatch, name, degree):
        sympy = pytest.importorskip("sympy")
        nvars, coeffs = ROUTE_CASES[name]
        relation = relation_from(nvars, coeffs)
        spec = AlgebraicSeriesSpec.build(relation, MultiSeries.constant(1, nvars, 0))
        assert spec.vanishing_order == 0
        carried = []
        inverse_from = eisenstein._inverse_from
        monkeypatch.setattr(eisenstein, "_inverse_from", lambda s, y: carried.append(y.trunc) or inverse_from(s, y))
        hensel = coefficients_up_to(spec, degree)
        assert len(carried) >= 3
        assert hensel == eisenstein._pivot_induction(spec, degree)
        xs = sympy.symbols(f"x0:{nvars}")
        root = sympy.Poly(
            sum(sympy.Rational(c.numerator, c.denominator) * sympy.prod([x**e for x, e in zip(xs, exps)])
                for exps, c in hensel.terms()),
            *xs, domain="QQ",
        )
        value = sympy.Poly(0, *xs, domain="QQ")
        for k, poly in coeffs.items():
            a_k = sympy.Poly(sum(c * sympy.prod([x**e for x, e in zip(xs, exps)]) for exps, c in poly), *xs, domain="QQ")
            value += a_k * root**k
        assert all(sum(exps) > degree for exps, c in value.terms() if c)
        if nvars == 1:
            # the root through 1 of a2 X^2 + a1 X + a0 in closed form
            x = xs[0]
            a2, a1, a0 = (sum(c * x**e[0] for e, c in coeffs.get(k, [])) for k in (2, 1, 0))
            if name.startswith("quadratic"):
                closed = (-a1 + sympy.sqrt(a1**2 - 4 * a2 * a0)) / (2 * a2)
                expansion = sympy.Poly(sympy.series(closed, x, 0, degree + 1).removeO(), x, domain="QQ")
                assert root == expansion


def ramified_root():
    """(X - x)^2 = x^6 (1 + x) from the seed x + x^3: vanishing order 3."""
    relation = XPolynomial.from_terms(
        1, [((0,), 2, 1), ((1,), 1, -2), ((2,), 0, 1), ((6,), 0, -1), ((7,), 0, -1)]
    )
    return AlgebraicSeriesSpec.build(relation, MultiSeries(1, 3, [((1,), Fraction(1)), ((3,), Fraction(1))]))


class TestFinalCheck:
    """coefficients_up_to checks F(phi) through degree + s on whatever the
    route returns."""

    # the route, and the case whose vanishing order sends coefficients_up_to
    # there: the cube root of 1 + x (s = 0) to Hensel, a ramified root
    # (s = 3) to the pivot induction
    @pytest.mark.parametrize("route, case", [("_hensel", "hensel"), ("_pivot_induction", "pivot")])
    @pytest.mark.parametrize("where", ["low", "top"])
    def test_a_perturbed_coefficient_is_caught(self, monkeypatch, route, case, where):
        spec = kth_root_of_one_plus_x(3) if case == "hensel" else ramified_root()
        assert (spec.vanishing_order == 0) == (case == "hensel")
        degree = 12
        original = getattr(eisenstein, route)

        def perturbed(spec, degree):
            phi = original(spec, degree)
            d = 1 if where == "low" else degree
            return phi + MultiSeries(1, phi.trunc, [((d,), Fraction(1, 7))])

        monkeypatch.setattr(eisenstein, route, perturbed)
        with pytest.raises(DivisionFailureError):
            coefficients_up_to(spec, degree)

    def test_perturbed_ramified_root_is_caught(self, monkeypatch):
        # s = 3: the top coefficient shows at degree + 3
        spec = ramified_root()
        original = eisenstein._pivot_induction
        monkeypatch.setattr(
            eisenstein,
            "_pivot_induction",
            lambda spec, degree: original(spec, degree) + MultiSeries(1, degree, [((degree,), Fraction(1))]),
        )
        with pytest.raises(DivisionFailureError):
            coefficients_up_to(spec, 20)


class TestAgainstSympy:
    """Differential test against sympy's series expansion (test-only dependency)."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_kth_root_of_one_plus_x(self, k):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        degree = 25
        expansion = sympy.series((1 + x) ** sympy.Rational(1, k), x, 0, degree + 1).removeO()
        poly = sympy.Poly(expansion, x)
        spec = kth_root_of_one_plus_x(k)
        for route, phi in (("hensel", coefficients_up_to(spec, degree)), ("pivot", eisenstein._pivot_induction(spec, degree))):
            for m in range(degree + 1):
                c = poly.coeff_monomial(x**m)
                assert phi.coefficient((m,)) == Fraction(int(c.p), int(c.q)), (route, m)


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
