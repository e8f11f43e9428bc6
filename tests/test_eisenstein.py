"""Unit tests for the algebraic-series recursion and denominator analysis."""

import math
import random
from collections import Counter
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
from padicdyn.series import MultiSeries, _pivot_quotient


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
        spec = two_variable_ramified_root()
        assert spec.vanishing_order == 2
        phi = coefficients_up_to(spec, 24)
        expected = {(1, 0): Fraction(1)}
        for (a, b), c in sqrt_of_one_plus_sum(22).items():
            expected[(a, b + 2)] = c
        assert dict(phi.terms()) == {e: c for e, c in expected.items() if c}

    def test_a_two_term_pivot_form(self):
        # (X - x1)^2 = u^2 (1 + x1 + x2) for u = x1 x2 + x2^2, seed x1 + u:
        # F' = 2 (X - x1) is 2 x1 x2 + 2 x2^2 at the seed, so s = 2 and each
        # step divides by both terms, pivoting on x1 x2
        x1, x2 = (MultiSeries.variable(i, 2, 5) for i in range(2))
        u = x1 * x2 + x2 * x2
        rhs = u * u * (MultiSeries.one(2, 5) + x1 + x2)
        terms = [((0, 0), 2, 1), ((1, 0), 1, -2), ((2, 0), 0, 1)]
        terms += [(e, 0, -c) for e, c in rhs.terms()]
        relation = XPolynomial.from_terms(2, terms)
        seed = MultiSeries(2, 2, [((1, 0), Fraction(1)), ((1, 1), Fraction(1)), ((0, 2), Fraction(1))])
        spec = AlgebraicSeriesSpec.build(relation, seed)
        assert (spec.vanishing_order, spec.pivot_monomial, spec.pivot_coefficient) == (2, (1, 1), 2)
        degree = 14
        phi = coefficients_up_to(spec, degree)
        # x1 + u sqrt(1 + x1 + x2), the square root by multinomials
        expected = Counter({(1, 0): Fraction(1)})
        for (a, b), c in sqrt_of_one_plus_sum(degree - 2).items():
            expected[(a + 1, b + 1)] += c
            expected[(a, b + 2)] += c
        assert dict(phi.terms()) == {e: c for e, c in expected.items() if c and sum(e) <= degree}

    def test_no_series_or_fraction_is_built_per_degree(self, monkeypatch):
        # the relation's coefficient series are packed once per relation, by
        # the first run; a second run at degree 24 then builds no more
        # series and Fractions than one that grows no layer
        spec = two_variable_ramified_root()
        phi = coefficients_up_to(spec, 24)
        made = Counter()
        fraction_new, series_init = Fraction.__new__, MultiSeries.__init__

        def counted_new(cls, *args, **kwargs):
            made["Fraction"] += 1
            return fraction_new(cls, *args, **kwargs)

        def counted_init(self, *args, **kwargs):
            made["MultiSeries"] += 1
            series_init(self, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
        monkeypatch.setattr(MultiSeries, "__init__", counted_init)
        assert eisenstein._pivot_induction(spec, spec.seed.trunc) == spec.seed
        outside = Counter(made)
        made.clear()
        grown = eisenstein._pivot_induction(spec, 24)
        monkeypatch.undo()
        assert grown == phi
        assert outside["MultiSeries"] > 0
        assert made == outside

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


def kth_power_root(k):
    """(X - x)^k = x^(3k) (1 + x), the seed exact through degree 3(k - 1):
    the root x + x^3 (1 + x)^(1/k), of vanishing order 3(k - 1)."""
    terms = [((k - i,), i, math.comb(k, i) * (-1) ** (k - i)) for i in range(k + 1)]
    terms += [((3 * k,), 0, -1), ((3 * k + 1,), 0, -1)]
    top = 3 * (k - 1)
    seed = MultiSeries(1, top, [((1,), Fraction(1))] + [((m + 3,), binomial(Fraction(1, k), m)) for m in range(top - 2)])
    return AlgebraicSeriesSpec.build(XPolynomial.from_terms(1, terms), seed)


def induction_by_evaluation(spec, degree):
    """Reference: the graded induction with one evaluation of F per degree,
    layer d + s alone, and nothing kept between degrees."""
    s = spec.vanishing_order
    divisor = eisenstein._pivot_form(spec.relation, spec.seed, s)
    phi = spec.seed
    for d in range(spec.seed.trunc + 1, degree + 1):
        phi = phi._grown(_pivot_quotient(spec.relation.evaluate(phi, d + s, low=d + s), divisor))
    return phi


def product_relation(nvars, unit, roots):
    """u(x) prod_i (X - r_i) for polynomials u and r_i given as
    {exponents: coefficient}, as an XPolynomial."""
    poly = {(e, 0): c for e, c in unit.items()}
    for root in roots:
        out = Counter()
        for (e, k), c in poly.items():
            out[(e, k + 1)] += c
            for f, r in root.items():
                out[(tuple(a + b for a, b in zip(e, f)), k)] -= c * r
        poly = out
    return XPolynomial.from_terms(nvars, [(e, k, c) for (e, k), c in poly.items() if c])


class TestKeptPowers:
    """The pivot induction at X-degree 3 and 4, where it keeps phi^j for
    2 <= j < m and grows them by each new layer."""

    @pytest.mark.parametrize("k", [3, 4])
    def test_binomial_oracle_at_degree_60(self, k):
        spec = kth_power_root(k)
        assert (spec.relation.x_degree, spec.vanishing_order) == (k, 3 * (k - 1))
        phi = coefficients_up_to(spec, 60)
        expected = {(1,): Fraction(1)}
        expected.update({(m + 3,): binomial(Fraction(1, k), m) for m in range(58)})
        assert dict(phi.terms()) == {e: c for e, c in expected.items() if c}
        assert phi == induction_by_evaluation(spec, 60)

    @pytest.mark.parametrize("k", [3, 4])
    def test_against_sympy_at_degree_12(self, k):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        phi = coefficients_up_to(kth_power_root(k), 12)
        root = sum(sympy.Rational(c.numerator, c.denominator) * x ** e for (e,), c in phi.terms())
        expansion = sympy.series(x + x**3 * (1 + x) ** sympy.Rational(1, k), x, 0, 13).removeO()
        assert sympy.expand(root - expansion) == 0
        value = sympy.Poly(sympy.expand((root - x) ** k - x ** (3 * k) * (1 + x)), x)
        assert all(e > 12 + 3 * (k - 1) for (e,), c in value.terms() if c)

    def test_matches_an_evaluation_per_degree_randomized(self):
        # u (X - r_1) ... (X - r_m) with r_2 = r_1 + a form of degree t + 1:
        # the seed r_1 through degree s picks the root r_1, a polynomial, and
        # each degree up to and past its top divides a layer of F(phi)
        rng = random.Random(3604)
        pool = [Fraction(x) for x in (1, -1, 2, -3)] + [Fraction(1, 2), Fraction(-2, 3)]
        checked = Counter()
        for _ in range(40):
            nvars, m = rng.choice((1, 1, 2)), rng.randint(2, 4)
            t = rng.randint(0, 2)
            r1 = Counter({(0,) * nvars: rng.choice(pool)})
            for _ in range(rng.randint(1, 4)):
                r1[tuple(rng.randint(0, 3) for _ in range(nvars))] += rng.choice(pool)
            r2 = Counter(r1)
            r2.update(random_form(rng, nvars, t + 1, rng.randint(1, 2)))
            others = [{(0,) * nvars: Fraction(5 + i)} | random_form(rng, nvars, 1, 1) for i in range(m - 2)]
            unit = {(0,) * nvars: Fraction(1)} | random_form(rng, nvars, rng.randint(1, 2), 2)
            relation = product_relation(nvars, unit, [r1, r2] + others)
            spec = AlgebraicSeriesSpec.build(relation, MultiSeries(nvars, 4, r1.items()))
            s = spec.vanishing_order
            assert 1 <= s <= 4
            degree = rng.randint(4, 9)
            phi = eisenstein._pivot_induction(spec, degree)
            assert phi == MultiSeries(nvars, degree, r1.items())
            assert phi == induction_by_evaluation(spec, degree)
            checked[m] += 1
        assert min(checked[m] for m in (2, 3, 4)) >= 5


def two_variable_ramified_root():
    """(X - x1)^2 = x2^4 (1 + x1 + x2) from the seed x1 + x2^2: s = 2."""
    relation = XPolynomial.from_terms(
        2,
        [((0, 0), 2, 1), ((1, 0), 1, -2), ((2, 0), 0, 1), ((0, 4), 0, -1), ((1, 4), 0, -1), ((0, 5), 0, -1)],
    )
    return AlgebraicSeriesSpec.build(relation, MultiSeries(2, 2, [((1, 0), Fraction(1)), ((0, 2), Fraction(1))]))


def sqrt_of_one_plus_sum(degree):
    """{(a, b): coefficient} of sqrt(1 + x1 + x2) through the degree, from
    C(1/2, a + b) and the multinomial (a + b)! / (a! b!)."""
    return {
        (a, b): binomial(Fraction(1, 2), a + b) * math.comb(a + b, a)
        for a in range(degree + 1)
        for b in range(degree + 1 - a)
    }


def valuation_key(exps):
    return tuple(reversed(exps))


def divide_forms(numerator, divisor, pivot):
    """Reference: exact division of homogeneous forms of Fraction
    coefficients by valuation-ordered long division, each lead the
    remainder's least monomial in the reversed-tuple order."""
    pivot_coeff = divisor[pivot]
    remainder = dict(numerator)
    quotient = {}
    while remainder:
        lead = min(remainder, key=valuation_key)
        shift = tuple(a - b for a, b in zip(lead, pivot))
        if any(x < 0 for x in shift):
            raise DivisionFailureError(
                f"pivot {pivot} does not divide {lead}; wrong vanishing order or bad seed"
            )
        factor = remainder[lead] / pivot_coeff
        quotient[shift] = quotient.get(shift, Fraction(0)) + factor
        for mono, coeff in divisor.items():
            key = tuple(a + b for a, b in zip(shift, mono))
            acc = remainder.get(key, Fraction(0)) - factor * coeff
            if acc:
                remainder[key] = acc
            else:
                remainder.pop(key, None)
    return quotient


def random_form(rng, nvars, degree, count):
    """A homogeneous form of up to count terms with small rational
    coefficients, as {exponents: Fraction}."""
    pool = [Fraction(x) for x in (1, -1, 2, -2, 3, 6, -4)] + [Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]
    form = {}
    for _ in range(count):
        cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
        exps = tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))
        form[exps] = rng.choice(pool)
    return form


def multiply_forms(a, b):
    out = Counter()
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[tuple(x + y for x, y in zip(ea, eb))] += ca * cb
    return {e: c for e, c in out.items() if c}


class TestPivotQuotient:
    """series._pivot_quotient against the Fraction long division it
    replaced, on random multi-term divisors."""

    def test_matches_the_fraction_reference_randomized(self):
        rng = random.Random(3402)
        exact = failed = 0  # exact divisions by more than one term, failures
        for _ in range(400):
            nvars = rng.choice((1, 2, 2, 3, 3))
            s, t = rng.choice((0, 1, 2, 2, 3, 3)), rng.randint(0, 4)
            divisor = random_form(rng, nvars, s, rng.randint(1, 4))
            numerator = multiply_forms(divisor, random_form(rng, nvars, t, rng.randint(1, 5)))
            if rng.random() < 0.3:
                # one more monomial: dividing only where the divisor is one
                # monomial that divides it
                for e, c in random_form(rng, nvars, s + t, 1).items():
                    numerator[e] = numerator.get(e, 0) + c
                numerator = {e: c for e, c in numerator.items() if c}
            pivot = min(divisor, key=valuation_key)
            got_series = MultiSeries(nvars, s + t, numerator.items())
            divisor_series = MultiSeries(nvars, s, divisor.items())
            try:
                want = divide_forms(numerator, divisor, pivot)
            except DivisionFailureError as reference_error:
                with pytest.raises(DivisionFailureError) as error:
                    _pivot_quotient(got_series, divisor_series)
                assert str(error.value) == str(reference_error)
                failed += 1
                continue
            got = _pivot_quotient(got_series, divisor_series)
            assert got == -MultiSeries(nvars, t, want.items())
            exact += len(divisor) > 1
        assert exact > 80 and failed > 30

    def test_a_zero_layer_has_a_zero_quotient(self):
        divisor = MultiSeries(2, 1, [((1, 0), Fraction(2)), ((0, 1), Fraction(1))])
        assert _pivot_quotient(MultiSeries.zero(2, 4), divisor) == MultiSeries.zero(2, 3)


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
        # each Hensel step divides F(phi) by F'(phi) in one 1 x 1 solve at
        # its cap, and no step forms a series inverse
        solved = []
        solve = eisenstein._series_solve

        def counted(mat, rhs):
            assert len(mat) == len(mat[0]) == len(rhs) == 1 and not rhs[0].is_zero()
            solved.append(rhs.trunc)
            return solve(mat, rhs)

        def no_inverse(self):
            raise AssertionError("a Hensel step formed a series inverse")

        monkeypatch.setattr(eisenstein, "_series_solve", counted)
        monkeypatch.setattr(MultiSeries, "inverse", no_inverse)
        hensel = coefficients_up_to(spec, degree)
        caps = [1]
        while caps[-1] < degree:
            caps.append(min(2 * caps[-1] + 1, degree))
        assert solved == caps
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
