"""Unit tests for neighbourhood iteration, vanishing sums, and density probes."""

import random
import threading
from fractions import Fraction

import pytest

from padicdyn.arith import fraction_abs
from padicdyn.dynamics import AnalyticMap
from padicdyn.errors import (
    DomainError,
    IntegralityError,
    PrecisionError,
    TorsionError,
)
from padicdyn.orbit import (
    Neighbourhood,
    VanishingSumInstance,
    closure_dimension_estimate,
    graded_monomials,
    interpolation_reduction,
    iterate_in_neighbourhood,
    relation_probe,
    separating_polynomial,
    union_closure_compare,
    vanishing_exponents,
)
from padicdyn.series import MultiSeries, SeriesTuple


def build_map(component_terms, trunc, r=0):
    nvars = len(component_terms)
    comps = [
        MultiSeries(nvars, trunc, [(e, Fraction(c)) for e, c in terms])
        for terms in component_terms
    ]
    return AnalyticMap(SeriesTuple(comps), fixed_locus_dim=r)


def doubling_map(trunc=4):
    return build_map([[((1,), 2), ((2,), 1)]], trunc)


class TestIterateInNeighbourhood:
    def test_integer_iteration_oracle(self):
        # direct integer iteration of 2x + x^2 from 3
        nbhd = Neighbourhood(prime=3, level=1, dim=1)
        result = iterate_in_neighbourhood(doubling_map(), [Fraction(3)], 5, nbhd, precision=40)
        value = 3
        for step in range(1, 6):
            value = 2 * value + value * value
            assert result.points[step][0].residue(40) == value % 3**40
        assert result.stays_in_neighbourhood
        assert result.constant_mod_level

    def test_fixed_point_orbit(self):
        nbhd = Neighbourhood(prime=5, level=1, dim=1)
        result = iterate_in_neighbourhood(doubling_map(), [Fraction(0)], 4, nbhd)
        assert all(pt[0].is_zero() for pt in result.points)
        assert result.stays_in_neighbourhood

    def test_rejects_non_integral_coefficient(self):
        f = build_map([[((1,), 2), ((2,), Fraction(1, 3))]], 4)
        nbhd = Neighbourhood(prime=3, level=1, dim=1)
        with pytest.raises(IntegralityError):
            iterate_in_neighbourhood(f, [Fraction(3)], 2, nbhd)

    def test_rejects_outside_point(self):
        nbhd = Neighbourhood(prime=3, level=1, dim=1)
        with pytest.raises(DomainError):
            iterate_in_neighbourhood(doubling_map(), [Fraction(1)], 2, nbhd)

    def test_rejects_insufficient_precision(self):
        nbhd = Neighbourhood(prime=3, level=4, dim=1)
        with pytest.raises(PrecisionError):
            iterate_in_neighbourhood(doubling_map(), [Fraction(81)], 2, nbhd, precision=2)

    def test_randomized_invariance(self):
        rng = random.Random(83)
        for _ in range(60):
            p = rng.choice((3, 5, 7))
            n = rng.randint(1, 3)
            comps = []
            for i in range(n):
                terms = [(tuple(1 if k == i else 0 for k in range(n)), Fraction(rng.randint(1, p * 2)))]
                for _ in range(3):
                    exps = tuple(rng.randint(0, 2) for _ in range(n))
                    if 2 <= sum(exps) <= 3:
                        terms.append((exps, Fraction(rng.randint(-9, 9))))
                comps.append(MultiSeries(n, 3, terms))
            f = AnalyticMap(SeriesTuple(comps))
            start = [Fraction(p * rng.randint(1, 8)) for _ in range(n)]
            nbhd = Neighbourhood(prime=p, level=1, dim=n)
            result = iterate_in_neighbourhood(f, start, 12, nbhd, precision=48)
            assert result.stays_in_neighbourhood
            assert result.constant_mod_level


class TestNeighbourhoodMembership:
    def test_contains_padic_points(self):
        from padicdyn.padic import PAdic

        nbhd = Neighbourhood(prime=5, level=2, dim=2)
        inside = (PAdic.from_rational(25, 5, 8), PAdic.from_rational(50, 5, 8))
        outside = (PAdic.from_rational(5, 5, 8), PAdic.from_rational(25, 5, 8))
        assert nbhd.contains(inside)
        assert not nbhd.contains(outside)
        assert not nbhd.contains(inside[:1])

    def test_level_must_be_positive(self):
        with pytest.raises(DomainError):
            Neighbourhood(prime=5, level=0, dim=1)

    def test_prime_must_be_odd_prime(self):
        for prime in (1, 2, 9):
            with pytest.raises(DomainError):
                Neighbourhood(prime, 1, 2)


class TestVanishingSum:
    def test_planted_solution(self):
        inst = VanishingSumInstance([3, -2], [2, 3], prime=5)
        report = vanishing_exponents(inst, 50)
        assert report.solutions == {1}

    def test_no_solution(self):
        inst = VanishingSumInstance([1, -1], [2, 3], prime=5)
        report = vanishing_exponents(inst, 50)
        assert report.solutions == frozenset()

    def test_product_pattern(self):
        # (2^s - 1)(3^s - 1) = 6^s - 3^s - 2^s + 1 never vanishes for s >= 1
        inst = VanishingSumInstance([1, -1, -1, 1], [1, 2, 3, 6], prime=5)
        report = vanishing_exponents(inst, 200)
        assert report.solutions == frozenset()

    def test_matches_exact_brute_force(self):
        rng = random.Random(89)
        for _ in range(15):
            a = [Fraction(rng.randint(1, 9)), Fraction(-rng.randint(1, 9))]
            b = [Fraction(2), Fraction(3)]
            inst = VanishingSumInstance(a, b, prime=5)
            report = vanishing_exponents(inst, 60)
            exact = {
                s
                for s in range(1, 61)
                if a[0] * b[0] ** s + a[1] * b[1] ** s == 0
            }
            assert report.solutions == exact

    def test_certificate_fields(self):
        inst = VanishingSumInstance([3, -2], [2, 3], prime=5)
        report = vanishing_exponents(inst, 10)
        cert = report.certificate
        assert cert.stabilizing_exponent == 4
        assert cert.logs_pairwise_distinct
        assert cert.separating.verified

    def test_torsion_rejected(self):
        with pytest.raises(TorsionError):
            VanishingSumInstance([1, 1], [2, -2], prime=5)

    def test_rejects_non_unit(self):
        with pytest.raises(DomainError):
            VanishingSumInstance([1], [5], prime=5)

    def test_prime_below_two_raises(self):
        # the valuation loop never ends for p = 1 unless the base is checked,
        # so the attempt runs in a worker bounded by a join timeout
        outcome = []

        def attempt():
            try:
                VanishingSumInstance([1], [2], prime=1)
            except ValueError:
                outcome.append("rejected")

        worker = threading.Thread(target=attempt, daemon=True)
        worker.start()
        worker.join(30)
        assert not worker.is_alive(), "prime 1 did not finish within 30 s"
        assert outcome == ["rejected"]


class TestSeparatingPolynomial:
    def test_level_one_example(self):
        # P(x) = x (x-2) (x-3) (x-4) separates 1 from 2 at p = 5
        sep = separating_polynomial([Fraction(1), Fraction(2)], 0, 1, 5)
        assert sep.level == 1
        expected_roots = {0, 2, 3, 4}
        values = {r for r in range(5) if sep.eval(Fraction(r)) == 0}
        assert values == expected_roots
        assert sep.target_abs == 1
        assert fraction_abs(sep.eval(Fraction(2)), 5) < sep.target_abs
        assert sep.verified

    def test_single_unit(self):
        sep = separating_polynomial([Fraction(3)], 0, 1, 5)
        assert sep.verified
        assert fraction_abs(sep.eval(Fraction(3)), 5) == sep.target_abs

    def test_level_raised_until_separated(self):
        sep = separating_polynomial([Fraction(1), Fraction(6)], 0, 1, 5)
        assert sep.level == 2
        assert sep.verified

    def test_norm_properties_on_class_members(self):
        sep = separating_polynomial([Fraction(1), Fraction(2)], 0, 1, 5)
        # any representative of the target class keeps the norm
        for lift in (1, 6, 11, -4):
            assert fraction_abs(sep.eval(Fraction(lift)), 5) == sep.target_abs
        # members of other unit classes drop strictly
        for other in (2, 7, 3, 4, 9):
            assert fraction_abs(sep.eval(Fraction(other)), 5) < sep.target_abs


class TestInterpolationReduction:
    def test_order_zero_is_plain_evaluation(self):
        inst = VanishingSumInstance([3, -2], [2, 3], prime=5, precision=12)
        out = interpolation_reduction(inst, [9, 5, 1], 0)
        # windows slide upward through the sorted samples
        for value, s in zip(out, [1, 5, 9]):
            direct = inst.evaluate(s)
            assert (value - direct).is_zero()

    def test_first_order_matches_direct_quotient(self):
        # oracle: (g(j1) - g(j2)) / (j1 - j2) computed from exact rationals
        inst = VanishingSumInstance([1, -1], [2, 7], prime=5, precision=12)
        j1, j2 = 1 + 4 * 25, 1 + 4 * 5
        out = interpolation_reduction(inst, [j1, j2], 1)
        assert len(out) == 1

        def g(s):
            return Fraction(2) ** s - Fraction(7) ** s

        from padicdyn.padic import PAdic

        direct = PAdic.from_rational(
            Fraction(g(j1) - g(j2), j1 - j2), 5, 12
        )
        assert (out[0] - direct).is_zero()

    def test_outputs_converge_toward_derivative_value(self):
        inst = VanishingSumInstance([3, -2], [2, 3], prime=5, precision=16)
        samples = [1 + 4 * 5**t for t in range(5, 0, -1)]
        out = interpolation_reduction(inst, samples, 1)
        # Cauchy certificate: valuations of successive differences grow
        gaps = [(b - a).valuation for a, b in zip(out, out[1:])]
        assert all(later > earlier for earlier, later in zip(gaps, gaps[1:]))
        # the limit is the derivative data at the accumulation point s0 = 1:
        # sum a_i b_i^(s0) log(b_i^M) / M, a nonzero 5-adic number
        limit_direct = out[-1]
        assert not limit_direct.is_zero()

    def test_rejects_incongruent_samples(self):
        inst = VanishingSumInstance([3, -2], [2, 3], prime=5)
        with pytest.raises(DomainError):
            interpolation_reduction(inst, [5, 2, 1], 1)

    def test_rejects_short_sample_list(self):
        inst = VanishingSumInstance([3, -2], [2, 3], prime=5)
        with pytest.raises(DomainError):
            interpolation_reduction(inst, [9, 5], 2)


class TestRelationProbe:
    def test_parabola_found(self):
        points = []
        x, y = Fraction(1), Fraction(1)
        for _ in range(50):
            points.append((x, y))
            x, y = 2 * x, 4 * y
        probe = relation_probe(points, 2)
        # y2 - y1^2 vanishes on the orbit of (1,1) under (2x, 4y)
        candidate = {(0, 1): Fraction(1), (2, 0): Fraction(-1)}
        assert probe.contains_relation(candidate)

    def test_independent_orbit_empty_kernel(self):
        points = []
        x, y = Fraction(1), Fraction(1)
        for _ in range(50):
            points.append((x, y))
            x, y = 2 * x, 3 * y
        probe = relation_probe(points, 4)
        assert probe.kernel == ()
        assert probe.sufficient_points

    def test_single_point_underdetermined(self):
        probe = relation_probe([(Fraction(1), Fraction(2))], 1)
        assert len(probe.kernel) == 2
        assert not probe.sufficient_points

    def test_kernel_vectors_annihilate_points(self):
        rng = random.Random(97)
        points = [
            (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
            for _ in range(4)
        ]
        probe = relation_probe(points, 2)
        for poly in probe.kernel_polynomials():
            for pt in points:
                assert poly.eval(list(pt)) == 0

    def test_monomial_count(self):
        assert len(graded_monomials(2, 2)) == 6
        assert len(graded_monomials(3, 2)) == 10

    def test_padic_points_find_relation(self):
        # orbit of (3, 3) under (2x, 4y) at p = 3: y1^2 = 3 y2 on every point
        from padicdyn.padic import PAdic

        points = []
        x, y = Fraction(3), Fraction(3)
        for _ in range(12):
            points.append(
                (PAdic.from_rational(x, 3, 24), PAdic.from_rational(y, 3, 24))
            )
            x, y = 2 * x, 4 * y
        probe = relation_probe(points, 2)
        assert probe.kernel
        for vec in probe.kernel:
            # verify each kernel vector annihilates every point at precision
            for pt in points:
                total = PAdic.zero(3)
                for mono, coeff in zip(probe.monomials, vec):
                    if coeff.is_zero():
                        continue
                    term = coeff
                    for v, e in zip(pt, mono):
                        for _ in range(e):
                            term = term * v
                    total = total + term
                assert total.is_zero()

    def test_padic_independent_orbit_empty_kernel(self):
        from padicdyn.padic import PAdic

        points = []
        x, y = Fraction(3), Fraction(3)
        for _ in range(10):
            points.append(
                (PAdic.from_rational(x, 5, 30), PAdic.from_rational(y, 5, 30))
            )
            x, y = 2 * x, 3 * y
        probe = relation_probe(points, 2)
        assert probe.kernel == ()


class TestClosureDimension:
    def test_independent_multipliers(self):
        est = closure_dimension_estimate([Fraction(2), Fraction(3)], [1, 1], 50, 4)
        assert est.lower_bound == 2
        assert est.estimated_dimension == 2
        assert est.consistent
        assert est.probe.kernel == ()

    def test_dependent_multipliers(self):
        est = closure_dimension_estimate([Fraction(2), Fraction(4)], [1, 1], 50, 2)
        assert est.lower_bound == 1
        assert est.estimated_dimension == 1
        assert est.consistent

    def test_identity_multipliers(self):
        est = closure_dimension_estimate([Fraction(1), Fraction(1)], [1, 2], 10, 2)
        assert est.lower_bound == 0
        assert est.estimated_dimension == 0

    def test_rejects_axis_point(self):
        with pytest.raises(DomainError):
            closure_dimension_estimate([Fraction(2), Fraction(3)], [0, 1], 10, 2)


class TestUnionClosure:
    def test_even_vs_odd_diagonal(self):
        f = build_map([[((1, 0), 2)], [((0, 1), 3)]], 4)
        sample = [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(2))]
        evens = range(0, 40, 2)
        odds = range(1, 40, 2)
        cmp = union_closure_compare(f, sample, evens, odds, 3)
        assert cmp.equal

    def test_same_sets_trivially_equal(self):
        f = build_map([[((1, 0), 2)], [((0, 1), 3)]], 4)
        sample = [(Fraction(1), Fraction(1))]
        cmp = union_closure_compare(f, sample, range(5), range(5), 2)
        assert cmp.equal

    def test_sign_torsion_rejected(self):
        f = build_map([[((1, 0), 2)], [((0, 1), -2)]], 4)
        with pytest.raises(TorsionError):
            union_closure_compare(f, [(1, 1)], range(4), range(4), 2)

    def test_equal_negative_multipliers_allowed(self):
        # both multipliers -2: the group is torsion-free and closures agree
        f = build_map([[((1, 0), -2)], [((0, 1), -2)]], 4)
        sample = [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(1))]
        cmp = union_closure_compare(f, sample, range(0, 30, 2), range(1, 30, 2), 2)
        assert cmp.equal

    def test_genuine_torsion_changes_closure(self):
        # multipliers (2, -2): even iterates live on y1 = y2 lines, odd on
        # y1 = -y2; the corollary genuinely fails, detected as torsion
        f = build_map([[((1, 0), 2)], [((0, 1), -2)]], 4)
        with pytest.raises(TorsionError):
            union_closure_compare(f, [(1, 1)], range(0, 10, 2), range(1, 10, 2), 2)
