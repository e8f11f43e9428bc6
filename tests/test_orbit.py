"""Unit tests for neighbourhood iteration, vanishing sums, and density probes."""

import random
import threading
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padicdyn import orbit as orbit_module
from padicdyn import ratlinalg
from padicdyn.arith import fraction_abs, fraction_valuation
from padicdyn.dynamics import AnalyticMap, jacobian_at_origin
from padicdyn.errors import (
    DomainError,
    IntegralityError,
    PrecisionError,
    TorsionError,
)
from padicdyn.orbit import (
    Neighbourhood,
    _padic_kernel_basis,
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
from padicdyn.padic import INFINITY, PAdic
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


def leibniz_det(m):
    """Determinant over Q as the signed sum over permutations."""
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i in range(len(m)) for j in range(i + 1, len(m)))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(len(m)))
    return total


def orbit_oracle(prime, level, precision, comps, start, steps):
    """Every OrbitResult field but the neighbourhood, by plain integer
    iteration mod p**precision and a Leibniz determinant over Q; each point
    is given as the (prime, valuation, unit_digits, precision) fields of its
    coordinates."""
    mod = prime**precision

    def residue(q):
        return q.numerator * pow(q.denominator, -1, mod) % mod

    pts = [tuple(residue(x) for x in start)]
    for _ in range(steps):
        x = pts[-1]
        pts.append(tuple(
            sum(residue(c) * prod(pow(xi, e, mod) for xi, e in zip(x, exps)) for exps, c in terms) % mod
            for terms in comps
        ))

    def valuation(x):
        x %= mod
        if x == 0:
            return precision
        v = 0
        while x % prime == 0:
            x //= prime
            v += 1
        return v

    def fields(x):
        v = valuation(x)
        return (prime, v, x // prime**v, precision - v) if x else (prime, precision, 0, 0)

    n = len(comps)
    linear = [[Fraction(dict(terms).get(tuple(int(k == j) for k in range(n)), 0)) for j in range(n)] for terms in comps]
    det = leibniz_det(linear)
    unit = det != 0 and det.numerator % prime != 0 and det.denominator % prime != 0
    checked = skipped = 0
    if unit:
        for a, b in zip(pts, pts[1:-1]):
            if min(valuation(x - y) for x, y in zip(a, b)) >= precision:
                skipped += 1
            else:
                checked += 1
    return (
        [tuple(fields(x) for x in pt) for pt in pts],
        all(x % prime**level == 0 for pt in pts for x in pt),
        all((x - x0) % prime**level == 0 for pt in pts for x, x0 in zip(pt, pts[0])),
        unit,
        checked,
        skipped,
    )


def random_orbit_case(rng):
    """(prime, level, precision, comps, start, steps) for a random p-integral
    map whose linear part is general, triangular with determinant p times a
    unit, triangular with unit/2 on the diagonal, or the identity; with the
    identity every nonlinear term has a factor x_0, and x_0 = 0 at the
    start, so the orbit is a fixed point.  Coefficient denominators are prime to
    p, and some starts have zero coordinates."""
    prime = rng.choice((3, 5, 7))
    n = rng.randint(1, 3)
    level = rng.choice((1, 1, 2))
    precision = rng.choice((level, level + 2, 12, 40))
    dens = [d for d in (1, 2, 4, 7, 8, 11) if d % prime]

    def coeff():
        return Fraction(rng.randint(-9, 9), rng.choice(dens))

    def unit():
        return Fraction(rng.choice([c for c in range(1, 3 * prime) if c % prime]), rng.choice(dens))

    kind = rng.choice(("general", "p-times-unit", "halved", "fixed"))
    if kind == "general":
        linear = [[coeff() for _ in range(n)] for _ in range(n)]
    elif kind == "fixed":
        linear = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    else:
        # lower triangular, so det is the product of the diagonal
        linear = [[coeff() if j < i else Fraction(0) for j in range(n)] for i in range(n)]
        for i in range(n):
            linear[i][i] = unit() if kind == "p-times-unit" else unit() / 2
        if kind == "p-times-unit":
            row = rng.randrange(n)
            linear[row][row] *= prime
    comps = []
    for i in range(n):
        terms = {tuple(int(k == j) for k in range(n)): linear[i][j] for j in range(n) if linear[i][j]}
        for _ in range(rng.randint(0, 3)):
            exps = [rng.randint(0, 2) for _ in range(n)]
            if kind == "fixed":
                exps[0] = max(exps[0], 1)
            if 2 <= sum(exps) <= 3:
                terms[tuple(exps)] = coeff() or Fraction(1)
        comps.append(sorted(terms.items()))
    start = [
        Fraction(prime**level * rng.randint(-20, 20), rng.choice(dens)) if rng.random() < 0.7 else Fraction(0)
        for _ in range(n)
    ]
    if kind == "fixed":
        start[0] = Fraction(0)
    return prime, level, precision, comps, start, rng.randint(0, 10)


class TestIterateInNeighbourhood:
    def test_a_float_start_is_refused(self):
        nbhd = Neighbourhood(prime=3, level=1, dim=1)
        with pytest.raises(DomainError):
            iterate_in_neighbourhood(doubling_map(), [0.75], 5, nbhd, precision=40)

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

    def test_every_field_matches_an_integer_oracle(self):
        rng = random.Random(2323)
        seen = {"denominator": 0, "p-times-unit": 0, "checked": 0, "skipped": 0}
        for _ in range(300):
            prime, level, precision, comps, start, steps = random_orbit_case(rng)
            n = len(comps)
            f = build_map(comps, 3)
            nbhd = Neighbourhood(prime=prime, level=level, dim=n)
            result = iterate_in_neighbourhood(f, start, steps, nbhd, precision=precision)
            fields = [tuple((x.prime, x.valuation, x.unit_digits, x.precision) for x in pt) for pt in result.points]
            got = (
                fields,
                result.stays_in_neighbourhood,
                result.constant_mod_level,
                result.unit_jacobian,
                result.isometry_pairs_checked,
                result.isometry_pairs_skipped,
            )
            assert got == orbit_oracle(prime, level, precision, comps, start, steps)
            # the polydisc theorem: the invariance flags hold on every accepted input
            assert result.stays_in_neighbourhood and result.constant_mod_level
            assert result.neighbourhood == nbhd
            det = ratlinalg.det(jacobian_at_origin(f))
            seen["denominator"] += result.unit_jacobian and det.denominator > 1
            seen["p-times-unit"] += det != 0 and fraction_valuation(det, prime) == 1
            seen["checked"] += result.isometry_pairs_checked > 0
            seen["skipped"] += result.isometry_pairs_skipped > 0
        assert min(seen.values()) >= 10, seen

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

    @pytest.mark.parametrize("steps", [-3, -1, True, False, 2.0, "2", None])
    def test_steps_must_be_an_int_at_least_zero(self, steps):
        nbhd = Neighbourhood(prime=3, level=1, dim=1)
        with pytest.raises(DomainError, match="steps"):
            iterate_in_neighbourhood(doubling_map(), [Fraction(3)], steps, nbhd)

    @pytest.mark.parametrize("precision", [True, 2.5, 40.0, "40", None])
    def test_precision_must_be_an_int(self, precision):
        nbhd = Neighbourhood(prime=3, level=1, dim=1)
        with pytest.raises(DomainError, match="precision"):
            iterate_in_neighbourhood(doubling_map(), [Fraction(3)], 2, nbhd, precision=precision)

    def test_zero_steps_and_an_integer_precision_below_the_level(self):
        nbhd = Neighbourhood(prime=3, level=2, dim=1)
        result = iterate_in_neighbourhood(doubling_map(), [Fraction(9)], 0, nbhd, precision=2)
        assert len(result.points) == 1
        for precision in (1, 0, -4):
            with pytest.raises(PrecisionError):
                iterate_in_neighbourhood(doubling_map(), [Fraction(9)], 2, nbhd, precision=precision)

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
    def test_a_float_coefficient_or_unit_is_refused(self):
        with pytest.raises(DomainError):
            VanishingSumInstance([3.0, -2], [2, 3], prime=5)
        with pytest.raises(DomainError):
            VanishingSumInstance([3, -2], [2, 0.5], prime=5)

    @pytest.mark.parametrize("s_max", [50.5, 50.0, True])
    def test_a_non_int_horizon_is_refused(self, s_max):
        inst = VanishingSumInstance([3, -2], [2, 3], prime=5)
        with pytest.raises(DomainError):
            vanishing_exponents(inst, s_max)

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

    @pytest.mark.parametrize("prime", [1, 0, -3, 2, 9])
    def test_rejects_all_but_odd_primes(self, prime):
        with pytest.raises(DomainError, match="is not an odd prime"):
            VanishingSumInstance([3, -2], [7, 11], prime=prime)

    def test_prime_below_two_raises(self):
        # the valuation loop never ends for p = 1 unless the base is checked,
        # so the attempt runs in a worker bounded by a join timeout
        outcome = []

        def attempt():
            try:
                VanishingSumInstance([1], [2], prime=1)
            except DomainError:
                outcome.append("rejected")

        worker = threading.Thread(target=attempt, daemon=True)
        worker.start()
        worker.join(30)
        assert not worker.is_alive(), "prime 1 did not finish within 30 s"
        assert outcome == ["rejected"]


class TestSeparatingPolynomial:
    def test_a_float_unit_is_refused(self):
        with pytest.raises(DomainError):
            separating_polynomial([Fraction(1), 2.0], 0, 1, 5)

    @pytest.mark.parametrize("target_index, level, prime", [(0, 1.5, 5), (0.0, 1, 5), (True, 1, 5), (0, 1, 5.0), (0, 1, 1)])
    def test_a_non_int_index_level_or_prime_is_refused(self, target_index, level, prime):
        with pytest.raises(DomainError):
            separating_polynomial([1, 2], target_index, level, prime)

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

    @pytest.mark.parametrize(
        "samples, order",
        # [1.5, 4.5, 7.5] ran on the samples 1, 4, 7
        [([1.5, 4.5, 7.5], 1), ([7.0, 4, 1], 1), ([True, 4, 7], 1), ([7, 4, 1], 1.0), ([7, 4, 1], True)],
    )
    def test_rejects_non_int_samples_and_order(self, samples, order):
        inst = VanishingSumInstance([3, -2], [2, 3], prime=5)
        with pytest.raises(DomainError, match="int"):
            interpolation_reduction(inst, samples, order)


class TestRelationProbe:
    def test_a_float_point_is_refused(self):
        with pytest.raises(DomainError):
            relation_probe([(1, 1), (2, 0.5)], 1)

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

    def test_a_float_candidate_is_refused(self):
        # the orbit of (1, 1) under (2x, 2y) lies on x = y; read through
        # Fraction(coeff), 0.1 x - 0.1 y was accepted as a relation
        points = [(Fraction(2**t), Fraction(2**t)) for t in range(6)]
        probe = relation_probe(points, 1)
        assert probe.contains_relation({(1, 0): Fraction(1), (0, 1): Fraction(-1)})
        for candidate in ({(1, 0): 0.1, (0, 1): -0.1}, {(1, 0): 1, (0, 1): -1.0}):
            with pytest.raises(DomainError):
                probe.contains_relation(candidate)
        with pytest.raises(DomainError):
            relation_probe([(Fraction(1), Fraction(2)), (Fraction(3), Fraction(5))], 2).contains_relation({(1, 0): 0.5})

    @pytest.mark.parametrize("candidate", [{}, {(1, 0): Fraction(0)}, {(5, 5): 0}])
    @pytest.mark.parametrize("points", ["generic", "diagonal"])
    def test_the_zero_polynomial_is_in_every_span(self, points, candidate):
        # four generic points leave the degree-1 kernel empty; the orbit of
        # (1, 1) under (2x, 2y) spans x - y.  A zero coefficient, on a listed
        # monomial or not, writes the zero polynomial all the same
        if points == "generic":
            probe = relation_probe([(Fraction(1), Fraction(2)), (Fraction(3), Fraction(5)), (Fraction(7), Fraction(11)), (Fraction(2), Fraction(9))], 1)
            assert probe.kernel == ()
        else:
            probe = relation_probe([(Fraction(2**t), Fraction(2**t)) for t in range(6)], 1)
            assert len(probe.kernel) == 1
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

    def test_monomial_order(self):
        # probe reports print this order as `monomials`
        assert graded_monomials(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        assert graded_monomials(3, 2) == [
            (0, 0, 0),
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (2, 0, 0),
            (1, 1, 0),
            (1, 0, 1),
            (0, 2, 0),
            (0, 1, 1),
            (0, 0, 2),
        ]
        assert graded_monomials(1, 0) == [(0,)]
        assert graded_monomials(2, -1) == []

    @pytest.mark.parametrize("nvars", [0, -1])
    def test_monomials_need_a_variable(self, nvars):
        with pytest.raises(DomainError):
            graded_monomials(nvars, 2)

    def test_padic_points_find_relation(self):
        # orbit of (3, 3) under (2x, 4y) at p = 3: y1^2 = 3 y2 on every point
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
    def test_a_float_eigenvalue_or_start_is_refused(self):
        with pytest.raises(DomainError):
            closure_dimension_estimate([2.0, 3], [1, 1], 10, 2)
        with pytest.raises(DomainError):
            closure_dimension_estimate([2, 3], [1, 0.5], 10, 2)

    @pytest.mark.parametrize("samples", [10.5, 10.0, True])
    def test_a_non_int_sample_count_is_refused(self, samples):
        with pytest.raises(DomainError):
            closure_dimension_estimate([2, 3], [1, 1], samples, 2)

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

    @pytest.mark.parametrize(
        "eigenvalues, degree, probes",
        [
            ((2, 3, 5), 4, 1),  # no relation direction: the one probe serves both
            ((2, 3, 5), 2, 1),
            ((2, 4, 3), 4, 2),  # 4 = 2^2: the free directions are probed apart
        ],
    )
    def test_probe_count_and_explicit_free_probe(self, monkeypatch, eigenvalues, degree, probes):
        calls = []

        def counting(points, d):
            calls.append([tuple(pt) for pt in points])
            return relation_probe(points, d)

        monkeypatch.setattr(orbit_module, "relation_probe", counting)
        lams = [Fraction(x) for x in eigenvalues]
        est = closure_dimension_estimate(lams, [1, 1, 1], 40, degree)
        assert len(calls) == probes
        transformed = calls[0]
        assert est.probe == relation_probe(transformed, degree)
        # the estimate with the free directions probed explicitly
        n, free = len(lams), len(est.lattice.complement)
        free_probe = relation_probe([pt[:free] for pt in transformed], degree)
        consistent = all(
            len({pt[j] if est.multipliers[j] == 1 else abs(pt[j]) for pt in transformed}) == 1
            for j in range(free, n)
        ) and not (free_probe.sufficient_points and free_probe.kernel)
        estimated = est.lattice.rank if consistent else min(est.lattice.rank, n - len(est.probe.kernel))
        assert (est.consistent, est.estimated_dimension) == (consistent, estimated)


class TestUnionClosure:
    def test_a_float_sample_point_is_refused(self):
        f = build_map([[((1, 0), 2)], [((0, 1), 3)]], 4)
        with pytest.raises(DomainError):
            union_closure_compare(f, [(1, 0.5)], range(4), range(1, 4), 2)

    @pytest.mark.parametrize("first, second", [([0.5, 2.7], [1, 2]), ([0, 2], [True, 2]), (["1", 2], [1, 2]), ([0, 2.0], [1])])
    def test_a_non_int_index_is_refused(self, first, second):
        # int(i) would floor 0.5 and 2.7 to 0 and 2
        f = build_map([[((1, 0), 2)], [((0, 1), 3)]], 4)
        with pytest.raises(DomainError):
            union_closure_compare(f, [(1, 1), (1, 2)], first, second, 2)

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

    def test_fewer_points_leave_a_larger_kernel(self):
        # (2^k, 3^k) for k = 0, 1 meet 4 of the 6 quadratic relations; from
        # 6 points on, 1, 2^k, 3^k, 4^k, 6^k and 9^k are independent
        f = build_map([[((1, 0), 2)], [((0, 1), 3)]], 4)
        cmp = union_closure_compare(f, [(Fraction(1), Fraction(1))], range(2), range(10), 2)
        assert not cmp.equal
        assert len(cmp.first.kernel) == 4 and cmp.second.kernel == ()

    def test_kernel_equality_is_row_space_equality_randomized(self):
        rng = random.Random(1721)
        maps = [(2, 3), (2, 4), (3, 9), (2, 8), (4, 2), (3, 3)]
        outcomes = set()
        for _ in range(40):
            a, b = rng.choice(maps)
            f = build_map([[((1, 0), a)], [((0, 1), b)]], 4)
            sample = [(Fraction(1), Fraction(rng.randint(1, 3))) for _ in range(rng.randint(1, 2))]
            first = rng.sample(range(12), rng.randint(1, 8))
            second = rng.sample(range(12), rng.randint(1, 8))
            cmp = union_closure_compare(f, sample, first, second, 2)
            assert cmp.equal == same_row_space(cmp.first.kernel, cmp.second.kernel)
            outcomes.add((cmp.equal, bool(cmp.first.kernel)))
        # equal and unequal spans both occur, equal ones with a nonzero kernel
        assert {(True, True), (False, True)} <= outcomes

    def test_genuine_torsion_changes_closure(self):
        # multipliers (2, -2): even iterates live on y1 = y2 lines, odd on
        # y1 = -y2; the corollary genuinely fails, detected as torsion
        f = build_map([[((1, 0), 2)], [((0, 1), -2)]], 4)
        with pytest.raises(TorsionError):
            union_closure_compare(f, [(1, 1)], range(0, 10, 2), range(1, 10, 2), 2)


def same_row_space(a, b):
    """Whether two kernel bases span the same space, by their reduced
    echelon forms."""
    if not a or not b:
        return not a and not b
    ra = [row for row in ratlinalg.rref([list(v) for v in a])[0] if any(row)]
    rb = [row for row in ratlinalg.rref([list(v) for v in b])[0] if any(row)]
    return ra == rb


def power_rows(points, degree):
    """Monomial rows the way the probe built them before prefix parents:
    each monomial a fresh product of coordinate powers, the constant 1 at
    the first coordinate's precision (the largest finite one in the point
    when that coordinate is an exact zero; 1 digit at least)."""
    monos = graded_monomials(len(points[0]), degree)
    rows = []
    for pt in points:
        if isinstance(pt[0], PAdic):
            prec = pt[0].precision
            if prec == INFINITY:
                prec = max((x.precision for x in pt if x.precision != INFINITY), default=0)
            one = PAdic.from_rational(1, pt[0].prime, prec or 1)
        else:
            pt, one = [Fraction(x) for x in pt], Fraction(1)
        row = []
        for mono in monos:
            term = None
            for v, e in zip(pt, mono):
                if e:
                    term = v**e if term is None else term * v**e
            row.append(one if term is None else term)
        rows.append(row)
    return rows


def probe_rows(points, degree):
    """(probe, rows) where rows is the matrix relation_probe eliminated."""
    seen = []

    def capture(kernel):
        def wrapped(rows, ncols):
            seen.append([list(row) for row in rows])
            return kernel(rows, ncols)

        return wrapped

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orbit_module, "_padic_kernel_basis", capture(_padic_kernel_basis))
        patch.setattr(ratlinalg, "kernel_basis", capture(ratlinalg.kernel_basis))
        probe = relation_probe(points, degree)
    (rows,) = seen
    return probe, rows


def entry_fields(x):
    if isinstance(x, PAdic):
        return (x.prime, x.valuation, x.unit_digits, x.precision)
    return (type(x), x)


@st.composite
def probe_inputs(draw):
    """(points, degree): Q_p points with units, inexact and exact zeros,
    negative valuations and unequal precisions, or rational points."""
    nvars = draw(st.integers(1, 3))
    count = draw(st.integers(1, 5))
    degree = draw(st.integers(0, 4))
    if draw(st.booleans()):
        coordinate = st.fractions(max_denominator=9).filter(lambda q: abs(q.numerator) < 50)
        coordinate = st.one_of(coordinate, st.integers(-20, 20))
    else:
        p = draw(st.sampled_from([3, 5, 7]))
        unit = st.builds(lambda v, u, n: PAdic(p, v, u, n), st.integers(-2, 3), st.integers(1, p**8), st.integers(1, 8))
        inexact_zero = st.builds(lambda v: PAdic(p, v, 0, 0), st.integers(-2, 3))
        coordinate = st.one_of(unit, unit, inexact_zero, st.just(PAdic.zero(p)))
    points = draw(st.lists(st.tuples(*[coordinate] * nvars), min_size=count, max_size=count))
    return points, degree


class TestProbeRows:
    """relation_probe builds each monomial from its prefix parent; the rows
    and the kernel must equal those of per-monomial powers, entry by entry,
    precision included."""

    @settings(max_examples=200, deadline=None)
    @given(probe_inputs())
    @example(([(PAdic(5, 0, 7, 3), PAdic(5, 1, 2, 6))] * 2, 3))  # the first coordinate's precision is the lower
    @example(([(PAdic(3, 1, 0, 0), PAdic(3, 0, 2, 5), PAdic(3, -1, 4, 2))], 4))  # inexact-zero first coordinate
    @example(([(Fraction(2), Fraction(3, 5), Fraction(-7))] * 3, 3))
    # more points than monomials: elimination stops at full column rank
    @example(([(Fraction(k, 2), Fraction(k**3, 8)) for k in range(-5, 7)], 2))
    # tall and rank-deficient: every point lies on y = x^2
    @example(([(Fraction(k, 3), Fraction(k * k, 9)) for k in range(-6, 6)], 2))
    def test_rows_and_kernel_match_powers(self, case):
        points, degree = case
        probe, rows = probe_rows(points, degree)
        reference = power_rows(points, degree)
        assert [[entry_fields(x) for x in row] for row in rows] == [[entry_fields(x) for x in row] for row in reference]
        if isinstance(points[0][0], PAdic):
            expected = _padic_kernel_basis(reference, len(probe.monomials))
        else:
            expected = ratlinalg.kernel_basis(reference, len(probe.monomials))
            # over Q the kernel vectors annihilate every row exactly
            assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in reference for vec in probe.kernel)
        assert [[entry_fields(x) for x in vec] for vec in probe.kernel] == [
            [entry_fields(x) for x in vec] for vec in expected
        ]

    def test_exact_zero_first_coordinate(self):
        # the constant takes the largest finite precision in the point
        points = [(PAdic.zero(5), PAdic(5, 0, 7, 4), PAdic(5, 0, 0, 0)), (PAdic.zero(5),) * 3]
        probe, rows = probe_rows(points, 2)
        assert entry_fields(rows[0][0]) == (5, 0, 1, 4)
        assert entry_fields(rows[1][0]) == (5, 0, 1, 1)
        assert probe.rank + len(probe.kernel) == len(probe.monomials) == 10


class TestProbePointChecks:
    """Malformed points are refused with DomainError before any work."""

    def test_shorter_point(self):
        with pytest.raises(DomainError):
            relation_probe([(1, 2), (3,), (5, 7), (2, 9)], 1)

    def test_longer_point(self):
        with pytest.raises(DomainError):
            relation_probe([(1, 2), (3, 4, 5), (5, 7)], 1)

    def test_negative_degree(self):
        with pytest.raises(DomainError):
            relation_probe([(1, 2)], -1)

    @pytest.mark.parametrize("degree", [True, False, 2.0, "2", None])
    def test_degree_must_be_an_int(self, degree):
        with pytest.raises(DomainError, match="degree"):
            relation_probe([(1, 2)], degree)
        with pytest.raises(DomainError, match="degree"):
            relation_probe([(PAdic.from_rational(3, 5, 8),)], degree)

    def test_point_without_coordinates(self):
        with pytest.raises(DomainError):
            relation_probe([()], 1)

    def test_fraction_in_a_padic_point(self):
        x = PAdic.from_rational(3, 5, 8)
        with pytest.raises(DomainError):
            relation_probe([(x, x), (x, Fraction(1, 2))], 2)

    def test_two_primes(self):
        x, y = PAdic.from_rational(3, 5, 8), PAdic.from_rational(3, 7, 8)
        # the check runs first, so its message, not the arithmetic's, shows
        with pytest.raises(DomainError, match="one prime"):
            relation_probe([(x, y)], 2)
        # at degree 0 no arithmetic meets the second prime
        with pytest.raises(DomainError, match="one prime"):
            relation_probe([(x,), (y,)], 0)

    def test_padic_in_a_rational_point(self):
        with pytest.raises(DomainError):
            relation_probe([(Fraction(1), Fraction(2)), (Fraction(3), PAdic.from_rational(3, 5, 8))], 2)


def full_kernel_basis(rows, ncols):
    """Gauss-Jordan over Q_p updating every column of every row: the
    elimination without column pruning, as the reference."""
    work = [list(row) for row in rows]
    nrows = len(work)
    pivots = []
    r = 0
    for c in range(ncols):
        best = None
        for i in range(r, nrows):
            entry = work[i][c]
            if entry.is_zero():
                continue
            if best is None or entry.valuation < work[best][c].valuation:
                best = i
        if best is None:
            continue
        work[r], work[best] = work[best], work[r]
        inv = work[r][c]
        work[r] = [x / inv for x in work[r]]
        for i in range(nrows):
            if i != r and not work[i][c].is_zero():
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    prime = rows[0][0].prime
    prec = max(int(x.precision) for x in rows[0] if x.precision != INFINITY)
    one = PAdic.from_rational(1, prime, max(prec, 1))
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        vec = [PAdic.zero(prime)] * ncols
        vec[fc] = one
        for i, pc in enumerate(pivots):
            vec[pc] = -work[i][fc]
        basis.append(vec)
    return basis


def basis_fields(basis):
    return [[(x.valuation, x.unit_digits, x.precision) for x in vec] for vec in basis]


@st.composite
def padic_matrices(draw):
    """Rows over Q_p with mixed precisions and valuations, inexact and exact
    zeros, rows that are combinations of earlier rows, an optional column of
    exact zeros and an optional column that is a multiple of an earlier one
    (so it turns free while a later column still takes a pivot)."""
    p = draw(st.sampled_from([3, 5, 7]))

    def entry(unit_only=False):
        kind = "unit" if unit_only else draw(st.sampled_from(["unit"] * 4 + ["inexact zero", "exact zero"]))
        if kind == "exact zero":
            return PAdic.zero(p)
        valuation = draw(st.integers(0, 2))
        if kind == "inexact zero":
            return PAdic(p, valuation, 0, 0)
        return PAdic(p, valuation, draw(st.integers(1, p**6)), draw(st.integers(1, 6)))

    ncols = draw(st.integers(1, 6))
    rows = [[entry() for _ in range(ncols)] for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 2))):
        weights = [entry(unit_only=True) for _ in rows]
        combined = [sum((w * row[j] for w, row in zip(weights, rows)), PAdic.zero(p)) for j in range(ncols)]
        rows.insert(draw(st.integers(0, len(rows))), combined)
    if ncols >= 2 and draw(st.booleans()):
        source, target = sorted(draw(st.lists(st.integers(0, ncols - 1), min_size=2, max_size=2, unique=True)))
        scale = entry(unit_only=True)
        for row in rows:
            row[target] = scale * row[source]
    if draw(st.booleans()):
        column = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[column] = PAdic.zero(p)
    assume(any(not x.is_exact_zero() for x in rows[0]))
    return rows


def embedded(p, precision, rows):
    return [[PAdic.from_rational(x, p, precision) for x in row] for row in rows]


class TestPrunedElimination:
    """_padic_kernel_basis drops pivoted columns; its basis must equal the
    full elimination entry by entry, precision included."""

    @settings(max_examples=300, deadline=None)
    @given(padic_matrices())
    # column 1 turns free; the later pivot of valuation 1 divides its inexact
    # zero to O(5^3), which then lowers the precision of row 0's entry
    @example(embedded(5, 4, [[1, 2, 3], [1, 2, 8]]))
    @example(embedded(3, 5, [[0, 1, 2, 0], [0, 2, 4, 0], [0, 1, 5, 3]]))  # exact-zero columns
    @example(embedded(7, 3, [[1, 2], [2, 4], [3, 6]]))  # dependent rows
    def test_matches_full_elimination(self, rows):
        ncols = len(rows[0])
        got = _padic_kernel_basis(rows, ncols)
        assert basis_fields(got) == basis_fields(full_kernel_basis(rows, ncols))
        assert all(isinstance(x, PAdic) for vec in got for x in vec)

    def test_free_column_left_of_a_pivot_keeps_its_updates(self):
        rows = embedded(5, 4, [[1, 2, 3], [1, 2, 8]])
        (vec,) = _padic_kernel_basis(rows, 3)
        # column 1 is free; row 0's entry there, 2, lost a digit to the pivot 5
        assert basis_fields([vec])[0][0] == (0, 5**3 - 2, 3)

    def test_seeded_matrices_match_full_elimination(self):
        # every kernel entry's prime, valuation, unit digits and precision;
        # rows are rational combinations of fewer basis rows than columns,
        # embedded at unequal precisions, with p in some denominators and
        # some entries replaced by inexact or exact zeros
        rng = random.Random(2424)
        seen = {"nonempty": 0, "tall": 0, "negative": 0, "inexact zero": 0, "exact zero": 0}
        for _ in range(240):
            p = rng.choice((3, 5, 7))
            ncols = rng.randint(2, 7)
            rank = rng.randint(1, ncols - 1)
            nrows = rng.randint(1, ncols + 4)

            def rational():
                if rng.random() < 0.15:
                    return Fraction(0)
                return Fraction(rng.randint(-40, 40), rng.choice((1, 1, 2, p, p * p)))

            basis = [[rational() for _ in range(ncols)] for _ in range(rank)]
            rows = []
            for _ in range(nrows):
                weights = [rational() for _ in basis]
                row = []
                for j in range(ncols):
                    value = sum((w * b[j] for w, b in zip(weights, basis)), Fraction(0))
                    x = PAdic.from_rational(value, p, rng.randint(1, 12))
                    if rng.random() < 0.08:
                        x = PAdic(p, rng.randint(-2, 3), 0, 0)
                    row.append(x)
                rows.append(row)
            if all(x.is_exact_zero() for x in rows[0]):
                continue
            got = _padic_kernel_basis(rows, ncols)
            expected = full_kernel_basis(rows, ncols)
            assert [[entry_fields(x) for x in vec] for vec in got] == [
                [entry_fields(x) for x in vec] for vec in expected
            ]
            entries = [x for row in rows for x in row]
            seen["nonempty"] += bool(got)
            seen["tall"] += nrows > ncols
            seen["negative"] += any(x.valuation < 0 for x in entries if not x.is_exact_zero())
            seen["inexact zero"] += any(x.is_zero() and not x.is_exact_zero() for x in entries)
            seen["exact zero"] += any(x.is_exact_zero() for x in entries)
        assert min(seen.values()) >= 40, seen
