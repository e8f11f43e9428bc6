"""Unit tests for eigenvalue, resonance, and relation-lattice analysis."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import ratlinalg
from padicdyn import arith
from padicdyn.arith import factorize, int_valuation, is_prime
from padicdyn.dynamics import (
    AnalyticMap,
    DiophantineParams,
    Resonance,
    _char_poly,
    _rational_roots_monic,
    choose_prime,
    enumerate_resonances,
    jacobian_at_origin,
    rational_eigenvalues,
    relation_lattice,
    standard_symplectic_form,
    symplectic_scaling_check,
)
from padicdyn.errors import DomainError, IrrationalEigenvalueError
from padicdyn.linearize import _series_matrix_mul
from padicdyn.series import MultiSeries, SeriesTuple, _DiagonalPowers, _packer, graded_monomials


def poly_map(component_terms, trunc, r=0):
    nvars = len(component_terms)
    comps = [
        MultiSeries(nvars, trunc, [(e, Fraction(c)) for e, c in terms])
        for terms in component_terms
    ]
    return AnalyticMap(SeriesTuple(comps), fixed_locus_dim=r)


class TestAnalyticMap:
    def test_rejects_moved_origin(self):
        with pytest.raises(DomainError):
            poly_map([[((0,), 1), ((1,), 2)]], 4)

    def test_rejects_unfixed_locus(self):
        # second component restricted to x2 = 0 is x1^2, not zero
        with pytest.raises(DomainError):
            poly_map([[((1, 0), 1)], [((0, 1), -2), ((2, 0), 1)]], 4, r=1)

    def test_accepts_fixed_locus(self):
        f = poly_map([[((1, 0), 1), ((0, 2), 1)], [((0, 1), -2)]], 4, r=1)
        assert f.fixed_locus_dim == 1


class TestChoosePrime:
    def test_smallest_odd_prime_with_unit_eigenvalues(self):
        # eigenvalues 3 and 1/5, coefficient 1/7: 3, 5 and 7 are excluded
        f = poly_map([[((1, 0), 3), ((2, 0), Fraction(1, 7))], [((0, 1), Fraction(1, 5))]], 4)
        assert choose_prime(f) == 11

    def test_zero_eigenvalue_rejected(self):
        # x -> x^2: no prime makes the eigenvalue 0 a unit
        with pytest.raises(DomainError):
            choose_prime(poly_map([[((2,), 1)]], 4))


class TestJacobian:
    def test_reads_linear_part(self):
        f = poly_map([[((1, 0), 2), ((0, 2), 1)], [((0, 1), 3), ((2, 0), 1)]], 4)
        assert jacobian_at_origin(f) == [[2, 0], [0, 3]]

    def test_shear(self):
        f = poly_map([[((1, 0), 1), ((0, 1), 1)], [((0, 1), 1)]], 4)
        assert jacobian_at_origin(f) == [[1, 1], [0, 1]]

    def test_identity(self):
        f = poly_map([[((1, 0), 1)], [((0, 1), 1)]], 4)
        assert jacobian_at_origin(f) == ratlinalg.identity(2)


class TestRationalEigenvalues:
    def test_a_float_entry_is_refused(self):
        # 0.1 would read as 3602879701896397/36028797018963968
        with pytest.raises(DomainError):
            rational_eigenvalues([[0.1, 0], [0, 2]])

    def test_diagonal(self):
        data = rational_eigenvalues([[2, 0], [0, 3]])
        assert data.eigenvalues == (2, 3)
        assert data.semisimple

    def test_jordan_block(self):
        data = rational_eigenvalues([[1, 1], [0, 1]])
        assert data.eigenvalues == (1, 1)
        assert not data.semisimple

    def test_rotation_rejected(self):
        with pytest.raises(IrrationalEigenvalueError):
            rational_eigenvalues([[0, -1], [1, 0]])

    def test_non_diagonal_semisimple(self):
        # conjugate of diag(2, 5)
        data = rational_eigenvalues([[2, 3], [0, 5]])
        assert data.eigenvalues == (2, 5)
        assert data.semisimple

    def test_fractional_eigenvalues(self):
        data = rational_eigenvalues([[Fraction(1, 2), 0], [0, Fraction(3, 4)]])
        assert data.eigenvalues == (Fraction(1, 2), Fraction(3, 4))

    def test_multiplicity_and_order(self):
        data = rational_eigenvalues([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]])
        assert data.eigenvalues == (1, 1, -2, -2)
        assert data.semisimple


def brute_force_resonances(lams, r, max_degree):
    n = len(lams)
    out = []

    def walk(prefix, budget):
        if len(prefix) == n - r:
            if sum(prefix) >= 2:
                value = Fraction(1)
                for lam, e in zip(lams[r:], prefix):
                    value *= Fraction(lam) ** e
                for j, lam in enumerate(lams):
                    if value == lam:
                        out.append(Resonance(tuple(prefix), j))
            return
        for e in range(budget + 1):
            walk(prefix + [e], budget - e)

    walk([], max_degree)
    return sorted(out, key=lambda res: (sum(res.monomial), res.monomial, res.component))


class TestDiophantineParams:
    @pytest.mark.parametrize("c, beta", [(0.1, 0), (1, 0.5), (2.0, 1), ("1", 0)])
    def test_a_float_parameter_is_refused(self, c, beta):
        with pytest.raises(DomainError, match="rational"):
            DiophantineParams(c, beta)


class TestResonances:
    @pytest.mark.parametrize("r, max_degree", [(0, 4.5), (0, 4.0), (0.5, 4), (False, 4)])
    def test_a_non_int_dimension_or_degree_is_refused(self, r, max_degree):
        with pytest.raises(DomainError):
            enumerate_resonances([1, 3], r, max_degree)

    def test_square_relation(self):
        assert enumerate_resonances([4, 2], 0, 3) == [Resonance((0, 2), 0)]

    def test_symplectic_fixture_non_resonant(self):
        assert enumerate_resonances([1, 1, -2, -2], 2, 6) == []

    def test_independent_pair(self):
        # oracle: brute force over all multi-indices of degree <= 8
        assert enumerate_resonances([2, 3], 0, 8) == brute_force_resonances([2, 3], 0, 8)
        assert enumerate_resonances([2, 3], 0, 8) == []

    def test_matches_brute_force_randomized(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 3)
            lams = [Fraction(rng.choice([-4, -2, 2, 3, 4, 6, 9])) for _ in range(n)]
            got = enumerate_resonances(lams, 0, 5)
            assert got == brute_force_resonances(lams, 0, 5)

    def test_requires_unit_head(self):
        with pytest.raises(DomainError):
            enumerate_resonances([2, 3], 1, 4)

    def test_resonance_with_a_fixed_direction(self):
        # the tail is (4, 2): lambda^(0, 2) = 2^2 = 4 = lambda_1
        assert enumerate_resonances([1, 4, 2], 1, 3) == [Resonance((0, 2), 1)]

    def test_all_fixed_has_no_tail(self):
        assert enumerate_resonances([1, 1], 2, 5) == []

    def test_matches_brute_force_with_fixed_directions_randomized(self):
        rng = random.Random(1717)
        pool = [-4, -2, -1, 2, 3, 4, 8, 9, Fraction(1, 2), Fraction(1, 4), Fraction(-1, 2)]
        for _ in range(60):
            r = rng.choice([1, 2])
            lams = [Fraction(1)] * r + [Fraction(rng.choice(pool)) for _ in range(rng.randint(0, 3))]
            degree = rng.randint(-1, 6)
            assert enumerate_resonances(lams, r, degree) == brute_force_resonances(lams, r, degree)

    def test_a_table_passed_in_is_read_and_grown(self):
        rng = random.Random(1718)
        pool = [-2, 2, 3, 4, Fraction(1, 2), Fraction(-1, 4)]
        for _ in range(20):
            r = rng.randint(0, 2)
            lams = [Fraction(1)] * r + [Fraction(rng.choice(pool)) for _ in range(rng.randint(1, 3))]
            table = _DiagonalPowers(lams)
            pack = _packer(len(lams))
            table.power((0,) * r + (1,) * (len(lams) - r))  # an entry built before
            before = dict(table.entries)
            got = enumerate_resonances(table, r, 5)
            assert got == enumerate_resonances(lams, r, 5)
            # every entry built before is kept, and the tail monomials of
            # degree 2..5 are now entries, under their packed keys, with
            # their true powers as reduced pairs
            assert before.items() <= table.entries.items()
            for tail in graded_monomials(len(lams) - r, 5)[1 + len(lams) - r :]:
                exps = (0,) * r + tail
                value = Fraction(1)
                for lam, e in zip(lams, exps):
                    value *= lam**e
                assert table.entries[pack(exps)] == (value.numerator, value.denominator)


class TestRelationLattice:
    def test_a_float_eigenvalue_is_refused(self):
        with pytest.raises(DomainError):
            relation_lattice([0.5, 4])

    def test_independent(self):
        lat = relation_lattice([2, 3])
        assert lat.basis == ()
        assert lat.rank == 2
        assert lat.torsion_free

    def test_power_relation(self):
        lat = relation_lattice([2, 4])
        assert lat.rank == 1
        assert lat.basis == ((2, -1),)
        assert lat.torsion_free

    def test_three_pairwise_products(self):
        # oracle: the 3x3 exponent system for (6, 10, 15) only has the zero solution
        lat = relation_lattice([6, 10, 15])
        assert lat.basis == ()
        assert lat.rank == 3

    def test_relations_annihilate(self):
        rng = random.Random(43)
        for _ in range(40):
            lams = [
                Fraction(rng.choice([-6, -2, 2, 3, 4, 6, 8, 9, 12]), rng.choice([1, 1, 5]))
                for _ in range(rng.randint(2, 4))
            ]
            lat = relation_lattice(lams)
            for vec in lat.basis:
                value = Fraction(1)
                for lam, e in zip(lams, vec):
                    value *= lam**e
                assert value == 1

    def test_rank_matches_rational_rank_oracle(self):
        # factorization oracle: rank of the prime-exponent matrix over Q
        rng = random.Random(47)
        for _ in range(40):
            lams = [Fraction(rng.choice([2, 3, 4, 6, 8, 9, 12, 18])) for _ in range(3)]
            lat = relation_lattice(lams)
            primes = sorted({p for lam in lams for p in factorize(lam.numerator)})
            rows = [
                [int_valuation(lam.numerator, p) for lam in lams]
                for p in primes
            ]
            assert lat.rank == ratlinalg.rank([[Fraction(x) for x in row] for row in rows])
            assert lat.rank + len(lat.basis) == len(lams)

    def test_sign_torsion_detected(self):
        lat = relation_lattice([2, -2])
        assert not lat.torsion_free
        assert lat.rank == 1

    def test_equal_negatives_are_torsion_free(self):
        # the group generated by -2 alone contains no root of unity but 1
        lat = relation_lattice([-2, -2])
        assert lat.torsion_free
        assert lat.rank == 1
        for vec in lat.basis:
            value = Fraction(1)
            for lam, e in zip([-2, -2], vec):
                value *= Fraction(lam) ** e
            assert value == 1

    def test_signed_basis_spans_signed_relations(self):
        lat = relation_lattice([2, -2])
        # (2)^a (-2)^b = 1 forces a + b = 0 and b even; basis must generate that
        assert lat.basis
        for vec in lat.basis:
            assert (vec[0] + vec[1]) == 0
            assert vec[1] % 2 == 0


class TestSymplecticScaling:
    def test_a_float_mu_or_entry_is_refused(self):
        sigma = standard_symplectic_form(2)
        with pytest.raises(DomainError):
            symplectic_scaling_check(ratlinalg.identity(2), sigma, 1.0)
        with pytest.raises(DomainError):
            symplectic_scaling_check([[1.0, 0], [0, 1]], sigma, 1)

    def test_fixture(self):
        sigma = standard_symplectic_form(4)
        m = ratlinalg.as_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]])
        report = symplectic_scaling_check(m, sigma, Fraction(-2))
        assert report.holds
        assert sorted(report.pairs) == [(1, -2), (1, -2)]

    def test_identity(self):
        report = symplectic_scaling_check(ratlinalg.identity(4), standard_symplectic_form(4), Fraction(1))
        assert report.holds

    def test_scaling_mismatch(self):
        m = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
        report = symplectic_scaling_check(m, standard_symplectic_form(4), Fraction(-2))
        assert not report.holds

    def test_rejects_degenerate_form(self):
        zero = [[Fraction(0)] * 4 for _ in range(4)]
        with pytest.raises(DomainError):
            symplectic_scaling_check(ratlinalg.identity(4), zero, Fraction(1))

    def test_rejects_odd_dimension(self):
        with pytest.raises(DomainError):
            symplectic_scaling_check(ratlinalg.identity(3), [[Fraction(0)] * 3] * 3, Fraction(1))

    def test_determinant_compatibility(self):
        rng = random.Random(53)
        sigma = standard_symplectic_form(4)
        for _ in range(20):
            d = [Fraction(rng.choice([1, -2, 2, -1])) for _ in range(2)]
            m = ratlinalg.as_matrix(
                [
                    [d[0], 0, 0, 0],
                    [0, d[1], 0, 0],
                    [0, 0, Fraction(-2) / d[0], 0],
                    [0, 0, 0, Fraction(-2) / d[1]],
                ]
            )
            report = symplectic_scaling_check(m, sigma, Fraction(-2))
            assert report.holds
            lhs = ratlinalg.det(ratlinalg.mat_mul(ratlinalg.mat_mul(ratlinalg.transpose(m), sigma), m))
            assert lhs == Fraction(-2) ** 4 * ratlinalg.det(sigma)


class TestAgainstSympy:
    """Differential tests against sympy's factorization and root finding (test-only)."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.integers(1, 10**12),
            # products of two primes above the trial-division bound go to Pollard rho
            st.tuples(
                st.sampled_from([100003, 1000003, 999999937]),
                st.sampled_from([100019, 1000033, 2**31 - 1]),
                st.integers(1, 10**4),
            ).map(lambda t: t[0] * t[1] * t[2]),
        )
    )
    def test_factorize_matches_factorint(self, n):
        sympy = pytest.importorskip("sympy")
        assert factorize(n) == {int(p): e for p, e in sympy.factorint(n).items()}

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-12, 12), st.integers(1, 6)).map(lambda t: Fraction(*t)),
            min_size=0,
            max_size=4,
        ),
        st.none() | st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    )
    def test_rational_roots_match_all_roots(self, roots, quadratic):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        poly = sympy.Poly(1, x, domain="QQ")
        for root in roots:
            poly *= sympy.Poly(x - sympy.Rational(root.numerator, root.denominator), x)
        if quadratic is not None:
            # x^2 + b x + c: irrational or complex roots for most draws
            poly *= sympy.Poly(x**2 + quadratic[0] * x + quadratic[1], x)
        if poly.degree() < 1:
            return
        monic = [
            Fraction(int(c.p), int(c.q)) for c in reversed(poly.monic().all_coeffs())
        ]
        reference = poly.all_roots()
        got = _rational_roots_monic(monic)
        if all(r.is_Rational for r in reference):
            assert got is not None
            assert sorted(got) == sorted(Fraction(int(r.p), int(r.q)) for r in reference)
        else:
            assert got is None

    def test_irrational_roots_give_none(self):
        # x^2 - 2, x^2 + 1 and (x - 1/2)(x^3 - 3)
        for monic in (
            [Fraction(-2), Fraction(0), Fraction(1)],
            [Fraction(1), Fraction(0), Fraction(1)],
            [Fraction(3, 2), Fraction(-3), Fraction(0), Fraction(-1, 2), Fraction(1)],
        ):
            assert _rational_roots_monic(monic) is None


class TestFactorize:
    def test_factorize_matches_trial_division_first(self):
        # factorize tests the cofactor for primality before trial division;
        # the dict and its order are those of trial division first
        def reference(n):
            out = {}
            for p in (2, 3, 5):
                while n % p == 0:
                    out[p] = out.get(p, 0) + 1
                    n //= p
            f, increments, i = 7, (4, 2, 4, 2, 4, 6, 2, 6), 0
            while f * f <= n and f < 100000:
                while n % f == 0:
                    out[f] = out.get(f, 0) + 1
                    n //= f
                f += increments[i]
                i = (i + 1) % 8
            stack = [n] if n > 1 else []
            while stack:
                m = stack.pop()
                if is_prime(m):
                    out[m] = out.get(m, 0) + 1
                else:
                    d = arith._pollard_rho(m)
                    stack += [d, m // d]
            return out

        def prime(rng, lo, hi):
            n = rng.randrange(lo, hi) | 1
            while not is_prime(n):
                n += 2
            return n

        rng = random.Random(2329)
        inputs = [1, 2, 7, 30, 7 * 30, 99991, 100003, 2**31 - 1]
        for _ in range(60):
            smooth = 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2) * 5 ** rng.randint(0, 2)
            large = prime(rng, 2**28, 2**42)
            small = prime(rng, 7, 10**5)
            medium = prime(rng, 10**5, 2**20)
            inputs += [smooth * large, smooth * small * large, small ** rng.randint(2, 5), medium ** rng.randint(2, 3)]
        for n in inputs:
            assert list(factorize(n).items()) == list(reference(n).items()), n


def random_rational_matrix(rng, n):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]


ODD_NUMBERS_79_TO_130_BITS = (
    st.integers(79, 130).flatmap(lambda bits: st.integers(2 ** (bits - 1), 2**bits - 1)).map(lambda n: n | 1)
)


class TestIsPrime:
    """Primality below and above 318665857834031151167461, the least
    composite that passes the strong Miller-Rabin test to the bases 2..37."""

    def test_the_least_pseudoprime_to_the_twelve_bases_is_composite(self):
        n = 318665857834031151167461
        assert n == 399165290221 * 798330580441
        assert not is_prime(n)
        assert factorize(7919 * n) == {7919: 1, 399165290221: 1, 798330580441: 1}

    def test_mersenne_numbers(self):
        assert all(is_prime(2**k - 1) for k in (89, 107, 127))
        assert not any(is_prime(2**k - 1) for k in (83, 97, 101, 103, 109, 113))

    def test_the_strong_lucas_test_alone(self):
        # every odd prime from 5 passes it, and of the odd composites below
        # 26000 exactly the strong Lucas pseudoprimes with Selfridge's
        # parameters (OEIS A217255)
        pseudoprimes = {5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199}
        passing = {n for n in range(5, 26000, 2) if arith._is_strong_lucas_probable_prime(n)}
        assert passing == {n for n in range(5, 26000, 2) if is_prime(n)} | pseudoprimes
        assert not arith._is_strong_lucas_probable_prime(1000003**2)

    @settings(max_examples=200, deadline=None)
    @given(ODD_NUMBERS_79_TO_130_BITS)
    def test_odd_numbers_match_sympy(self, n):
        sympy = pytest.importorskip("sympy")
        assert is_prime(n) == sympy.isprime(n)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(ODD_NUMBERS_79_TO_130_BITS, min_size=2, max_size=2))
    def test_primes_and_their_products_match_sympy(self, starts):
        sympy = pytest.importorskip("sympy")
        p, q = (int(sympy.nextprime(n)) for n in starts)
        assert is_prime(p) and is_prime(q)
        assert not is_prime(p * q) and not is_prime(p * p)


class TestCharPoly:
    """The one trace recursion, over Q and over truncated series."""

    def test_matches_sympy_charpoly(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1719)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = random_rational_matrix(rng, n)
            reference = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])
            coeffs = reference.charpoly(sympy.Symbol("x")).all_coeffs()
            expected = [Fraction(int(c.p), int(c.q)) for c in reversed(coeffs)]
            assert _char_poly(m, ratlinalg.mat_mul) == expected

    def test_series_instance_on_constant_series(self):
        rng = random.Random(1720)
        nvars, trunc = 2, 3
        for _ in range(10):
            n = rng.randint(1, 4)
            m = random_rational_matrix(rng, n)
            block = [[MultiSeries.constant(x, nvars, trunc) for x in row] for row in m]
            *lower, lead = _char_poly(block, _series_matrix_mul)
            over_q = _char_poly(m, ratlinalg.mat_mul)
            assert lead == over_q[-1] == 1
            assert lower == [MultiSeries.constant(c, nvars, trunc) for c in over_q[:-1]]

    def test_diagonal_block(self):
        # (x - 2)(x + 3) = x^2 + x - 6
        assert _char_poly([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(-3)]], ratlinalg.mat_mul) == [-6, 1, 1]
