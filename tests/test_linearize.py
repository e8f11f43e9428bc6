"""Unit tests for the conjugacy solvers, normalizations, and norm bounds."""

import gc
import hashlib
import itertools
import math
import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padicdyn import linearize, ratlinalg, series
from padicdyn.arith import fraction_valuation
from padicdyn.dynamics import AnalyticMap, DiophantineParams, enumerate_resonances
from padicdyn.errors import (
    DomainError,
    NotSemisimpleError,
    ResonantMonomialError,
    SingularBlockError,
)
from padicdyn.linearize import (
    NormBoundCertificate,
    RatPow,
    check_norm_bound,
    linearize_newton,
    linearize_order_by_order,
    normalize_fixed_locus,
    solve_homological,
)
from padicdyn.series import GaussNorm, MultiSeries, SeriesTuple, gauss_norm, tuple_gauss_norm
from test_acceptance import fixture_suite


def build_map(component_terms, trunc, r=0):
    nvars = len(component_terms)
    comps = [
        MultiSeries(nvars, trunc, [(e, Fraction(c)) for e, c in terms])
        for terms in component_terms
    ]
    return AnalyticMap(SeriesTuple(comps), fixed_locus_dim=r)


def doubling_map(trunc):
    return build_map([[((1,), 2), ((2,), 1)]], trunc)


def newton_route(f, degree):
    return linearize_newton(f, degree, DiophantineParams(1, 0), prime=7)[0]


class TestSolveHomological:
    def test_zero(self):
        g = SeriesTuple.zero(1, 1, 4)
        assert solve_homological(g, [Fraction(2)], 0).is_zero()

    def test_single_coefficient(self):
        g = SeriesTuple([MultiSeries(1, 4, [((2,), Fraction(1))])])
        w = solve_homological(g, [Fraction(2)], 0)
        assert w[0].coefficient((2,)) == Fraction(1, 2)

    def test_resonant_monomial(self):
        g = SeriesTuple(
            [MultiSeries(2, 4, [((0, 2), Fraction(1))]), MultiSeries.zero(2, 4)]
        )
        with pytest.raises(ResonantMonomialError) as err:
            solve_homological(g, [Fraction(4), Fraction(2)], 0)
        assert err.value.monomial == (0, 2)
        assert err.value.component == 0

    def test_rejects_low_transverse_order(self):
        g = SeriesTuple([MultiSeries(2, 4, [((2, 1), Fraction(1))]), MultiSeries.zero(2, 4)])
        with pytest.raises(DomainError):
            solve_homological(g, [Fraction(1), Fraction(2)], 1)

    def test_solution_satisfies_equation(self):
        rng = random.Random(61)
        lams = [Fraction(1), Fraction(-2), Fraction(-2)]
        for _ in range(20):
            terms = []
            for _ in range(6):
                exps = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
                if sum(exps[1:]) >= 2 and sum(exps) <= 5:
                    terms.append((exps, Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
            g = SeriesTuple(
                [MultiSeries(3, 5, terms), MultiSeries.zero(3, 5), MultiSeries(3, 5, terms[:2])]
            )
            w = solve_homological(g, lams, 1)
            lhs = w.compose_diagonal(lams) - SeriesTuple(
                [comp.scale(lam) for comp, lam in zip(w.components, lams)]
            )
            assert lhs == g

    @staticmethod
    def scan(g, lams, r):
        """The homological solve as one scan of each component in graded-lex
        order, with lambda^I formed from powers over the transverse tail."""
        out = []
        for j, comp in enumerate(g):
            terms = []
            for exps, coeff in comp.terms():
                divisor = math.prod(lam**e for lam, e in zip(lams[r:], exps[r:])) - lams[j]
                if divisor == 0:
                    raise ResonantMonomialError(exps, j)
                terms.append((exps, coeff / divisor))
            out.append(MultiSeries(comp.nvars, comp.trunc, terms))
        return SeriesTuple(out)

    @staticmethod
    def outcome(solve, g, lams, r):
        try:
            return solve(g, lams, r)
        except ResonantMonomialError as err:
            return err.monomial, err.component

    def test_resonance_is_named_in_scan_order(self):
        # lambda = (2, 1/2, 4): x1 x2 and x0^2 x1 are resonant in component 0
        # (degrees 2 and 3), x0^2 in component 2; the degree-3 layer of
        # component 0 is stored first, so a solve that reported the first
        # zero divisor it met would name (2, 1, 0)
        lams = [Fraction(2), Fraction(1, 2), Fraction(4)]
        first = MultiSeries(3, 4, [((2, 1, 0), 1), ((1, 1, 1), 3), ((0, 1, 1), -1)])
        last = MultiSeries(3, 4, [((1, 1, 1), 2), ((2, 0, 0), 5)])
        g = SeriesTuple([first, MultiSeries(3, 4, [((0, 0, 2), 1)]), last])
        assert list(first._packed) == [3, 2]
        assert self.outcome(solve_homological, g, lams, 0) == ((0, 1, 1), 0)
        g = SeriesTuple([MultiSeries(3, 4, [((1, 1, 1), 3)]), MultiSeries.zero(3, 4), last])
        assert self.outcome(solve_homological, g, lams, 0) == ((2, 0, 0), 2)

    def test_matches_the_scan_randomized(self):
        # resonances in several degrees and components, locus eigenvalues
        # other than one, and layers stored in random order
        rng = random.Random(1414)
        pool = [Fraction(x) for x in (1, -1, 2, -2, 3, 4)] + [Fraction(1, 2), Fraction(-1, 3)]
        resonant = 0
        for _ in range(150):
            n = rng.randint(1, 4)
            r = rng.randint(0, n - 1)
            lams = [rng.choice(pool) for _ in range(n)]
            comps = []
            for _ in range(n):
                terms = []
                for _ in range(rng.randint(0, 6)):
                    exps = tuple(rng.randint(0, 3) for _ in range(n))
                    if sum(exps[r:]) >= 2 and sum(exps) <= 6:
                        terms.append((exps, Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
                rng.shuffle(terms)
                comps.append(MultiSeries(n, 6, terms))
            g = SeriesTuple(comps)
            expected = self.outcome(self.scan, g, lams, r)
            resonant += isinstance(expected, tuple)
            assert self.outcome(solve_homological, g, lams, r) == expected
            table = series._DiagonalPowers(lams)
            assert self.outcome(solve_homological, g, table, r) == expected
        assert 20 <= resonant <= 130

    def test_the_divisor_reads_the_transverse_tail_alone(self):
        # lambda_0 = 3 on the locus never enters a divisor
        lams = [Fraction(3), Fraction(2), Fraction(-5)]
        g = SeriesTuple(
            [
                MultiSeries(3, 5, [((2, 0, 2), 1), ((0, 1, 1), Fraction(2, 7))]),
                MultiSeries(3, 5, [((1, 2, 0), -3)]),
                MultiSeries(3, 5, [((3, 1, 1), Fraction(1, 4)), ((0, 0, 3), 2)]),
            ]
        )
        w = solve_homological(g, lams, 1)
        assert w == self.scan(g, lams, 1)
        assert w[0].coefficient((2, 0, 2)) == Fraction(1, 25 - 3)


class TestOrderByOrder:
    def test_exponential_conjugacy(self):
        # closed form: h = e^x - 1 satisfies h(2x) = 2h + h^2
        result = linearize_order_by_order(doubling_map(8), 3)
        expected = [Fraction(1), Fraction(1, 2), Fraction(1, 6)]
        for k, c in enumerate(expected, start=1):
            assert result.h[0].coefficient((k,)) == c

    def test_linear_map_gives_identity(self):
        f = build_map([[((1, 0), 2)], [((0, 1), 3)]], 6)
        result = linearize_order_by_order(f, 6)
        assert result.h == SeriesTuple.identity(2, 6)

    def test_fixed_locus_single_coefficient(self):
        # hand solve: h = (x1 + x2^2/3, x2) since 4c = c + 1
        f = build_map([[((1, 0), 1), ((0, 2), 1)], [((0, 1), -2)]], 4, r=1)
        result = linearize_order_by_order(f, 4)
        assert result.h[0].coefficient((0, 2)) == Fraction(1, 3)
        assert result.h[1] == MultiSeries.variable(1, 2, 4)

    def test_residual_vanishes_exactly(self):
        f = build_map(
            [[((1, 0, 0), 2), ((0, 1, 1), 1)], [((0, 1, 0), 3), ((2, 0, 0), 1)], [((0, 0, 1), 5), ((1, 1, 0), 1)]],
            8,
        )
        result = linearize_order_by_order(f, 8)
        assert result.residual.is_zero()
        assert result.verified_degree == 8

    def test_inverse_composes_to_identity(self):
        degree = 10
        for name, f in fixture_suite(degree).items():
            for route in (linearize_order_by_order, newton_route):
                result = route(f, degree)
                comp = result.h.compose(result.h_inverse)
                assert comp.agrees_through(SeriesTuple.identity(f.n, degree), degree), name

    def test_resonant_inverse_is_series_reversion(self):
        # lambda^I = lambda_j makes k o f = Lambda o k solvable only up to
        # resonant terms, so h^(-1) must come from series reversion.  The
        # first map (resonance x^3 in component 2) defeats the Newton
        # window update, so Newton is checked on the second (x^4).
        head = [((1, 0), 2), ((2, 0), 1)]
        cases = [
            (
                build_map([head, [((0, 1), 8), ((2, 0), 1), ((3, 0), -1)]], 6),
                (linearize_order_by_order,),
            ),
            (
                build_map([head, [((0, 1), 16), ((2, 0), 12), ((4, 0), -7)]], 6),
                (linearize_order_by_order, newton_route),
            ),
        ]
        for f, routes in cases:
            for route in routes:
                result = route(f, 6)
                assert result.h.compose(result.h_inverse) == SeriesTuple.identity(2, 6)
                assert result.h_inverse == result.h.invert()

    def test_normalization_h_in_ar(self):
        f = build_map([[((1, 0), 1), ((0, 2), 1)], [((0, 1), -2), ((0, 2), 1)]], 6, r=1)
        result = linearize_order_by_order(f, 6)
        delta = result.h - SeriesTuple.identity(2, 6)
        from padicdyn.series import in_subspace_ar

        for comp in delta.components:
            assert in_subspace_ar(comp, 1)
        # h restricted to the locus is the identity: (x1, 0) -> (x1, 0)
        assert result.h[0].substitute_zero([1]) == MultiSeries.variable(0, 2, 6)
        assert result.h[1].substitute_zero([1]).is_zero()

    def test_denominator_primes_divide_divisor_product(self):
        for lam in (2, 3, 5):
            n_deg = 9
            f = build_map([[((1,), lam), ((2,), 1), ((3,), 1)]], n_deg)
            result = linearize_order_by_order(f, n_deg)
            allowed: set[int] = set()
            product = 1
            for m in range(2, n_deg + 1):
                product *= lam**m - lam
            from padicdyn.arith import factorize

            allowed = set(factorize(product))
            assert set(result.denominator_primes) <= allowed

    def test_functoriality_square(self):
        f = doubling_map(8)
        square = AnalyticMap(f.components.compose(f.components), 0)
        h_f = linearize_order_by_order(f, 6).h
        h_sq = linearize_order_by_order(square, 6).h
        assert h_f.agrees_through(h_sq, 6)

    def test_degree_too_small(self):
        with pytest.raises(DomainError):
            linearize_order_by_order(doubling_map(4), 1)

    @pytest.mark.parametrize("degree", ["4", 2.5, 4.0, True, Fraction(5)])
    def test_degree_must_be_an_int(self, degree):
        # a bool, float, string or Fraction is refused, never compared or floored
        f = doubling_map(8)
        with pytest.raises(DomainError):
            linearize_order_by_order(f, degree)
        with pytest.raises(DomainError):
            linearize_newton(f, degree, DiophantineParams(1, 0), prime=3)

    def test_resonance_propagates(self):
        f = build_map([[((1, 0), 4), ((0, 2), 1)], [((0, 1), 2)]], 4)
        with pytest.raises(ResonantMonomialError):
            linearize_order_by_order(f, 4)

    @pytest.mark.parametrize("degree", [2, 6])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_on_full_locus(self, n, degree):
        # a map fixing every point is the identity; both routes run their
        # general loops on it, and Newton checks its prime as for any map
        f = build_map([[(tuple(int(i == j) for j in range(n)), 1)] for i in range(n)], 6, r=n)
        ident = SeriesTuple.identity(n, degree)
        direct = linearize_order_by_order(f, degree)
        result, trace = linearize_newton(f, degree, DiophantineParams(1, 0))
        for res in (direct, result):
            assert res.h == res.h_inverse == ident
            assert res.residual == SeriesTuple.zero(n, n, degree)
            assert res.verified_degree == degree
            assert res.denominator_primes == frozenset()
            assert res.eigenvalues == (1,) * n
        assert (trace.iterations, trace.rescale, trace.prime) == ((), 1, 3)
        for prime in (2, 4, 9):
            with pytest.raises(DomainError):
                linearize_newton(f, degree, DiophantineParams(1, 0), prime=prime)


class TestNormalizeFixedLocus:
    def test_shear_example(self):
        f = build_map([[((1, 0), 1), ((0, 1), 1)], [((0, 1), -2)]], 5, r=1)
        g, h = normalize_fixed_locus(f)
        assert h[0] == MultiSeries(2, 5, [((1, 0), Fraction(1)), ((0, 1), Fraction(-1, 3))])
        assert h[1] == MultiSeries.variable(1, 2, 5)
        expected = build_map([[((1, 0), 1)], [((0, 1), -2)]], 5, r=1)
        assert g.components == expected.components

    def test_block_diagonal_untouched(self):
        f = build_map([[((1, 0), 1), ((0, 2), 1)], [((0, 1), -2)]], 5, r=1)
        g, h = normalize_fixed_locus(f)
        assert h == SeriesTuple.identity(2, 5)
        assert g.components == f.components

    def test_singular_tail_block(self):
        f = build_map([[((1, 0), 1), ((0, 1), 1)], [((0, 1), 1), ((0, 2), 1)]], 5, r=1)
        with pytest.raises(SingularBlockError):
            normalize_fixed_locus(f)

    def test_conjugation_identity(self):
        f = build_map(
            [[((1, 0, 0), 1), ((0, 1, 0), 2), ((0, 0, 2), 1)], [((0, 1, 0), -2), ((0, 0, 2), 1)], [((0, 0, 1), 3)]],
            5,
            r=1,
        )
        g, h = normalize_fixed_locus(f)
        lhs = f.components.compose(h)
        rhs = h.compose(g.components)
        assert lhs.agrees_through(rhs, 5)

    def test_upper_triangular_with_locus_coupling(self):
        # transverse block [[-2, x1],[0, -3]]: projectors (a''+3), -(a''+2)
        f = build_map(
            [
                [((1, 0, 0), 1)],
                [((0, 1, 0), -2), ((1, 0, 1), 1)],
                [((0, 0, 1), -3)],
            ],
            5,
            r=1,
        )
        g, change = normalize_fixed_locus(f)
        m = g.components.linear_matrix()
        assert m == [[1, 0, 0], [0, -2, 0], [0, 0, -3]]
        # transverse block of the result is constant diagonal: no x1 coupling left
        lhs = f.components.compose(change)
        rhs = change.compose(g.components)
        assert lhs.agrees_through(rhs, 5)

    def test_equal_eigenvalues_identity_transform(self):
        f = build_map(
            [[((1, 0, 0), 1)], [((0, 1, 0), -2), ((0, 1, 1), 1)], [((0, 0, 1), -2)]],
            5,
            r=1,
        )
        g, change = normalize_fixed_locus(f)
        assert change == SeriesTuple.identity(3, 5)

    def test_eigenvalue_variation_rejected(self):
        # transverse block [[-2 + x1, 0], [0, -3]]: trace varies along the locus
        from padicdyn.errors import EigenvalueVariationError

        f = build_map(
            [
                [((1, 0, 0), 1)],
                [((0, 1, 0), -2), ((1, 1, 0), 1)],
                [((0, 0, 1), -3)],
            ],
            5,
            r=1,
        )
        with pytest.raises(EigenvalueVariationError):
            normalize_fixed_locus(f)

    def test_jordan_block_rejected(self):
        f = build_map(
            [
                [((1, 0, 0), 1)],
                [((0, 1, 0), -2), ((0, 0, 1), 1)],
                [((0, 0, 1), -2)],
            ],
            5,
            r=1,
        )
        with pytest.raises(NotSemisimpleError):
            normalize_fixed_locus(f)

    def test_full_pipeline_enables_solve(self):
        f = build_map([[((1, 0), 1), ((0, 1), 1)], [((0, 1), -2), ((0, 2), 1)]], 6, r=1)
        g, change = normalize_fixed_locus(f)
        result = linearize_order_by_order(g, 6)
        total = change.compose(result.h)
        # total conjugates f to its diagonal linear part
        lams = [Fraction(1), Fraction(-2)]
        lhs = f.components.compose(total)
        rhs = total.compose_diagonal(lams)
        assert lhs.agrees_through(rhs, 6)

    @pytest.mark.parametrize(
        "name, conjugations", [("shear-2d", 1), ("locus-line-2d", 0), ("coupled-triangular-3d", 1)]
    )
    def test_one_conjugation(self, monkeypatch, name, conjugations):
        # the shear and the diagonalization are one change: one reversion
        # and one conjugation at most, and the blocks are read from f and
        # in the final check; a map already normalized is not conjugated
        counts = Counter()

        def counted(key, function):
            def call(*args):
                counts[key] += 1
                return function(*args)
            return call

        monkeypatch.setattr(SeriesTuple, "invert", counted("invert", SeriesTuple.invert))
        monkeypatch.setattr(linearize, "_conjugated", counted("conjugated", linearize._conjugated))
        monkeypatch.setattr(
            linearize, "_transverse_linear_blocks", counted("blocks", linearize._transverse_linear_blocks)
        )
        f = {**fixture_suite(8), **sheared_maps(8), "coupled-triangular-3d": coupled_triangular(8)}[name]
        normalize_fixed_locus(f)
        assert counts == Counter(invert=conjugations, conjugated=conjugations, blocks=1 + conjugations)


def reference_matmul(a, b, trunc):
    """The series matrix product summed entry by entry."""
    nvars = b[0][0].nvars
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b)) if not a[i][k].is_zero()), MultiSeries.zero(nvars, trunc))
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def similarity_diagonalize(f):
    """Reference: the transverse diagonalization through the eigenbasis.

    Moves B = 1 + a'' to m1 = C^(-1) B C, builds the interpolation
    projectors of m1, moves them back as C P, and builds the change
    x''_i -> sum_j (C P)_ij x''_j term by term, then conjugates."""
    r, n, trunc = f.fixed_locus_dim, f.n, f.trunc
    t = n - r
    _, a_tail = linearize._transverse_linear_blocks(f.components - SeriesTuple.identity(n, trunc), r)
    block = [[a_tail[i][j] + MultiSeries.constant(int(i == j), n, trunc) for j in range(t)] for i in range(t)]
    *lower, lead = linearize._char_poly(block, lambda a, b: reference_matmul(a, b, trunc))
    roots = linearize._rational_roots_monic([c.constant_term() for c in lower] + [lead])
    block_const = [[block[i][j].constant_term() for j in range(t)] for i in range(t)]
    collected = []
    for lam in sorted(set(roots)):
        shifted = [[block_const[i][j] - (lam if i == j else 0) for j in range(t)] for i in range(t)]
        for vec in ratlinalg.kernel_basis(shifted, t):
            collected.append((next(i for i, x in enumerate(vec) if x), lam, vec))
    assert len(collected) == t
    collected.sort(key=lambda item: item[0])
    ordered = [lam for _, lam, _ in collected]
    cmat = [[collected[j][2][i] for j in range(t)] for i in range(t)]
    cinv = ratlinalg.inverse(cmat)

    def constant(mat):
        return [[MultiSeries.constant(x, n, trunc) for x in row] for row in mat]

    m1 = reference_matmul(reference_matmul(constant(cinv), block, trunc), constant(cmat), trunc)
    distinct = sorted(set(ordered))
    projectors = {}
    for lam in distinct:
        proj = constant(ratlinalg.identity(t))
        for other in distinct:
            if other != lam:
                shift = [
                    [(m1[i][j] - MultiSeries.constant(other if i == j else 0, n, trunc)).scale(1 / (lam - other))
                     for j in range(t)]
                    for i in range(t)
                ]
                proj = reference_matmul(proj, shift, trunc)
        projectors[lam] = proj
    pmat = [[projectors[ordered[j]][i][j] for j in range(t)] for i in range(t)]
    total = reference_matmul(constant(cmat), pmat, trunc)
    comps = [MultiSeries.variable(i, n, trunc) for i in range(r)]
    for i in range(t):
        acc = MultiSeries.zero(n, trunc)
        for j in range(t):
            if not total[i][j].is_zero():
                acc = acc + total[i][j] * MultiSeries.variable(r + j, n, trunc)
        comps.append(acc)
    change = SeriesTuple(comps)
    return change.invert().compose(f.components.compose(change)), change


def sheared_maps(degree):
    """The two maps with r = 1 that the conjugacy benchmark adds to the
    acceptance fixtures."""
    return {
        "shear-2d": build_map([[((1, 0), 1), ((0, 1), 1)], [((0, 1), -2), ((0, 2), 1)]], degree, r=1),
        "triangular-3d": build_map(
            [[((1, 0, 0), 1)], [((0, 1, 0), -2), ((1, 0, 1), 1), ((0, 2, 0), 1)], [((0, 0, 1), -3), ((0, 1, 1), 1)]],
            degree,
            r=1,
        ),
    }


def coupled_triangular(degree):
    """triangular-3d with the head x1 + x3: coupled to the tail, and with a
    transverse block that is not diagonal at the point, so the change has
    head rows M C with C not the identity."""
    return build_map(
        [[((1, 0, 0), 1), ((0, 0, 1), 1)], [((0, 1, 0), -2), ((1, 0, 1), 1), ((0, 2, 0), 1)], [((0, 0, 1), -3), ((0, 1, 1), 1)]],
        degree,
        r=1,
    )


def reference_shear(f):
    """Reference: the shear modulo I_F^2 alone, (x' + a' (a'')^(-1) x''; x''),
    with (a'')^(-1) summed as a geometric series, and the conjugate of f by it."""
    r, n, trunc = f.fixed_locus_dim, f.n, f.trunc
    a_head, a_tail = linearize._transverse_linear_blocks(f.components - SeriesTuple.identity(n, trunc), r)
    shear = reference_matmul(a_head, geometric_series_inverse(a_tail, trunc), trunc)
    comps = [MultiSeries.variable(i, n, trunc) for i in range(n)]
    for i in range(r):
        for j in range(n - r):
            if not shear[i][j].is_zero():
                comps[i] = comps[i] + shear[i][j] * MultiSeries.variable(r + j, n, trunc)
    change = SeriesTuple(comps)
    return AnalyticMap(change.invert().compose(f.components.compose(change)), r), change


# triangular transverse blocks whose entries depend on the locus
# coordinates, with nonlinear transverse terms so that g differs from f;
# all but upper-3x3-r2 are not diagonal at the point, so the eigenvectors
# v_j are not unit vectors
TRIANGULAR_BLOCKS = {
    # r = 1, 2 x 2: upper and lower, distinct eigenvalues
    "upper-2x2-r1": (1, [[((1, 0, 0), 1), ((0, 2, 0), 1)],
                         [((0, 1, 0), -2), ((0, 0, 1), 1), ((1, 0, 1), 1), ((2, 0, 1), 3), ((0, 1, 1), 1)],
                         [((0, 0, 1), -3), ((0, 2, 0), 1)]]),
    "lower-2x2-r1": (1, [[((1, 0, 0), 1), ((0, 1, 1), 1)],
                         [((0, 1, 0), 5), ((0, 2, 0), -1)],
                         [((0, 0, 1), Fraction(1, 2)), ((0, 1, 0), 4), ((1, 1, 0), 2), ((3, 1, 0), -1), ((0, 1, 1), 1)]]),
    # r = 1, 3 x 3: distinct, and a repeated eigenvalue
    "upper-3x3-r1": (1, [[((1, 0, 0, 0), 1)],
                         [((0, 1, 0, 0), -2), ((0, 0, 1, 0), 1), ((1, 0, 1, 0), 1), ((2, 0, 0, 1), -1), ((0, 2, 0, 0), 1)],
                         [((0, 0, 1, 0), 3), ((0, 0, 0, 1), -1), ((1, 0, 0, 1), 2), ((0, 1, 1, 0), 1)],
                         [((0, 0, 0, 1), 5), ((0, 0, 1, 1), 1)]]),
    "repeated-3x3-r1": (1, [[((1, 0, 0, 0), 1), ((0, 1, 1, 0), 1)],
                            [((0, 1, 0, 0), -2), ((0, 0, 0, 1), 2), ((1, 0, 0, 1), 1), ((0, 2, 0, 0), 1)],
                            [((0, 0, 1, 0), -2), ((2, 0, 0, 1), -1), ((0, 0, 1, 1), 1)],
                            [((0, 0, 0, 1), 3)]]),
    "repeated-lower-3x3-r1": (1, [[((1, 0, 0, 0), 1)],
                                  [((0, 1, 0, 0), 3), ((0, 1, 1, 0), 1)],
                                  [((0, 0, 1, 0), -2), ((1, 1, 0, 0), 1)],
                                  [((0, 0, 0, 1), -2), ((0, 1, 0, 0), 1), ((1, 1, 0, 0), 2), ((0, 2, 0, 0), 1)]]),
    # r = 2: entries in x1 and x2
    "upper-2x2-r2": (2, [[((1, 0, 0, 0), 1), ((0, 0, 2, 0), 1)],
                         [((0, 1, 0, 0), 1), ((0, 0, 1, 1), 1)],
                         [((0, 0, 1, 0), -2), ((0, 0, 0, 1), -1), ((1, 1, 0, 1), 1), ((0, 2, 0, 1), 2), ((0, 0, 2, 0), 1)],
                         [((0, 0, 0, 1), 3), ((0, 0, 1, 1), -1)]]),
    "upper-3x3-r2": (2, [[((1, 0, 0, 0, 0), 1)],
                         [((0, 1, 0, 0, 0), 1), ((0, 0, 1, 1, 0), 1)],
                         [((0, 0, 1, 0, 0), -2), ((1, 0, 0, 1, 0), 1), ((0, 1, 0, 0, 1), 1)],
                         [((0, 0, 0, 1, 0), 4), ((1, 1, 0, 0, 1), -1), ((0, 0, 0, 2, 0), 1)],
                         [((0, 0, 0, 0, 1), Fraction(-1, 3))]]),
    "repeated-3x3-r2": (2, [[((1, 0, 0, 0, 0), 1)],
                            [((0, 1, 0, 0, 0), 1), ((0, 0, 0, 1, 1), 1)],
                            [((0, 0, 1, 0, 0), 2), ((1, 0, 0, 0, 1), 1), ((0, 0, 2, 0, 0), 1)],
                            [((0, 0, 0, 1, 0), 2), ((0, 0, 0, 0, 1), 1), ((0, 1, 0, 0, 1), -1), ((1, 1, 0, 0, 1), 1)],
                            [((0, 0, 0, 0, 1), -1)]]),
}


class TestProjectorsOfTheBlockItself:
    """normalize_fixed_locus, whose columns P_(lambda_j)(B) v_j are formed
    from B itself by matrix-vector steps and accepted by the one check
    B C = C D, returns the change and g of the eigenbasis route (whose
    projector matrices are formed in full), after the shear when f is
    coupled, and refuses a block that is semisimple at the point only."""

    @pytest.mark.parametrize("trunc", [4, 5])
    @pytest.mark.parametrize("name", sorted(TRIANGULAR_BLOCKS))
    def test_matches_the_similarity_route(self, name, trunc):
        r, terms = TRIANGULAR_BLOCKS[name]
        f = build_map(terms, trunc, r=r)
        g, change = normalize_fixed_locus(f)
        ref_g, ref_change = similarity_diagonalize(f)
        assert change == ref_change
        assert g.components == ref_g
        assert g.fixed_locus_dim == r
        # the change is not a constant one: the locus coupling is solved
        assert change != SeriesTuple.identity(f.n, trunc)

    @pytest.mark.parametrize("trunc", [5, 8])
    @pytest.mark.parametrize("name", ["shear-2d", "triangular-3d", "coupled-triangular-3d"])
    def test_one_change_matches_the_two_step_route(self, name, trunc):
        f = {**sheared_maps(trunc), "coupled-triangular-3d": coupled_triangular(trunc)}[name]
        g, change = normalize_fixed_locus(f)
        sheared, shear = reference_shear(f)
        ref_g, ref_change = similarity_diagonalize(sheared)
        assert change == shear.compose(ref_change)
        assert g.components == ref_g
        if name == "coupled-triangular-3d":
            # both steps act: the head rows are M C with C not the identity
            identity = SeriesTuple.identity(f.n, trunc)
            assert shear != identity and ref_change != identity

    @pytest.mark.parametrize(
        "r, terms",
        [
            # B = [[-2, x1], [0, -2]]: semisimple at the point, not along the locus
            (1, [[((1, 0, 0), 1)], [((0, 1, 0), -2), ((1, 0, 1), 1)], [((0, 0, 1), -2)]]),
            # B = [[-2, x1, 0], [0, -2, 0], [0, 0, -3]]: the Jordan part lies in
            # a repeated eigenspace beside a distinct eigenvalue
            (1, [[((1, 0, 0, 0), 1)], [((0, 1, 0, 0), -2), ((1, 0, 1, 0), 1)], [((0, 0, 1, 0), -2)],
                 [((0, 0, 0, 1), -3)]]),
            # B = [[2, x1 + x2, 0], [0, 2, 0], [0, 0, -1]] along a plane
            (2, [[((1, 0, 0, 0, 0), 1)], [((0, 1, 0, 0, 0), 1)],
                 [((0, 0, 1, 0, 0), 2), ((1, 0, 0, 1, 0), 1), ((0, 1, 0, 1, 0), 1)], [((0, 0, 0, 1, 0), 2)],
                 [((0, 0, 0, 0, 1), -1)]]),
        ],
    )
    def test_locus_dependent_jordan_block_is_refused(self, r, terms):
        f = build_map(terms, 5, r=r)
        with pytest.raises(NotSemisimpleError, match="not semisimple over the locus"):
            normalize_fixed_locus(f)


class TestNewton:
    def test_zero_iterations_for_linear(self):
        f = build_map([[((1, 0), 2)], [((0, 1), 3)]], 6)
        result, trace = linearize_newton(f, 6, DiophantineParams(1, 0))
        assert trace.iterations == ()
        assert result.h == SeriesTuple.identity(2, 6)

    def test_doubling_orders(self):
        result, trace = linearize_newton(doubling_map(8), 8, DiophantineParams(1, 0), prime=3)
        orders = [it.delta_order for it in trace.iterations]
        assert orders == [2, 4, 8]
        assert trace.derived_c1 is not None
        direct = linearize_order_by_order(doubling_map(8), 8)
        assert result.h.agrees_through(direct.h, 8)

    def test_radii_decrease(self):
        _, trace = linearize_newton(doubling_map(16), 16, DiophantineParams(1, 0), prime=3)
        assert trace.radii == tuple(it.rho for it in trace.iterations)
        assert list(trace.radii) == sorted(trace.radii, reverse=True)
        assert all(r > Fraction(1, 2) for r in trace.radii)

    @pytest.mark.parametrize("degree, windows", [(12, 3), (16, 4)])
    def test_one_window_inverse_per_window(self, monkeypatch, degree, windows):
        # one preconditioned pass, one solve against Dh o Lambda, leaves at
        # most layer high, which the layer step closes without a second
        # solve; no window builds the inverse matrix
        calls, inverses = [], []
        solve = linearize._series_solve

        def counted(mat, rhs):
            calls.append(rhs.trunc)
            return solve(mat, rhs)

        monkeypatch.setattr(linearize, "_series_solve", counted)
        monkeypatch.setattr(linearize, "_series_matrix_inverse", lambda mat, trunc: inverses.append(trunc))
        f = fixture_suite(degree)["independent-3d"]
        _, trace = linearize_newton(f, degree, DiophantineParams(1, 0), prime=7)
        assert len(trace.iterations) == windows
        assert len(calls) == windows
        assert inverses == []

    def test_rescaling_reported(self):
        f = build_map([[((1,), 2), ((2,), Fraction(1, 3))]], 6)
        result, trace = linearize_newton(f, 6, DiophantineParams(1, 0), prime=3)
        assert trace.rescale < 1
        direct = linearize_order_by_order(f, 6)
        assert result.h.agrees_through(direct.h, 6)

    def test_cross_method_fixed_locus(self):
        f = build_map([[((1, 0), 1), ((0, 2), 1)], [((0, 1), -2), ((0, 3), 1)]], 6, r=1)
        result, _ = linearize_newton(f, 6, DiophantineParams(1, 0), prime=3)
        direct = linearize_order_by_order(f, 6)
        assert result.h.agrees_through(direct.h, 6)


def geometric_series_inverse(mat, trunc):
    """Reference: mat^(-1) = (1 + nu)^(-1) C^(-1) with nu = C^(-1) (mat - C),
    summed as the geometric series of nu until its power vanishes."""
    n, nvars = len(mat), mat[0][0].nvars
    const = [[mat[i][j].constant_term() for j in range(n)] for i in range(n)]
    inv0 = ratlinalg.inverse(const)
    zero = MultiSeries.zero(nvars, trunc)
    nu = [
        [
            sum(((mat[k][j] - MultiSeries.constant(const[k][j], nvars, trunc)).scale(inv0[i][k]) for k in range(n)), zero)
            for j in range(n)
        ]
        for i in range(n)
    ]
    total = [[MultiSeries.constant(int(i == j), nvars, trunc) for j in range(n)] for i in range(n)]
    power = [row[:] for row in total]
    for k in range(1, trunc + 1):
        power = linearize._series_matrix_mul(power, nu)
        if all(entry.is_zero() for row in power for entry in row):
            break
        total = [[total[i][j] + power[i][j].scale((-1) ** k) for j in range(n)] for i in range(n)]
    return [[sum((total[i][k].scale(inv0[k][j]) for k in range(n)), zero) for j in range(n)] for i in range(n)]


def random_series(rng, nvars, trunc, low, terms):
    monomials = [e for e in itertools.product(range(trunc + 1), repeat=nvars) if low <= sum(e) <= trunc]
    return MultiSeries(
        nvars, trunc, [(rng.choice(monomials), Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7]))) for _ in range(terms)]
    )


def random_series_matrix(rng, n, nvars, trunc):
    """A square series matrix with a random invertible, non-identity
    constant part and sparse higher terms."""
    while True:
        const = [[Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5])) for _ in range(n)] for _ in range(n)]
        if ratlinalg.det(const) and const != ratlinalg.identity(n):
            break
    return [
        [MultiSeries.constant(const[i][j], nvars, trunc) + random_series(rng, nvars, trunc, 1, 3) for j in range(n)]
        for i in range(n)
    ]


class TestSeriesSolve:
    """_series_solve solves mat x = rhs one degree at a time."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("low", [0, 2])
    def test_solution_satisfies_the_system(self, n, low):
        rng = random.Random(100 * n + low)
        for nvars, trunc in ((1, 7), (2, 5)):
            mat = random_series_matrix(rng, n, nvars, trunc)
            rhs = SeriesTuple([random_series(rng, nvars, trunc, low, 4) for _ in range(n)])
            x = linearize._series_solve(mat, rhs)
            assert x.trunc == trunc
            assert x.lowest_degree() is None or x.lowest_degree() >= low
            assert series._series_matrix_vector(mat, x).agrees_through(rhs, trunc)

    def test_cap_is_the_least_cap(self):
        rng = random.Random(5)
        mat = random_series_matrix(rng, 2, 2, 4)
        rhs = SeriesTuple([random_series(rng, 2, 6, 0, 4) for _ in range(2)])
        x = linearize._series_solve(mat, rhs)
        assert x.trunc == 4
        assert series._series_matrix_vector(mat, x).agrees_through(rhs.truncated(4), 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_inverse_matches_the_geometric_series(self, n):
        rng = random.Random(n)
        mat = random_series_matrix(rng, n, 2, 5)
        assert linearize._series_matrix_inverse(mat, 5) == geometric_series_inverse(mat, 5)

    def test_singular_constant_part_is_refused(self):
        x = MultiSeries.variable(0, 1, 4)
        one = MultiSeries.one(1, 4)
        mat = [[one + x, one], [one, one + x * x]]
        with pytest.raises(DomainError):
            linearize._series_solve(mat, SeriesTuple([one, one]))
        with pytest.raises(DomainError):
            linearize._series_matrix_inverse(mat, 4)


def nine_fixture_maps(degree):
    """The seven acceptance fixtures and the two sheared maps of the
    conjugacy benchmark, each with the fixed-locus normalizations applied."""
    maps = {**fixture_suite(degree), **sheared_maps(degree)}
    return {name: normalize_fixed_locus(f)[0] for name, f in maps.items()}


def trace_record(trace):
    """Every field of every window: delta_norm with its witness, and each
    NormBoundCertificate field, RatPow values as (coeff, base, exponent)."""
    rows = []
    for it in trace.iterations:
        norm = it.delta_norm
        row = [it.index, it.window, it.delta_order, it.rho]
        row += [norm.value, norm.valuation, norm.degree, norm.witness, norm.prime, norm.rho]
        for field in fields(NormBoundCertificate):
            value = getattr(it.bound, field.name)
            row.append((value.coeff, value.base, value.exponent) if isinstance(value, RatPow) else value)
        rows.append(row)
    return repr((trace.rescale, trace.prime, rows))


class TestNewtonCertificatePin:
    """The Newton trace at degree 12 (prime 7) of the nine conjugacy
    benchmark maps, pinned field by field; recorded before the window
    update became a degree-by-degree solve."""

    PINNED = {
        "doubling-1d": "e1e30feb317d7226",
        "cubic-tail-1d": "b543f41175d524db",
        "locus-line-2d": "cd73274d1eb2ffc1",
        "independent-3d": "ccac97b8d467a8dd",
        "independent-2d": "7a1f848206fff395",
        "locus-coupled-3d": "e994fa2c73da74ba",
        "symplectic-4d": "2110a88a17abc94a",
        "shear-2d": "e183710db92d21c3",
        "triangular-3d": "cb11ad4aae838c91",
    }

    def test_trace_fields_are_pinned(self):
        digests = {
            name: hashlib.sha256(
                trace_record(linearize_newton(g, 12, DiophantineParams(1, 0), prime=7)[1]).encode()
            ).hexdigest()[:16]
            for name, g in nine_fixture_maps(12).items()
        }
        assert digests == self.PINNED


class TestLayerStep:
    """_layer_step forms layer d of the residual alone."""

    def test_order_by_order_loop_costs_about_one_composition(self, monkeypatch):
        # counts the term pairs _convolve visits: a work count, not a timing
        visited = []
        convolve = series._convolve

        def counted(a, b, trunc, low=0):
            # each view layer is (den, terms)
            top = max(b, default=-1)
            visited.append(
                sum(
                    len(terms) * len(b[db][1])
                    for da, (_, terms) in a.items()
                    for db in range(max(low - da, 0), min(trunc - da, top) + 1)
                    if db in b
                )
            )
            return convolve(a, b, trunc, low)

        degree = 12
        f = fixture_suite(degree)["independent-3d"]
        lams = linearize._normalized_eigenvalues(f)
        fmap = f.components.truncated(degree)
        h = SeriesTuple.identity(f.n, degree)
        table = series._PowerTable(f.n)
        monkeypatch.setattr(series, "_convolve", counted)
        for d in range(2, degree + 1):
            h = linearize._layer_step(h, fmap, table, lams, 0, d)
        loop = sum(visited)
        visited.clear()
        fmap.compose(h)
        assert loop <= 1.25 * sum(visited)

    @staticmethod
    def perturb_once(monkeypatch, at):
        """Make the layer step at degree `at` also add a term of degree 2,
        below the layer it solves, where the step itself no longer looks."""
        step = linearize._layer_step

        def perturbed(h, fmap, table, lams, r, d):
            h = step(h, fmap, table, lams, r, d)
            if d == at:
                # x2 x3 in the first component: lambda^I = 15 != 2 = lambda_1,
                # so the residual sees it
                stray = MultiSeries(h.nvars, h.trunc, [((0, 1, 1), Fraction(1, 5))])
                h = SeriesTuple([h[0] + stray] + list(h.components[1:]))
            return h

        monkeypatch.setattr(linearize, "_layer_step", perturbed)

    def test_stray_lower_layer_fails_the_final_check(self, monkeypatch):
        self.perturb_once(monkeypatch, 3)
        f = fixture_suite(12)["independent-3d"]
        with pytest.raises(AssertionError, match="failed to vanish") as caught:
            linearize_order_by_order(f, 12)
        assert caught.traceback[-1].name == "_verified_conjugacy"

    @pytest.mark.parametrize(
        "at, check",
        [(3, "linearize_newton"), (7, "linearize_newton"), (12, "_verified_conjugacy")],
    )
    def test_stray_lower_layer_fails_the_next_newton_check(self, monkeypatch, at, check):
        # windows [2, 3], [4, 7], [8, 12]: the next window's residual catches
        # a stray layer, and the final check catches it after the last one
        self.perturb_once(monkeypatch, at)
        f = fixture_suite(12)["independent-3d"]
        with pytest.raises(AssertionError) as caught:
            linearize_newton(f, 12, DiophantineParams(1, 0), prime=7)
        assert caught.traceback[-1].name == check


def counted_convolve(monkeypatch, visited):
    """Record in visited the term pairs each _convolve call visits, the
    pairs whose degrees add up to low..trunc: a work count, not a timing."""
    convolve = series._convolve

    def counted(a, b, trunc, low=0):
        top = max(b, default=-1)
        visited.append(
            sum(
                len(terms) * len(b[db][1])
                for da, (_, terms) in a.items()
                for db in range(max(low - da, 0), min(trunc - da, top) + 1)
                if db in b
            )
        )
        return convolve(a, b, trunc, low)

    monkeypatch.setattr(series, "_convolve", counted)


def seeded_normalized_map(rng, n, r, degree):
    """A random normalized map in n variables with an r-dimensional fixed
    locus: tail eigenvalues from +-{2, 3, 5}, and nonlinear terms of total
    degree 2 or 3 and transverse degree >= 2, some over 7 or 49."""
    lams = [1] * r + [rng.choice([2, 3, 5, -2, -3, -5]) for _ in range(n - r)]
    comps = [[(tuple(int(i == j) for i in range(n)), lams[j])] for j in range(n)]
    monomials = [e for e in itertools.product(range(4), repeat=n) if 2 <= sum(e) <= 3 and sum(e[r:]) >= 2]
    for _ in range(rng.randint(4, 7)):
        comps[rng.randrange(n)].append((rng.choice(monomials), Fraction(rng.choice([-7, -3, -1, 1, 2, 7]), rng.choice([1, 7, 49]))))
    return build_map(comps, degree, r=r)


class TestOnePowerTable:
    """A conjugacy run keeps one table of the powers h^I: its layer steps
    and Newton windows grow it and its final check reads fmap o h from it."""

    def test_the_run_costs_at_most_one_composition(self, monkeypatch):
        # the layer steps and the final check, without the h^(-1) stream
        visited = []
        counted_convolve(monkeypatch, visited)
        monkeypatch.setattr(linearize, "_conjugacy_inverse", lambda h, fmap, lams, r: h)
        degree = 12
        f = fixture_suite(degree)["independent-3d"]
        h = linearize_order_by_order(f, degree).h
        run = sum(visited)
        visited.clear()
        f.components.truncated(degree).compose(h)
        assert run <= 1.1 * sum(visited)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n, r", [(3, 0), (4, 0), (3, 1), (4, 1), (3, 2), (4, 2)])
    def test_matches_the_loop_that_composes_afresh(self, monkeypatch, seed, n, r):
        rng = random.Random(f"{seed}-{n}-{r}")
        degree = rng.randint(8, 16)
        f = seeded_normalized_map(rng, n, r, degree)
        # the loop with a fresh table for every step
        lams = linearize._normalized_eigenvalues(f)
        fmap = f.components.truncated(degree)
        h = SeriesTuple.identity(n, degree)
        for d in range(2, degree + 1):
            h = linearize._layer_step(h, fmap, series._PowerTable(n), lams, r, d)
        monkeypatch.setattr(linearize, "_verified_conjugacy", lambda h, composed, fmap, lams, r: (h, composed))
        table_h, composed = linearize_order_by_order(f, degree)
        assert any(c.degree() > 1 for c in h)
        assert table_h == h
        assert composed == fmap.compose(h)

    def test_newton_keeps_one_table_across_its_windows(self, monkeypatch):
        # the windows, their layer steps and the final check, without the
        # h^(-1) stream, against the same run with a fresh table per call
        visited = []
        counted_convolve(monkeypatch, visited)
        monkeypatch.setattr(linearize, "_conjugacy_inverse", lambda h, fmap, lams, r: h)
        degree = 16
        f = fixture_suite(degree)["independent-3d"]
        kept = newton_route(f, degree).h
        run = sum(visited)
        visited.clear()

        class Fresh(series._PowerTable):
            def compose(self, outer, inner, low=0):
                return series._PowerTable(len(self.factors)).compose(outer, inner, low)

        monkeypatch.setattr(linearize, "_PowerTable", Fresh)
        assert newton_route(f, degree).h == kept
        assert run <= 0.55 * sum(visited)

    @pytest.mark.parametrize("degree, pairs", [(12, 10_600), (16, 41_000)])
    def test_the_newton_final_check_forms_no_power_layer(self, monkeypatch, degree, pairs):
        # Newton iterates on f itself, so the final check reads the h of the
        # last layer step, which differs from the h the table read last in
        # its top layer alone, and no power layer reads that one
        visited, reads = [], []
        counted_convolve(monkeypatch, visited)
        monkeypatch.setattr(linearize, "_conjugacy_inverse", lambda h, fmap, lams, r: h)

        class Counted(series._PowerTable):
            def compose(self, outer, inner, low=0):
                start = len(visited)
                composed = super().compose(outer, inner, low)
                reads.append(sum(visited[start:]))
                return composed

        monkeypatch.setattr(linearize, "_PowerTable", Counted)
        newton_route(fixture_suite(degree)["independent-3d"], degree)
        assert len(reads) > 1 and reads[-1] == 0
        assert sum(visited) <= pairs

    @pytest.mark.parametrize("offset", [-1, 1, 3])
    def test_a_step_that_adds_another_layer_raises(self, monkeypatch, offset):
        solve = linearize.solve_homological

        def stray(g, lams, r):
            # w at the cap of h, with a term of another degree in component 0
            w = [comp.as_polynomial(12) for comp in solve(g, lams, r)]
            degree = g.lowest_degree() + offset
            w[0] = w[0] + MultiSeries(g.nvars, 12, [((0, 0, degree), Fraction(1, 5))])
            return SeriesTuple(w)

        monkeypatch.setattr(linearize, "solve_homological", stray)
        with pytest.raises(AssertionError, match="other than its own"):
            linearize_order_by_order(fixture_suite(12)["independent-3d"], 12)


def weighted_rescale(g, c):
    """The conjugate x -> g(c x) / c by one Fraction product per term,
    rebuilt from the terms."""
    scales = [c ** (d - 1) for d in range(g.trunc + 1)]
    return SeriesTuple(
        [MultiSeries(comp.nvars, comp.trunc, [(e, a * scales[sum(e)]) for e, a in comp.terms()]) for comp in g]
    )


def rescaled_newton(f, degree, params, prime):
    """The Newton loop run on the rescaled map u f(x / u), with h mapped
    back to the original coordinates before the final check: the route
    linearize_newton took before it iterated on f itself."""
    n, r = f.n, f.fixed_locus_dim
    lams = linearize._normalized_eigenvalues(f)
    fmap = f.components.truncated(degree)
    k = 0
    for comp in fmap:
        for exps, coeff in comp.terms():
            if sum(exps) >= 2 and fraction_valuation(coeff, prime) < 1:
                k = max(k, math.ceil(Fraction(1 - fraction_valuation(coeff, prime), sum(exps) - 1)))
    u = Fraction(1, prime**k)
    scaled = weighted_rescale(fmap, 1 / u)
    table = series._PowerTable(n)
    h = SeriesTuple.identity(n, degree)
    iterations = []
    low = 2
    while low <= degree:
        high = min(2 * low - 1, degree)
        hd = h.truncated(high)
        residual = table.compose(scaled, hd) - hd.compose_diagonal(lams)
        res_low = residual.lowest_degree()
        if res_low is not None and res_low <= high:
            assert res_low >= low
            index = len(iterations)
            rho = Fraction(1, 2) + Fraction(1, 2 ** (index + 1))
            delta = Fraction(1, 2 ** (index + 2))
            jac = [[entry.as_polynomial(high) for entry in row] for row in hd.jacobian()]
            g = linearize._series_solve([list(SeriesTuple(row).compose_diagonal(lams)) for row in jac], residual)
            g = SeriesTuple([comp.as_polynomial(degree) for comp in g])
            e = solve_homological(g, lams, r)
            bound = check_norm_bound(g, e, lams, rho, delta, params, prime)
            correction = series._series_matrix_vector(jac, e.truncated(high))
            refined = h + SeriesTuple([comp.as_polynomial(degree) for comp in correction])
            refined = linearize._layer_step(refined, scaled, table, lams, r, high)
            step = refined - h
            h = refined
            iterations.append(
                linearize.NewtonIteration(
                    index=index,
                    window=(low, high),
                    delta_order=step.lowest_degree(),
                    delta_norm=tuple_gauss_norm(step, rho, prime),
                    rho=rho,
                    bound=bound,
                )
            )
        low = 2 * low
    h = weighted_rescale(h, u)
    result = linearize._verified_conjugacy(h, fmap.compose(h), fmap, lams, r)
    return result, linearize.NewtonTrace(iterations=tuple(iterations), rescale=u, prime=prime)


class TestNewtonOnTheMapItself:
    """linearize_newton iterates on f and conjugates only the certificate
    inputs; it matches the loop on the rescaled map field by field."""

    @staticmethod
    def assert_same_route(f, degree, prime):
        params = DiophantineParams(1, 0)
        result, trace = linearize_newton(f, degree, params, prime=prime)
        expected, expected_trace = rescaled_newton(f, degree, params, prime)
        assert result.h == expected.h
        assert result.h_inverse == expected.h_inverse
        assert result.denominator_primes == expected.denominator_primes
        assert trace_record(trace) == trace_record(expected_trace)
        return trace

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("n, r", [(3, 0), (4, 0), (3, 1), (4, 2)])
    def test_seeded_normalized_maps(self, seed, n, r):
        rng = random.Random(f"newton-{seed}-{n}-{r}")
        degree = rng.randint(8, 12)
        trace = self.assert_same_route(seeded_normalized_map(rng, n, r, degree), degree, 7)
        assert trace.iterations

    @pytest.mark.parametrize(
        "den, scale",
        # every nonlinear coefficient divisible by 7; integral; over 7; over 49
        [(Fraction(1, 7), 0), (1, 1), (7, 2), (49, 3)],
    )
    def test_each_rescaling_exponent(self, den, scale):
        f = build_map(
            [
                [((1, 0, 0), 2), ((2, 0, 0), Fraction(3, den)), ((0, 1, 1), Fraction(-1, den))],
                [((0, 1, 0), 3), ((1, 1, 0), Fraction(5, den)), ((0, 0, 3), Fraction(2, den))],
                [((0, 0, 1), -5), ((2, 1, 0), Fraction(1, den)), ((0, 2, 0), Fraction(-4, den))],
            ],
            10,
        )
        trace = self.assert_same_route(f, 10, 7)
        assert trace.rescale == Fraction(1, 7**scale)
        assert len(trace.iterations) == 3


class TestCertificatesAtTheScaledRadius:
    """Newton reads the norms of R(g), R(e) and R(step), for R the conjugate
    x -> s(c x) / c with c = p^k, on g, e and step themselves at rho / c."""

    @staticmethod
    def windows():
        """(g, e, step, lams, rho, delta) of every Newton window of seeded maps."""
        seen = []
        certify = linearize._rescaled_certificates

        def recording(g, e, step, lams, rho, delta, params, prime, k):
            seen.append((g, e, step, lams, rho, delta))
            return certify(g, e, step, lams, rho, delta, params, prime, k)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linearize, "_rescaled_certificates", recording)
            for seed, (n, r) in enumerate([(3, 0), (2, 0), (3, 1)]):
                rng = random.Random(f"certificates-{seed}")
                linearize_newton(seeded_normalized_map(rng, n, r, 9), 9, DiophantineParams(1, 0), prime=7)
        return seen

    @staticmethod
    def assert_identities(g, e, step, lams, rho, delta, params, k):
        c = 7**k
        bound, norm = linearize._rescaled_certificates(g, e, step, lams, rho, delta, params, 7, k)
        expected = check_norm_bound(weighted_rescale(g, c), weighted_rescale(e, c), lams, rho, delta, params, 7)
        expected_norm = tuple_gauss_norm(weighted_rescale(step, c), rho, 7)
        for field in fields(NormBoundCertificate):
            mine, theirs = getattr(bound, field.name), getattr(expected, field.name)
            if isinstance(theirs, RatPow):
                mine, theirs = (mine.coeff, mine.base, mine.exponent), (theirs.coeff, theirs.base, theirs.exponent)
            assert mine == theirs, field.name
        for name in GaussNorm.__slots__:
            assert getattr(norm, name) == getattr(expected_norm, name), name
        return norm

    @pytest.mark.parametrize("k", range(4))
    def test_both_identities_on_seeded_windows(self, k):
        params = DiophantineParams(Fraction(1, 3), Fraction(1, 2))
        seen = self.windows()
        assert len(seen) >= 6
        for g, e, step, lams, rho, delta in seen:
            self.assert_identities(g, e, step, lams, rho, delta, params, k)

    @pytest.mark.parametrize("k", range(4))
    def test_a_tie_between_two_degrees_keeps_its_witness(self, k):
        # at rho = 7 the terms x0^2 and 7 x0^2 x1 of R(step) both have norm
        # 49, and so have those of step at 7 / c: the lower degree wins
        c = 7**k
        tied = MultiSeries(2, 4, [((2, 1), Fraction(7, c**2)), ((2, 0), Fraction(1, c))])
        step = SeriesTuple([tied, MultiSeries.zero(2, 4)])
        g = SeriesTuple([MultiSeries(2, 4, [((0, 2), 1)]), MultiSeries(2, 4, [((1, 1), Fraction(1, 7))])])
        lams = [Fraction(2), Fraction(3)]
        e = solve_homological(g, lams, 0)
        norm = self.assert_identities(g, e, step, lams, Fraction(7), Fraction(1), DiophantineParams(1, 0), k)
        assert (norm.value, norm.witness, norm.degree, norm.valuation) == (49, (2, 0), 2, 0)
        assert gauss_norm(step[0], Fraction(7, c), 7).witness == (2, 0)

    def test_newton_forms_no_rescaled_copy(self):
        # the series module has no rescaling routine left to form a copy
        # with; the tests above check the certificates field by field
        # against those of the rescaled copies
        assert not hasattr(SeriesTuple, "rescaled")
        f = build_map([[((1, 0), 2), ((2, 0), Fraction(1, 49))], [((0, 1), 3), ((1, 1), Fraction(5, 7))]], 10)
        expected = trace_record(linearize_newton(f, 10, DiophantineParams(1, 0), prime=7)[1])
        result, trace = linearize_newton(f, 10, DiophantineParams(1, 0), prime=7)
        assert trace.rescale == Fraction(1, 7**3) and trace.iterations
        assert trace_record(trace) == expected
        assert result.residual.is_zero()


class TestNewtonMatchesOrderByOrder:
    """Newton and order-by-order give the same h on random non-resonant maps.

    Eigenvalues from +-{2, 3, 5} admit no relation lambda^I = lambda_j with
    |I| >= 2, so both routes run to the end; coefficients with 7 or 49 in
    the denominator make the working prime 7 rescale by more than one step.
    """

    MONOMIALS = [(2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.sampled_from([2, 3, 5, -2, -3, -5]), min_size=2, max_size=2),
        st.lists(
            st.tuples(
                st.integers(0, 1),
                st.sampled_from(MONOMIALS),
                st.sampled_from([-14, -7, -3, -1, 1, 2, 7]),
                st.sampled_from([1, 1, 7, 49]),
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(8, 10),
    )
    def test_routes_agree_and_invert(self, lams, nonlinear, degree):
        comps = [[((1, 0), lams[0])], [((0, 1), lams[1])]]
        for j, exps, num, den in nonlinear:
            comps[j].append((exps, Fraction(num, den)))
        f = build_map(comps, degree)
        direct = linearize_order_by_order(f, degree)
        newton = newton_route(f, degree)
        assert newton.h == direct.h
        identity = SeriesTuple.identity(2, degree)
        for result in (direct, newton):
            assert result.h.compose(result.h_inverse) == identity


@st.composite
def normalized_maps(draw, sizes=st.integers(3, 4)):
    """(components, r) of a random normalized map in 3-4 variables (sizes).

    The tail eigenvalues come from +-{2, 3, 5}, so lambda^I = lambda_j has
    no solution with |I| >= 2 and h^(-1) comes from the power table.  Every
    nonlinear term has transverse degree >= 2, with 7 or 49 in some
    denominators.
    """
    n = draw(sizes)
    r = draw(st.integers(0, 1))
    tail = draw(st.lists(st.sampled_from([2, 3, 5, -2, -3, -5]), min_size=n - r, max_size=n - r))
    lams = [1] * r + tail
    comps = [[(tuple(int(i == j) for i in range(n)), lams[j])] for j in range(n)]
    monomials = [
        exps
        for exps in itertools.product(range(4), repeat=n)
        if 2 <= sum(exps) <= 3 and sum(exps[r:]) >= 2
    ]
    nonlinear = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.sampled_from(monomials),
                st.sampled_from([-7, -3, -1, 1, 2, 7]),
                st.sampled_from([1, 7, 49]),
            ),
            min_size=2,
            max_size=4,
        )
    )
    for j, exps, num, den in nonlinear:
        comps[j].append((exps, Fraction(num, den)))
    return comps, r


class TestInverseFromPowerTable:
    """h^(-1) from the power table equals series reversion at degree 12.

    Both routes must give the same h and h^(-1), so h o h^(-1) = id is
    composed once; a dense degree-12 composition in four variables takes
    seconds.
    """

    @settings(max_examples=6, deadline=None)
    @given(normalized_maps())
    def test_inverse_matches_reversion(self, data):
        comps, r = data
        degree = 12
        f = build_map(comps, degree, r=r)
        lams = [Fraction(comps[j][0][1]) for j in range(f.n)]
        assert not enumerate_resonances(lams, r, degree)
        direct = linearize_order_by_order(f, degree)
        newton = newton_route(f, degree)
        assert newton.h == direct.h
        assert newton.h_inverse == direct.h_inverse
        assert direct.h_inverse == direct.h.invert()
        assert direct.h.compose(direct.h_inverse) == SeriesTuple.identity(f.n, degree)


def graded_dict(poly, trunc):
    """{degree: {exponents: coefficient}} of a dict polynomial through trunc."""
    out = {}
    for exps, c in poly.items():
        if sum(exps) <= trunc and c:
            out.setdefault(sum(exps), {})[exps] = c
    return out


def graded_dict_mul(a, b, trunc):
    """The product of two graded dict polynomials through trunc."""
    out = {}
    for da, terms_a in a.items():
        for db, terms_b in b.items():
            if da + db > trunc:
                continue
            acc = out.setdefault(da + db, {})
            for ea, ca in terms_a.items():
                for eb, cb in terms_b.items():
                    key = tuple(x + y for x, y in zip(ea, eb))
                    acc[key] = acc.get(key, 0) + ca * cb
    return out


def dict_substitute(outer, inner, trunc):
    """outer_i(inner_0, ..., inner_(n-1)) through trunc for dict
    polynomials over Fraction, each power inner^I kept once, as
    inner^(I - e_j) inner_j for the last variable j of I."""
    n = len(inner)
    inner = [graded_dict(g, trunc) for g in inner]
    powers = {(0,) * n: {0: {(0,) * n: Fraction(1)}}}

    def power(exps):
        if exps not in powers:
            j = max(i for i, e in enumerate(exps) if e)
            powers[exps] = graded_dict_mul(power(exps[:j] + (exps[j] - 1,) + exps[j + 1 :]), inner[j], trunc)
        return powers[exps]

    out = []
    for poly in outer:
        acc = {}
        for exps, c in poly.items():
            for terms in power(exps).values() if sum(exps) <= trunc else ():
                for e, v in terms.items():
                    acc[e] = acc.get(e, 0) + c * v
        out.append({e: c for e, c in acc.items() if c})
    return out


class TestConjugacyOracle:
    """f o h = h o Lambda and h o h^(-1) = id at degree 16, recomputed with
    dict polynomials over Fraction that share no code with the series
    module; Newton and order-by-order agree on the same maps."""

    DEGREE = 16

    def check(self, f):
        degree, n = self.DEGREE, f.n
        direct = linearize_order_by_order(f, degree)
        newton = newton_route(f, degree)
        assert newton.h == direct.h and newton.h_inverse == direct.h_inverse
        fmap = [dict(c.terms()) for c in f.components]
        h = [dict(c.terms()) for c in direct.h]
        h_inverse = [dict(c.terms()) for c in direct.h_inverse]
        units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
        # the map is normalized: its linear part is the diagonal Lambda
        lams = [poly.get(unit, 0) for poly, unit in zip(fmap, units)]
        residual = dict_substitute(fmap, h, degree)
        for acc, comp in zip(residual, h):
            for exps, c in comp.items():
                for lam, e in zip(lams, exps):
                    c *= lam**e
                acc[exps] = acc.get(exps, 0) - c
        assert all(not any(acc.values()) for acc in residual)
        round_trip = dict_substitute(h, h_inverse, degree)
        for acc, unit in zip(round_trip, units):
            acc[unit] = acc.get(unit, 0) - 1
        assert all(not any(acc.values()) for acc in round_trip)
        return direct

    @pytest.mark.parametrize("name", ["shear-2d", "triangular-3d"])
    def test_sheared_maps_after_normalization(self, name):
        g, _ = normalize_fixed_locus(sheared_maps(self.DEGREE)[name])
        result = self.check(g)
        # the normalized map is no normal form of itself: h is not linear
        assert any(c.degree() > 1 for c in result.h)

    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(normalized_maps(st.just(3)))
    def test_random_normalized_maps(self, data):
        comps, r = data
        # nonlinear terms in two components at least, so h couples them
        assume(sum(len(terms) > 1 for terms in comps) >= 2)
        self.check(build_map(comps, self.DEGREE, r=r))


class TestInverseStream:
    """h^(-1) reads one integer layer stream of fmap."""

    def test_builds_only_the_powers_its_layers_read(self, monkeypatch):
        f = fixture_suite(12)["symplectic-4d"]
        result = linearize_order_by_order(f, 12)
        fmap, lams = f.components, result.eigenvalues
        streams, added = [], []

        class Recording(series._LayerStream):
            def __init__(self, inner):
                super().__init__(inner)
                streams.append(self)

            def add(self, layer):
                added.append(layer)
                super().add(layer)

        counts = Counter()

        def counted(name):
            method = getattr(MultiSeries, name)

            def wrapper(self, other):
                counts[name] += 1
                return method(self, other)

            return wrapper

        monkeypatch.setattr(linearize, "_LayerStream", Recording)
        monkeypatch.setattr(MultiSeries, "__add__", counted("__add__"))
        monkeypatch.setattr(MultiSeries, "__sub__", counted("__sub__"))
        k = linearize._conjugacy_inverse(result.h, fmap, lams, f.fixed_locus_dim)
        monkeypatch.undo()
        assert k == result.h_inverse
        # at most the sum that forms fmap - Lambda, once per component
        assert sum(counts.values()) <= len(fmap), counts
        composed = {exps for layer in added for comp in layer for exps, _ in comp.terms()}
        (stream,) = streams
        table = stream.table
        # the degree-one entries are fmap's own layers, built by no step;
        # each power of degree >= 2 was built by one step from its recorded
        # parent, and is a composed monomial or the parent of a built one
        unpack = series._unpacker(fmap.nvars)
        built = {unpack(key) for key in table.entries if sum(unpack(key)) >= 2}
        assert {unpack(key) for key in table.parents} == built
        parents = {unpack(key - table.units[j]) for key, j in table.parents.items()}
        assert built <= composed | parents
        # here every composed monomial has a composed parent, so the kept
        # powers of degree >= 2 are exactly the 192 composed monomials
        assert built == composed and len(built) == 192

    def test_the_stream_steps_from_kept_parents(self, monkeypatch):
        # work pins of the seed-0 independent-3d h^(-1) at degree 12, the
        # order-by-order route: a power steps from a kept parent where it
        # has one, where last-variable parents alone took 341 steps, 8 876
        # term pairs and 345 kept powers
        f = fixture_suite(12)["independent-3d"]
        result = linearize_order_by_order(f, 12)
        streams, steps, visited = [], [], []
        step = series._PowerTable._step

        class Recording(series._LayerStream):
            def __init__(self, inner):
                super().__init__(inner)
                streams.append(self)

        def counted(self, j, parent):
            steps.append(j)
            return step(self, j, parent)

        monkeypatch.setattr(linearize, "_LayerStream", Recording)
        monkeypatch.setattr(series._PowerTable, "_step", counted)
        counted_convolve(monkeypatch, visited)
        k = linearize._conjugacy_inverse(result.h, f.components, result.eigenvalues, f.fixed_locus_dim)
        monkeypatch.undo()
        assert k == result.h_inverse
        (stream,) = streams
        assert len(steps) <= 269
        assert sum(visited) <= 6965
        assert len(stream.table.entries) <= 273

    def test_one_eigenvalue_table_per_run(self, monkeypatch):
        made = []
        init = series._DiagonalPowers.__init__

        def counted(self, factors):
            made.append(tuple(factors))
            init(self, factors)

        monkeypatch.setattr(series._DiagonalPowers, "__init__", counted)
        f = fixture_suite(12)["independent-3d"]
        linearize_order_by_order(f, 12)
        linearize_newton(f, 12, DiophantineParams(1, 0), prime=7)
        assert made == [(2, 3, 5), (2, 3, 5)]

    def test_each_eigenvalue_power_is_built_once(self, monkeypatch):
        tables, steps = [], []
        init, step = series._DiagonalPowers.__init__, series._DiagonalPowers._step

        def recorded(self, factors):
            init(self, factors)
            tables.append(self)

        def counted(self, j, parent):
            steps.append(j)
            return step(self, j, parent)

        monkeypatch.setattr(series._DiagonalPowers, "__init__", recorded)
        monkeypatch.setattr(series._DiagonalPowers, "_step", counted)
        linearize_order_by_order(fixture_suite(12)["independent-3d"], 12)
        monkeypatch.undo()
        (table,) = tables
        # each step builds one entry, kept under its own key: every entry
        # but lambda^0 comes from one step
        assert len(steps) == len(table.entries) - 1 == 454

    def test_the_conjugacy_routes_leave_no_cyclic_garbage(self):
        f = fixture_suite(12)["independent-3d"]
        gc.collect()
        gc.disable()
        try:
            linearize_order_by_order(f, 12)
            linearize_newton(f, 12, DiophantineParams(1, 0), prime=7)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDenseInverse:
    """A map whose h and h^(-1) are dense in four variables at degree 12:
    (2x1 + x2x3x4/7 - 3x1x2x3/7, -3x2 + 2x1x3x4/49 - 7x1^2x2, 5x3 + x1x2x4/7,
    -5x4 - x1x2^2/49 + 2x3x4^2/7)."""

    def test_reversion_and_round_trip(self):
        f = build_map(
            [
                [((1, 0, 0, 0), 2), ((0, 1, 1, 1), Fraction(1, 7)), ((1, 1, 1, 0), Fraction(-3, 7))],
                [((0, 1, 0, 0), -3), ((1, 0, 1, 1), Fraction(2, 49)), ((2, 1, 0, 0), -7)],
                [((0, 0, 1, 0), 5), ((1, 1, 0, 1), Fraction(1, 7))],
                [((0, 0, 0, 1), -5), ((1, 2, 0, 0), Fraction(-1, 49)), ((0, 0, 1, 2), Fraction(2, 7))],
            ],
            12,
        )
        result = linearize_order_by_order(f, 12)
        assert result.h.invert() == result.h_inverse
        assert result.h.compose(result.h_inverse) == SeriesTuple.identity(4, 12)


class TestRatPow:
    def test_integer_exponent_collapse(self):
        x = RatPow(Fraction(3, 4), Fraction(1, 2), Fraction(2))
        assert x.as_fraction() == Fraction(3, 16)

    def test_comparison_with_fractional_exponent(self):
        a = RatPow(Fraction(1), Fraction(4), Fraction(1, 2))  # 1 * 4^(1/2) = 2
        b = RatPow(Fraction(3), Fraction(1), Fraction(1, 2))  # 3
        assert a < b
        assert not b < a

    def test_equality_across_forms(self):
        a = RatPow(Fraction(2), Fraction(9), Fraction(1, 2))  # 2 * 3
        b = RatPow(Fraction(6), Fraction(1), Fraction(1, 2))
        assert a == b

    @pytest.mark.parametrize(
        "args",
        # RatPow(0.5, 2.0, 1.5) was built as 1/2 * 2^3/2
        [(0.5, 2.0, 1.5), (1, 2.0), (1, 2, 1.5), (0.5,), ("1", 2, 1)],
    )
    def test_non_rational_arguments_refused(self, args):
        with pytest.raises(DomainError, match="rational"):
            RatPow(*args)


class TestCheckNormBound:
    def test_zero_g_passes(self):
        g = SeriesTuple.zero(1, 1, 4)
        w = SeriesTuple.zero(1, 1, 4)
        cert = check_norm_bound(
            g, w, [Fraction(2)], Fraction(1), Fraction(1, 2), DiophantineParams(1, 0), 3
        )
        assert cert.passes
        assert cert.norm_w == 0

    def test_quadratic_instance(self):
        # w = x^2/2 solves Lw = x^2 for lambda = 2; all norms at p = 3
        g = SeriesTuple([MultiSeries(1, 4, [((2,), Fraction(1))])])
        w = solve_homological(g, [Fraction(2)], 0)
        cert = check_norm_bound(
            g, w, [Fraction(2)], Fraction(1), Fraction(1, 2), DiophantineParams(1, 0), 3
        )
        assert cert.norm_w == Fraction(1, 4)
        assert cert.norm_g == 1
        assert cert.minimal_c1.as_fraction() == Fraction(1, 4)
        assert cert.passes

    def test_delta_must_be_smaller_than_rho(self):
        g = SeriesTuple.zero(1, 1, 4)
        with pytest.raises(DomainError):
            check_norm_bound(
                g, g, [Fraction(2)], Fraction(1, 2), Fraction(1, 2), DiophantineParams(1, 0), 3
            )

    @pytest.mark.parametrize("rho, delta", [(0.5, Fraction(1, 4)), (Fraction(1), 0.1), (1.0, 0.5)])
    def test_a_float_radius_is_refused(self, rho, delta):
        g = SeriesTuple([MultiSeries(1, 4, [((2,), Fraction(1))])])
        with pytest.raises(DomainError, match="rational"):
            check_norm_bound(g, g, [Fraction(2)], rho, delta, DiophantineParams(1, 0), 3)

    def test_a_float_eigenvalue_is_refused(self):
        # Fraction(0.1) would read 3602879701896397/36028797018963968
        g = SeriesTuple([MultiSeries(1, 4, [((2,), Fraction(1))])])
        with pytest.raises(DomainError, match="rational"):
            check_norm_bound(g, g, [0.1], Fraction(1), Fraction(1, 2), DiophantineParams(1, 0), 3)

    def test_batch_minimal_c1_bounded(self):
        # randomized transverse data for eigenvalues (1, -2, -2) at p = 3
        rng = random.Random(71)
        lams = [Fraction(1), Fraction(-2), Fraction(-2)]
        params = DiophantineParams(_true_divisor_bound(lams, 6, 3), 0)
        observed = []
        for _ in range(50):
            g = _random_transverse_tuple(rng, lams, trunc=6)
            w = solve_homological(g, lams, 1)
            cert = check_norm_bound(g, w, lams, Fraction(1), Fraction(1, 2), params, 3)
            observed.append(cert.minimal_c1.as_fraction())
            assert cert.passes
        assert max(observed) <= cert.derived_c1.as_fraction()


class TestNormBoundFromValuations:
    """check_norm_bound reads the derivative norms from valuations; the
    reference forms the Jacobian of w, its diagonal substitution and one
    Gauss norm per entry."""

    @staticmethod
    def reference(g, w, lams, rho, delta, params, prime):
        inner = rho - delta
        norm_g = tuple_gauss_norm(g, rho, prime).value
        norm_w = tuple_gauss_norm(w, inner, prime).value
        norm_dw = norm_dw_lambda = Fraction(0)
        for row in w.jacobian():
            for entry, scaled in zip(row, SeriesTuple(row).compose_diagonal(lams)):
                norm_dw = max(norm_dw, gauss_norm(entry, inner, prime).value)
                norm_dw_lambda = max(norm_dw_lambda, gauss_norm(scaled, inner, prime).value)
        derived = linearize._derived_c1(params, rho, delta, max(g.trunc, 2))
        if norm_g == 0:
            minimal, passes = RatPow(0, Fraction(1), params.beta), w.is_zero()
        else:
            needed = max(norm_w, norm_dw * inner, norm_dw_lambda * inner)
            minimal = RatPow(needed / norm_g, delta / rho, params.beta)
            passes = minimal <= derived
        return NormBoundCertificate(passes, minimal, derived, norm_g, norm_w, norm_dw, norm_dw_lambda, rho, delta)

    @staticmethod
    def random_tuple(rng, n, r, trunc):
        comps = []
        for _ in range(n):
            terms = []
            for _ in range(rng.randint(0, 5)):
                exps = tuple(rng.randint(0, 6) for _ in range(n))
                if sum(exps[r:]) >= 2 and sum(exps) <= trunc:
                    terms.append((exps, Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 5, 9, 25)))))
            comps.append(MultiSeries(n, trunc, terms))
        return SeriesTuple(comps)

    def test_every_field_matches_the_jacobian_reference_randomized(self):
        rng = random.Random(1401)
        pool = [Fraction(x) for x in (1, -1, 2, 3, 4, 5, 9, -6, 0)] + [Fraction(1, 3), Fraction(-5, 2), Fraction(10, 3)]
        seen = Counter()
        for _ in range(300):
            n = rng.randint(1, 4)
            r = rng.randint(0, n - 1)
            prime = rng.choice((2, 3, 5))
            lams = [rng.choice(pool) for _ in range(n)]
            trunc = rng.randint(2, 9)
            g = self.random_tuple(rng, n, r, trunc)
            try:
                w = solve_homological(g, lams, r)
            except ResonantMonomialError:
                w = self.random_tuple(rng, n, r, trunc)
            if rng.random() < 0.3:
                w = self.random_tuple(rng, n, r, trunc)
            rho = rng.choice((Fraction(1), Fraction(3, 4), Fraction(2), Fraction(5, 3)))
            delta = rho * rng.choice((Fraction(1, 2), Fraction(1, 8), Fraction(2, 3)))
            params = DiophantineParams(rng.choice((1, Fraction(1, 3), 7)), rng.choice((0, 1, Fraction(3, 2))))
            cert = check_norm_bound(g, w, lams, rho, delta, params, prime)
            expected = self.reference(g, w, lams, rho, delta, params, prime)
            for field in fields(NormBoundCertificate):
                got, want = getattr(cert, field.name), getattr(expected, field.name)
                if isinstance(want, RatPow):
                    got, want = (got.coeff, got.base, got.exponent), (want.coeff, want.base, want.exponent)
                assert got == want, field.name
            seen["n", n] += 1
            seen["r > 0"] += r > 0
            seen["p divides a lambda"] += any(lam and lam.numerator % prime == 0 for lam in lams)
            seen["negative valuation"] += any(lam and lam.denominator % prime == 0 for lam in lams)
            seen["zero lambda"] += Fraction(0) in lams
            seen["passes"] += cert.passes
            seen["nonzero dw lambda"] += cert.norm_dw_lambda != 0
        for n in range(1, 5):
            assert seen["n", n] >= 30
        for case in ("r > 0", "p divides a lambda", "negative valuation", "zero lambda", "passes", "nonzero dw lambda"):
            assert seen[case] >= 20, case

    def test_a_zero_eigenvalue_drops_its_terms(self):
        # d/dx1 of x0 x1^2 is 2 x0 x1, which lambda_1 = 0 sends to zero;
        # d/dx0 gives x1^2, sent to lambda_1^2 x1^2 = 0 as well
        w = SeriesTuple([MultiSeries(2, 4, [((1, 2), 3)]), MultiSeries.zero(2, 4)])
        lams = [Fraction(2), Fraction(0)]
        cert = check_norm_bound(w, w, lams, Fraction(1), Fraction(1, 2), DiophantineParams(1, 0), 3)
        assert cert.norm_dw == Fraction(1, 4) * Fraction(1, 3)
        assert cert.norm_dw_lambda == 0

    def test_rejects_a_mismatched_eigenvalue_count(self):
        w = SeriesTuple([MultiSeries(1, 4, [((2,), 1)])])
        with pytest.raises(DomainError):
            check_norm_bound(w, w, [Fraction(2), Fraction(3)], Fraction(1), Fraction(1, 2), DiophantineParams(1, 0), 3)


class TestDerivedC1:
    """_derived_c1 stops its scan at the maximum of m^beta x^m."""

    @staticmethod
    def full_scan(params, rho, delta, horizon):
        x = (rho - delta) / rho
        best = RatPow(x**2, Fraction(2), params.beta)
        for m in range(3, horizon + 1):
            cand = RatPow(x**m, Fraction(m), params.beta)
            if best < cand:
                best = cand
        return RatPow(best.coeff / params.C, best.base * delta / rho, params.beta)

    @staticmethod
    def fields(value):
        return value.coeff, value.base, value.exponent

    def test_matches_the_full_scan_randomized(self):
        rng = random.Random(2903)
        interior = 0
        for _ in range(400):
            params = DiophantineParams(
                Fraction(rng.randint(1, 20), rng.randint(1, 20)), Fraction(rng.randint(0, 30), rng.randint(1, 4))
            )
            rho = Fraction(rng.randint(1, 30), rng.randint(1, 10))
            delta = rho * Fraction(rng.randint(1, 19), 20)
            horizon = rng.randint(2, 40)
            got = linearize._derived_c1(params, rho, delta, horizon)
            want = self.full_scan(params, rho, delta, horizon)
            assert self.fields(got) == self.fields(want)
            interior += 2 * delta / rho < got.base < horizon * delta / rho
        assert interior >= 50

    def test_a_tie_keeps_the_first_degree(self):
        # beta = 1 and x = 2/3: 2 x^2 = 3 x^3 = 8/9, above 4 x^4
        params = DiophantineParams(1, 1)
        rho, delta = Fraction(3), Fraction(1)
        got = linearize._derived_c1(params, rho, delta, 10)
        assert self.fields(got) == self.fields(self.full_scan(params, rho, delta, 10))
        assert got.base == 2 * delta / rho


def _true_divisor_bound(lams, horizon, prime):
    """Exact min over the truncation horizon of |lambda^I - lambda_j|_p."""
    from padicdyn.arith import fraction_abs

    best = Fraction(1)
    n = len(lams)
    for total in range(2, horizon + 1):
        for m2 in range(total + 1):
            m3 = total - m2
            value = lams[1] ** m2 * lams[2] ** m3
            for j in range(n):
                div = value - lams[j]
                if div:
                    best = min(best, fraction_abs(div, prime))
    return best


def _random_transverse_tuple(rng, lams, trunc):
    n = len(lams)
    comps = []
    for _ in range(n):
        terms = []
        for _ in range(5):
            exps = tuple(rng.randint(0, 2) for _ in range(n))
            if sum(exps[1:]) >= 2 and sum(exps) <= trunc:
                terms.append((exps, Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4)))))
        comps.append(MultiSeries(n, trunc, terms))
    return SeriesTuple(comps)
