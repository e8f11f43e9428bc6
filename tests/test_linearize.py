"""Unit tests for the conjugacy solvers, normalizations, and norm bounds."""

import gc
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdyn import linearize, series
from padicdyn.dynamics import AnalyticMap, DiophantineParams, enumerate_resonances
from padicdyn.errors import (
    DomainError,
    NotSemisimpleError,
    ResonantMonomialError,
    SingularBlockError,
)
from padicdyn.linearize import (
    RatPow,
    check_norm_bound,
    diagonalize_normal_part,
    linearize_newton,
    linearize_order_by_order,
    normalize_fixed_locus,
    normalize_mod_if2,
    solve_homological,
)
from padicdyn.series import MultiSeries, SeriesTuple
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

    def test_resonance_propagates(self):
        f = build_map([[((1, 0), 4), ((0, 2), 1)], [((0, 1), 2)]], 4)
        with pytest.raises(ResonantMonomialError):
            linearize_order_by_order(f, 4)

    def test_identity_on_full_locus(self):
        f = build_map([[((1, 0), 1)], [((0, 1), 1)]], 4, r=2)
        result = linearize_order_by_order(f, 4)
        assert result.h == SeriesTuple.identity(2, 4)


class TestNormalizeModIF2:
    def test_shear_example(self):
        f = build_map([[((1, 0), 1), ((0, 1), 1)], [((0, 1), -2)]], 5, r=1)
        g, h = normalize_mod_if2(f)
        assert h[0] == MultiSeries(2, 5, [((1, 0), Fraction(1)), ((0, 1), Fraction(-1, 3))])
        assert h[1] == MultiSeries.variable(1, 2, 5)
        expected = build_map([[((1, 0), 1)], [((0, 1), -2)]], 5, r=1)
        assert g.components == expected.components

    def test_block_diagonal_untouched(self):
        f = build_map([[((1, 0), 1), ((0, 2), 1)], [((0, 1), -2)]], 5, r=1)
        g, h = normalize_mod_if2(f)
        assert h == SeriesTuple.identity(2, 5)
        assert g.components == f.components

    def test_nonlinear_tail_untouched(self):
        f = build_map([[((1, 0), 1)], [((0, 1), -2), ((1, 1), 1)]], 5, r=1)
        g, h = normalize_mod_if2(f)
        assert h == SeriesTuple.identity(2, 5)

    def test_singular_tail_block(self):
        f = build_map([[((1, 0), 1), ((0, 1), 1)], [((0, 1), 1), ((0, 2), 1)]], 5, r=1)
        with pytest.raises(SingularBlockError):
            normalize_mod_if2(f)

    def test_conjugation_identity(self):
        f = build_map(
            [[((1, 0, 0), 1), ((0, 1, 0), 2), ((0, 0, 2), 1)], [((0, 1, 0), -2), ((0, 0, 2), 1)], [((0, 0, 1), 3)]],
            5,
            r=1,
        )
        g, h = normalize_mod_if2(f)
        lhs = f.components.compose(h)
        rhs = h.compose(g.components)
        assert lhs.agrees_through(rhs, 5)


class TestDiagonalizeNormalPart:
    def test_already_diagonal(self):
        f = build_map([[((1, 0), 1), ((0, 2), 1)], [((0, 1), -2)]], 5, r=1)
        g, change = diagonalize_normal_part(f)
        assert change == SeriesTuple.identity(2, 5)
        assert g.components == f.components

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
        g, change = diagonalize_normal_part(f)
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
        g, change = diagonalize_normal_part(f)
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
            diagonalize_normal_part(f)

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
            diagonalize_normal_part(f)


class TestNormalizePipeline:
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
        # one preconditioned pass leaves at most layer high, which the
        # layer step closes without a second window inverse
        calls = []
        inverse = linearize._series_matrix_inverse

        def counted(mat, trunc):
            calls.append(trunc)
            return inverse(mat, trunc)

        monkeypatch.setattr(linearize, "_series_matrix_inverse", counted)
        f = fixture_suite(degree)["independent-3d"]
        _, trace = linearize_newton(f, degree, DiophantineParams(1, 0), prime=7)
        assert len(trace.iterations) == windows
        assert len(calls) == windows

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


class TestLayerStep:
    """_layer_step forms layer d of the residual alone."""

    def test_order_by_order_loop_costs_about_one_composition(self, monkeypatch):
        # counts the term pairs _convolve visits: a work count, not a timing
        visited = []
        convolve = series._convolve

        def counted(a, b, trunc, low=0):
            top = max(b, default=-1)
            visited.append(
                sum(
                    len(terms) * len(b.get(db, ()))
                    for da, terms in a.items()
                    for db in range(max(low - da, 0), min(trunc - da, top) + 1)
                )
            )
            return convolve(a, b, trunc, low)

        degree = 12
        f = fixture_suite(degree)["independent-3d"]
        lams = linearize._normalized_eigenvalues(f)
        fmap = f.components.truncated(degree)
        h = SeriesTuple.identity(f.n, degree)
        monkeypatch.setattr(series, "_convolve", counted)
        for d in range(2, degree + 1):
            h = linearize._layer_step(h, fmap, lams, 0, d)
        loop = sum(visited)
        visited.clear()
        fmap.compose(h)
        assert loop <= 1.25 * sum(visited)

    @staticmethod
    def perturb_once(monkeypatch, at):
        """Make the layer step at degree `at` also add a term of degree 2,
        below the layer it solves, where the step itself no longer looks."""
        step = linearize._layer_step

        def perturbed(h, fmap, lams, r, d):
            h = step(h, fmap, lams, r, d)
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
def normalized_maps(draw):
    """(components, r) of a random normalized map in 3-4 variables.

    The tail eigenvalues come from +-{2, 3, 5}, so lambda^I = lambda_j has
    no solution with |I| >= 2 and h^(-1) comes from the power table.  Every
    nonlinear term has transverse degree >= 2, with 7 or 49 in some
    denominators.
    """
    n = draw(st.integers(3, 4))
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


class TestInverseStream:
    """h^(-1) reads one integer layer stream of fmap."""

    def test_builds_only_the_powers_its_layers_read(self, monkeypatch):
        f = fixture_suite(12)["symplectic-4d"]
        result = linearize_order_by_order(f, 12)
        fmap, lams = f.components, result.eigenvalues
        streams, added = [], []

        class Recording(series._LayerStream):
            def __init__(self, inner, start):
                super().__init__(inner, start)
                streams.append(self)

            def add(self, layer, low):
                added.append(layer)
                super().add(layer, low)

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
        # the prefix closure (I -> I - e_last(I)) of the composed supports
        closure = set()
        for layer in added:
            for comp in layer:
                for exps, _ in comp.terms():
                    while any(exps) and exps not in closure:
                        closure.add(exps)
                        j = max(i for i, e in enumerate(exps) if e)
                        exps = exps[:j] + (exps[j] - 1,) + exps[j + 1 :]
        (stream,) = streams
        built = set(stream.table.entries) - {(0, 0, 0, 0)}
        assert built <= closure
        # every monomial of degree 1..11 in four variables would be 1364
        assert len(closure) == 255

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
