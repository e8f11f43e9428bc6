"""Unit tests for the truncated series algebra and Gauss norms."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicdyn import ratlinalg, series
from padicdyn.arith import fraction_abs, fraction_valuation
from padicdyn.dynamics import Resonance, enumerate_resonances
from padicdyn.errors import DomainError, ResonantMonomialError
from padicdyn.linearize import solve_homological
from padicdyn.series import (
    MultiSeries,
    SeriesTuple,
    _DiagonalPowers,
    _disjoint_sum,
    _LayerStream,
    _mul,
    _packer,
    _parent,
    _PowerTable,
    _series_matrix_vector,
    _series_solve,
    _unpacker,
    gauss_norm,
    graded_monomials,
    in_subspace_ar,
    tuple_gauss_norm,
)
from test_dynamics import brute_force_resonances
from test_linearize import counted_convolve, recorded_powers


def univariate(coeffs, trunc):
    """Series sum coeffs[k] * x^k from a list starting at degree 0."""
    return MultiSeries(1, trunc, [((k,), Fraction(c)) for k, c in enumerate(coeffs)])


def rand_series(rng, nvars, trunc, terms=6, zero_constant=False):
    entries = []
    for _ in range(terms):
        exps = tuple(rng.randint(0, trunc) for _ in range(nvars))
        if sum(exps) > trunc or (zero_constant and sum(exps) == 0):
            continue
        entries.append((exps, Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
    return MultiSeries(nvars, trunc, entries)


class TestMul:
    def test_difference_of_squares(self):
        x = MultiSeries.variable(0, 1, 2)
        assert (1 + x) * (1 - x) == univariate([1, 0, -1], 2)

    def test_truncation_drops_degree_two(self):
        x1 = MultiSeries.variable(0, 2, 1)
        x2 = MultiSeries.variable(1, 2, 1)
        assert (x1 * x2).is_zero()

    def test_binomial_square(self):
        x1 = MultiSeries.variable(0, 2, 2)
        x2 = MultiSeries.variable(1, 2, 2)
        sq = (x1 + x2) ** 2
        assert sq.coefficient((2, 0)) == 1
        assert sq.coefficient((1, 1)) == 2
        assert sq.coefficient((0, 2)) == 1
        assert sq.term_count() == 3

    def test_variable_count_mismatch(self):
        with pytest.raises(DomainError):
            MultiSeries.variable(0, 1, 3) * MultiSeries.variable(0, 2, 3)

    def test_mixed_truncation_takes_minimum(self):
        a = univariate([0, 1, 1, 1, 1], 4)
        b = univariate([1, 1], 8)
        assert (a * b).trunc == 4

    def test_matches_naive_convolution(self):
        rng = random.Random(3)
        for _ in range(30):
            a = rand_series(rng, 2, 5)
            b = rand_series(rng, 2, 5)
            prod = a * b
            naive = {}
            for ea, ca in a.terms():
                for eb, cb in b.terms():
                    key = (ea[0] + eb[0], ea[1] + eb[1])
                    if sum(key) <= 5:
                        naive[key] = naive.get(key, Fraction(0)) + ca * cb
            for key, val in naive.items():
                assert prod.coefficient(key) == val


@st.composite
def series_pairs(draw):
    """Two random series in 1-3 variables, a truncation and a lower bound."""
    nvars = draw(st.integers(1, 3))
    trunc = draw(st.integers(0, 7))
    term = st.tuples(
        st.tuples(*[st.integers(0, trunc)] * nvars),
        st.fractions(min_value=-9, max_value=9, max_denominator=9),
    )
    a = MultiSeries(nvars, trunc, draw(st.lists(term, max_size=12)))
    b = MultiSeries(nvars, trunc, draw(st.lists(term, max_size=12)))
    return a, b, trunc, draw(st.integers(0, trunc + 1))


class TestSquare:
    """_mul(a, a, ...) takes the square path; an equal copy of a does not."""

    @settings(max_examples=200, deadline=None)
    @given(series_pairs())
    @example((MultiSeries.zero(2, 4), None, 4, 0))
    @example((MultiSeries(1, 6, [((2,), Fraction(-3, 2))]), None, 6, 4))
    @example((MultiSeries(3, 5, [((1, 0, 2), Fraction(-7, 3))]), None, 5, 5))
    @example((MultiSeries(2, 5, [((0, 0), -2), ((1, 0), Fraction(-1, 3)), ((1, 1), 5)]), None, 5, 2))
    def test_equals_the_product_with_an_equal_copy(self, case):
        a, _, trunc, low = case
        low = min(low, trunc)
        copy = MultiSeries(a.nvars, a.trunc, a.terms())
        assert copy is not a and copy == a
        assert _mul(a, a, trunc, low) == _mul(a, copy, trunc, low)

    def test_power_of_a_dense_series(self):
        x = MultiSeries.variable(0, 1, 30)
        a = (1 - x - x * x).inverse()
        assert a**5 == a * (a * a) * (a * a)


class TestMulLowerBound:
    @settings(max_examples=200, deadline=None)
    @given(series_pairs())
    def test_equals_the_upper_layers_of_the_full_product(self, case):
        a, b, trunc, low = case
        full = a * b
        part = _mul(a, b, trunc, low=low)
        assert part.trunc == full.trunc
        for d in range(trunc + 1):
            assert part.layer(d) == (full.layer(d) if d >= low else {})

    def test_single_layer_of_a_dense_product(self):
        x = MultiSeries.variable(0, 1, 40)
        a = (1 + x).inverse()
        b = (1 - x).inverse()
        part = _mul(a, b, 40, low=40)
        assert part.layer(40) == (a * b).layer(40) == {(40,): Fraction(1)}
        assert part.lowest_degree() == 40


TOP = 2**16 - 1  # the largest truncation degree, and the largest value of a key field


def dict_mul(p, q, trunc, low=0):
    """Reference product of {exponents: coefficient} maps in the degrees low..trunc."""
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if low <= sum(e) <= trunc:
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def dict_pow(p, n, nvars, trunc):
    result = {(0,) * nvars: Fraction(1)}
    while n:
        if n & 1:
            result = dict_mul(result, p, trunc)
        p = dict_mul(p, p, trunc)
        n >>= 1
    return result


def wide_series(rng, nvars, terms=8):
    """A sparse series at the cap TOP whose terms have total degree near 0,
    TOP / 2 or TOP, most of it on one coordinate: products of two terms
    reach coordinates near TOP."""
    entries = []
    for _ in range(terms):
        total = rng.choice((rng.randint(0, 6), rng.randint(TOP // 2 - 6, TOP // 2 + 6), rng.randint(TOP - 6, TOP)))
        exps = [0] * nvars
        for _ in range(min(total, rng.randint(0, 6))):
            exps[rng.randrange(nvars)] += 1
        exps[rng.randrange(nvars)] += total - sum(exps)
        entries.append((tuple(exps), Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
    return MultiSeries(nvars, TOP, entries)


class TestFixedWidthKeys:
    """Exponents are packed in 16-bit key fields: products, squares and
    compositions stay exact up to coordinates of 2**16 - 1, and every
    series refuses a truncation degree of 2**16 or more."""

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_products_near_the_top_field(self, nvars):
        rng = random.Random(40 + nvars)
        tallest = 0
        for _ in range(4):
            a, b = wide_series(rng, nvars), wide_series(rng, nvars)
            ta, tb = dict(a.terms()), dict(b.terms())
            low = rng.choice((0, TOP // 2, TOP - 6))
            full = dict_mul(ta, tb, TOP)
            assert dict((a * b).terms()) == full
            assert dict(_mul(a, b, TOP, low).terms()) == dict_mul(ta, tb, TOP, low)
            assert dict(_mul(a, a, TOP, low).terms()) == dict_mul(ta, ta, TOP, low)
            tallest = max([tallest] + [max(e) for e in full])
        assert tallest >= TOP - 12

    def test_a_product_filling_two_fields(self):
        x, y = MultiSeries.variable(0, 2, TOP), MultiSeries.variable(1, 2, TOP)
        a = (x**2) ** 30000 * Fraction(3, 5) + y**5535
        assert dict((a * a).terms()) == {(60000, 5535): Fraction(6, 5), (0, 11070): Fraction(1)}
        assert (a * y ** (TOP - 5535)).coefficient((0, TOP)) == 1

    def test_compose_near_the_top_field(self):
        x, y, z = (MultiSeries.variable(i, 3, TOP) for i in range(3))
        inner = SeriesTuple([-x, y * Fraction(1, 2), (x * z).scale(Fraction(1, 3))])
        outer = MultiSeries(
            3,
            TOP,
            [
                ((60000, 5535, 0), Fraction(1)),
                ((0, TOP, 0), Fraction(-2, 7)),
                ((65000, 0, 200), Fraction(5)),
                ((0, 0, 32767), Fraction(1)),
                ((1, 1, 1), Fraction(4)),
            ],
        )
        expected = {}
        for exps, c in outer.terms():
            term = {(0, 0, 0): c}
            for g, e in zip(inner, exps):
                term = dict_mul(term, dict_pow(dict(g.terms()), e, 3, TOP), TOP)
            for key, v in term.items():
                expected[key] = expected.get(key, 0) + v
        result = outer.compose(inner)
        assert dict(result.terms()) == {e: c for e, c in expected.items() if c}
        assert result.coefficient((65200, 0, 200)) == Fraction(5, 3**200)

    def test_the_cap_is_checked_where_series_are_created(self):
        for make in (
            lambda: MultiSeries(1, 2**16, []),
            lambda: MultiSeries(3, 2**20, [((1, 0, 0), 1)]),
            lambda: MultiSeries.zero(2, 2**16),
            lambda: MultiSeries.variable(0, 2, 2**16),
            lambda: univariate([0, 1], 5).as_polynomial(2**16),
        ):
            with pytest.raises(DomainError):
                make()
        assert MultiSeries.variable(0, 2, TOP).trunc == univariate([0, 1], 5).as_polynomial(TOP).trunc == TOP

    def test_a_series_grown_to_the_top_is_canonical(self):
        # (3 + y^(TOP - 3)) x = rhs, solved one layer per degree through the top
        unit = MultiSeries(2, TOP, [((0, 0), 3), ((0, TOP - 3), 1)])
        rhs = MultiSeries(2, TOP, [((TOP - 1, 0), Fraction(1, 3)), ((1, 2), 2), ((5535, 60000), Fraction(-2, 7))])
        x = _series_solve([[unit]], SeriesTuple([rhs]))[0]
        assert_canonical(x)
        assert x.trunc == TOP and x.term_count() == 4
        assert x.coefficient((5535, 60000)) == Fraction(-2, 21) and x.coefficient((1, TOP - 1)) == Fraction(-2, 9)
        assert (x * x).coefficient((2, 4)) == Fraction(4, 9)


def fresh(s):
    """The same series built anew from its terms."""
    return MultiSeries(s.nvars, s.trunc, s.terms())


def assert_canonical(s):
    """s is stored in the canonical form of the series module: per layer a
    positive denominator sharing no factor with all of the layer's
    numerators, no zero numerator and no empty layer, every key of the
    layer's degree; and s equals the series built afresh from its terms."""
    for d, (den, nums) in s._packed.items():
        assert 0 <= d <= s.trunc
        assert den > 0 and nums and all(nums.values()), d
        assert math.gcd(den, *nums.values()) == 1, d
        assert all(sum(exps) == d for exps in s.layer(d)), d
    assert s == fresh(s)


def sqrt_one_plus_x(trunc):
    """sqrt(1 + x): coefficient binomial(1/2, k) at x^k, of denominator a power of 2."""
    coeffs, c = [], Fraction(1)
    for k in range(trunc + 1):
        coeffs.append(c)
        c = c * (Fraction(1, 2) - k) / (k + 1)
    return univariate(coeffs, trunc)


def layered_series(rng, nvars, trunc, dens, zero_constant=False):
    """A dense series whose layer of degree d has coefficients over a
    denominator drawn from dens(d): the layers' lcms differ."""
    entries = []
    for exps in graded_monomials(nvars, trunc):
        if zero_constant and not any(exps):
            continue
        if rng.random() < 0.6:
            entries.append((exps, Fraction(rng.randint(-40, 40), rng.choice(dens(sum(exps))))))
    return MultiSeries(nvars, trunc, entries)


def dict_compose(outer, inner, nvars, trunc, low=0):
    """Reference substitution outer(inner_0, ...) of {exponents: coefficient}
    maps in the degrees low..trunc, by expanding every monomial."""
    out = {}
    for exps, c in outer.items():
        term = {(0,) * nvars: c}
        for g, e in zip(inner, exps):
            term = dict_mul(term, dict_pow(g, e, nvars, trunc), trunc)
        for key, v in term.items():
            out[key] = out.get(key, 0) + v
    return {e: c for e, c in out.items() if c and sum(e) >= low}


def reference_compose(outer, inner, low=0):
    """outer o inner for a series tuple outer and a sequence of inner series,
    from dict_compose at the least cap, the layers below low absent: an
    oracle that builds no power table."""
    trunc = min([outer.trunc] + [g.trunc for g in inner])
    nvars = inner[0].nvars
    inner_terms = [dict(g.terms()) for g in inner]
    return SeriesTuple(
        [MultiSeries(nvars, trunc, dict_compose(dict(c.terms()), inner_terms, nvars, trunc, low).items()) for c in outer]
    )


def from_low(tup, low):
    """The layers >= low of a series tuple, those below absent: what a kept
    table's compose from low returns."""
    return SeriesTuple([MultiSeries(c.nvars, c.trunc, [(e, v) for e, v in c.terms() if sum(e) >= low]) for c in tup])


# per-layer denominators: powers of 2 that grow with the degree, and
# products of mixed primes that change from layer to layer
LAYER_DENOMINATORS = {
    "powers-of-2": lambda d: [2**d, 2 ** (d // 2), 1],
    "mixed-primes": lambda d: [(2, 3, 5, 7, 11, 13)[d % 6], 3 ** (d % 4) * 5, 7 * (d + 1), 1],
}


class TestGradedView:
    """Each series keeps one denominator per layer.  A series made from
    another's layers shares their entries, and the products and
    compositions over unequal layer denominators equal the Fraction
    references."""

    def test_each_layer_has_its_own_denominator(self):
        s = univariate([Fraction(1, 3), 2, Fraction(5, 4), Fraction(1, 6)], 3)
        assert {d: den for d, (den, _) in s._packed.items()} == {0: 3, 1: 1, 2: 4, 3: 6}
        assert s._packed[2] == (4, {2: 5})

    def test_a_series_made_from_layers_shares_their_entries(self):
        rng = random.Random(23)
        s = layered_series(rng, 2, 6, LAYER_DENOMINATORS["mixed-primes"])
        t = MultiSeries(2, 8, [((1, 0), Fraction(5, 9)), ((1, 1), Fraction(-1, 4)), ((0, 8), Fraction(2, 5))])
        u = MultiSeries(2, 8, [((5, 3), Fraction(1, 7)), ((0, 8), Fraction(2, 5))])
        before = fresh(s)
        # grown by a layer of the next degree: a sum of disjoint degrees
        grown = s.as_polynomial(7) + MultiSeries(2, 7, [((4, 3), Fraction(3, 11)), ((0, 7), Fraction(-1, 2))])
        made = {
            "grown": grown,
            "grown twice": grown.as_polynomial(8) + MultiSeries(2, 8, [((8, 0), Fraction(1, 13))]),
            "truncated": s.truncated(3),
            "as_polynomial": s.truncated(4).as_polynomial(9),
            "sum": s + t,
            "difference": t - s,
            "disjoint sum": _disjoint_sum([SeriesTuple([s.truncated(3).as_polynomial(8)]), SeriesTuple([u])])[0],
        }
        for name, series in made.items():
            assert_canonical(series)
        # the entries of the layers taken over unchanged are the same objects
        assert set(s._packed) == set(range(2, 7))
        for d in s._packed:
            assert grown._packed[d] is s._packed[d]
        assert made["truncated"]._packed[3] is s._packed[3]
        assert made["as_polynomial"]._packed[4] is s._packed[4]
        assert (s + t)._packed[6] is s._packed[6] and (s + t)._packed[1] is t._packed[1]
        assert (t - s)._packed[1] is t._packed[1]
        assert made["disjoint sum"]._packed[2] is s._packed[2] and made["disjoint sum"]._packed[8] is u._packed[8]
        # nothing was changed in place by sharing
        assert s == before and s._packed == before._packed

    def test_an_inverse_is_canonical(self):
        s = sqrt_one_plus_x(40)
        inverse = s.inverse()
        assert_canonical(inverse)
        assert dict((s * inverse).terms()) == {(0,): Fraction(1)}

    @pytest.mark.parametrize("nvars, trunc", [(1, 14), (2, 7), (3, 5)])
    @pytest.mark.parametrize("kind", sorted(LAYER_DENOMINATORS))
    def test_products_over_layer_denominators(self, kind, nvars, trunc):
        rng = random.Random(f"{kind}-{nvars}")
        a = layered_series(rng, nvars, trunc, LAYER_DENOMINATORS[kind])
        b = layered_series(rng, nvars, trunc, LAYER_DENOMINATORS[kind])
        ta, tb = dict(a.terms()), dict(b.terms())
        assert dict((a * b).terms()) == dict_mul(ta, tb, trunc)
        for low in (0, 1, trunc // 2, trunc):
            assert dict(_mul(a, b, trunc, low).terms()) == dict_mul(ta, tb, trunc, low)
            assert dict(_mul(a, a, trunc, low).terms()) == dict_mul(ta, ta, trunc, low)

    def test_the_dense_square_root(self):
        trunc = 60
        root = sqrt_one_plus_x(trunc)
        terms = dict(root.terms())
        assert len({den for den, _ in root._packed.values()}) > 20
        assert dict((root * root).terms()) == {(0,): 1, (1,): 1}
        head = root.truncated(31).as_polynomial(trunc)
        assert dict((root * head).terms()) == dict_mul(terms, dict(head.terms()), trunc)
        for low in (1, 30, 59):
            assert dict(_mul(root, root, trunc, low).terms()) == dict_mul(terms, terms, trunc, low)
        # sqrt(1 + x) o (x + x^2 / 2) against the expanded reference
        inner = univariate([0, 1, Fraction(1, 2)], 16)
        outer = root.truncated(16)
        expected = dict_compose(dict(outer.terms()), [dict(inner.terms())], 1, 16)
        assert dict(outer.compose(SeriesTuple([inner])).terms()) == expected

    @pytest.mark.parametrize("nvars, trunc", [(1, 10), (2, 6), (3, 4)])
    @pytest.mark.parametrize("kind", sorted(LAYER_DENOMINATORS))
    def test_compositions_over_layer_denominators(self, kind, nvars, trunc):
        rng = random.Random(f"{kind}-{nvars}-compose")
        dens = LAYER_DENOMINATORS[kind]
        outer = [layered_series(rng, nvars, trunc, dens) for _ in range(2)]
        inner = [layered_series(rng, nvars, trunc, dens, zero_constant=True) for _ in range(nvars)]
        inner_terms = [dict(g.terms()) for g in inner]
        full = SeriesTuple(outer).compose(SeriesTuple(inner))
        for comp, f in zip(full, outer):
            assert dict(comp.terms()) == dict_compose(dict(f.terms()), inner_terms, nvars, trunc)
        for low in (0, trunc - 1, trunc):
            result = _PowerTable(nvars).compose(SeriesTuple(outer), SeriesTuple(inner), low)
            assert result == from_low(full, low)
            for comp, f in zip(result, outer):
                assert dict(comp.terms()) == dict_compose(dict(f.terms()), inner_terms, nvars, trunc, low)


def inverse_from(s, y):
    """Reference: 1/s through s.trunc by Newton doubling, continued from y,
    the inverse of s through y.trunc.  A pass from correct to
    new = min(2 correct + 1, trunc) forms the error e = s y - 1 above
    correct alone and sets y <- y - y e, keeping y's layers through correct."""
    correct, trunc = y.trunc, s.trunc
    while correct < trunc:
        new = min(2 * correct + 1, trunc)
        error = _mul(s, y, new, correct + 1)
        step = _mul(y, error, new, correct + 1)
        packed = dict(y._packed)
        packed.update((-step)._packed)
        y = MultiSeries._raw(s.nvars, new, packed)
        correct = new
    return y.truncated(trunc)


class TestInverseAgainstNewtonDoubling:
    """MultiSeries.inverse, a 1 x 1 _series_solve, against Newton doubling
    on units whose layers have unequal denominators."""

    @pytest.mark.parametrize("nvars, trunc", [(1, 14), (2, 7), (3, 5)])
    @pytest.mark.parametrize("kind", sorted(LAYER_DENOMINATORS))
    def test_matches_the_doubling_reference(self, kind, nvars, trunc):
        rng = random.Random(f"{kind}-{nvars}-inverse")
        for c0 in (1, -2, Fraction(3, 5)):
            unit = layered_series(rng, nvars, trunc, LAYER_DENOMINATORS[kind])
            unit = unit + (c0 - unit.constant_term())
            assert len({den for den, _ in unit._packed.values()}) > 1
            want = inverse_from(unit, MultiSeries.constant(1 / unit.constant_term(), nvars, 0))
            got = unit.inverse()
            assert_canonical(got)
            assert got == want
            assert dict((unit * got).terms()) == {(0,) * nvars: 1}
            # continued from a truncated inverse, the doubling gives the same series
            for k in (0, trunc // 2, trunc - 1):
                assert inverse_from(unit, unit.truncated(k).inverse()) == want


def solve_by_series(mat, rhs):
    """Reference: the degree-by-degree solve in series arithmetic.  Layer d
    of x is C^(-1) (rhs_d - ((mat - C) x)_d), each step on homogeneous
    series at cap d, and x grows by a sum with its new layer."""
    nvars = rhs.nvars
    cinv = ratlinalg.inverse([[entry.constant_term() for entry in row] for row in mat])
    cap = min([rhs.trunc] + [entry.trunc for row in mat for entry in row])
    x = [MultiSeries.zero(nvars, 0) for _ in rhs]
    for d in range(cap + 1):
        rest = []
        for row, acc in zip(mat, rhs.layer_tuple(d).truncated(d)):
            for entry, comp in zip(row, x):
                if not comp.is_zero():
                    acc = acc - _mul(entry, comp, d, d)
            rest.append(acc)
        layers = []
        for weights in cinv:
            layer = MultiSeries.zero(nvars, d)
            for w, acc in zip(weights, rest):
                if w and not acc.is_zero():
                    layer = layer + acc.scale(w)
            layers.append(layer)
        x = [comp.as_polynomial(d) + layer for comp, layer in zip(x, layers)]
    return SeriesTuple(x)


def random_system(rng, n, nvars, rhs_offset):
    """A seeded n x n system mat x = rhs: C^(-1) has a negative and a
    non-integer entry, the entries' caps may differ, rhs's cap is rhs_offset
    above the least of them (at least 0), and rhs has empty layers."""
    while True:
        const = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        try:
            weights = [w for row in ratlinalg.inverse(const) for w in row]
        except DomainError:
            continue
        if any(w < 0 for w in weights) and any(w.denominator > 1 for w in weights):
            break
    trunc = rng.randint(2, 8 if nvars == 1 else 5)
    mat = []
    for consts in const:
        row = [rand_series(rng, nvars, trunc + rng.randint(0, 2), terms=6) for _ in consts]
        mat.append([entry + (c - entry.constant_term()) for entry, c in zip(row, consts)])
    cap = max(trunc + rhs_offset, 0)
    kept = {d for d in range(cap + 1) if rng.random() < 0.7} - {rng.randint(0, cap)}
    monomials = [exps for exps in graded_monomials(nvars, cap) if sum(exps) in kept]
    rhs = []
    for _ in range(n):
        terms = [(e, Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for e in monomials if rng.random() < 0.6]
        rhs.append(MultiSeries(nvars, cap, terms))
    return mat, SeriesTuple(rhs)


class TestSeriesSolveReference:
    """_series_solve on layer maps against the same solve in series
    arithmetic, term for term."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_matches_the_series_loop(self, n, nvars):
        rng = random.Random(f"solve-{n}-{nvars}")
        for rhs_offset in (-2, -1, 0, 1, 3):
            mat, rhs = random_system(rng, n, nvars, rhs_offset)
            got = _series_solve(mat, rhs)
            want = solve_by_series(mat, rhs)
            assert got.trunc == want.trunc == min([rhs.trunc] + [entry.trunc for row in mat for entry in row])
            assert [comp._packed for comp in got] == [comp._packed for comp in want]
            for comp in got:
                assert_canonical(comp)
            assert _series_matrix_vector(mat, got).agrees_through(rhs.truncated(got.trunc), got.trunc)

    def test_a_quotient_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("x0:1")
        den = univariate([Fraction(-3, 2), 1, 0, Fraction(2, 7)], 30)
        num = univariate([2, Fraction(1, 5), -1], 30)
        q = _series_solve([[den]], SeriesTuple([num]))[0]
        expansion = sympy.series(as_sympy(sympy, xs, num) / as_sympy(sympy, xs, den), xs[0], 0, 31).removeO()
        assert q.trunc == 30 and dict(q.terms()) == sympy_terms(sympy, xs, expansion, 30)

    def test_a_variable_count_mismatch_is_refused(self):
        two = MultiSeries(2, 4, [((0, 0), 1), ((1, 0), 2), ((0, 1), 3), ((2, 0), 1), ((1, 1), -1), ((0, 2), 5)])
        with pytest.raises(DomainError, match="variable count mismatch"):
            _series_solve([[two]], SeriesTuple([univariate([1, 1], 4)]))
        rhs = MultiSeries(2, 4, [((0, 0), 1), ((1, 1), 1)])
        with pytest.raises(DomainError, match="variable count mismatch"):
            _series_solve([[MultiSeries.constant(2, 1, 4)]], SeriesTuple([rhs]))


class TestIntegerArguments:
    """Exponents, caps and the variable count must be ints, not bools: a
    float is refused, never floored."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: MultiSeries(1, 3, [((1.7,), 1)]),
            lambda: MultiSeries(1, 3, [((1.0,), 1)]),
            lambda: MultiSeries(2, 3, [((True, 0), 1)]),
            lambda: MultiSeries(2, 3, [(("1", 0), 1)]),
            lambda: MultiSeries(1, 2.5, [((1,), 1)]),
            lambda: MultiSeries(1, 3.0),
            lambda: MultiSeries(1, True),
            lambda: MultiSeries(1, "3", [((1,), 1)]),
            lambda: MultiSeries(1.0, 3),
            lambda: MultiSeries(True, 3),
            lambda: MultiSeries.zero(2, 2.5),
            lambda: MultiSeries.constant(1, 1, 1.5),
            lambda: univariate([0, 1], 5).truncated(2.5),
            lambda: univariate([0, 1], 5).truncated(False),
            lambda: univariate([0, 1], 5).as_polynomial(7.0),
            lambda: univariate([0, 1], 5).as_polynomial("7"),
        ],
    )
    def test_refused(self, make):
        with pytest.raises(DomainError):
            make()

    @pytest.mark.parametrize("exponent", [True, False, 2.0, Fraction(2), "2", -1])
    def test_powers_refuse_a_non_int_exponent(self, exponent):
        # x ** True was x and x ** False was 1
        with pytest.raises(DomainError):
            univariate([0, 1, 1], 5) ** exponent

    @pytest.mark.parametrize(
        "make",
        [
            lambda: MultiSeries(1, 3, [((1,), 0.1)]),
            lambda: MultiSeries(1, 3, [((1,), 0.5)]),
            lambda: MultiSeries(1, 3, [((1,), "1/3")]),
            lambda: MultiSeries.constant(0.5, 1, 3),
            lambda: MultiSeries.constant(0.0, 1, 3),
            lambda: univariate([0, 1], 5).scale(0.5),
        ],
    )
    def test_float_coefficients_refused(self, make):
        # Fraction(0.1) would store 3602879701896397/36028797018963968
        with pytest.raises(DomainError, match="rational"):
            make()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SeriesTuple([univariate([0, 1, 2], 4)]).compose_diagonal([0.1]),
            lambda: univariate([0, 1, 2], 4).eval([0.1]),
            lambda: solve_homological(SeriesTuple([univariate([0, 0, 1], 4)]), [0.1], 0),
            lambda: _DiagonalPowers([2, 0.5]),
        ],
    )
    def test_float_eigenvalues_and_points_refused(self, make):
        # Fraction(0.1) would read 3602879701896397/36028797018963968
        with pytest.raises(DomainError, match="rational"):
            make()

    @pytest.mark.parametrize("index", [0.5, 1.0, True, False, "0", None])
    def test_a_variable_index_must_be_an_int(self, index):
        # variable(0.5, 2, 3) once stored the constant monomial in layer 1
        with pytest.raises(DomainError, match="variable index"):
            MultiSeries.variable(index, 2, 3)
        with pytest.raises(DomainError, match="variable index"):
            MultiSeries(2, 3, [((1, 1), 1), ((2, 0), 3)]).partial(index)

    def test_a_float_radius_is_refused(self):
        phi = SeriesTuple([MultiSeries(1, 3, [((1,), 3)])])
        for rho in (0.1, 0.5):
            with pytest.raises(DomainError, match="rational"):
                gauss_norm(phi[0], rho, 3)
            with pytest.raises(DomainError, match="rational"):
                tuple_gauss_norm(phi, rho, 3)

    @pytest.mark.parametrize(
        "exps",
        [(True, False), (False, True), ("a", 0), (1.0, 0), (0, 1.0), (-1, 2), (1,), (1, 0, 0), (None, 1), (70000, 0)],
    )
    def test_a_tuple_that_names_no_monomial_has_coefficient_zero(self, exps):
        s = MultiSeries(2, 3, [((1, 0), 5), ((0, 1), 7), ((0, 0), 2)])
        assert s.coefficient(exps) == 0

    def test_int_arguments_still_work(self):
        s = MultiSeries(2, 3, [((1, 0), 1), ((0, 2), Fraction(1, 2))])
        assert s.trunc == 3 and s.coefficient((0, 2)) == Fraction(1, 2)
        assert s.truncated(1).trunc == 1 and s.as_polynomial(5).trunc == 5
        assert MultiSeries(1, 0, [((0,), 2)]).constant_term() == 2


class TestCompose:
    def test_variable_swap(self):
        phi = MultiSeries.variable(0, 2, 4)
        g = SeriesTuple([MultiSeries.variable(1, 2, 4), MultiSeries.variable(0, 2, 4)])
        assert phi.compose(g) == MultiSeries.variable(1, 2, 4)

    def test_square_after_shift(self):
        phi = univariate([0, 0, 1], 4)  # x^2
        g = SeriesTuple([univariate([0, 1, 1], 4)])  # x + x^2
        assert phi.compose(g) == univariate([0, 0, 1, 2, 1], 4)

    def test_exponential_scaling(self):
        # oracle: substitute 2x into x + x^2/2 + x^3/6 and expand by hand
        phi = univariate([0, 1, Fraction(1, 2), Fraction(1, 6)], 3)
        g = SeriesTuple([univariate([0, 2], 3)])
        assert phi.compose(g) == univariate([0, 2, 2, Fraction(4, 3)], 3)

    def test_rejects_nonzero_constant(self):
        phi = MultiSeries.variable(0, 1, 3)
        with pytest.raises(DomainError):
            phi.compose(SeriesTuple([univariate([1, 1], 3)]))

    def test_associativity_randomized(self):
        rng = random.Random(5)
        for _ in range(12):
            n, trunc = 2, 6
            phi = rand_series(rng, n, trunc)
            g = SeriesTuple([rand_series(rng, n, trunc, zero_constant=True) for _ in range(n)])
            k = SeriesTuple([rand_series(rng, n, trunc, zero_constant=True) for _ in range(n)])
            lhs = phi.compose(g).compose(k)
            rhs = phi.compose(g.compose(k))
            assert lhs == rhs

    @pytest.mark.parametrize("outer_vars, inner_vars", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 1), (3, 3)])
    def test_sparse_outer_maps_randomized(self, outer_vars, inner_vars):
        # supports that skip degrees, such as x^2, x^5 y and x^7 at cap 12:
        # the table releases the powers below each degree it reads, so a
        # read above a gap may build a released power again; inner maps need
        # not be square and their caps differ
        rng = random.Random(f"sparse-{outer_vars}-{inner_vars}")
        cap = 12

        def monomial(degree):
            cuts = sorted(rng.choices(range(degree + 1), k=outer_vars - 1))
            return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))

        gapped = [(2, 0, 0), (5, 1, 0), (7, 0, 0)] if outer_vars > 1 else [(2,), (5,), (7,)]
        for _ in range(3):
            comps = [MultiSeries(outer_vars, cap, [(e[:outer_vars], Fraction(rng.randint(1, 9), 2)) for e in gapped])]
            for _ in range(2):
                degrees = sorted(rng.sample(range(cap + 1), 3))
                terms = {monomial(d): Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6)) for d in degrees}
                comps.append(MultiSeries(outer_vars, cap, terms.items()))
            outer = SeriesTuple(comps)
            inner = [
                rand_series(rng, inner_vars, rng.choice((cap, 10, 9)), terms=3, zero_constant=True)
                for _ in range(outer_vars)
            ]
            composed = outer.compose(inner)
            assert composed == reference_compose(outer, inner)
            assert composed.trunc == min(g.trunc for g in inner) and composed.nvars == inner_vars

    def test_an_odd_outer_map_builds_each_power_once(self, monkeypatch):
        # x + x^3 + ... + x^39 at cap 40, the shape of h^(-1) for an odd h:
        # no power is released at the even degrees the map skips, so each of
        # x^2 .. x^39 is stepped once from the one below, as the prefix-closure
        # walk did (38 steps)
        x = MultiSeries.variable(0, 1, 40)
        outer = SeriesTuple([MultiSeries(1, 40, [((k,), Fraction(1, k)) for k in range(1, 40, 2)])])
        inner = [x + (x * x).scale(Fraction(1, 3))]
        built = []
        recorded_powers(monkeypatch, built)
        composed = outer.compose(inner)
        assert len(built) == len({key for key, _ in built}) == 38
        monkeypatch.undo()
        assert composed == reference_compose(outer, inner)


class TestLayerStream:
    """The integer running sum inner + sum_k layer_k o inner, each term above
    its layer's degree, equals the sum of the expanded substitutions
    (dict_compose), layer by layer."""

    @staticmethod
    def homogeneous(rng, nvars, trunc, degree):
        exps = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree]
        terms = [
            (e, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12)))
            for e in rng.sample(exps, min(3, len(exps)))
        ]
        return MultiSeries(nvars, trunc, terms)

    def test_matches_the_fraction_sum_randomized(self):
        # rational inner coefficients and layers, so a degree holds groups
        # over different denominators, merged again at every read
        rng = random.Random(17)
        for nvars in (1, 2, 3, 4):
            trunc = 7 if nvars < 4 else 6
            for _ in range(3):
                inner = SeriesTuple(
                    [rand_series(rng, nvars, trunc, terms=4, zero_constant=True) for _ in range(nvars)]
                )
                stream = _LayerStream(inner)
                expected = inner
                # non-decreasing degrees, with gaps and repeats
                degrees = sorted(rng.choice(range(1, trunc + 1)) for _ in range(4))
                for degree in degrees:
                    comps = [self.homogeneous(rng, nvars, trunc, degree) for _ in range(nvars)]
                    if nvars > 1:
                        comps[rng.randrange(nvars)] = MultiSeries.zero(nvars, trunc)
                    layer = SeriesTuple(comps)
                    stream.add(layer)
                    expected = expected + reference_compose(layer, inner, degree + 1)
                    for d in range(trunc + 1):
                        for comp, exact in zip(stream.layer(d), expected):
                            assert comp.trunc == trunc
                            assert set(comp._packed) <= {d}
                            assert comp.layer(d) == exact.layer(d)

    def test_rejects_falling_or_mixed_degrees(self):
        x, y = MultiSeries.variable(0, 2, 5), MultiSeries.variable(1, 2, 5)
        stream = _LayerStream(SeriesTuple([x + y * y, y]))
        stream.add(SeriesTuple([x * y, y * y]))
        with pytest.raises(DomainError):
            stream.add(SeriesTuple([x, y]))
        with pytest.raises(DomainError):
            stream.add(SeriesTuple([x * y * y, y * y]))
        with pytest.raises(DomainError):
            _LayerStream(SeriesTuple([x + 1, y]))


class TestPowerTable:
    """One kept power table gives outer o inner exactly as the expanded
    substitution (dict_compose) does, whatever inner it is handed."""

    @staticmethod
    def grown(rng, target, cap):
        """target's layers below cap, and a random layer cap of degree cap
        that a later call replaces by target's."""
        nvars = target.nvars
        return SeriesTuple(
            [
                comp.truncated(cap - 1).as_polynomial(cap) + TestLayerStream.homogeneous(rng, nvars, cap, cap)
                for comp in target
            ]
        )

    def test_grown_one_layer_at_a_time_randomized(self):
        rng = random.Random(43)
        for nvars in (1, 2, 3):
            trunc = 8 if nvars < 3 else 6
            for _ in range(3):
                outer = SeriesTuple([rand_series(rng, nvars, trunc, terms=5) for _ in range(nvars)])
                target = SeriesTuple([rand_series(rng, nvars, trunc, terms=6, zero_constant=True) for _ in range(nvars)])
                table = _PowerTable(nvars)
                for cap in range(1, trunc + 1):
                    inner = self.grown(rng, target, cap)
                    low = rng.randint(0, cap)
                    assert table.compose(outer, inner, low) == reference_compose(outer, inner, low)
                    self.assert_parents_first(table)
                assert table.compose(outer, target) == reference_compose(outer, target)

    @staticmethod
    def assert_parents_first(table):
        """table.entries holds degree 0, then the degree-one factors, then
        each power after its recorded parent key - units[parents[key]],
        under packed keys: the order take walks."""
        nvars = len(table.factors)
        unpack = _unpacker(nvars)
        keys = list(table.entries)
        assert list(map(unpack, keys[: nvars + 1])) == [(0,) * nvars] + [
            tuple(int(i == j) for i in range(nvars)) for j in range(nvars)
        ]
        assert set(table.parents) == set(keys[nvars + 1 :])
        for index, key in enumerate(keys[nvars + 1 :], nvars + 1):
            j = table.parents[key]
            exps = unpack(key)
            assert sum(exps) >= 2 and exps[j] >= 1, exps
            assert keys.index(key - table.units[j]) < index, exps

    def test_a_changed_layer_or_a_lower_cap_is_served_exactly(self):
        rng = random.Random(44)
        nvars, trunc = 2, 7
        outer = SeriesTuple([rand_series(rng, nvars, trunc, terms=6) for _ in range(nvars)])
        target = SeriesTuple([rand_series(rng, nvars, trunc, terms=8, zero_constant=True) for _ in range(nvars)])
        table = _PowerTable(nvars)
        for cap in range(1, 5):
            table.compose(outer, self.grown(rng, target, cap))
        # layer 2 was taken at cap 4; then a lower cap, then target's own
        changed = SeriesTuple([target[0] + MultiSeries(nvars, trunc, [((1, 1), Fraction(1, 3))]), target[1]])
        for inner in (changed, changed.truncated(5), target.truncated(3)):
            assert table.compose(outer, inner) == reference_compose(outer, inner)
        # the table goes on from the layers it took last
        for cap in range(5, trunc + 1):
            inner = self.grown(rng, target, cap)
            assert table.compose(outer, inner, cap) == reference_compose(outer, inner, cap)
        assert table.compose(outer, target) == reference_compose(outer, target)

    @pytest.mark.parametrize("changed", [2, 3, 4, 5])
    def test_a_change_at_layer_m_keeps_the_power_layers_up_to_m(self, monkeypatch, changed):
        rng = random.Random(45)
        nvars, trunc = 2, 7
        outer = SeriesTuple([layered_series(rng, nvars, trunc, lambda d: [1, 2, 3]) for _ in range(nvars)])
        target = SeriesTuple(
            [layered_series(rng, nvars, trunc, lambda d: [1, 5], zero_constant=True) for _ in range(nvars)]
        )
        table = _PowerTable(nvars)
        table.compose(outer, target)
        bump = MultiSeries(nvars, trunc, [((changed, 0), Fraction(1, 7))])
        inner = SeriesTuple([target[0] + bump, target[1]])
        visited = []
        counted_convolve(monkeypatch, visited)
        kept = table.compose(outer, inner)
        kept_pairs = sum(visited)
        visited.clear()
        fresh = _PowerTable(nvars).compose(outer, inner)
        assert kept == fresh == reference_compose(outer, inner)
        assert kept_pairs < sum(visited)

    def test_a_take_finds_no_last_variable(self, monkeypatch):
        # take re-forms each kept power from its recorded parent: a changed
        # inner map costs convolutions but no _parent call
        rng = random.Random(46)
        nvars, trunc = 3, 6
        outer = SeriesTuple([rand_series(rng, nvars, trunc, terms=8) for _ in range(nvars)])
        target = SeriesTuple([rand_series(rng, nvars, trunc, terms=8, zero_constant=True) for _ in range(nvars)])
        table = _PowerTable(nvars)
        table.compose(outer, target)
        calls, visited = [], []
        parent = series._parent

        def counted(exps):
            calls.append(exps)
            return parent(exps)

        monkeypatch.setattr(series, "_parent", counted)
        counted_convolve(monkeypatch, visited)
        changed = SeriesTuple([target[0] + MultiSeries(nvars, trunc, [((1, 1, 0), Fraction(2, 3))])] + list(target)[1:])
        table.take(changed)
        assert len(table.entries) > nvars + 1 and sum(visited) > 0
        assert calls == []
        monkeypatch.undo()
        assert table.compose(outer, changed) == reference_compose(outer, changed)

    def test_rejects_a_constant_term_or_a_wrong_size_map(self):
        x, y = MultiSeries.variable(0, 2, 4), MultiSeries.variable(1, 2, 4)
        outer = SeriesTuple([x * y, y + x * x])
        table = _PowerTable(2)
        with pytest.raises(DomainError):
            table.compose(outer, SeriesTuple([x + 1, y]))
        with pytest.raises(DomainError):
            table.compose(outer, SeriesTuple([x]))


class TestDenominators:
    def test_each_term_reduced_denominator_randomized(self):
        # negative numerators, denominator 1 and unequal layer denominators
        rng = random.Random(47)
        for nvars in (1, 2, 3):
            for dens in LAYER_DENOMINATORS.values():
                s = layered_series(rng, nvars, 6, dens)
                assert sorted(s.denominators()) == sorted(c.denominator for _, c in s.terms())
        integral = MultiSeries(2, 3, [((1, 0), -4), ((0, 2), 6)])
        assert list(integral.denominators()) == [1, 1]
        assert list(MultiSeries.zero(2, 3).denominators()) == []


class TestValuations:
    def test_each_term_valuation_randomized(self):
        rng = random.Random(2901)
        for nvars in (1, 2, 3):
            for dens in LAYER_DENOMINATORS.values():
                s = layered_series(rng, nvars, 6, dens)
                for prime in (2, 3, 7):
                    expected = [(sum(e), e, fraction_valuation(c, prime)) for e, c in s.terms()]
                    assert sorted(s.valuations(prime)) == sorted(expected)
        assert list(MultiSeries.zero(2, 3).valuations(3)) == []


class TestScale:
    def test_matches_the_per_term_products_randomized(self):
        rng = random.Random(2902)
        for _ in range(60):
            n = rng.randint(1, 3)
            dens = rng.choice(list(LAYER_DENOMINATORS.values()))
            s = layered_series(rng, n, 7, dens)
            c = Fraction(rng.choice((-7, -2, 1, 3, 49)), rng.choice((1, 2, 9)))
            out = s.scale(c)
            assert out == MultiSeries(n, 7, [(e, a * c) for e, a in s.terms()])
            assert_canonical(out)
            assert out.scale(1 / c) == s

    def test_one_is_the_identity_zero_gives_zero_and_a_float_is_refused(self):
        s = MultiSeries(2, 4, [((1, 0), 1), ((1, 1), Fraction(2, 3))])
        assert s.scale(1) == s
        assert s.scale(Fraction(1, 3)).coefficient((1, 1)) == Fraction(2, 9)
        assert s.scale(0) == MultiSeries.zero(2, 4)
        with pytest.raises(DomainError):
            s.scale(0.5)


class TestSharedLayers:
    def test_sum_shares_the_degrees_one_operand_holds(self):
        x, y = MultiSeries.variable(0, 2, 6), MultiSeries.variable(1, 2, 6)
        a, b = x + x * y, x * y + y**3
        before = a.layer(2)
        total = a + b
        assert total == MultiSeries(2, 6, [((1, 0), 1), ((1, 1), 2), ((0, 3), 1)])
        assert total._packed[1] is a._packed[1]
        assert total._packed[3] is b._packed[3]
        assert total._packed[2] is not a._packed[2] and a.layer(2) == before

    def test_difference_merges_negated_coefficients(self):
        rng = random.Random(41)
        for _ in range(40):
            a, b = rand_series(rng, 2, 5, terms=8), rand_series(rng, 2, rng.randint(3, 6), terms=8)
            diff = a - b
            assert diff._packed == (a + (-b))._packed and diff.trunc == min(a.trunc, b.trunc)
            assert_canonical(diff)
            for d in set(a._packed) - set(b._packed):
                if d <= diff.trunc:
                    assert diff._packed[d] is a._packed[d]
        x, y = MultiSeries.variable(0, 2, 6), MultiSeries.variable(1, 2, 6)
        b = x * y + y**3
        diff = x - b
        # a degree only the subtrahend holds is a negated copy, not its entry
        assert diff.layer(3) == {(0, 3): -1} and b.layer(3) == {(0, 3): 1}
        assert (b - b).is_zero() and (x - 1) == MultiSeries(2, 6, [((0, 0), -1), ((1, 0), 1)])

    def test_constructor_sums_repeated_terms(self):
        s = MultiSeries(2, 3, [
            ((1, 0), 2), ((1, 0), Fraction(-2)), ((0, 1), 0),
            ((1, 1), 3), ((1, 1), Fraction(1, 2)), ((0, 2), True), ((3, 1), 5),
        ])
        assert list(s._packed) == [2] and s.layer(2) == {(1, 1): Fraction(7, 2), (0, 2): Fraction(1)}
        assert all(type(c) is Fraction for _, c in s.terms())
        assert_canonical(s)

        class Subclass(Fraction):
            pass

        (c,) = MultiSeries(1, 2, [((1,), Subclass(1, 2))]).layer(1).values()
        assert type(c) is Fraction and c == Fraction(1, 2)

    def test_disjoint_sum(self):
        x, y = MultiSeries.variable(0, 2, 6), MultiSeries.variable(1, 2, 6)
        low, high = SeriesTuple([x, y]), SeriesTuple([x * y, MultiSeries.zero(2, 6)])
        total = _disjoint_sum([low, high])
        assert total == low + high
        assert total[0]._packed[2] is high[0]._packed[2]
        with pytest.raises(DomainError):
            _disjoint_sum([low, low])
        with pytest.raises(DomainError):
            _disjoint_sum([low, high.truncated(5)])


# denominators that give layers of unequal denominators, and sums that
# cancel some of them: powers of 2 and products of mixed primes
MIXED_DENOMINATORS = [1, 2, 4, 8, 64, 3, 5, 6, 10, 15, 21, 35, 49, 105]


@st.composite
def mixed_series(draw, nvars, trunc, zero_constant=False):
    term = st.tuples(
        st.tuples(*[st.integers(0, trunc)] * nvars),
        st.builds(Fraction, st.integers(-12, 12), st.sampled_from(MIXED_DENOMINATORS)),
    )
    return MultiSeries(nvars, trunc, [(e, c) for e, c in draw(st.lists(term, max_size=10)) if any(e) or not zero_constant])


@st.composite
def kernel_operands(draw):
    """(a, b, part, inner, scalar, low): two series in 1-3 variables, some
    of a's terms (part), an inner map without constant terms, a rational
    and a lower bound."""
    nvars, trunc = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    a, b = draw(mixed_series(nvars, trunc)), draw(mixed_series(nvars, trunc))
    keep = draw(st.lists(st.booleans(), min_size=a.term_count(), max_size=a.term_count()))
    part = MultiSeries(nvars, trunc, [term for term, kept in zip(a.terms(), keep) if kept])
    inner = SeriesTuple([draw(mixed_series(nvars, trunc, zero_constant=True)) for _ in range(nvars)])
    scalar = draw(st.builds(Fraction, st.integers(-30, 30), st.sampled_from(MIXED_DENOMINATORS)))
    return a, b, part, inner, scalar, draw(st.integers(0, trunc + 1))


class TestCanonicalForm:
    """Every series that a constructor or a kernel returns is stored in the
    canonical form and equals the series built afresh from its terms
    (assert_canonical), over layers of mixed denominators and sums that
    cancel single terms and whole layers."""

    @settings(max_examples=80, deadline=None)
    @given(kernel_operands())
    def test_every_kernel_returns_the_canonical_form(self, case):
        a, b, part, inner, scalar, low = case
        nvars, trunc, k = a.nvars, a.trunc, a.trunc // 2
        unit = b + (1 - b.constant_term())
        results = {
            "constructor": a,
            "sum": a + b,
            "difference": a - b,
            "cancelled terms": a - part,
            "cancelled layers": a - a.truncated(k).as_polynomial(trunc),
            "negation": -a,
            "product": a * b,
            "square": a * a,
            "product from low": _mul(a, b, trunc, low),
            "square from low": _mul(a, a, trunc, low),
            "scale": a.scale(scalar),
            "scalar product": scalar * a,
            "partial": a.partial(nvars - 1),
            "substitute zero": a.substitute_zero([0]),
            "truncated": a.truncated(k),
            "as_polynomial": a.truncated(k).as_polynomial(trunc + 3),
            "grown": a.truncated(k).as_polynomial(k + 1) + SeriesTuple([b]).layer_tuple(k + 1)[0],
            "inverse": unit.inverse(),
            "solve quotient": _series_solve([[unit]], SeriesTuple([a]))[0],
            "disjoint sum": _disjoint_sum(
                [SeriesTuple([a.truncated(k).as_polynomial(trunc)]), SeriesTuple([b - b.truncated(k).as_polynomial(trunc)])]
            )[0],
        }
        outer = SeriesTuple([a, b])
        for i, comp in enumerate(outer.compose(inner)):
            results[f"compose {i}"] = comp
        tabled = _PowerTable(nvars).compose(outer, inner, low)
        assert tabled == from_low(outer.compose(inner), low)
        for i, comp in enumerate(tabled):
            results[f"table compose from low {i}"] = comp
        factors = [scalar or 1, Fraction(0), Fraction(-5, 4)][:nvars]
        results["diagonal substitution"] = SeriesTuple([a]).compose_diagonal(factors)[0]
        stream = _LayerStream(inner)
        if a.degree():
            stream.add(SeriesTuple([a] * nvars).layer_tuple(a.degree()))
        for d in range(trunc + 1):
            results[f"stream layer {d}"] = stream.layer(d)[0]
        for name, series in results.items():
            try:
                assert_canonical(series)
            except AssertionError as exc:
                raise AssertionError(name) from exc


class TestInvertTuple:
    """SeriesTuple.invert, the compositional inverse."""

    def test_linear(self):
        g = SeriesTuple([univariate([0, 2], 4)])
        inv = g.invert()
        assert inv == SeriesTuple([univariate([0, Fraction(1, 2)], 4)])

    def test_quadratic(self):
        # oracle: term-by-term solve of g(h) = x for g = x + x^2
        g = SeriesTuple([univariate([0, 1, 1], 3)])
        assert g.invert() == SeriesTuple([univariate([0, 1, -1, 2], 3)])

    def test_round_trip_randomized(self):
        rng = random.Random(9)
        for _ in range(8):
            comps = []
            for i in range(2):
                entries = {(1 if j == i else 0, 1 if j != i else 0): Fraction(0) for j in range(2)}
                base = MultiSeries.variable(i, 2, 6)
                comps.append(base + rand_series(rng, 2, 6, terms=4, zero_constant=True) * Fraction(1, 3))
            g = SeriesTuple(comps)
            if not g.linear_matrix() or g.linear_matrix()[0][0] == 0:
                continue
            try:
                ginv = g.invert()
            except DomainError:
                continue
            assert ginv.invert().agrees_through(g, 6)
            assert g.compose(ginv).agrees_through(SeriesTuple.identity(2, 6), 6)
            assert ginv.compose(g).agrees_through(SeriesTuple.identity(2, 6), 6)

    def test_singular_linear_part(self):
        g = SeriesTuple([univariate([0, 0, 1], 3)])
        with pytest.raises(DomainError):
            g.invert()


def as_sympy(sympy, xs, phi):
    """The stored terms of phi as a sympy polynomial in the symbols xs."""
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[x**e for x, e in zip(xs, exps)])
         for exps, c in phi.terms()),
        sympy.Integer(0),
    )


def sympy_terms(sympy, xs, expr, trunc):
    """{exponents: Fraction} of an expanded sympy expression through total degree trunc."""
    return {
        exps: Fraction(int(c.p), int(c.q))
        for exps, c in sympy.Poly(sympy.expand(expr), *xs).terms()
        if c and sum(exps) <= trunc
    }


class TestInvertAgainstSympy:
    """g o g.invert() = x through the truncation, composed by sympy (test-only)."""

    @pytest.mark.parametrize("nvars, trunc, seed", [(1, 9, 1), (1, 9, 2), (2, 6, 3), (2, 6, 4)])
    def test_composition_is_identity(self, nvars, trunc, seed):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols(f"x0:{nvars}")
        rng = random.Random(seed)
        monomials = [e for e in itertools.product(range(4), repeat=nvars) if 2 <= sum(e) <= 3]
        comps = []
        for i in range(nvars):
            terms = [(e, Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for e in rng.sample(monomials, 2)]
            # diagonal entries and one coupling below them: the linear part is invertible
            terms.append((tuple(int(j == i) for j in range(nvars)), Fraction(rng.choice([-3, -1, 2, 5]))))
            if i > 0:
                terms.append((tuple(int(j == 0) for j in range(nvars)), Fraction(1)))
            comps.append(MultiSeries(nvars, trunc, terms))
        g = SeriesTuple(comps)
        inverse = [as_sympy(sympy, xs, c) for c in g.invert()]
        for i, comp in enumerate(g):
            composed = sympy.expand(as_sympy(sympy, xs, comp).subs(dict(zip(xs, inverse)), simultaneous=True))
            kept = {
                exps: c
                for exps, c in sympy.Poly(composed, *xs).terms()
                if 0 < sum(exps) <= trunc
            }
            assert kept == {tuple(1 if j == i else 0 for j in range(nvars)): 1}, i


@st.composite
def compositions(draw):
    """(outer tuple, inner series, low) for a substitution checked against sympy.

    The outer map has 1-3 variables, a constant term and terms above the
    inner cap allowed, and components that may be zero or have disjoint
    supports; the inner series have their own variable count and caps.  The
    first component may hold a monomial I beside I + e_last, whose power is
    built from inner^I, so one table power is both read and extended.  low
    runs from 0 to one above the cap; the kept table reads it on square maps.
    """
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    outer_trunc = draw(st.integers(0, 5))
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=9)

    def series(nvars, trunc, low):
        exps = st.tuples(*[st.integers(0, trunc)] * nvars).filter(lambda e: low <= sum(e))
        return MultiSeries(nvars, trunc, draw(st.lists(st.tuples(exps, coeff), max_size=4)))

    outer = [series(m, outer_trunc, 0) for _ in range(draw(st.integers(1, 3)))]
    if outer_trunc >= 2 and draw(st.booleans()):
        parent = draw(st.tuples(*[st.integers(0, outer_trunc - 1)] * m).filter(lambda e: 0 < sum(e) < outer_trunc))
        child = parent[:-1] + (parent[-1] + 1,)
        outer[0] = outer[0] + MultiSeries(m, outer_trunc, [(parent, draw(coeff)), (child, draw(coeff))])
    inner_trunc = draw(st.integers(1, 5))
    inner = [series(n, inner_trunc, 1) for _ in range(m)]
    if draw(st.booleans()):
        inner[0] = inner[0].truncated(draw(st.integers(0, inner_trunc)))
    trunc = min([outer_trunc] + [g.trunc for g in inner])
    return SeriesTuple(outer), inner, draw(st.integers(0, trunc + 1))


# an outer constant term, disjoint supports, a zero component, 3 inner
# variables for 2 outer ones, an outer term of degree 3 above the cap 2, a
# term x0 whose power x0^2 is built from it, and only the top layer asked for
EVERY_CASE = (
    SeriesTuple([
        MultiSeries(2, 4, [((0, 0), 3), ((1, 0), 5), ((2, 0), 1)]),
        MultiSeries(2, 4, [((0, 1), 2), ((1, 2), -1)]),
        MultiSeries.zero(2, 4),
    ]),
    [
        MultiSeries(3, 2, [((1, 0, 0), 1), ((0, 1, 1), 2)]),
        MultiSeries(3, 2, [((0, 0, 1), Fraction(1, 2)), ((2, 0, 0), -1)]),
    ],
    2,
)


class TestComposeAgainstSympy:
    """Substitution equals sympy's expansion truncated at the cap (test-only)."""

    @settings(max_examples=80, deadline=None)
    @given(compositions())
    @example(EVERY_CASE)
    def test_matches_truncated_substitution(self, case):
        sympy = pytest.importorskip("sympy")
        outer, inner, low = case
        xs = sympy.symbols(f"x0:{outer.nvars}")
        ys = sympy.symbols(f"y0:{inner[0].nvars}")
        trunc = min([outer.trunc] + [g.trunc for g in inner])
        images = dict(zip(xs, [as_sympy(sympy, ys, g) for g in inner]))
        expected = [
            sympy_terms(sympy, ys, as_sympy(sympy, xs, c).subs(images, simultaneous=True), trunc)
            for c in outer
        ]
        singles = [c.compose(inner) for c in outer]
        composed = outer.compose(inner)
        for comp, single, want in zip(composed, singles, expected):
            assert comp.trunc == single.trunc == trunc
            assert comp.nvars == single.nvars == inner[0].nvars
            assert dict(comp.terms()) == dict(single.terms()) == want
        # the kept table serves inner maps of one cap, square or not: the
        # layers from low up are those of the full substitution, and none
        # below low is formed
        capped = SeriesTuple([g.truncated(trunc) for g in inner])
        part = _PowerTable(len(inner)).compose(outer, capped, low)
        assert part == from_low(composed, low)
        assert all(c.trunc == trunc and c.nvars == inner[0].nvars for c in part)


class TestGaussNorm:
    def test_zero_series(self):
        assert gauss_norm(MultiSeries.zero(2, 4), Fraction(1), 2).value == 0

    def test_two_term_comparison_rho_one(self):
        phi = MultiSeries(2, 4, [((1, 0), Fraction(1)), ((0, 2), Fraction(2))])
        norm = gauss_norm(phi, Fraction(1), 2)
        assert norm.value == 1
        assert norm.witness == (1, 0)

    def test_two_term_comparison_rho_half(self):
        phi = MultiSeries(2, 4, [((1, 0), Fraction(1)), ((0, 2), Fraction(2))])
        norm = gauss_norm(phi, Fraction(1, 2), 2)
        assert norm.value == Fraction(1, 2)
        assert norm.witness == (1, 0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainError):
            gauss_norm(MultiSeries.zero(1, 2), Fraction(0), 3)

    def test_multiplicativity_randomized(self):
        # full products: degrees bounded so truncation cuts nothing
        rng = random.Random(21)
        for _ in range(100):
            p = rng.choice((2, 5))
            rho = Fraction(rng.randint(1, 4), rng.randint(1, 4))
            a = rand_series(rng, 2, 3).as_polynomial(6)
            b = rand_series(rng, 2, 3).as_polynomial(6)
            if a.is_zero() or b.is_zero():
                continue
            na = gauss_norm(a, rho, p)
            nb = gauss_norm(b, rho, p)
            nab = gauss_norm(a * b, rho, p)
            assert nab.value == na.value * nb.value

    def test_matches_termwise_maximum(self):
        # oracle: |a_I|_p rho^|I| for every term, graded-lex first among ties
        rng = random.Random(25)
        for _ in range(100):
            p = rng.choice((2, 3, 5))
            rho = Fraction(rng.randint(1, 4), rng.randint(1, 4))
            phi = rand_series(rng, 3, 5, terms=8)
            best = None
            for exps, c in phi.terms():
                value = fraction_abs(c, p) * rho ** sum(exps)
                if best is None or value > best[0]:
                    best = (value, exps, fraction_valuation(c, p), sum(exps))
            norm = gauss_norm(phi, rho, p)
            if best is None:
                assert (norm.value, norm.witness) == (0, None)
            else:
                assert (norm.value, norm.witness, norm.valuation, norm.degree) == best

    def test_matches_a_brute_force_reference_with_ties_randomized(self):
        # coefficients +-p^k u with few k and units u, so many terms of a
        # layer tie at its least valuation, and at rho = 1 layers tie too;
        # the reference scans every term in graded-lex order, keeping the
        # first of the greatest value
        rng = random.Random(26)
        ties = 0
        for _ in range(150):
            p = rng.choice((2, 3, 5))
            nvars, trunc = rng.randint(1, 4), rng.randint(1, 5)
            rho = rng.choice((Fraction(1), Fraction(1, p), Fraction(p), Fraction(2, 3)))
            units = (1, -1, p + 1, 1 - 2 * p)
            terms = [
                (exps, Fraction(rng.choice(units) * p ** rng.randint(0, 2), rng.choice((1, p))))
                for exps in graded_monomials(nvars, trunc)
                if rng.random() < 0.7
            ]
            phi = MultiSeries(nvars, trunc, terms)
            best = None
            for exps, c in sorted(phi.terms(), key=lambda t: (sum(t[0]), tuple(-e for e in t[0]))):
                value = fraction_abs(c, p) * rho ** sum(exps)
                if best is None or value > best[0]:
                    best = (value, fraction_valuation(c, p), sum(exps), exps)
            norm = gauss_norm(phi, rho, p)
            if best is None:
                assert (norm.value, norm.witness) == (0, None)
                continue
            assert (norm.value, norm.valuation, norm.degree, norm.witness) == best
            ties += sum(fraction_abs(c, p) * rho ** sum(e) == best[0] for e, c in phi.terms()) > 1
        assert ties > 50

    def test_ultrametric_randomized(self):
        rng = random.Random(23)
        for _ in range(100):
            p = rng.choice((2, 3, 5))
            a = rand_series(rng, 2, 5)
            b = rand_series(rng, 2, 5)
            bound = max(gauss_norm(a, 1, p).value, gauss_norm(b, 1, p).value)
            assert gauss_norm(a + b, 1, p).value <= bound


class TestSubspaceAr:
    def test_tail_quadratic_in(self):
        phi = MultiSeries(4, 4, [((0, 0, 1, 1), Fraction(1))])
        assert in_subspace_ar(phi, 2)

    def test_tail_linear_out(self):
        phi = MultiSeries(4, 4, [((1, 0, 1, 0), Fraction(1))])
        assert not in_subspace_ar(phi, 2)

    def test_r_zero_means_order_two(self):
        phi = MultiSeries(2, 4, [((2, 0), Fraction(1))])
        assert in_subspace_ar(phi, 0)
        assert not in_subspace_ar(MultiSeries.variable(0, 2, 4), 0)

    def test_ideal_property_randomized(self):
        rng = random.Random(27)
        for _ in range(60):
            n, r = 3, 1
            member = rand_series(rng, n, 6, zero_constant=True)
            member = MultiSeries(
                n, 6, [(e, c) for e, c in member.terms() if sum(e[r:]) >= 2]
            )
            other = rand_series(rng, n, 6)
            assert in_subspace_ar(member, r)
            assert in_subspace_ar(member * other, r)


class TestCalculusHelpers:
    def test_partial_derivative(self):
        phi = MultiSeries(2, 4, [((2, 1), Fraction(3))])
        assert phi.partial(0) == MultiSeries(2, 3, [((1, 1), Fraction(6))])

    def test_substitute_zero(self):
        phi = MultiSeries(2, 4, [((2, 0), Fraction(1)), ((1, 1), Fraction(4))])
        assert phi.substitute_zero([1]) == MultiSeries(2, 4, [((2, 0), Fraction(1))])
        # the dropped term leaves the layer over one reduced denominator
        half = MultiSeries(2, 4, [((1, 1), Fraction(1, 2)), ((2, 0), Fraction(4, 3))])
        assert half.substitute_zero([1]) == MultiSeries(2, 4, [((2, 0), Fraction(4, 3))])
        assert phi.substitute_zero([0, 1]).is_zero() and phi.substitute_zero([]) == phi
        for indices in ([2], [-1]):
            with pytest.raises(DomainError, match="out of range"):
                phi.substitute_zero(indices)

    def test_eval(self):
        phi = MultiSeries(2, 4, [((2, 0), Fraction(1)), ((0, 1), Fraction(1, 2))])
        assert phi.eval([Fraction(3), Fraction(4)]) == 11

    def test_negative_truncation_rejected(self):
        with pytest.raises(DomainError):
            univariate([1, 1], 5).truncated(-1)

    def test_inverse_series(self):
        phi = univariate([1, 1], 5)  # 1 + x
        inv = phi.inverse()
        assert (phi * inv) == MultiSeries.one(1, 5)

    def test_serialization_round_trip(self):
        rng = random.Random(31)
        phi = rand_series(rng, 3, 5)
        back = MultiSeries.from_records(phi.to_records(), 3, 5)
        assert back == phi

    def test_records_refuse_a_float_numerator(self):
        with pytest.raises(DomainError, match="got 1.5/1"):
            MultiSeries.from_records([{"exponents": [1], "numerator": 1.5, "denominator": 1}], 1, 3)

    def test_records_refuse_a_bool_denominator(self):
        with pytest.raises(DomainError, match="got 3/True"):
            MultiSeries.from_records([{"exponents": [1], "numerator": 3, "denominator": True}], 1, 3)

    def test_records_refuse_a_string_numerator(self):
        with pytest.raises(DomainError, match="got '7'/1"):
            MultiSeries.from_records([{"exponents": [1], "numerator": "7"}], 1, 3)

    def test_records_refuse_a_zero_denominator(self):
        with pytest.raises(DomainError, match="got 1/0"):
            MultiSeries.from_records([{"exponents": [1], "numerator": 1, "denominator": 0}], 1, 3)

    def test_compose_diagonal_matches_compose(self):
        rng = random.Random(33)
        lams = [Fraction(2), Fraction(-3, 2)]
        # one table shared by every call, grown as the calls read it
        table = _DiagonalPowers(lams)
        for _ in range(10):
            phi = rand_series(rng, 2, 5)
            tup = SeriesTuple([phi, rand_series(rng, 2, 5)])
            diag = SeriesTuple.diagonal(lams, 5)
            assert tup.compose_diagonal(lams) == tup.compose(diag)
            assert tup.compose_diagonal(table) == tup.compose(diag)


class TestDiagonalPowers:
    def test_power_is_the_product_of_factor_powers_randomized(self):
        rng = random.Random(1402)
        pool = [Fraction(x) for x in (0, 1, -1, 2, -3, 7)] + [Fraction(2, 9), Fraction(-5, 4)]
        for _ in range(40):
            n = rng.randint(1, 4)
            lams = [rng.choice(pool) for _ in range(n)]
            table = _DiagonalPowers(lams)
            pack, unpack = _packer(n), _unpacker(n)
            for _ in range(25):
                exps = tuple(rng.randint(0, 6) for _ in range(n))
                assert table.power(exps) == _product(lams, exps)
            # the parents built on the way are kept under their packed
            # keys, and right too, as reduced pairs; every entry but
            # lambda^0 records the parent it was built from, which is kept
            assert set(table.parents) == set(table.entries) - {0}
            for key, value in table.entries.items():
                exps = unpack(key)
                expected = _product(lams, exps)
                assert value == (expected.numerator, expected.denominator)
                if any(exps):
                    j = table.parents[key]
                    assert exps[j] >= 1 and key - table.units[j] in table.entries
                    assert pack(exps[:j] + (exps[j] - 1,) + exps[j + 1 :]) == key - table.units[j]

    def test_stands_in_for_the_factor_sequence(self):
        table = _DiagonalPowers([2, Fraction(1, 3)])
        assert len(table) == 2
        assert list(table) == [Fraction(2), Fraction(1, 3)]
        assert table[1] == Fraction(1, 3) and table[1:] == (Fraction(1, 3),)
        assert _DiagonalPowers.of(table) is table
        assert _DiagonalPowers.of([2, 3]).factors == (Fraction(2), Fraction(3))

    def test_zero_factor_drops_terms(self):
        tup = SeriesTuple([MultiSeries(2, 4, [((1, 0), 1), ((1, 1), 2), ((0, 2), 3)])])
        out = tup.compose_diagonal(_DiagonalPowers([5, 0]))
        assert dict(out[0].terms()) == {(1, 0): Fraction(5)}
        assert out[0].lowest_degree() == out[0].degree() == 1


def power_terms(entry):
    """A power table entry as {packed key: Fraction}: its unreduced layers
    read as rationals, zero numerators dropped."""
    return {key: Fraction(v, den) for den, nums in entry.values() for key, v in nums.items() if v}


class TestRecordedParents:
    """Both power tables read in random key orders, so that a missing power
    steps from a kept parent other than its last-variable one: every entry
    is still the exact power, and every composition is exact."""

    @staticmethod
    def other_parents(table):
        """The number of entries built from a parent other than the
        last-variable one."""
        unpack = table.unpack
        return sum(j != _parent(unpack(key))[0] for key, j in table.parents.items())

    def test_power_table_in_random_orders_randomized(self):
        rng = random.Random(3301)
        others = 0
        for nvars in (2, 3, 4):
            trunc = 6 if nvars < 4 else 5
            pack = _packer(nvars)
            monos = [pack(exps) for exps in graded_monomials(nvars, trunc) if sum(exps) >= 2]
            for _ in range(3):
                outer = SeriesTuple([rand_series(rng, nvars, trunc, terms=6) for _ in range(nvars)])
                target = SeriesTuple(
                    [rand_series(rng, nvars, trunc, terms=6, zero_constant=True) for _ in range(nvars)]
                )
                table = _PowerTable(nvars)
                for cap in range(1, trunc + 1):
                    # the inner map changes between takes
                    inner = TestPowerTable.grown(rng, target, cap)
                    table.take(inner)
                    for key in rng.sample(monos, len(monos) // 3):
                        table.power(key)
                    TestPowerTable.assert_parents_first(table)
                    # a fresh table read in graded order steps from the
                    # last-variable parents alone
                    fresh = _PowerTable(nvars)
                    fresh.take(inner)
                    for key in monos:
                        fresh.power(key)
                    assert self.other_parents(fresh) == 0
                    for key, entry in table.entries.items():
                        assert power_terms(entry) == power_terms(fresh.entries[key])
                    low = rng.randint(0, cap)
                    assert table.compose(outer, inner, low) == reference_compose(outer, inner, low)
                others += self.other_parents(table)
                assert table.compose(outer, target) == reference_compose(outer, target)
        assert others > 0

    def test_diagonal_powers_in_random_orders_randomized(self):
        rng = random.Random(3302)
        pool = [Fraction(x) for x in (1, -1, 2, -3, 7)] + [Fraction(2, 9), Fraction(-5, 4)]
        others = 0
        for _ in range(30):
            n = rng.randint(2, 4)
            trunc = 6 if n < 4 else 5
            lams = [rng.choice(pool) for _ in range(n)]
            table = _DiagonalPowers(lams)
            pack, unpack = _packer(n), _unpacker(n)
            monos = [pack(exps) for exps in graded_monomials(n, trunc)]
            for key in rng.sample(monos, len(monos) // 2):
                table.pair(key)
            for key, value in table.entries.items():
                expected = _product(lams, unpack(key))
                assert value == (expected.numerator, expected.denominator)
            others += self.other_parents(table)
            tup = SeriesTuple([rand_series(rng, n, trunc, terms=8) for _ in range(n)])
            assert tup.compose_diagonal(table) == tup.compose(SeriesTuple.diagonal(lams, trunc))
        assert others > 0


class TestPackedTables:
    """The packed lambda^I and inverse-divisor tables of _DiagonalPowers
    against a per-term Fraction reference, one table shared by calls of
    every fixed-locus dimension."""

    # negative, non-unit, sharing the primes 2 and 3, and -1 (resonant at
    # even degrees against an eigenvalue 1)
    POOL = [Fraction(x) for x in (-1, 2, -2, 4, -6, 9, 12)] + [Fraction(2, 3), Fraction(-3, 4), Fraction(8, 9)]

    @staticmethod
    def substituted(tup, lams):
        return SeriesTuple(
            [MultiSeries(c.nvars, c.trunc, [(e, a * _product(lams, e)) for e, a in c.terms()]) for c in tup]
        )

    @staticmethod
    def divided(g, lams, r):
        """(monomial, component) of the first resonance in graded-lex scan
        order, or the solution, one Fraction divisor per term."""
        out = []
        for j, comp in enumerate(g):
            terms = []
            for e, a in comp.terms():
                divisor = _product(lams, (0,) * r + e[r:]) - lams[j]
                if not divisor:
                    return e, j
                terms.append((e, a / divisor))
            out.append(MultiSeries(comp.nvars, comp.trunc, terms))
        return SeriesTuple(out)

    @staticmethod
    def solved(g, lams, r):
        try:
            return solve_homological(g, lams, r)
        except ResonantMonomialError as err:
            return err.monomial, err.component

    @staticmethod
    def homological_data(rng, n, r, trunc=6):
        """Random components of transverse degree >= 2 for every r' <= r."""
        comps = []
        for _ in range(n):
            terms = []
            for _ in range(rng.randint(0, 7)):
                exps = tuple(rng.randint(0, 3) for _ in range(n))
                if sum(exps[r:]) >= 2 and sum(exps) <= trunc:
                    terms.append((exps, Fraction(rng.randint(-9, 9), rng.randint(1, 6))))
            comps.append(MultiSeries(n, trunc, terms))
        return SeriesTuple(comps)

    def assert_reduced(self, table):
        for a, b in table.entries.values():
            assert b > 0 and math.gcd(a, b) == 1
        for divisors in table.divisors.values():
            for a, b in divisors.values():
                assert a and b > 0 and math.gcd(a, b) == 1

    def test_solve_and_substitution_match_the_reference_randomized(self):
        rng = random.Random(3001)
        resonant = 0
        for trial in range(60):
            # eigenvalue 1 on a locus of up to two variables
            n = rng.randint(2, 4)
            lams = [Fraction(1)] * 2 + [rng.choice(self.POOL) for _ in range(n - 2)]
            lams = lams[:n]
            top = min(2, n - 1)
            g = self.homological_data(rng, n, top)
            tup = SeriesTuple([rand_series(rng, n, 6) for _ in range(n)])
            order = list(range(top + 1))
            # one table read by calls of every r, in both orders
            table = _DiagonalPowers(lams)
            for r in order if trial % 2 else order[::-1]:
                expected = self.divided(g, lams, r)
                resonant += isinstance(expected, tuple)
                assert self.solved(g, table, r) == expected
                assert self.solved(g, _DiagonalPowers(lams), r) == expected
                assert tup.compose_diagonal(table) == self.substituted(tup, lams)
            self.assert_reduced(table)
        assert resonant >= 10

    def test_a_resonance_is_named_alike_by_a_fresh_and_a_warm_table(self):
        # lambda = (1, -1, 2): x1^2 is resonant in component 0 (r = 1), and
        # x0 x1^2 shares its transverse key
        lams = [Fraction(1), Fraction(-1), Fraction(2)]
        g = SeriesTuple(
            [
                MultiSeries(3, 5, [((0, 1, 2), 3), ((1, 2, 0), Fraction(1, 2)), ((0, 2, 0), 5)]),
                MultiSeries(3, 5, [((0, 0, 2), 1)]),
                MultiSeries.zero(3, 5),
            ]
        )
        expected = ((0, 2, 0), 0)
        assert self.divided(g, lams, 1) == expected
        assert self.solved(g, _DiagonalPowers(lams), 1) == expected
        warm = _DiagonalPowers(lams)
        assert self.solved(g, warm, 1) == expected
        # the other keys of g read, the resonant one tried before
        others = SeriesTuple([MultiSeries(3, 5, [((0, 1, 2), 3)]), g[1], g[2]])
        assert self.solved(others, warm, 1) == self.divided(others, lams, 1)
        assert self.solved(g, warm, 1) == expected
        self.assert_reduced(warm)
        # a zero divisor is never kept: x1^2 has the key 2 << 16
        assert (2 << 16) not in warm.divisors[0]
        assert warm.divisors[0] and warm.divisors[1]

    def test_one_entry_serves_every_locus_dimension(self):
        table = _DiagonalPowers([1, 1, Fraction(-3, 2)])
        g = SeriesTuple([MultiSeries(3, 4, [((0, 0, 2), 1)]), MultiSeries.zero(3, 4), MultiSeries.zero(3, 4)])
        for r in (0, 1, 2):
            assert solve_homological(g, table, r)[0].coefficient((0, 0, 2)) == 1 / (Fraction(9, 4) - 1)
        assert table.divisors[0] == {2 << 32: (4, 5)}


def count_fractions(monkeypatch):
    """The argument tuples of every Fraction.__new__ call from now until
    monkeypatch.undo()."""
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return made


class TestIntegerTable:
    """lambda^I kept as reduced integer pairs under packed keys, read by the
    substitutions, the solves and the resonance search, against Fraction
    references, for random rational eigenvalues: negative, 1/2, -1/4, and
    ones on a fixed locus of dimension 0, 1 or 2."""

    POOL = [Fraction(x) for x in (-1, 2, -2, 3, -4)] + [Fraction(1, 2), Fraction(-1, 4), Fraction(-3, 2)]

    def draw(self, rng):
        r = rng.randint(0, 2)
        return [Fraction(1)] * r + [rng.choice(self.POOL) for _ in range(rng.randint(1, 3))], r

    def test_every_entry_and_divisor_is_the_fraction_reference_randomized(self):
        rng = random.Random(3201)
        entries = divisors = 0
        for _ in range(40):
            lams, r = self.draw(rng)
            n = len(lams)
            table = _DiagonalPowers(lams)
            for locus in range(r + 1):
                TestPackedTables.solved(TestPackedTables.homological_data(rng, n, locus), table, locus)
            SeriesTuple([rand_series(rng, n, 6) for _ in range(n)]).compose_diagonal(table)
            enumerate_resonances(table, r, 5)
            unpack = _unpacker(n)
            for key, pair in table.entries.items():
                value = _product(lams, unpack(key))
                assert pair == (value.numerator, value.denominator)
            for j, kept in table.divisors.items():
                for key, pair in kept.items():
                    inverse = 1 / (_product(lams, unpack(key)) - lams[j])
                    assert pair == (inverse.numerator, inverse.denominator)
            entries += len(table.entries)
            divisors += sum(map(len, table.divisors.values()))
        assert entries >= 1000 and divisors >= 200, (entries, divisors)

    def test_resonances_match_brute_force_on_a_fresh_and_a_warm_table_randomized(self):
        rng = random.Random(3202)
        found = 0
        for _ in range(40):
            lams, r = self.draw(rng)
            degree = rng.randint(1, 6)
            expected = brute_force_resonances(lams, r, degree)
            found += len(expected)
            assert enumerate_resonances(lams, r, degree) == expected
            warm = _DiagonalPowers(lams)
            SeriesTuple([rand_series(rng, len(lams), 6) for _ in lams]).compose_diagonal(warm)
            assert enumerate_resonances(warm, r, degree) == expected
            assert enumerate_resonances(warm, r, degree) == expected
        assert found >= 20

    def test_a_resonant_solve_names_one_monomial_on_a_fresh_and_a_warm_table_randomized(self):
        rng = random.Random(3203)
        resonant = 0
        for _ in range(240):
            lams, r = self.draw(rng)
            n = len(lams)
            g = TestPackedTables.homological_data(rng, n, r)
            expected = TestPackedTables.divided(g, lams, r)
            if not isinstance(expected, tuple):
                continue
            resonant += 1
            assert TestPackedTables.solved(g, _DiagonalPowers(lams), r) == expected
            # warmed by the other reads of a run: substitutions, the
            # resonance search and solves of other data
            warm = _DiagonalPowers(lams)
            SeriesTuple([rand_series(rng, n, 6) for _ in lams]).compose_diagonal(warm)
            enumerate_resonances(warm, r, 6)
            TestPackedTables.solved(TestPackedTables.homological_data(rng, n, r), warm, r)
            assert TestPackedTables.solved(g, warm, r) == expected
            assert TestPackedTables.solved(g, warm, r) == expected
        assert resonant >= 15

    def test_a_cold_table_builds_no_fraction(self, monkeypatch):
        # the one resonance: lambda_1^2 = lambda_2
        lams, r = [Fraction(1), Fraction(-1, 2), Fraction(1, 4), Fraction(5)], 1
        rng = random.Random(3204)
        g = SeriesTuple(
            [
                MultiSeries(4, 8, [(e, c) for e, c in comp.terms() if (j, e[1:]) != (2, (2, 0, 0))])
                for j, comp in enumerate(TestPackedTables.homological_data(rng, 4, r, trunc=8))
            ]
        )
        tup = SeriesTuple([rand_series(rng, 4, 8, terms=12) for _ in lams])
        expected = (TestPackedTables.divided(g, lams, r), TestPackedTables.substituted(tup, lams))
        table = _DiagonalPowers(lams)
        made = count_fractions(monkeypatch)
        got = (solve_homological(g, table, r), tup.compose_diagonal(table))
        resonances = enumerate_resonances(table, r, 8)
        built = list(made)
        Fraction(1, 3)
        monkeypatch.undo()
        assert built == [] and made == [(1, 3)]
        assert got == expected
        assert resonances == brute_force_resonances(lams, r, 8) == [Resonance((2, 0, 0), 2)]
        assert len(table.entries) > 100


class TestGradedMonomials:
    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_matches_a_sorted_brute_force(self, nvars):
        for degree in range(-1, 7):
            expected = sorted(
                (e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) <= degree),
                key=lambda e: (sum(e), [-x for x in e]),
            )
            assert graded_monomials(nvars, degree) == expected

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_every_prefix_parent_comes_first(self, nvars):
        # relation_probe builds each row entry from the one of its parent
        monos = graded_monomials(nvars, 6)
        position = {mono: i for i, mono in enumerate(monos)}
        for i, mono in enumerate(monos[1:], 1):
            assert position[_parent(mono)[1]] < i


def _product(lams, exps):
    value = Fraction(1)
    for lam, e in zip(lams, exps):
        value *= lam**e
    return value
