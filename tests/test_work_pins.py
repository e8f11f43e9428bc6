"""Work pins: exact counts of the work a route does, beside the timed claims.

A count of term pairs is exact and takes seconds, where a timing needs many
alternating runs to show a change.  Each pin counts, through a test-local
wrapper, the term pairs that the product kernels series._convolve and
series._square visit; the series solve's pin also counts the series it
binds (MultiSeries._raw), and the composition pins the power steps of the
power table (_PowerTable._step).  Pair counts are not time: coefficient
size drives cost too.
"""

import pytest

from padicdyn import linearize, series
from padicdyn.eisenstein import coefficients_up_to
from padicdyn.linearize import linearize_order_by_order

from test_acceptance import fixture_suite
from test_eisenstein import kth_power_root


def counted_products(monkeypatch):
    """Count in the returned list the term pairs of every _convolve and
    _square call: the pairs whose degrees add up to low..trunc, a square's
    unordered."""
    visited = [0]
    convolve, square = series._convolve, series._square

    def counted_convolve(a, b, trunc, low=0):
        visited[0] += sum(
            len(terms_a) * len(terms_b)
            for da, (_, terms_a) in a.items()
            for db, (_, terms_b) in b.items()
            if low <= da + db <= trunc
        )
        return convolve(a, b, trunc, low)

    def counted_square(a, trunc, low=0):
        visited[0] += sum(
            len(terms_a) * len(terms_b) if da < db else len(terms_a) * (len(terms_a) + 1) // 2
            for da, (_, terms_a) in a.items()
            for db, (_, terms_b) in a.items()
            if da <= db and low <= da + db <= trunc
        )
        return square(a, trunc, low)

    monkeypatch.setattr(series, "_convolve", counted_convolve)
    monkeypatch.setattr(series, "_square", counted_square)
    return visited


def counted_steps(monkeypatch):
    """Count in the returned list the powers the power tables build, one
    _PowerTable._step each."""
    steps = [0]
    step = series._PowerTable._step

    def counted_step(self, j, parent):
        steps[0] += 1
        return step(self, j, parent)

    monkeypatch.setattr(series._PowerTable, "_step", counted_step)
    return steps


def counted_series(monkeypatch):
    """Count in the returned list the series bound by MultiSeries._raw."""
    built = [0]
    raw = series.MultiSeries._raw.__func__

    def counted_raw(cls, nvars, trunc, packed):
        built[0] += 1
        return raw(cls, nvars, trunc, packed)

    monkeypatch.setattr(series.MultiSeries, "_raw", classmethod(counted_raw))
    return built


class TestPivotInductionWork:
    """The pivot induction keeps phi^j for 2 <= j < m and grows them by each
    new layer, so a root of X-degree m costs about one product with a layer
    per kept power and degree: quadratic in the degree in one variable.  An
    evaluation of F per degree forms those powers in full, and is cubic."""

    def test_the_cubic_root_is_quadratic_in_the_degree(self, monkeypatch):
        # (X - x)^3 = x^9 (1 + x), s = 6, from a built spec to the final
        # check included: 4 259 and 16 034 pairs, where one evaluation of F
        # per degree visited 16 235 and 106 860 (ratio 6.6)
        visited = counted_products(monkeypatch)
        pairs = {}
        for degree in (50, 100):
            spec = kth_power_root(3)
            visited[0] = 0
            coefficients_up_to(spec, degree)
            pairs[degree] = visited[0]
        assert pairs[50] <= 4_259 and pairs[100] <= 16_034
        assert pairs[100] < 5 * pairs[50]

    @pytest.mark.parametrize("k", [2, 4])
    def test_doubling_the_degree_multiplies_the_pairs_by_under_five(self, monkeypatch, k):
        visited = counted_products(monkeypatch)
        pairs = []
        for degree in (40, 80):
            spec = kth_power_root(k)
            visited[0] = 0
            coefficients_up_to(spec, degree)
            pairs.append(visited[0])
        assert pairs[1] < 5 * pairs[0]


class TestSeriesSolveWork:
    """The series solve runs on layer maps and binds x as series only at
    the end, so the series it builds do not grow with the degree.  Layer d
    of (mat - C) x pairs each non-constant layer of mat with the layer of x
    that completes degree d, as a solve in series arithmetic did."""

    def test_no_series_is_built_per_degree(self, monkeypatch):
        # 1 / (1 + x + x^2) = (1 - x) / (1 - x^3): 2 series at both degrees,
        # where a series per step and degree built 373 and 1 473
        built = counted_series(monkeypatch)
        visited = counted_products(monkeypatch)
        counts, pairs = {}, {}
        for degree in (50, 200):
            unit = series.MultiSeries(1, degree, [((0,), 1), ((1,), 1), ((2,), 1)])
            built[0] = visited[0] = 0
            inverse = unit.inverse()
            counts[degree], pairs[degree] = built[0], visited[0]
            assert dict(inverse.terms()) == {(k,): (1, -1, 0)[k % 3] for k in range(degree + 1) if k % 3 < 2}
        assert counts[50] == counts[200]
        assert pairs == {50: 67, 200: 267}


class TestCompositionWork:
    """Every substitution builds its powers in one power table.  A one-shot
    SeriesTuple.compose steps each power from a kept parent, the largest j
    where there is one, and releases the powers below each degree; the
    stream of h^(-1) keeps two degrees of them."""

    def test_h_after_its_inverse(self, monkeypatch):
        # seed-0 independent-3d at degree 12: 351 steps and 56 265 pairs,
        # where the prefix-closure walk took 429 steps and 62 587 pairs
        f = fixture_suite(12)["independent-3d"]
        result = linearize_order_by_order(f, 12)
        steps, visited = counted_steps(monkeypatch), counted_products(monkeypatch)
        composed = result.h.compose(result.h_inverse)
        assert composed == series.SeriesTuple.identity(3, 12)
        assert steps[0] <= 351 and visited[0] <= 56_265

    def test_the_inverse_stream_keeps_two_degrees(self, monkeypatch):
        # seed-0 independent-3d h^(-1) at degree 16: 608 steps and 29 721
        # pairs, the counts of a stream that kept every power it built
        f = fixture_suite(16)["independent-3d"]
        result = linearize_order_by_order(f, 16)
        kept_degrees = []

        class Recording(series._LayerStream):
            def add(self, layer):
                super().add(layer)
                unpack = self.table.unpack
                kept_degrees.append({sum(unpack(key)) for key in self.table.entries} - {0, 1})

        monkeypatch.setattr(linearize, "_LayerStream", Recording)
        steps, visited = counted_steps(monkeypatch), counted_products(monkeypatch)
        k = linearize._conjugacy_inverse(result.h, f.components, result.eigenvalues, f.fixed_locus_dim)
        assert k == result.h_inverse
        assert steps[0] <= 608 and visited[0] <= 29_721
        assert kept_degrees and max(map(len, kept_degrees)) <= 2
