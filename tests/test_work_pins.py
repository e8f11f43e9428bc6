"""Work pins: exact counts of the work a route does, beside the timed claims.

A count of term pairs is exact and takes seconds, where a timing needs many
alternating runs to show a change.  Each pin counts, through a test-local
wrapper, the term pairs that the product kernels series._convolve and
series._square visit.  Pair counts are not time: coefficient size drives
cost too.
"""

import pytest

from padicdyn import series
from padicdyn.eisenstein import coefficients_up_to

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
