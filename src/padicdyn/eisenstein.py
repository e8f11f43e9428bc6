"""Coefficient recursion for algebraic power series and denominator analysis.

Given a squarefree polynomial relation F(x_1..x_n, X) = 0 and a seed
truncation of a power-series root, the graded induction

    phi_(d) = - F(phi_d)_(d+s) / F'(phi_{s+1})_(s)

produces the root degree by degree, where s is the vanishing order of
F'(phi) at the seed.  The division of homogeneous forms is performed by
long division in a rank-n monomial valuation (later variables infinitely
heavier), pivoting on the valuation-minimal monomial of the divisor, so
every coefficient lands in the ring generated by the inputs and the pivot
inverse.  The layers stay in the packed integer form of series: the
division (series._pivot_quotient) reads each lead as the least packed
key, which is the valuation order, and builds no Fraction.  A
non-dividing pivot step means the seed was not a root or the vanishing
order was wrong, and raises DivisionFailureError.

When F' is a unit at the seed (s = 0), plain quadratic Hensel lifting is
used instead.

XPolynomial.evaluate sums a_k phi^k over powers built by squaring, and
with a lower bound low forms only the layers from low up; each a_k is
packed once per relation, and every read takes it truncated.  Both routes
compute only what each step reads.  The pivot induction needs one layer of
F(phi) per degree, and does not evaluate F for it: series._graded_root
keeps phi^j for 2 <= j < m, m the X-degree, grows each by every new layer
of phi, and forms layer d + s of sum_k a_k phi^k alone, the top power
there only, from phi^(m-1) phi.  So the induction is quadratic in the
degree in one variable at every X-degree.  A Hensel step reads F(phi) only
above the previous degree, and F'(phi) only through the new degree minus
the order of F(phi), and divides the one by the other in a single
degree-by-degree solve on packed layers (series._series_solve), which
builds no series per degree.  The dropped terms never reach a kept
coefficient, and a truncated quotient is unique, so the outputs are those
of full evaluations; the final check of F(phi) through degree + s still
evaluates F over the whole series.

Denominator support reports the primes dividing any coefficient
denominator, certifying that the series lives in Z[1/N][[x]] up to the
computed degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import _as_rational, _is_int, prime_support
from .errors import DivisionFailureError, DomainError
from .series import MultiSeries, SeriesTuple, _graded_root, _mul, _series_solve

Exponents = tuple[int, ...]


class XPolynomial:
    """A polynomial in x_1..x_n and a distinguished variable X.

    Stored as a map X-power -> polynomial coefficient in the x variables.
    Each coefficient is also kept as a series (coefficient_series), packed
    on first read, not here.
    """

    __slots__ = ("nvars", "coeffs", "_series")

    def __init__(self, nvars: int, coeffs: dict[int, dict[Exponents, Fraction]]) -> None:
        self.nvars = nvars
        cleaned: dict[int, dict[Exponents, Fraction]] = {}
        for k, poly in coeffs.items():
            if not _is_int(k) or k < 0:
                raise DomainError(f"bad X-power {k!r}")
            entries = {tuple(e): _as_rational(c) for e, c in poly.items()}
            # every key is checked, a zero coefficient's too, before zeros are dropped
            for e in entries:
                if len(e) != nvars or not all(_is_int(x) and x >= 0 for x in e):
                    raise DomainError(f"bad exponent tuple {e}")
            entries = {e: c for e, c in entries.items() if c}
            if entries:
                cleaned[k] = entries
        if not cleaned:
            raise DomainError("zero polynomial")
        self.coeffs = cleaned
        self._series: dict[int, MultiSeries] = {}

    @classmethod
    def from_terms(cls, nvars: int, terms: Sequence[tuple[Exponents, int, Fraction]]) -> "XPolynomial":
        """Terms given as (x-exponents, X-power, coefficient)."""
        coeffs: dict[int, dict[Exponents, Fraction]] = {}
        for exps, xpow, c in terms:
            poly = coeffs.setdefault(xpow, {})
            key = tuple(exps)
            poly[key] = poly.get(key, Fraction(0)) + _as_rational(c)
        return cls(nvars, coeffs)

    @property
    def x_degree(self) -> int:
        return max(self.coeffs)

    def derivative_in_x_big(self) -> "XPolynomial":
        out: dict[int, dict[Exponents, Fraction]] = {}
        for k, poly in self.coeffs.items():
            if k == 0:
                continue
            out[k - 1] = {e: c * k for e, c in poly.items()}
        if not out:
            raise DomainError("derivative in X vanishes identically")
        return XPolynomial(self.nvars, out)

    def coefficient_series(self, k: int, trunc: int) -> MultiSeries:
        """a_k as a series truncated at trunc.

        a_k is packed once, at the first cap read, and again at a higher cap
        only while some of its terms lie above the kept one; every read
        truncates the kept series or reads it as a polynomial, sharing its
        layers.
        """
        poly = self.coeffs.get(k)
        if poly is None:
            return MultiSeries.zero(self.nvars, trunc)
        kept = self._series.get(k)
        if kept is None or (kept.trunc < trunc and kept.term_count() < len(poly)):
            kept = self._series[k] = MultiSeries(self.nvars, trunc, poly.items())
        return kept.truncated(trunc) if trunc <= kept.trunc else kept.as_polynomial(trunc)

    def evaluate(self, phi: MultiSeries, trunc: int, low: int = 0) -> MultiSeries:
        """F(x, phi(x)) = sum_k a_k phi^k truncated at the given degree.

        The powers are built as phi^k = phi^(k//2) phi^(k - k//2), so every
        even power, phi^2 first, is a square.  With low > 0 only the layers
        of degree >= low are formed, and the layers below low are absent
        from the result, a_0's included: each a_k phi^k is formed from low
        up, and the top power phi^m, read by a_m phi^m alone, from
        low - deg(a_m) up.  Callers read the kept layers with .layer().
        Unbounded products go through MultiSeries.__mul__, where
        perfbench/tracer.py counts series products.
        """
        if phi.nvars != self.nvars:
            raise DomainError("variable count mismatch")
        work = phi.truncated(trunc) if phi.trunc >= trunc else phi.as_polynomial(trunc)

        def product(a: MultiSeries, b: MultiSeries, floor: int) -> MultiSeries:
            return _mul(a, b, trunc, floor) if floor else a * b

        coeffs = {k: self.coefficient_series(k, trunc) for k in sorted(self.coeffs)}
        coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}
        needed, pending = set(), [k for k in coeffs if k > 1]
        while pending:
            k = pending.pop()
            if k > 1 and k not in needed:
                needed.add(k)
                pending += [k // 2, k - k // 2]
        top = max(coeffs, default=0)
        powers = {0: MultiSeries.one(self.nvars, trunc), 1: work}
        for k in sorted(needed):
            floor = max(low - coeffs[top].degree(), 0) if k == top else 0
            powers[k] = product(powers[k // 2], powers[k - k // 2], floor)
        total = MultiSeries.zero(self.nvars, trunc)
        for k, coeff in coeffs.items():
            total = total + product(coeff, powers[k], low)
        return total


@dataclass(frozen=True)
class AlgebraicSeriesSpec:
    """A validated root problem: relation, seed, vanishing order, pivot."""

    relation: XPolynomial
    seed: MultiSeries
    vanishing_order: int
    pivot_monomial: Exponents
    pivot_coefficient: Fraction

    @classmethod
    def build(cls, relation: XPolynomial, seed: MultiSeries) -> "AlgebraicSeriesSpec":
        s = detect_vanishing_order(relation, seed)
        seed_degree = seed.trunc
        if seed_degree < s:
            raise DomainError(
                f"seed of degree {seed_degree} too short for vanishing order {s}"
            )
        # a genuine root truncation phi_d makes F(seed) vanish through d + s
        value = relation.evaluate(seed, seed_degree + s)
        if not value.is_zero():
            raise DomainError(
                "seed is not a root to the required order "
                f"(failure at degree {value.lowest_degree()})"
            )
        pivot_form = _pivot_form(relation, seed, s).layer(s)
        pivot_mono = min(pivot_form, key=_valuation_key)
        return cls(
            relation=relation,
            seed=seed,
            vanishing_order=s,
            pivot_monomial=pivot_mono,
            pivot_coefficient=pivot_form[pivot_mono],
        )


def detect_vanishing_order(relation: XPolynomial, seed: MultiSeries) -> int:
    """Order s of F'(phi) at the seed, read from the available degrees."""
    derivative = relation.derivative_in_x_big()
    value = derivative.evaluate(seed, seed.trunc)
    low = value.lowest_degree()
    if low is None:
        raise DomainError(
            "derivative vanishes at the seed to the full available degree "
            "(seed too short, or the relation has no simple power-series root)"
        )
    return low


def _pivot_form(relation: XPolynomial, seed: MultiSeries, s: int) -> MultiSeries:
    """Homogeneous degree-s part of F'(phi_{s+1}): the division pivot form."""
    return relation.derivative_in_x_big().evaluate(seed, s, low=s)


def _valuation_key(exps: Exponents) -> tuple[int, ...]:
    """Rank-n valuation: the last variable dominates, then the one before,
    ...; the order of the packed keys of series."""
    return tuple(reversed(exps))


def coefficients_up_to(spec: AlgebraicSeriesSpec, degree: int) -> MultiSeries:
    """The root series through the given total degree: by Hensel lifting
    when the derivative is a unit at the seed (s = 0), and by the graded
    pivot induction otherwise.
    """
    if degree < 0:
        raise DomainError(f"degree must be non-negative, got {degree}")
    if degree < spec.seed.trunc:
        return spec.seed.truncated(degree)
    phi = _hensel(spec, degree) if spec.vanishing_order == 0 else _pivot_induction(spec, degree)
    check = spec.relation.evaluate(phi, degree + spec.vanishing_order)
    if not check.is_zero():
        raise DivisionFailureError(
            "computed series fails the defining relation; seed or order invalid"
        )
    return phi


def _hensel(spec: AlgebraicSeriesSpec, degree: int) -> MultiSeries:
    """Quadratic lifting phi <- phi - F(phi) / F'(phi), doubling the contact order.

    A step from a root through degree prev to one through known reads
    F(phi) only above prev: its layers through prev vanish by construction,
    so it is evaluated with low = prev + 1, and the final check in
    coefficients_up_to still covers them.  q = F(phi) / F'(phi) is the 1 x 1
    solve F'(phi) q = F(phi) at cap known, on packed layers (_series_solve).
    q has no layer below ord F(phi), so layer d of F'(phi) q reads the slope
    only through d - ord F(phi) <= known - ord F(phi): the slope is
    evaluated at that cap and read as a polynomial, which is exact.
    """
    derivative = spec.relation.derivative_in_x_big()
    known = spec.seed.trunc
    phi = spec.seed
    while known < degree:
        prev, known = known, min(2 * known + 1, degree)
        work = phi.as_polynomial(known)
        value = spec.relation.evaluate(work, known, low=prev + 1)
        order = value.lowest_degree()
        if order is None:
            phi = work
            continue
        slope = derivative.evaluate(work, known - order).as_polynomial(known)
        phi = work - _series_solve([[slope]], SeriesTuple([value]))[0]
    return phi.truncated(degree)


def _pivot_induction(spec: AlgebraicSeriesSpec, degree: int) -> MultiSeries:
    """Graded induction phi_(d) = -F(phi_d)_(d+s) / F'(phi_{s+1})_(s).

    series._graded_root runs it on the relation's coefficients, each
    packed once and read at cap degree + s: per degree it forms layer d + s
    of F(x, phi) alone, from powers of phi kept and grown by each new
    layer, and series._pivot_quotient divides that layer by the pivot form
    in integers.  A step builds no series from terms and no Fraction.
    """
    s = spec.vanishing_order
    relation = spec.relation
    coeffs = [relation.coefficient_series(k, degree + s) for k in range(relation.x_degree + 1)]
    return _graded_root(coeffs, spec.seed, _pivot_form(relation, spec.seed, s), degree)


@dataclass(frozen=True)
class DenominatorSupport:
    primes: frozenset[int]
    squarefree_product: int


def denominator_support(phi: MultiSeries | SeriesTuple) -> DenominatorSupport:
    """Primes dividing any coefficient denominator, and their squarefree product."""
    comps = phi.components if isinstance(phi, SeriesTuple) else (phi,)
    primes = prime_support(q for comp in comps for q in comp.denominators())
    product = 1
    for p in sorted(primes):
        product *= p
    return DenominatorSupport(primes=primes, squarefree_product=product)
