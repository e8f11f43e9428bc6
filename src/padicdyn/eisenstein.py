"""Coefficient recursion for algebraic power series and denominator analysis.

Given a squarefree polynomial relation F(x_1..x_n, X) = 0 and a seed
truncation of a power-series root, the graded induction

    phi_(d) = - F(phi_d)_(d+s) / F'(phi_{s+1})_(s)

produces the root degree by degree, where s is the vanishing order of
F'(phi) at the seed.  The division of homogeneous forms is performed by
long division in a rank-n monomial valuation (later variables infinitely
heavier), pivoting on the valuation-minimal monomial of the divisor, so
every coefficient lands in the ring generated by the inputs and the pivot
inverse.  A non-dividing pivot step means the seed was not a root or the
vanishing order was wrong, and raises DivisionFailureError.

When F' is a unit at the seed (s = 0), plain quadratic Hensel lifting is
used instead.

XPolynomial.evaluate sums a_k phi^k over powers built by squaring, and with
a lower bound low forms only the layers from low up.  Both routes compute
only what each step reads.  The pivot induction needs one layer of F(phi)
per degree, so it evaluates with low equal to that degree, and phi grows
by one layer per degree without copying.  A Hensel step reads F(phi) only
above the previous degree, and 1/F'(phi) only through the new degree minus
the order of F(phi); the slope inverse continues the previous step's
Newton doubling.  The dropped terms never reach a kept coefficient, and a
truncated inverse is unique, so the outputs are those of full evaluations;
the final check of F(phi) through degree + s still runs over the whole
series.

Denominator support reports the primes dividing any coefficient
denominator, certifying that the series lives in Z[1/N][[x]] up to the
computed degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import prime_support
from .errors import DivisionFailureError, DomainError
from .series import MultiSeries, SeriesTuple, _as_coeff, _inverse_from, _is_int, _mul

Exponents = tuple[int, ...]


class XPolynomial:
    """A polynomial in x_1..x_n and a distinguished variable X.

    Stored as a map X-power -> polynomial coefficient in the x variables.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: dict[int, dict[Exponents, Fraction]]) -> None:
        self.nvars = nvars
        cleaned: dict[int, dict[Exponents, Fraction]] = {}
        for k, poly in coeffs.items():
            if not _is_int(k) or k < 0:
                raise DomainError(f"bad X-power {k!r}")
            entries = {tuple(e): _as_coeff(c) for e, c in poly.items()}
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

    @classmethod
    def from_terms(cls, nvars: int, terms: Sequence[tuple[Exponents, int, Fraction]]) -> "XPolynomial":
        """Terms given as (x-exponents, X-power, coefficient)."""
        coeffs: dict[int, dict[Exponents, Fraction]] = {}
        for exps, xpow, c in terms:
            poly = coeffs.setdefault(xpow, {})
            key = tuple(exps)
            poly[key] = poly.get(key, Fraction(0)) + _as_coeff(c)
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
        poly = self.coeffs.get(k, {})
        return MultiSeries(self.nvars, trunc, poly.items())

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
        pivot_form = _derivative_layer(relation, seed, s)
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


def _derivative_layer(relation: XPolynomial, seed: MultiSeries, s: int) -> dict[Exponents, Fraction]:
    """Homogeneous degree-s part of F'(phi_{s+1}): the division pivot form."""
    return relation.derivative_in_x_big().evaluate(seed, s, low=s).layer(s)


def _valuation_key(exps: Exponents) -> tuple[int, ...]:
    """Rank-n valuation: the last variable dominates, then the one before, ..."""
    return tuple(reversed(exps))


def _divide_forms(
    numerator: dict[Exponents, Fraction],
    divisor: dict[Exponents, Fraction],
    pivot: Exponents,
) -> dict[Exponents, Fraction]:
    """Exact division of homogeneous forms by valuation-ordered long division."""
    pivot_coeff = divisor[pivot]
    remainder = dict(numerator)
    quotient: dict[Exponents, Fraction] = {}
    while remainder:
        lead = min(remainder, key=_valuation_key)
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
    coefficients_up_to still covers them.  The step reads the slope inverse
    only through known - ord F(phi), since the product F(phi) / F'(phi) is
    kept through known alone; the slope is evaluated at that cap.  Its
    inverse continues the previous step's by Newton doubling: the previous
    slope agrees with this one through the previous cap, and a truncated
    inverse is unique, so one doubling pass per step gives the same series
    as a fresh inverse (Brent and Kung, J. ACM 25, 1978).
    """
    derivative = spec.relation.derivative_in_x_big()
    known = spec.seed.trunc
    phi = spec.seed
    inverse = None
    while known < degree:
        prev, known = known, min(2 * known + 1, degree)
        work = phi.as_polynomial(known)
        value = spec.relation.evaluate(work, known, low=prev + 1)
        order = value.lowest_degree()
        if order is None:
            phi = work
            continue
        slope = derivative.evaluate(work, known - order)
        inverse = slope.inverse() if inverse is None else _inverse_from(slope, inverse)
        phi = work - value * inverse.as_polynomial(known)
    return phi.truncated(degree)


def _pivot_induction(spec: AlgebraicSeriesSpec, degree: int) -> MultiSeries:
    """Graded induction phi_(d) = -F(phi_d)_(d+s) / F'(phi_{s+1})_(s).

    Each degree reads one layer of F(x, phi): XPolynomial.evaluate with
    low = d + s forms layer d + s alone, the same as in a full evaluation,
    so a step costs about one layer of each product instead of the whole
    series.  phi grows by its new layer without copying (MultiSeries._grown):
    the old layer entries are shared, so each step packs its new layer
    alone.
    """
    s = spec.vanishing_order
    divisor = _derivative_layer(spec.relation, spec.seed, s)
    phi = spec.seed
    for d in range(spec.seed.trunc + 1, degree + 1):
        numerator = spec.relation.evaluate(phi, d + s, low=d + s).layer(d + s)
        layer = _divide_forms(numerator, divisor, spec.pivot_monomial)
        phi = phi._grown(-MultiSeries(phi.nvars, d, layer.items()))
    return phi


@dataclass(frozen=True)
class DenominatorSupport:
    primes: frozenset[int]
    squarefree_product: int


def denominator_support(phi: MultiSeries | SeriesTuple) -> DenominatorSupport:
    """Primes dividing any coefficient denominator, and their squarefree product."""
    comps = phi.components if isinstance(phi, SeriesTuple) else (phi,)
    primes = prime_support(c.denominator for comp in comps for _, c in comp.terms())
    product = 1
    for p in sorted(primes):
        product *= p
    return DenominatorSupport(primes=primes, squarefree_product=product)
