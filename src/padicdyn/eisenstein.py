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
used instead; the pivot machinery stays available behind method="pivot".

Both routes compute only what each step reads.  The pivot induction needs
one layer of F(phi) per degree, so it calls XPolynomial.evaluate with a
lower bound low equal to that degree: the last product of the Horner
evaluation then forms that layer alone.  A Hensel step needs 1/F'(phi) only
through the new degree minus the order of F(phi), so the slope is
evaluated and inverted at that cap.  The dropped terms never reach a kept
coefficient, so the outputs are those of full evaluations, and the final
check of F(phi) through degree + s still runs over the whole series.

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
from .series import MultiSeries, SeriesTuple, _mul

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
            entries = {tuple(e): Fraction(c) for e, c in poly.items() if c}
            for e in entries:
                if len(e) != nvars or any(x < 0 for x in e):
                    raise DomainError(f"bad exponent tuple {e}")
            if entries:
                cleaned[int(k)] = entries
        if not cleaned:
            raise DomainError("zero polynomial")
        self.coeffs = cleaned

    @classmethod
    def from_terms(cls, nvars: int, terms: Sequence[tuple[Exponents, int, Fraction]]) -> "XPolynomial":
        """Terms given as (x-exponents, X-power, coefficient)."""
        coeffs: dict[int, dict[Exponents, Fraction]] = {}
        for exps, xpow, c in terms:
            poly = coeffs.setdefault(int(xpow), {})
            key = tuple(exps)
            poly[key] = poly.get(key, Fraction(0)) + Fraction(c)
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
        """Horner evaluation F(x, phi(x)) truncated at the given degree.

        With low > 0 the last Horner product forms only its layers of
        degree >= low, so only those layers of the result are layers of
        F(x, phi); callers read them with .layer().
        """
        if phi.nvars != self.nvars:
            raise DomainError("variable count mismatch")
        work = phi.truncated(trunc) if phi.trunc > trunc else phi.as_polynomial(trunc)
        acc = self.coefficient_series(self.x_degree, trunc)
        for k in range(self.x_degree - 1, -1, -1):
            product = _mul(acc, work, trunc, low) if k == 0 and low else acc * work
            acc = product + self.coefficient_series(k, trunc)
        return acc


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


def coefficients_up_to(spec: AlgebraicSeriesSpec, degree: int, method: str = "auto") -> MultiSeries:
    """The root series through the given total degree.

    method: "auto" picks Hensel lifting when the derivative is a unit at
    the seed and the graded pivot induction otherwise; "hensel" and
    "pivot" force the respective route.
    """
    if method not in ("auto", "hensel", "pivot"):
        raise DomainError(f"unknown method {method!r}")
    if degree < 0:
        raise DomainError(f"degree must be non-negative, got {degree}")
    if degree < spec.seed.trunc:
        return spec.seed.truncated(degree)
    if method == "hensel" and spec.vanishing_order != 0:
        raise DomainError("Hensel lifting needs a unit derivative at the seed")
    use_hensel = method == "hensel" or (method == "auto" and spec.vanishing_order == 0)
    phi = _hensel(spec, degree) if use_hensel else _pivot_induction(spec, degree)
    check = spec.relation.evaluate(phi, degree + spec.vanishing_order)
    if not check.is_zero():
        raise DivisionFailureError(
            "computed series fails the defining relation; seed or order invalid"
        )
    return phi


def _hensel(spec: AlgebraicSeriesSpec, degree: int) -> MultiSeries:
    """Quadratic lifting phi <- phi - F(phi) / F'(phi), doubling the contact order.

    A step from a root through degree prev to one through known reads the
    slope inverse only through known - ord F(phi): F(phi) has order at
    least prev + 1, and the product F(phi) / F'(phi) is kept through known
    alone, so the higher orders of 1/F'(phi) never reach a kept term.  The
    slope is evaluated and inverted at that cap and promoted back to
    known, which leaves every step's output unchanged.
    """
    derivative = spec.relation.derivative_in_x_big()
    known = spec.seed.trunc
    phi = spec.seed
    while known < degree:
        known = min(2 * known + 1, degree)
        work = phi.as_polynomial(known)
        value = spec.relation.evaluate(work, known)
        order = value.lowest_degree()
        if order is None:
            phi = work
            continue
        slope = derivative.evaluate(work, known - order)
        phi = work - value * slope.inverse().as_polynomial(known)
    return phi.truncated(degree)


def _pivot_induction(spec: AlgebraicSeriesSpec, degree: int) -> MultiSeries:
    """Graded induction phi_(d) = -F(phi_d)_(d+s) / F'(phi_{s+1})_(s).

    Each degree reads one layer of F(x, phi): its Horner evaluation runs
    through degree d + s, and the last product forms layer d + s alone
    (XPolynomial.evaluate with low = d + s).  That layer is the same as in
    a full evaluation, so the output is unchanged, while a step costs about
    one layer of the last product instead of the whole series.
    """
    s = spec.vanishing_order
    divisor = _derivative_layer(spec.relation, spec.seed, s)
    phi = spec.seed
    for d in range(spec.seed.trunc + 1, degree + 1):
        numerator = spec.relation.evaluate(phi, d + s, low=d + s).layer(d + s)
        if not numerator:
            phi = phi.as_polynomial(d)
            continue
        negated = {e: -c for e, c in numerator.items()}
        layer = _divide_forms(negated, divisor, spec.pivot_monomial)
        phi = phi.as_polynomial(d) + MultiSeries(phi.nvars, d, layer.items())
    return phi


@dataclass(frozen=True)
class DenominatorSupport:
    primes: frozenset[int]
    squarefree_product: int


def denominator_support(phi: MultiSeries | SeriesTuple) -> DenominatorSupport:
    """Primes dividing any coefficient denominator, and their squarefree product."""
    comps = phi.components if isinstance(phi, SeriesTuple) else (phi,)
    primes = prime_support(coeff.denominator for comp in comps for _, coeff in comp.terms())
    product = 1
    for p in sorted(primes):
        product *= p
    return DenominatorSupport(primes=primes, squarefree_product=product)
