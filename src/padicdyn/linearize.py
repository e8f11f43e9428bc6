"""Linearizing conjugacies h with f o h = h o Lambda, by two routes.

The order-by-order solver peels one graded layer at a time: the residual
f o h - h o Lambda at degree d lies in the ideal of series vanishing to
second order in the transverse variables, and the homological equation
Lw = w o Lambda - Lambda w is solved there coefficient by coefficient,
dividing by lambda^I - lambda_j.  A vanishing divisor on a needed monomial
raises ResonantMonomialError.

The Newton scheme produces the same conjugacy through quadratically
growing degree windows: iteration i determines all coefficients of h in
degrees [2^(i+1), 2^(i+2)), so the correction orders double exactly.  Each
window [low, high] takes one pass of the preconditioned update
F(h) = (Dh o Lambda) L E.  The approximate right inverse (Dh o Lambda)^(-1)
leaves an error of order 2 low - 1 (Zehnder, CPAM 28, 1975), so after the
pass the residual can lie only in layer high, where h = id + O(2) acts as
the identity: the order-by-order layer step at degree high closes the
window.  That step forms layer high alone, so it cannot check the claim
itself.  The next window does: its residual, formed in full through its
own cap, must vanish below its low, which covers every layer of the
window before it.  The final check f o h = h o Lambda of the assembled
result covers every layer, the last window's included.  The trace records
Gauss norms of the corrections on the shrinking radii 1/2 + 2^(-i-1) and
checks the pass against the small-divisor bound
|w|_{rho-delta} <= C1 |g|_rho rho^beta / delta^beta.

Before iterating, the map is rescaled by the smallest power of the working
prime that makes the nonlinearity p-adically small; the conjugacy is
mapped back to the original coordinates afterwards, so both routes agree
coefficient for coefficient.  The rescaling and its inverse are the same
conjugation x -> g(c x) / c, a diagonal substitution and a scaling.

Within a window the residual has order >= low and is kept through degree
high, so g = (Dh o Lambda)^(-1) times the residual needs that series-matrix
inverse only through degree high - low, and g has its support in layers
low..high.  The correction e solving the
homological equation against g keeps that support, and since Dh has a
constant term, Dh e formed at cap high again lies in layers low..high.

Both routes obtain h^(-1) the same way: k = h^(-1) satisfies
k o f = Lambda o k, and with k = id + kappa each layer kappa_d solves the
homological equation against the running remainder f - Lambda +
kappa_<d o f - Lambda kappa_<d, with the same divisors.  Each step adds
kappa_d o f = sum_I kappa_(d,I) f^I, a linear combination over the monomial
powers f^I of degree d.  series._LayerStream keeps this remainder: it reads
the one composition engine of the series module, a table of the powers f^I
that every layer and component shares, builds a power f^I only when a
kappa_d has the monomial I (from f^(I - e_last(I)), and keeps it), and
holds the remainder as integer sums with one denominator per degree, so
only the layer being solved is turned into Fractions.  Since the kappa_d
hold disjoint degrees, k is assembled from them without a series sum.
Every other substitution here (the residuals f o h and the reversion
below) reads the same engine through SeriesTuple.compose.
If any resonance lambda^I = lambda_j exists up to the working degree, that
solution is only unique up to resonant terms, and the compositional inverse
of h is computed by series reversion (SeriesTuple.invert) instead.

Maps with a positive-dimensional fixed locus are first normalized: a shear
removes the head-tail linear coupling, then interpolation projectors built
from the transverse block diagonalize it with coefficients that are series
along the locus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import ratlinalg
from .arith import check_odd_prime, fraction_valuation, prime_support
from .dynamics import (
    AnalyticMap,
    DiophantineParams,
    _rational_roots_monic,
    choose_prime,
    enumerate_resonances,
)
from .errors import (
    DomainError,
    EigenvalueVariationError,
    IrrationalEigenvalueError,
    NotSemisimpleError,
    ResonantMonomialError,
    SingularBlockError,
)
from .series import (
    GaussNorm,
    MultiSeries,
    SeriesTuple,
    _disjoint_sum,
    _LayerStream,
    gauss_norm,
    in_subspace_ar,
    tuple_gauss_norm,
)


@dataclass(frozen=True)
class ConjugacyResult:
    """A verified conjugacy: f o h - h o Lambda vanishes through verified_degree."""

    h: SeriesTuple
    h_inverse: SeriesTuple
    verified_degree: int
    residual: SeriesTuple
    denominator_primes: frozenset[int]
    eigenvalues: tuple[Fraction, ...]


class RatPow:
    """A value c * b**e with c, b rational and a rational exponent e.

    Norm-bound constants have this shape once delta**beta enters; the
    comparison clears the exponent denominator so it stays exact.
    """

    __slots__ = ("coeff", "base", "exponent")

    def __init__(self, coeff, base=Fraction(1), exponent=Fraction(0)):
        self.coeff = Fraction(coeff)
        self.base = Fraction(base)
        self.exponent = Fraction(exponent)
        if self.base <= 0:
            raise DomainError("power base must be positive")
        if self.coeff < 0:
            raise DomainError("norm quantities are non-negative")

    def _cleared(self, other: "RatPow") -> tuple[Fraction, Fraction]:
        q = math.lcm(self.exponent.denominator, other.exponent.denominator)
        lhs = self.coeff**q * self.base ** int(self.exponent * q)
        rhs = other.coeff**q * other.base ** int(other.exponent * q)
        return lhs, rhs

    def __le__(self, other: "RatPow") -> bool:
        lhs, rhs = self._cleared(other)
        return lhs <= rhs

    def __lt__(self, other: "RatPow") -> bool:
        lhs, rhs = self._cleared(other)
        return lhs < rhs

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatPow):
            return NotImplemented
        lhs, rhs = self._cleared(other)
        return lhs == rhs

    def as_fraction(self) -> Fraction:
        if self.exponent.denominator != 1:
            raise DomainError("irrational value; exponent is not an integer")
        return self.coeff * self.base ** int(self.exponent)

    def __repr__(self) -> str:
        if self.exponent == 0 or self.base == 1:
            return f"RatPow({self.coeff})"
        return f"RatPow({self.coeff} * {self.base}^{self.exponent})"


@dataclass(frozen=True)
class NormBoundCertificate:
    """Exact evaluation of the three small-divisor inequalities."""

    passes: bool
    minimal_c1: RatPow
    derived_c1: RatPow
    norm_g: Fraction
    norm_w: Fraction
    norm_dw: Fraction
    norm_dw_lambda: Fraction
    rho: Fraction
    delta: Fraction


@dataclass(frozen=True)
class NewtonIteration:
    index: int
    window: tuple[int, int]
    delta_order: int
    delta_norm: GaussNorm
    rho: Fraction
    bound: NormBoundCertificate


@dataclass(frozen=True)
class NewtonTrace:
    iterations: tuple[NewtonIteration, ...]
    rescale: Fraction
    prime: int

    @property
    def radii(self) -> tuple[Fraction, ...]:
        return tuple(it.rho for it in self.iterations)

    @property
    def derived_c1(self) -> RatPow | None:
        """The derived constant of the first window's norm bound."""
        return self.iterations[0].bound.derived_c1 if self.iterations else None


def solve_homological(
    g: SeriesTuple, eigenvalues: Sequence[Fraction], r: int
) -> SeriesTuple:
    """The unique w with w o Lambda - Lambda w = g vanishing to second order
    transversally.

    Coefficientwise w_I^(j) = g_I^(j) / (lambda^I - lambda_j); the
    normalization (w and its transverse derivatives vanish on the locus) is
    automatic because w inherits the monomial support of g.
    """
    lams = [Fraction(x) for x in eigenvalues]
    n = len(lams)
    if len(g) != n or g.nvars != n:
        raise DomainError("homological data must be square")
    for j, comp in enumerate(g.components):
        if not in_subspace_ar(comp, r):
            raise DomainError(
                f"component {j} has a monomial of transverse degree < 2"
            )
    power_cache: dict[tuple[int, ...], Fraction] = {}

    def lam_power(exps: tuple[int, ...]) -> Fraction:
        tail = exps[r:]
        cached = power_cache.get(tail)
        if cached is None:
            cached = Fraction(1)
            for lam, e in zip(lams[r:], tail):
                if e:
                    cached *= lam**e
            power_cache[tail] = cached
        return cached

    out = []
    for j, comp in enumerate(g.components):
        terms = []
        for exps, coeff in comp.terms():
            divisor = lam_power(exps) - lams[j]
            if divisor == 0:
                raise ResonantMonomialError(exps, j)
            terms.append((exps, coeff / divisor))
        out.append(MultiSeries(comp.nvars, comp.trunc, terms))
    return SeriesTuple(out)


def _normalized_eigenvalues(f: AnalyticMap) -> list[Fraction]:
    """Eigenvalues of a map in normalized coordinates; error if it is not.

    The linear part must be diagonal with nonzero eigenvalues, equal to one
    along the fixed locus, and f - Lambda must vanish to second transverse
    order.
    """
    m = f.components.linear_matrix()
    if not ratlinalg.is_diagonal(m):
        raise DomainError(
            "linear part is not diagonal; normalize the map first"
        )
    lams = [m[i][i] for i in range(f.n)]
    if any(x == 0 for x in lams):
        raise DomainError("degenerate fixed point: zero eigenvalue")
    r = f.fixed_locus_dim
    if any(lams[i] != 1 for i in range(r)):
        raise DomainError("eigenvalues along the fixed locus must equal one")
    phi = f.components - SeriesTuple.diagonal(lams, f.trunc)
    for j, comp in enumerate(phi.components):
        if not in_subspace_ar(comp, r):
            raise DomainError(
                f"component {j} of f - Lambda has transverse order < 2; "
                "apply the fixed-locus normalizations first"
            )
    return lams


def denominator_primes_of(h: SeriesTuple) -> frozenset[int]:
    return prime_support(coeff.denominator for comp in h.components for _, coeff in comp.terms())


def _conjugacy_inverse(
    h: SeriesTuple, fmap: SeriesTuple, lams: Sequence[Fraction], r: int
) -> SeriesTuple:
    """h^(-1) for a conjugacy h with fmap o h = h o Lambda through h.trunc.

    Solves k o fmap = Lambda o k layer by layer for k = id + kappa; see the
    module docstring.  Resonant eigenvalues fall back to series reversion.
    """
    degree = h.trunc
    if enumerate_resonances(lams, r, degree):
        return h.invert()
    # Lambda is linear, so fmap - Lambda and fmap agree in every layer read
    # here, the layers of degree >= 2
    fmap = fmap.truncated(degree)
    remainder = _LayerStream(fmap, fmap)
    parts = [SeriesTuple.identity(h.nvars, degree)]
    for d in range(2, degree + 1):
        layer = remainder.layer(d)
        if layer.is_zero():
            continue
        kappa = solve_homological(-layer, lams, r)
        parts.append(kappa)
        # layer d of the remainder is now solved and never read again, so
        # only the layers of kappa o fmap above d (where Lambda kappa has
        # none) are added
        if d < degree:
            remainder.add(kappa, d + 1)
    # k = id + sum_d kappa_d, each kappa_d homogeneous of its own degree
    return _disjoint_sum(parts)


def _verified_conjugacy(
    h: SeriesTuple, fmap: SeriesTuple, lams: Sequence[Fraction], r: int
) -> ConjugacyResult:
    """Check fmap o h = h o Lambda through h.trunc and assemble the result."""
    residual = fmap.compose(h) - h.compose_diagonal(lams)
    if not residual.is_zero():
        raise AssertionError("conjugacy residual failed to vanish")
    return ConjugacyResult(
        h=h,
        h_inverse=_conjugacy_inverse(h, fmap, lams, r),
        verified_degree=h.trunc,
        residual=residual,
        denominator_primes=denominator_primes_of(h),
        eigenvalues=tuple(lams),
    )


def _layer_step(
    h: SeriesTuple, fmap: SeriesTuple, lams: Sequence[Fraction], r: int, d: int
) -> SeriesTuple:
    """h with layer d of the residual fmap o h - h o Lambda solved away.

    The caller guarantees that the residual vanishes below d.  Only layer d
    of the residual is formed: layer d of fmap o h at cap d, minus the
    diagonal substitution of h's layer d alone.  The layers below d are
    never formed, so a step cannot see them; they are checked by the full
    f o h = h o Lambda check of _verified_conjugacy at the end of either
    route, and in Newton also by the next window's residual.  Since
    fmap - Lambda has order >= 2, adding a layer-d term w changes the
    residual at degree d by Lambda w - w o Lambda alone, so the homological
    equation solves it.
    """
    # composition truncates at the least cap, here d
    hd = h.truncated(d)
    residual = fmap.compose(hd, d) - hd.layer_tuple(d).compose_diagonal(lams)
    if residual.is_zero():
        return h
    w = solve_homological(residual, lams, r)
    return h + SeriesTuple([comp.as_polynomial(h.trunc) for comp in w.components])


def linearize_order_by_order(f: AnalyticMap, degree: int) -> ConjugacyResult:
    """Solve f o h = h o Lambda one graded layer at a time, exactly.

    The map must already be in normalized coordinates: diagonal linear
    part, and for a positive-dimensional fixed locus the transverse
    nonlinearity confined to second order (run normalize_fixed_locus
    first).  h is normalized to identity linear part; its correction
    vanishes to second transverse order, so h restricted to the fixed
    locus is the identity.
    """
    if degree < 2:
        raise DomainError("conjugacy degree must be at least 2")
    if f.trunc < degree:
        raise DomainError(
            f"map truncation {f.trunc} cannot support degree {degree}"
        )
    n = f.n
    if f.fixed_locus_dim == n:
        ident = SeriesTuple.identity(n, degree)
        return ConjugacyResult(
            h=ident,
            h_inverse=ident,
            verified_degree=degree,
            residual=SeriesTuple.zero(n, n, degree),
            denominator_primes=frozenset(),
            eigenvalues=tuple(Fraction(1) for _ in range(n)),
        )
    lams = _normalized_eigenvalues(f)
    r = f.fixed_locus_dim
    fmap = f.components.truncated(degree)
    h = SeriesTuple.identity(n, degree)
    for d in range(2, degree + 1):
        h = _layer_step(h, fmap, lams, r, d)
    return _verified_conjugacy(h, fmap, lams, r)


def _series_matrix_vector(mat: list[list[MultiSeries]], vec: SeriesTuple) -> SeriesTuple:
    out = []
    for row in mat:
        acc = MultiSeries.zero(vec.nvars, vec.trunc)
        for entry, comp in zip(row, vec.components):
            if not entry.is_zero() and not comp.is_zero():
                acc = acc + entry * comp
        out.append(acc)
    return SeriesTuple(out)


def _series_matrix_inverse(mat: list[list[MultiSeries]], trunc: int) -> list[list[MultiSeries]]:
    """Inverse of a series matrix with invertible constant part, by the
    geometric series around the constant inverse."""
    n = len(mat)
    nvars = mat[0][0].nvars
    const = [[mat[i][j].constant_term() for j in range(n)] for i in range(n)]
    inv0 = ratlinalg.inverse(const)
    # nu = inv0 (mat - const); entries have zero constant term
    nu = [
        [
            sum(
                (
                    (mat[k][j] - MultiSeries.constant(const[k][j], nvars, trunc)).scale(inv0[i][k])
                    for k in range(n)
                ),
                MultiSeries.zero(nvars, trunc),
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    total = [[MultiSeries.constant(1 if i == j else 0, nvars, trunc) for j in range(n)] for i in range(n)]
    power = [row[:] for row in total]
    for k in range(1, trunc + 1):
        power = _series_matrix_mul(power, nu, trunc)
        if all(entry.is_zero() for row in power for entry in row):
            break
        sign = -1 if k % 2 else 1
        total = [
            [total[i][j] + power[i][j].scale(sign) for j in range(n)] for i in range(n)
        ]
    # (1 + nu)^(-1) inv0
    return [
        [
            sum(
                (total[i][k].scale(inv0[k][j]) for k in range(n)),
                MultiSeries.zero(nvars, trunc),
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


def _series_matrix_mul(a: list[list[MultiSeries]], b: list[list[MultiSeries]], trunc: int) -> list[list[MultiSeries]]:
    n, m, cols = len(a), len(b), len(b[0])
    nvars = b[0][0].nvars
    return [
        [
            sum(
                (a[i][k] * b[k][j] for k in range(m) if not a[i][k].is_zero()),
                MultiSeries.zero(nvars, trunc),
            )
            for j in range(cols)
        ]
        for i in range(n)
    ]


def linearize_newton(
    f: AnalyticMap,
    degree: int,
    params: DiophantineParams,
    prime: int | None = None,
) -> tuple[ConjugacyResult, NewtonTrace]:
    """Newton iteration through doubling degree windows, with a norm trace.

    Produces exactly the conjugacy of linearize_order_by_order (the
    normalized solution is unique); correction orders are 2, 4, 8, ...
    The iteration runs on the rescaled map u f(x / u) with u the smallest
    prime power making the nonlinearity p-adically small, and h is mapped
    back afterwards.
    """
    if degree < 2:
        raise DomainError("conjugacy degree must be at least 2")
    if f.trunc < degree:
        raise DomainError(
            f"map truncation {f.trunc} cannot support degree {degree}"
        )
    n, r = f.n, f.fixed_locus_dim
    if r == n:
        result = linearize_order_by_order(f, degree)
        trace = NewtonTrace(
            iterations=(), rescale=Fraction(1), prime=prime if prime is not None else 3
        )
        return result, trace
    lams = _normalized_eigenvalues(f)
    if prime is None:
        prime = choose_prime(f, lams)
    else:
        check_odd_prime(prime)

    fmap = f.components.truncated(degree)
    scale_exp = _rescale_exponent(fmap, lams, prime)
    u = Fraction(1, prime**scale_exp)
    scaled = _rescale_map(fmap, 1 / u)

    h = SeriesTuple.identity(n, degree)
    iterations: list[NewtonIteration] = []
    low = 2
    while low <= degree:
        high = min(2 * low - 1, degree)
        hd = h.truncated(high)
        residual = scaled.compose(hd) - hd.compose_diagonal(lams)
        res_low = residual.lowest_degree()
        if res_low is not None and res_low <= high:
            if res_low < low:
                raise AssertionError("Newton residual leaked below its window")
            index = len(iterations)
            rho = Fraction(1, 2) + Fraction(1, 2 ** (index + 1))
            delta = Fraction(1, 2 ** (index + 2))
            # re-promote the jacobian to the window cap: corrections have
            # order >= 2, so the unknown top layer of Dh never enters
            jac = [
                [entry.as_polynomial(high) for entry in row] for row in hd.jacobian()
            ]
            # the residual has order >= low and only layers up to high are
            # kept, so the inverse is needed through degree high - low only
            jac_scaled = [
                list(SeriesTuple([entry.truncated(high - low) for entry in row]).compose_diagonal(lams))
                for row in jac
            ]
            jac_inv = [
                [entry.as_polynomial(high) for entry in row]
                for row in _series_matrix_inverse(jac_scaled, high - low)
            ]
            # g already holds only the window layers low..high (see the
            # module docstring); its cap is raised to degree because the
            # norm bound's horizon is read from it
            g = SeriesTuple(
                [
                    comp.as_polynomial(degree)
                    for comp in _series_matrix_vector(jac_inv, residual)
                ]
            )
            e = solve_homological(g, lams, r)
            bound = check_norm_bound(g, e, lams, rho, delta, params, prime)
            # e inherits the window support of g, and Dh has a constant
            # term, so Dh e formed at cap high has its layers in low..high
            correction = _series_matrix_vector(jac, e.truncated(high))
            refined = h + SeriesTuple([comp.as_polynomial(degree) for comp in correction])
            # (Dh o Lambda)^(-1) is a right inverse up to order 2 low - 1, so
            # the pass leaves a residual in layer high at most, which the
            # layer step solves; the next window's residual checks the rest
            refined = _layer_step(refined, scaled, lams, r, high)
            step = refined - h
            h = refined
            iterations.append(
                NewtonIteration(
                    index=index,
                    window=(low, high),
                    delta_order=step.lowest_degree(),
                    delta_norm=tuple_gauss_norm(step, rho, prime),
                    rho=rho,
                    bound=bound,
                )
            )
        low = 2 * low

    result = _verified_conjugacy(_rescale_map(h, u), fmap, lams, r)
    trace = NewtonTrace(iterations=tuple(iterations), rescale=u, prime=prime)
    return result, trace


def _rescale_exponent(fmap: SeriesTuple, lams: Sequence[Fraction], prime: int) -> int:
    """Smallest k >= 0 with all rescaled nonlinear coefficients of norm <= 1/p."""
    k = 0
    for comp, lam in zip(fmap.components, lams):
        for exps, coeff in comp.terms():
            d = sum(exps)
            if d < 2:
                continue
            v = fraction_valuation(coeff, prime)
            # after rescaling: valuation v + k (d - 1); need >= 1
            need = 1 - v
            if need > 0:
                k = max(k, math.ceil(Fraction(need, d - 1)))
    return k


def _rescale_map(g: SeriesTuple, c: Fraction) -> SeriesTuple:
    """The conjugate x -> g(c x) / c: degree-d terms scale by c**(d - 1)."""
    return SeriesTuple([comp.scale(1 / c) for comp in g.compose_diagonal([c] * g.nvars)])


def check_norm_bound(
    g: SeriesTuple,
    w: SeriesTuple,
    eigenvalues: Sequence[Fraction],
    rho,
    delta,
    params: DiophantineParams,
    prime: int,
) -> NormBoundCertificate:
    """Evaluate the three small-divisor inequalities exactly.

    Returns the smallest C1 making |w|_{rho-delta} <= C1 |g|_rho rho^beta/delta^beta
    together with the derivative variants hold for this instance, and
    whether that minimum stays below the constant derived from the supplied
    diophantine parameters.
    """
    rho = Fraction(rho)
    delta = Fraction(delta)
    if delta >= rho or delta <= 0:
        raise DomainError("need 0 < delta < rho")
    lams = [Fraction(x) for x in eigenvalues]
    inner = rho - delta
    norm_g = tuple_gauss_norm(g, rho, prime).value
    norm_w = tuple_gauss_norm(w, inner, prime).value
    dw = w.jacobian()
    norm_dw = Fraction(0)
    norm_dw_lambda = Fraction(0)
    for row in dw:
        for entry, scaled in zip(row, SeriesTuple(row).compose_diagonal(lams)):
            norm_dw = max(norm_dw, gauss_norm(entry, inner, prime).value)
            norm_dw_lambda = max(norm_dw_lambda, gauss_norm(scaled, inner, prime).value)
    horizon = max(g.trunc, 2)
    derived = _derived_c1(params, rho, delta, horizon)
    if norm_g == 0:
        minimal = RatPow(0, Fraction(1), params.beta)
        return NormBoundCertificate(
            passes=w.is_zero(),
            minimal_c1=minimal,
            derived_c1=derived,
            norm_g=norm_g,
            norm_w=norm_w,
            norm_dw=norm_dw,
            norm_dw_lambda=norm_dw_lambda,
            rho=rho,
            delta=delta,
        )
    needed = max(norm_w, norm_dw * inner, norm_dw_lambda * inner)
    minimal = RatPow(needed / norm_g, delta / rho, params.beta)
    return NormBoundCertificate(
        passes=minimal <= derived,
        minimal_c1=minimal,
        derived_c1=derived,
        norm_g=norm_g,
        norm_w=norm_w,
        norm_dw=norm_dw,
        norm_dw_lambda=norm_dw_lambda,
        rho=rho,
        delta=delta,
    )


def _derived_c1(params: DiophantineParams, rho: Fraction, delta: Fraction, horizon: int) -> RatPow:
    """(1/C) (delta/rho)^beta max_{2<=m<=horizon} m^beta ((rho-delta)/rho)^m.

    The per-coefficient divisor bound |lambda^I - lambda_j| >= C m^(-beta)
    gives |w_I| <= |g_I| m^beta / C; weighting by (rho-delta)^m / rho^m and
    maximizing over the degrees the truncation can hold yields this
    constant, compared exactly by clearing the rational exponent.
    """
    x = (rho - delta) / rho
    best = RatPow(x**2, Fraction(2), params.beta)
    for m in range(3, horizon + 1):
        cand = RatPow(x**m, Fraction(m), params.beta)
        if best < cand:
            best = cand
    return RatPow(best.coeff / params.C, best.base * delta / rho, params.beta)


def normalize_mod_if2(f: AnalyticMap) -> tuple[AnalyticMap, SeriesTuple]:
    """Shear away the head-tail linear coupling along the fixed locus.

    Writes f = (x' + a' x''; x'' + a'' x'') to second transverse order,
    with a', a'' matrices of series in the locus coordinates x', and
    conjugates by h = (x' + a' (a'')^(-1) x''; x'') so the head components
    of the result are x' modulo second transverse order.
    """
    r, n, trunc = f.fixed_locus_dim, f.n, f.trunc
    if r < 1:
        raise DomainError("needs a positive-dimensional fixed locus")
    if r == n:
        ident = SeriesTuple.identity(n, trunc)
        return f, ident
    shifted = f.components - SeriesTuple.identity(n, trunc)
    a_head, a_tail = _transverse_linear_blocks(shifted, r)
    tail_const = [[a_tail[i][j].constant_term() for j in range(n - r)] for i in range(n - r)]
    if ratlinalg.det(tail_const) == 0:
        raise SingularBlockError(
            "transverse block of Df - 1 is singular at the fixed point "
            "(the eigenvalue-one count does not match the locus dimension)"
        )
    if all(entry.is_zero() for row in a_head for entry in row):
        ident = SeriesTuple.identity(n, trunc)
        return f, ident
    tail_inv = _series_matrix_inverse(a_tail, trunc)
    mix = _series_matrix_mul(a_head, tail_inv, trunc)
    comps = []
    for i in range(n):
        acc = MultiSeries.variable(i, n, trunc)
        if i < r:
            for j in range(n - r):
                coupling = mix[i][j]
                if not coupling.is_zero():
                    acc = acc + coupling * MultiSeries.variable(r + j, n, trunc)
        comps.append(acc)
    h = SeriesTuple(comps)
    h_inv = h.invert()
    g = h_inv.compose(f.components.compose(h))
    g_map = AnalyticMap(g, r)
    g_head, _ = _transverse_linear_blocks(g - SeriesTuple.identity(n, trunc), r)
    if not all(entry.is_zero() for row in g_head for entry in row):
        raise AssertionError("shear failed to remove the head-tail coupling")
    return g_map, h


def _transverse_linear_blocks(
    shifted: SeriesTuple, r: int
) -> tuple[list[list[MultiSeries]], list[list[MultiSeries]]]:
    """Blocks a', a'' of terms of transverse degree exactly one, as matrices
    of series in the locus coordinates (stored with full-width exponents)."""
    n = shifted.nvars
    trunc = shifted.trunc
    t = n - r

    def block(rows: range) -> list[list[MultiSeries]]:
        out = []
        for i in rows:
            row = []
            for j in range(t):
                terms = []
                for exps, coeff in shifted[i].terms():
                    tail = exps[r:]
                    if sum(tail) == 1 and tail[j] == 1:
                        head_exps = exps[:r] + (0,) * t
                        terms.append((head_exps, coeff))
                row.append(MultiSeries(n, trunc, terms))
            out.append(row)
        return out

    return block(range(r)), block(range(r, n))


def diagonalize_normal_part(
    f: AnalyticMap, tail_eigenvalues: Sequence[Fraction] | None = None
) -> tuple[AnalyticMap, SeriesTuple]:
    """Diagonalize the transverse linear block with locus-dependent coordinates.

    Requires the head-tail coupling already removed.  The block must be
    semisimple with constant eigenvalues along the locus: the
    characteristic polynomial is computed over the series ring and must
    have constant coefficients, and the interpolation projectors
    p_i = prod_{lambda_j != lambda_i} (a'' - lambda_j) / (lambda_i - lambda_j)
    must resolve the identity.  Their columns assemble the coordinate
    change, linear in the transverse variables.
    """
    r, n, trunc = f.fixed_locus_dim, f.n, f.trunc
    t = n - r
    if t == 0:
        return f, SeriesTuple.identity(n, trunc)
    shifted = f.components - SeriesTuple.identity(n, trunc)
    a_head, a_tail = _transverse_linear_blocks(shifted, r)
    if not all(entry.is_zero() for row in a_head for entry in row):
        raise DomainError("head-tail coupling present; run normalize_mod_if2 first")
    # full transverse block of f itself: identity + a''
    block = [
        [
            a_tail[i][j] + MultiSeries.constant(1 if i == j else 0, n, trunc)
            for j in range(t)
        ]
        for i in range(t)
    ]
    char = _series_char_poly(block, trunc)
    const_coeffs = []
    for coeff_series in char:
        if not coeff_series.substitute_zero(range(n)).agrees_through(coeff_series, trunc):
            raise EigenvalueVariationError(
                "transverse eigenvalues vary along the fixed locus"
            )
        const_coeffs.append(coeff_series.constant_term())
    roots = _rational_roots(const_coeffs)
    if roots is None:
        raise IrrationalEigenvalueError("transverse eigenvalues are not rational")
    if tail_eigenvalues is not None and sorted(roots) != sorted(Fraction(x) for x in tail_eigenvalues):
        raise DomainError("declared transverse eigenvalues do not match the block")
    block_const = [[block[i][j].constant_term() for j in range(t)] for i in range(t)]
    collected: list[tuple[int, Fraction, list[Fraction]]] = []
    for lam in sorted(set(roots)):
        shifted_mat = [
            [block_const[i][j] - (lam if i == j else 0) for j in range(t)]
            for i in range(t)
        ]
        for vec in ratlinalg.kernel_basis(shifted_mat, t):
            pivot = next(i for i, x in enumerate(vec) if x)
            collected.append((pivot, lam, vec))
    if len(collected) != t:
        raise NotSemisimpleError("transverse block is not diagonalizable at the point")
    # order eigenvectors by pivot so an already-diagonal block keeps its
    # coordinate order
    collected.sort(key=lambda item: item[0])
    basis = [vec for _, _, vec in collected]
    ordered = [lam for _, lam, _ in collected]
    cmat = [[basis[j][i] for j in range(t)] for i in range(t)]
    cinv = ratlinalg.inverse(cmat)
    m1 = _conjugate_series_matrix(block, cmat, cinv, trunc)
    distinct = sorted(set(ordered))
    projectors = {}
    for lam in distinct:
        proj = [[MultiSeries.constant(1 if i == j else 0, n, trunc) for j in range(t)] for i in range(t)]
        for other in distinct:
            if other == lam:
                continue
            shift = [
                [
                    (m1[i][j] - MultiSeries.constant(other if i == j else 0, n, trunc)).scale(
                        1 / (lam - other)
                    )
                    for j in range(t)
                ]
                for i in range(t)
            ]
            proj = _series_matrix_mul(proj, shift, trunc)
        projectors[lam] = proj
    _verify_projectors(m1, projectors, ordered, n, trunc)
    pcols = []
    for i, lam in enumerate(ordered):
        col = [projectors[lam][k][i] for k in range(t)]
        pcols.append(col)
    pmat = [[pcols[j][i] for j in range(t)] for i in range(t)]
    total = _series_matrix_mul(
        [[MultiSeries.constant(cmat[i][j], n, trunc) for j in range(t)] for i in range(t)],
        pmat,
        trunc,
    )
    comps = [MultiSeries.variable(i, n, trunc) for i in range(r)]
    for i in range(t):
        acc = MultiSeries.zero(n, trunc)
        for j in range(t):
            if not total[i][j].is_zero():
                acc = acc + total[i][j] * MultiSeries.variable(r + j, n, trunc)
        comps.append(acc)
    change = SeriesTuple(comps)
    g = change.invert().compose(f.components.compose(change))
    g_map = AnalyticMap(g, r)
    # the transverse block must now be the constant diagonal
    _, g_tail = _transverse_linear_blocks(g - SeriesTuple.identity(n, trunc), r)
    for i in range(t):
        for j in range(t):
            expected = (
                MultiSeries.constant(ordered[i] - 1, n, trunc) if i == j else MultiSeries.zero(n, trunc)
            )
            if g_tail[i][j] != expected:
                raise AssertionError("diagonalization left a non-diagonal transverse block")
    return g_map, change


def _conjugate_series_matrix(block, cmat, cinv, trunc):
    t = len(block)
    n = block[0][0].nvars
    left = [[MultiSeries.constant(cinv[i][j], n, trunc) for j in range(t)] for i in range(t)]
    right = [[MultiSeries.constant(cmat[i][j], n, trunc) for j in range(t)] for i in range(t)]
    return _series_matrix_mul(_series_matrix_mul(left, block, trunc), right, trunc)


def _series_char_poly(block: list[list[MultiSeries]], trunc: int) -> list[MultiSeries]:
    """Characteristic polynomial coefficients (constant term first) over the
    series ring, by the trace recursion."""
    t = len(block)
    n = block[0][0].nvars
    coeffs = [MultiSeries.zero(n, trunc) for _ in range(t + 1)]
    coeffs[t] = MultiSeries.one(n, trunc)
    mk = [row[:] for row in block]
    a = MultiSeries.zero(n, trunc)
    for k in range(1, t + 1):
        if k > 1:
            shifted = [
                [mk[i][j] + (a if i == j else MultiSeries.zero(n, trunc)) for j in range(t)]
                for i in range(t)
            ]
            mk = _series_matrix_mul(block, shifted, trunc)
        trace = sum((mk[i][i] for i in range(t)), MultiSeries.zero(n, trunc))
        a = trace.scale(Fraction(-1, k))
        coeffs[t - k] = a
    return coeffs


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction] | None:
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    return _rational_roots_monic(monic)


def _verify_projectors(m1, projectors, ordered, nvars, trunc):
    t = len(m1)
    total = [[MultiSeries.zero(nvars, trunc) for _ in range(t)] for _ in range(t)]
    for lam, proj in projectors.items():
        sq = _series_matrix_mul(proj, proj, trunc)
        for i in range(t):
            for j in range(t):
                if sq[i][j] != proj[i][j]:
                    raise NotSemisimpleError("projector is not idempotent over the locus")
        mp = _series_matrix_mul(m1, proj, trunc)
        for i in range(t):
            for j in range(t):
                if mp[i][j] != proj[i][j].scale(lam):
                    raise NotSemisimpleError(
                        "transverse block is not semisimple over the locus"
                    )
                total[i][j] = total[i][j] + proj[i][j]
    for i in range(t):
        for j in range(t):
            expected = MultiSeries.constant(1 if i == j else 0, nvars, trunc)
            if total[i][j] != expected:
                raise NotSemisimpleError("projectors do not resolve the identity")


def normalize_fixed_locus(f: AnalyticMap) -> tuple[AnalyticMap, SeriesTuple]:
    """Run both fixed-locus normalizations; returns (g, change) with
    g = change^(-1) o f o change."""
    n, trunc = f.n, f.trunc
    if f.fixed_locus_dim == 0:
        m = f.components.linear_matrix()
        if ratlinalg.is_diagonal(m):
            return f, SeriesTuple.identity(n, trunc)
        return diagonalize_normal_part(f)
    g1, h1 = normalize_mod_if2(f)
    g2, h2 = diagonalize_normal_part(g1)
    return g2, h1.compose(h2)
