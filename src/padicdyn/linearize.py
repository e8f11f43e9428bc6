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
|w|_{rho-delta} <= C1 |g|_rho rho^beta / delta^beta.  The bound also reads
the norms of Dw and Dw o Lambda.  They come from one p-adic valuation per
coefficient of w, since valuations add: the term c x^I of w_i gives
c I_j lambda^(I - e_j) in (d_j w_i) o Lambda, of valuation
v(c) + v_p(I_j) + sum_k (I - e_j)_k v(lambda_k).  So neither the Jacobian
nor its diagonal substitution is formed.

Each run keeps one table of the powers h^I (series._PowerTable) and reads
every f o h from it, its final check's included.  Layer k of a power of
degree >= 2 reads only the layers of h below k, so before each read the
table forms again every power layer above the first layer of h that
differs from the h it read last.  Every power layer it reads was thus
formed from layers equal to the current h's, and each check is exactly as
strong as one that composes afresh.  An order-by-order step at degree d
reads an h changed in layer d - 1 alone, so that run forms each power
layer once, about one composition in all.  A Newton window [low, high]
forms the power layers above low - 1 for its residual, and those above low
again after its correction.  Newton iterates on f itself, so its final
check reads the h of its last layer step, changed in the top layer alone,
which no power layer reads: it forms none.  Each layer step also asserts
that it adds its own layer alone.

Each run builds one table of the eigenvalue powers lambda^I
(series._DiagonalPowers), filled from kept parents,
lambda^I = lambda^(I - e_j) lambda_j, by the chain walk of the power
table of a composition.  The table stands in for the eigenvalue
sequence and is handed down wherever the eigenvalues go, so the divisors
of every homological solve, the diagonal substitutions h o Lambda of the
residuals, the resonance search before h^(-1) and the final check all read
the same powers, each formed once.  It keeps each lambda^I as a reduced
integer pair keyed by the packed monomial, and the solves read the reduced
inverse divisors 1 / (lambda^I - lambda_j) as pairs formed from it, so no
Fraction is built per power, per divisor or per term.

The norm estimates need the nonlinearity p-adically small, so the
certificates read the conjugate R(g) = u g(x / u), for u = p^(-k) the least
power of the working prime that makes it so (_rescale_exponent).  That
conjugation commutes with composition, the Jacobian solve, the divisors
and the layer step, so Newton iterates on f and h themselves.  Nor are
R(g), R(e) and R(step) formed: R multiplies a coefficient of degree d by
p^(k (d - 1)), so a Gauss norm of R(s) at rho is p^k times that of s at
rho / p^k, with the same witness (_rescaled_certificates).  Every trace
field is that of the rescaled iteration.

Within a window the residual has order >= low and is kept through degree
high.  g solves (Dh o Lambda) g = residual one degree at a time
(series._series_solve), with no series-matrix inverse: g_d is C^(-1)
times layer d of the residual minus (Dh o Lambda - C) g, for C the
constant part, and that product is formed in layer d alone from the
layers of g below d.
Since the residual has no layer below low, neither has g, and g has its
support in layers low..high.  The correction e solving the homological
equation against g keeps that support, and since Dh has a constant term,
Dh e formed at cap high again lies in layers low..high.

Both routes obtain h^(-1) the same way: k = h^(-1) satisfies
k o f = Lambda o k, and with k = id + kappa each layer kappa_d solves the
homological equation against the running remainder f - Lambda +
kappa_<d o f - Lambda kappa_<d, with the same divisors.  Each step adds
kappa_d o f = sum_I kappa_(d,I) f^I, a linear combination over the monomial
powers f^I of degree d.  series._LayerStream keeps this remainder: it
reads one power table of f (series._PowerTable, the kind a run keeps of
h), shared by every layer and component, which builds a power f^I only
when a kappa_d has the monomial I (from a kept f^(I - e_j) where there is
one, else down the prefix parents, and keeps it),
and it holds the remainder as integer sums, grouped by denominator within
each degree, so only the layer being solved is merged and reduced to a
series.  The stream starts from f, which agrees with f - Lambda in every
layer of degree >= 2, and adds kappa_d o f above degree d alone: layer d
of the remainder is solved by kappa_d and never read again, and
Lambda kappa_d lies in layer d.  Since the kappa_d hold disjoint degrees,
k is assembled from them without a series sum.  The normalization and the
reversion below substitute through SeriesTuple.compose, which keeps one
degree of powers at a time.
If any resonance lambda^I = lambda_j exists up to the working degree, that
solution is only unique up to resonant terms, and the compositional inverse
of h is computed by series reversion (SeriesTuple.invert) instead.

Maps with a positive-dimensional fixed locus are first normalized, in one
conjugation, by a change linear in the transverse variables:
(x', 0) + [M C; C] x'', with M and C matrices of series along the locus.
Its head part M = a' (a'')^(-1) is the paper's shear modulo I_F^2, which
removes the head-tail linear coupling of f = (x' + a' x''; x'' + a'' x'').
That shear leaves the transverse block B = 1 + a'' as it is, so C is read
from f's own blocks, and it diagonalizes B with coefficients that are
series along the locus.  Column j of C is P_(lambda_j)(B) v_j, for v_j the
j-th eigenvector of B(0) and P_lambda the interpolation projector, a
polynomial in B itself: it is formed from v_j by one matrix-vector step
per other eigenvalue, and no projector matrix is formed.  One check,
B C = C D for D = diag(lambda_j), accepts exactly the blocks that are
semisimple along the locus.  Column j is the eigenbasis route, C0 times
column j of P_(lambda_j)(C0^(-1) B C0) with C0 = (v_1 ... v_t), because a
polynomial in B commutes with the constant similarity:
P_lambda(C0^(-1) B C0) = C0^(-1) P_lambda(B) C0.  The change is one series
matrix-vector product, and the normalized map is
change^(-1) o (f o change).  A map fixing every point (r = n) is the
identity and runs the same routes: every residual vanishes, and
h = h^(-1) = id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from . import ratlinalg
from .arith import _as_rational, check_odd_prime, fraction_valuation, int_valuation
from .dynamics import (
    AnalyticMap,
    DiophantineParams,
    _char_poly,
    _rational_roots_monic,
    choose_prime,
    enumerate_resonances,
)
from .eisenstein import denominator_support
from .errors import (
    DomainError,
    EigenvalueVariationError,
    IrrationalEigenvalueError,
    NotSemisimpleError,
    SingularBlockError,
)
from .series import (
    GaussNorm,
    MultiSeries,
    SeriesTuple,
    _DiagonalPowers,
    _disjoint_sum,
    _LayerStream,
    _PowerTable,
    _series_matrix_vector,
    _series_solve,
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
        self.coeff = _as_rational(coeff, "power coefficient")
        self.base = _as_rational(base, "power base")
        self.exponent = _as_rational(exponent, "power exponent")
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

    Coefficientwise w_I^(j) = g_I^(j) / (lambda^I - lambda_j), where
    lambda^I runs over the transverse variables alone.  The inverse
    divisors are integer pairs read from a _DiagonalPowers table
    (eigenvalues itself when it is one), keyed by the packed transverse
    part of I (_DiagonalPowers.divided); the normalization (w and its
    transverse derivatives vanish on the locus) is automatic because w
    inherits the monomial support of g.  A vanishing divisor raises
    ResonantMonomialError for the first component that has one, at its
    lowest-degree, graded-lex first resonant monomial.
    """
    lams = _DiagonalPowers.of(eigenvalues)
    n = len(lams)
    if len(g) != n or g.nvars != n:
        raise DomainError("homological data must be square")
    for j, comp in enumerate(g.components):
        if not in_subspace_ar(comp, r):
            raise DomainError(
                f"component {j} has a monomial of transverse degree < 2"
            )
    return SeriesTuple([lams.divided(comp, j, r) for j, comp in enumerate(g.components)])


def _normalized_eigenvalues(f: AnalyticMap) -> _DiagonalPowers:
    """Eigenvalues of a map in normalized coordinates, as the lambda^I table
    of one conjugacy run; error if the map is not normalized.

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
    return _DiagonalPowers(lams)


def denominator_primes_of(h: SeriesTuple) -> frozenset[int]:
    return denominator_support(h).primes


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
    remainder = _LayerStream(fmap)
    parts = [SeriesTuple.identity(h.nvars, degree)]
    for d in range(2, degree + 1):
        layer = remainder.layer(d)
        if layer.is_zero():
            continue
        kappa = solve_homological(-layer, lams, r)
        parts.append(kappa)
        # layer d of the remainder is now solved and never read again; the
        # stream adds only the layers of kappa o fmap above d, where Lambda
        # kappa has none, and at the cap there are none to add
        if d < degree:
            remainder.add(kappa)
    # k = id + sum_d kappa_d, each kappa_d homogeneous of its own degree
    return _disjoint_sum(parts)


def _verified_conjugacy(
    h: SeriesTuple, composed: SeriesTuple, fmap: SeriesTuple, lams: Sequence[Fraction], r: int
) -> ConjugacyResult:
    """Check composed = h o Lambda through h.trunc, for composed = fmap o h
    as the run's power table (series._PowerTable) returned it, and assemble
    the result.

    The check is exactly as strong as one that composes afresh: before the
    table combines, it drops every power layer above the first layer of h
    that differs from the h it read last, so every power layer it reads was
    formed from layers equal to the returned h's.
    """
    residual = composed - h.compose_diagonal(lams)
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
    h: SeriesTuple, fmap: SeriesTuple, table: _PowerTable, lams: Sequence[Fraction], r: int, d: int
) -> SeriesTuple:
    """h with layer d of the residual fmap o h - h o Lambda solved away.

    The caller guarantees that the residual vanishes below d.  Only layer d
    of the residual is formed: layer d of fmap o h at cap d, combined from
    the run's power table, minus the diagonal substitution of h's layer d
    alone.  The layers below d are never combined, so a step cannot see
    them; they are checked by the full f o h = h o Lambda check of
    _verified_conjugacy at the end of either route, and in Newton also by
    the next window's residual.  Since fmap - Lambda has order >= 2, adding
    a layer-d term w changes the residual at degree d by
    Lambda w - w o Lambda alone, so the homological equation solves it.
    The step adds layer d alone, and asserts it: a change to a lower layer
    of h would make the table form every power layer above it again.
    """
    # composition truncates at the least cap, here d
    hd = h.truncated(d)
    residual = table.compose(fmap, hd, d) - hd.layer_tuple(d).compose_diagonal(lams)
    if residual.is_zero():
        return h
    w = solve_homological(residual, lams, r)
    if w.layer_tuple(d) != w:
        raise AssertionError(f"the layer step at degree {d} added a layer other than its own")
    return h + SeriesTuple([comp.as_polynomial(h.trunc) for comp in w.components])


def _check_degree(f: AnalyticMap, degree: int) -> None:
    """Refuse a conjugacy degree that is not an int >= 2 within f's truncation."""
    if type(degree) is not int or degree < 2:
        raise DomainError(f"conjugacy degree must be an integer of at least 2, got {degree!r}")
    if f.trunc < degree:
        raise DomainError(f"map truncation {f.trunc} cannot support degree {degree}")


def linearize_order_by_order(f: AnalyticMap, degree: int) -> ConjugacyResult:
    """Solve f o h = h o Lambda one graded layer at a time, exactly.

    The map must already be in normalized coordinates: diagonal linear
    part, and for a positive-dimensional fixed locus the transverse
    nonlinearity confined to second order (run normalize_fixed_locus
    first).  h is normalized to identity linear part; its correction
    vanishes to second transverse order, so h restricted to the fixed
    locus is the identity.
    """
    _check_degree(f, degree)
    lams = _normalized_eigenvalues(f)
    n, r = f.n, f.fixed_locus_dim
    fmap = f.components.truncated(degree)
    table = _PowerTable(n)
    h = SeriesTuple.identity(n, degree)
    for d in range(2, degree + 1):
        h = _layer_step(h, fmap, table, lams, r, d)
    composed = table.compose(fmap, h)
    # h^(-1) does not read the table: let its kept layers go first
    del table
    return _verified_conjugacy(h, composed, fmap, lams, r)


def _series_matrix_inverse(mat: list[list[MultiSeries]], trunc: int) -> list[list[MultiSeries]]:
    """Inverse through degree trunc of a square series matrix with
    invertible constant part: column j solves mat x = e_j (series._series_solve)."""
    n, nvars = len(mat), mat[0][0].nvars
    columns = [
        _series_solve(mat, SeriesTuple([MultiSeries.constant(int(i == j), nvars, trunc) for i in range(n)]))
        for j in range(n)
    ]
    return [[column[i] for column in columns] for i in range(n)]


def _series_matrix_mul(a: list[list[MultiSeries]], b: list[list[MultiSeries]]) -> list[list[MultiSeries]]:
    """The product of two series matrices: column j is a times column j of b."""
    columns = [_series_matrix_vector(a, SeriesTuple(column)) for column in zip(*b)]
    return [list(row) for row in zip(*columns)]


def _diagonal_matrix(values: Sequence[Fraction], nvars: int, trunc: int) -> list[list[MultiSeries]]:
    return [[MultiSeries.constant(x * (i == j), nvars, trunc) for j in range(len(values))] for i, x in enumerate(values)]


def linearize_newton(
    f: AnalyticMap,
    degree: int,
    params: DiophantineParams,
    prime: int | None = None,
) -> tuple[ConjugacyResult, NewtonTrace]:
    """Newton iteration through doubling degree windows, with a norm trace.

    Produces exactly the conjugacy of linearize_order_by_order (the
    normalized solution is unique); correction orders are 2, 4, 8, ...
    The iteration runs on f and h themselves, with one power table through
    the final check.  The trace holds the norms of the rescaled iteration,
    in the coordinates of u f(x / u), with u the smallest prime power making
    the nonlinearity p-adically small.  The certificates read the norms of
    R(g), R(e) and R(step), for R the conjugation s -> u s(x / u), at rho
    as those of g, e and the step at rho / c, c = 1 / u, without forming
    the conjugates (_rescaled_certificates).
    """
    _check_degree(f, degree)
    n, r = f.n, f.fixed_locus_dim
    lams = _normalized_eigenvalues(f)
    if prime is None:
        prime = choose_prime(f, lams)
    else:
        check_odd_prime(prime)

    fmap = f.components.truncated(degree)
    # the certificates read g, e and the step in the coordinates of u f(x / u), u = p^(-k)
    k = _rescale_exponent(fmap, prime)

    table = _PowerTable(n)
    h = SeriesTuple.identity(n, degree)
    iterations: list[NewtonIteration] = []
    low = 2
    while low <= degree:
        high = min(2 * low - 1, degree)
        hd = h.truncated(high)
        residual = table.compose(fmap, hd) - hd.compose_diagonal(lams)
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
            g = _series_solve([list(SeriesTuple(row).compose_diagonal(lams)) for row in jac], residual)
            # g holds only the window layers low..high (see the module
            # docstring); its cap is raised to degree because the norm
            # bound's horizon is read from it
            g = SeriesTuple([comp.as_polynomial(degree) for comp in g])
            e = solve_homological(g, lams, r)
            # e inherits the window support of g, and Dh has a constant
            # term, so Dh e formed at cap high has its layers in low..high
            correction = _series_matrix_vector(jac, e.truncated(high))
            refined = h + SeriesTuple([comp.as_polynomial(degree) for comp in correction])
            # (Dh o Lambda)^(-1) is a right inverse up to order 2 low - 1, so
            # the pass leaves a residual in layer high at most, which the
            # layer step solves; the next window's residual checks the rest
            refined = _layer_step(refined, fmap, table, lams, r, high)
            step = refined - h
            h = refined
            bound, delta_norm = _rescaled_certificates(g, e, step, lams, rho, delta, params, prime, k)
            iterations.append(
                NewtonIteration(
                    index=index,
                    window=(low, high),
                    delta_order=step.lowest_degree(),
                    delta_norm=delta_norm,
                    rho=rho,
                    bound=bound,
                )
            )
        low = 2 * low

    # the last table read was the closing layer step's, on this h but for
    # its top layer, which no power layer reads: the check forms none
    composed = table.compose(fmap, h)
    del table
    result = _verified_conjugacy(h, composed, fmap, lams, r)
    trace = NewtonTrace(iterations=tuple(iterations), rescale=Fraction(1, prime**k), prime=prime)
    return result, trace


def _rescaled_certificates(
    g: SeriesTuple, e: SeriesTuple, step: SeriesTuple, lams: Sequence[Fraction], rho: Fraction, delta: Fraction,
    params: DiophantineParams, prime: int, k: int,
) -> tuple[NormBoundCertificate, GaussNorm]:
    """The norm bound of R(g), R(e) at rho, delta and the Gauss norm of
    R(step) at rho, for R(s) = x -> s(c x) / c with c = p^k, read on g, e
    and step themselves at rho / c.

    R multiplies a coefficient of degree d by c^(d - 1), of norm
    (1/c)^(d - 1), so a Gauss norm at rho is c times the one at rho / c,
    with the same witness and degree and the valuation raised by k (d - 1).
    A derivative term of degree d - 1 comes from a coefficient of degree d,
    so the derivative norms are the same at both radii, and C1 and the pass
    read the norms, rho and delta only through ratios that c leaves as they
    are.
    """
    c = prime**k
    bound = check_norm_bound(g, e, lams, rho / c, delta / c, params, prime)
    bound = replace(bound, norm_g=c * bound.norm_g, norm_w=c * bound.norm_w, rho=rho, delta=delta)
    norm = tuple_gauss_norm(step, rho / c, prime)
    valuation = None if norm.witness is None else norm.valuation + k * (norm.degree - 1)
    return bound, GaussNorm(c * norm.value, valuation, norm.degree, norm.witness, prime, rho)


def _rescale_exponent(fmap: SeriesTuple, prime: int) -> int:
    """Smallest k >= 0 with all rescaled nonlinear coefficients of norm <= 1/p:
    a term of degree d and valuation v has valuation v + k (d - 1) after the
    rescaling, so k >= (1 - v) / (d - 1)."""
    return max([0] + [-((v - 1) // (d - 1)) for comp in fmap for d, _, v in comp.valuations(prime) if d >= 2])


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
    rho = _as_rational(rho, "radius")
    delta = _as_rational(delta, "radius margin")
    if delta >= rho or delta <= 0:
        raise DomainError("need 0 < delta < rho")
    lams = [_as_rational(x, "eigenvalues") for x in eigenvalues]
    inner = rho - delta
    norm_g = tuple_gauss_norm(g, rho, prime).value
    norm_w = tuple_gauss_norm(w, inner, prime).value
    if len(lams) != w.nvars:
        raise DomainError("diagonal size mismatch")
    norm_dw, norm_dw_lambda = _derivative_norms(w, lams, inner, prime)
    horizon = max(g.trunc, 2)
    derived = _derived_c1(params, rho, delta, horizon)
    if norm_g == 0:
        minimal = RatPow(0, Fraction(1), params.beta)
        passes = w.is_zero()
    else:
        needed = max(norm_w, norm_dw * inner, norm_dw_lambda * inner)
        minimal = RatPow(needed / norm_g, delta / rho, params.beta)
        passes = minimal <= derived
    return NormBoundCertificate(
        passes=passes,
        minimal_c1=minimal,
        derived_c1=derived,
        norm_g=norm_g,
        norm_w=norm_w,
        norm_dw=norm_dw,
        norm_dw_lambda=norm_dw_lambda,
        rho=rho,
        delta=delta,
    )


def _derivative_norms(
    w: SeriesTuple, lams: Sequence[Fraction], rho: Fraction, prime: int
) -> tuple[Fraction, Fraction]:
    """max_(i,j) |d_j w_i|_rho and max_(i,j) |(d_j w_i) o Lambda|_rho, from
    one valuation per coefficient of w, read off its packed layers
    (MultiSeries.valuations).

    A term c x^I of w_i gives the term c I_j x^(I - e_j) of d_j w_i, times
    lambda^(I - e_j) after the diagonal substitution.  No two terms of w_i
    meet in one monomial of d_j w_i, so each norm is the largest
    rho^(|I| - 1) p^(-v) over these terms, with the valuations added:
    v(c I_j lambda^(I - e_j)) = v(c) + v_p(I_j) + sum_k (I - e_j)_k v(lambda_k).
    Only the least valuation of each degree can reach the maximum.  A term
    whose lambda-power vanishes (a zero lambda_k with (I - e_j)_k > 0) is
    absent from the substituted series, as in compose_diagonal.
    """
    zero = {k for k, lam in enumerate(lams) if not lam}
    v_lams = [fraction_valuation(lam, prime) if lam else 0 for lam in lams]
    v_exps = [0] + [int_valuation(e, prime) for e in range(1, w.trunc + 1)]
    least: dict[int, int] = {}  # degree of the derivative -> least valuation
    least_lambda: dict[int, int] = {}
    for comp in w.components:
        for d, exps, v in comp.valuations(prime):
            v_power = sum(e * vl for e, vl in zip(exps, v_lams))
            at_zero = sum(exps[k] for k in zero)
            for j, e in enumerate(exps):
                if not e:
                    continue
                v_term = v + v_exps[e]
                least[d - 1] = min(v_term, least.get(d - 1, v_term))
                # lambda^(I - e_j) is nonzero when no zero lambda_k is left in it
                if at_zero == (j in zero):
                    v_term += v_power - v_lams[j]
                    least_lambda[d - 1] = min(v_term, least_lambda.get(d - 1, v_term))
    p = Fraction(prime)
    return tuple(
        max((rho**d * p**-v for d, v in table.items()), default=Fraction(0))
        for table in (least, least_lambda)
    )


def _derived_c1(params: DiophantineParams, rho: Fraction, delta: Fraction, horizon: int) -> RatPow:
    """(1/C) (delta/rho)^beta max_{2<=m<=horizon} m^beta ((rho-delta)/rho)^m.

    The per-coefficient divisor bound |lambda^I - lambda_j| >= C m^(-beta)
    gives |w_I| <= |g_I| m^beta / C; weighting by (rho-delta)^m / rho^m and
    maximizing over the degrees the truncation can hold yields this
    constant, compared exactly by clearing the rational exponent.  For
    0 < x < 1 and beta >= 0, m^beta x^m is log-concave in m, so the scan
    stops at the first m whose candidate is not larger; a tie keeps the
    first m.
    """
    x = (rho - delta) / rho
    best = RatPow(x**2, Fraction(2), params.beta)
    for m in range(3, horizon + 1):
        cand = RatPow(x**m, Fraction(m), params.beta)
        if not best < cand:
            break
        best = cand
    return RatPow(best.coeff / params.C, best.base * delta / rho, params.beta)


def _conjugated(f: AnalyticMap, mat: list[list[MultiSeries]]) -> tuple[AnalyticMap, SeriesTuple]:
    """(change^(-1) o (f o change), change) for the change (x', 0) + mat x''
    that is linear in the transverse variables x'', with mat an n x (n - r)
    matrix of series along the locus."""
    r, n, trunc = f.fixed_locus_dim, f.n, f.trunc
    moved = _series_matrix_vector(mat, SeriesTuple([MultiSeries.variable(j, n, trunc) for j in range(r, n)]))
    change = SeriesTuple([comp + MultiSeries.variable(i, n, trunc) if i < r else comp for i, comp in enumerate(moved)])
    return AnalyticMap(change.invert().compose(f.components.compose(change)), r), change


def _transverse_linear_blocks(
    shifted: SeriesTuple, r: int
) -> tuple[list[list[MultiSeries]], list[list[MultiSeries]]]:
    """Blocks a', a'' of terms of transverse degree exactly one, as matrices
    of series in the locus coordinates (stored with full-width exponents)."""
    n, trunc, t = shifted.nvars, shifted.trunc, shifted.nvars - r
    entries: list[list[list]] = [[[] for _ in range(t)] for _ in range(n)]
    for row, comp in zip(entries, shifted):
        for exps, coeff in comp.terms():
            if sum(exps[r:]) == 1:
                row[exps.index(1, r) - r].append((exps[:r] + (0,) * t, coeff))
    rows = [[MultiSeries(n, trunc, terms) for terms in row] for row in entries]
    return rows[:r], rows[r:]


def _diagonalizing_matrix(a_tail: list[list[MultiSeries]]) -> tuple[list[Fraction], list[list[MultiSeries]]]:
    """The eigenvalues lambda_j of the transverse block B = 1 + a'', in pivot
    order, and the matrix C of series along the locus whose column j is
    P_(lambda_j)(B) v_j.

    B must be semisimple with constant eigenvalues along the locus: the
    characteristic polynomial is computed over the series ring, by the
    trace recursion of dynamics._char_poly, and must have constant
    coefficients, and B C = C D must hold for D = diag(lambda_j).  v_j is
    the j-th eigenvector of B(0), in pivot order, and lambda_j its
    eigenvalue.  Column j is formed from v_j by one matrix-vector step per
    factor (B - mu) / (lambda_j - mu) of the interpolation projector
    P_lambda = prod_{mu != lambda} (B - mu) / (lambda - mu); no projector
    matrix is formed.  C(0) = (v_1 ... v_t) is invertible, so B C = C D
    holds exactly when B = C D C^(-1), that is when B P_lambda =
    lambda P_lambda for every lambda.  That makes each P_lambda idempotent,
    and the P_lambda sum to the identity for every B, so the one check is
    as strong as checking the projectors.  Column j equals C0 times column
    j of P_(lambda_j)(C0^(-1) B C0) for C0 = (v_1 ... v_t), the route
    through the eigenbasis, since P_lambda(C0^(-1) B C0) =
    C0^(-1) P_lambda(B) C0 in the truncated ring.
    """
    t, nvars, trunc = len(a_tail), a_tail[0][0].nvars, a_tail[0][0].trunc
    block = [
        [a + MultiSeries.constant(int(i == j), nvars, trunc) for j, a in enumerate(row)] for i, row in enumerate(a_tail)
    ]
    *lower, lead = _char_poly(block, _series_matrix_mul)
    for coeff_series in lower:
        if not coeff_series.substitute_zero(range(nvars)).agrees_through(coeff_series, trunc):
            raise EigenvalueVariationError(
                "transverse eigenvalues vary along the fixed locus"
            )
    roots = _rational_roots_monic([c.constant_term() for c in lower] + [lead])
    if roots is None:
        raise IrrationalEigenvalueError("transverse eigenvalues are not rational")
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
    ordered = [lam for _, lam, _ in collected]
    distinct = sorted(set(ordered))
    columns = []
    for _, lam, vec in collected:
        column = SeriesTuple([MultiSeries.constant(c, nvars, trunc) for c in vec])
        for other in distinct:
            if other != lam:
                image = _series_matrix_vector(block, column)
                column = SeriesTuple([(b - c.scale(other)).scale(1 / (lam - other)) for b, c in zip(image, column)])
        if _series_matrix_vector(block, column) != SeriesTuple([c.scale(lam) for c in column]):
            raise NotSemisimpleError("transverse block is not semisimple over the locus")
        columns.append(column)
    return ordered, [list(row) for row in zip(*columns)]


def normalize_fixed_locus(f: AnalyticMap) -> tuple[AnalyticMap, SeriesTuple]:
    """(g, change) with g = change^(-1) o f o change: the head-tail linear
    coupling along the fixed locus removed and the transverse linear block
    made constant diagonal, in one conjugation.

    Writes f = (x' + a' x''; x'' + a'' x'') to second transverse order,
    with a', a'' matrices of series in the locus coordinates x'.  The change
    is (x', 0) + [M C; C] x'' (_conjugated).  Its head part M = a' (a'')^(-1)
    is the shear that makes f the identity on x' modulo I_F^2; the shear
    leaves the transverse block B = 1 + a'' unchanged, so C, which
    diagonalizes B (_diagonalizing_matrix), is read from f itself: it is
    built column by column from the eigenvectors of B(0) and accepted only
    if B C = C D.  A map with no coupling and a constant diagonal B is
    returned with the identity.
    """
    r, n, trunc = f.fixed_locus_dim, f.n, f.trunc
    identity = SeriesTuple.identity(n, trunc)
    a_head, a_tail = _transverse_linear_blocks(f.components - identity, r)
    if r and ratlinalg.det([[entry.constant_term() for entry in row] for row in a_tail]) == 0:
        raise SingularBlockError(
            "transverse block of Df - 1 is singular at the fixed point "
            "(the eigenvalue-one count does not match the locus dimension)"
        )
    coupled = any(not entry.is_zero() for row in a_head for entry in row)
    if not coupled and a_tail == _diagonal_matrix([row[i].constant_term() for i, row in enumerate(a_tail)], n, trunc):
        return f, identity
    ordered, tail = _diagonalizing_matrix(a_tail)
    # an uncoupled map has a' = 0, and then M C = 0 as well
    head = a_head
    if coupled:
        head = _series_matrix_mul(_series_matrix_mul(a_head, _series_matrix_inverse(a_tail, trunc)), tail)
    g_map, change = _conjugated(f, head + tail)
    g_head, g_tail = _transverse_linear_blocks(g_map.components - identity, r)
    expected = _diagonal_matrix([lam - 1 for lam in ordered], n, trunc)
    if any(not entry.is_zero() for row in g_head for entry in row) or g_tail != expected:
        raise AssertionError("normalization left a head-tail coupling or a non-diagonal transverse block")
    return g_map, change
