"""Self-map germs, eigenvalue analysis, resonance and relation machinery.

A map is a tuple of truncated series fixing the origin, together with a
declared fixed-locus dimension r: coordinates are arranged so the fixed
locus is the plane where the last n - r variables vanish, and construction
verifies that this plane really is fixed pointwise.

Eigenvalues are restricted to the rationals.  Multiplicative relations
among them are computed exactly from prime factorizations, never by
bounded search; signs are tracked separately from prime exponents since a
negative eigenvalue is the only way rational torsion can enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import ratlinalg
from .arith import (
    _as_rational,
    divisors,
    factorize,
    fraction_valuation,
    int_valuation,
    integer_kernel,
    is_prime,
)
from .errors import DomainError, IrrationalEigenvalueError
from .series import MultiSeries, SeriesTuple, _DiagonalPowers, _packer, graded_monomials


class Resonance(NamedTuple):
    """A relation lambda^monomial = lambda_component with |monomial| >= 2.

    The monomial runs over the transverse (tail) variables only; the
    component index is 0-based over all n coordinates.
    """

    monomial: tuple[int, ...]
    component: int


@dataclass(frozen=True)
class DiophantineParams:
    """Lower-bound parameters |lambda^I - lambda_j| >= C |I|^(-beta)."""

    C: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "C", _as_rational(self.C, "C"))
        object.__setattr__(self, "beta", _as_rational(self.beta, "beta"))
        if self.C <= 0:
            raise DomainError("C must be positive")
        if self.beta < 0:
            raise DomainError("beta must be non-negative")


@dataclass(frozen=True)
class EigenData:
    """Eigenvalues with whatever relation analysis has been run on them."""

    eigenvalues: tuple[Fraction, ...]
    semisimple: bool


@dataclass(frozen=True)
class RelationLattice:
    """The exact lattice {I in Z^n : lambda^I = 1} and derived data.

    ``basis`` spans the full lattice (signs included).  ``complement``
    extends the sign-blind kernel to a basis of Z^n and is what monomial
    coordinate changes on orbits are built from.  ``rank`` is the free rank
    of the multiplicative group generated by the eigenvalues.
    """

    basis: tuple[tuple[int, ...], ...]
    complement: tuple[tuple[int, ...], ...]
    unsigned_kernel: tuple[tuple[int, ...], ...]
    rank: int
    torsion_free: bool


@dataclass(frozen=True)
class SymplecticReport:
    holds: bool
    mu: Fraction
    pairs: tuple[tuple[Fraction, Fraction], ...] | None


class AnalyticMap:
    """A polynomial self-map germ fixing the origin.

    Attributes:
        components:       the defining series tuple, one per coordinate
        fixed_locus_dim:  declared dimension r of the fixed locus
    """

    __slots__ = ("components", "fixed_locus_dim")

    def __init__(
        self,
        components: SeriesTuple | Sequence[MultiSeries],
        fixed_locus_dim: int = 0,
    ) -> None:
        comps = components if isinstance(components, SeriesTuple) else SeriesTuple(components)
        n = comps.nvars
        if len(comps) != n:
            raise DomainError("a self-map needs as many components as variables")
        if not 0 <= fixed_locus_dim <= n:
            raise DomainError("fixed-locus dimension out of range")
        for i, comp in enumerate(comps):
            if comp.constant_term():
                raise DomainError(f"component {i} does not fix the origin")
        r = fixed_locus_dim
        if r > 0:
            tail = range(r, n)
            for i, comp in enumerate(comps):
                on_locus = comp.substitute_zero(tail)
                expected = MultiSeries.variable(i, n, comp.trunc) if i < r else MultiSeries.zero(n, comp.trunc)
                if on_locus != expected:
                    raise DomainError(
                        f"component {i} does not fix the declared locus x_{r}..x_{n-1} = 0"
                    )
        self.components = comps
        self.fixed_locus_dim = r

    @property
    def n(self) -> int:
        return self.components.nvars

    @property
    def trunc(self) -> int:
        return self.components.trunc

    def __repr__(self) -> str:
        return f"AnalyticMap(n={self.n}, r={self.fixed_locus_dim}, trunc={self.trunc})"


def jacobian_at_origin(f: AnalyticMap | SeriesTuple) -> list[list[Fraction]]:
    """Matrix of degree-one coefficients of the map."""
    comps = f.components if isinstance(f, AnalyticMap) else f
    return comps.linear_matrix()


def _char_poly(m: list[list], mat_mul) -> list:
    """Monic characteristic polynomial, constant coefficient first, by the
    Faddeev-LeVerrier recursion a_k = -tr(M_k) / k, M_(k+1) = m (M_k + a_k)
    over any commutative ring containing Q (rationals, or series along a
    fixed locus) whose matrix product is mat_mul; the leading 1 is a Fraction."""
    n = len(m)
    coeffs = [Fraction(1)]
    mk = m
    for k in range(1, n + 1):
        if k > 1:
            mk = mat_mul(m, [[x + a if i == j else x for j, x in enumerate(row)] for i, row in enumerate(mk)])
        a = sum((mk[i][i] for i in range(1, n)), mk[0][0]) * Fraction(-1, k)
        coeffs.append(a)
    return coeffs[::-1]


def _rational_roots_monic(coeffs: list[Fraction]) -> list[Fraction] | None:
    """All roots with multiplicity of a monic rational polynomial, or None if
    any root is irrational."""
    work = list(coeffs)
    roots: list[Fraction] = []
    while len(work) > 1:
        zero_root = work[0] == 0
        if zero_root:
            roots.append(Fraction(0))
            work = work[1:]
            continue
        den = 1
        for c in work:
            den = math.lcm(den, c.denominator)
        ints = [int(c * den) for c in work]
        lead, const = ints[-1], ints[0]
        lead_divisors = _divisor_candidates(abs(lead))
        candidates = (
            Fraction(sign * u, w) for u in _divisor_candidates(abs(const)) for w in lead_divisors for sign in (1, -1)
        )
        found = next((cand for cand in candidates if _poly_eval(work, cand) == 0), None)
        if found is None:
            return None
        roots.append(found)
        work = _synthetic_divide(work, found)
    return roots


def _divisor_candidates(n: int) -> list[int]:
    if n == 0:
        return [1]
    return divisors(n)


def _poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _synthetic_divide(coeffs: Sequence[Fraction], root: Fraction) -> list[Fraction]:
    out = [Fraction(0)] * (len(coeffs) - 1)
    carry = Fraction(0)
    for i in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[i] + carry * root
        out[i - 1] = carry
    return out


def rational_eigenvalues(matrix: Sequence[Sequence[Fraction]]) -> EigenData:
    """Eigenvalues with multiplicity and a semisimplicity verdict.

    Diagonal matrices keep their coordinate ordering; otherwise the ones
    come first and the rest are sorted.  Raises IrrationalEigenvalueError
    when the characteristic polynomial has non-rational roots; the caller
    may re-enter the map in diagonalizing coordinates.
    """
    m = ratlinalg.as_matrix(matrix)
    n = len(m)
    if any(len(row) != n for row in m):
        raise DomainError("eigenvalues of a non-square matrix")
    roots = _rational_roots_monic(_char_poly(m, ratlinalg.mat_mul))
    if roots is None:
        raise IrrationalEigenvalueError(
            "characteristic polynomial has no full set of rational roots"
        )
    if ratlinalg.is_diagonal(m):
        eigen = tuple(m[i][i] for i in range(n))
    else:
        ones = [x for x in roots if x == 1]
        rest = sorted(x for x in roots if x != 1)
        eigen = tuple(ones + rest)
    distinct = sorted(set(roots))
    prod = ratlinalg.identity(n)
    for lam in distinct:
        prod = ratlinalg.mat_mul(prod, [[m[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)])
    semisimple = all(not prod[i][j] for i in range(n) for j in range(n))
    return EigenData(eigenvalues=eigen, semisimple=semisimple)


def enumerate_resonances(
    eigenvalues: "Sequence[Fraction] | _DiagonalPowers", r: int, max_degree: int
) -> list[Resonance]:
    """All (I, j) with lambda^I = lambda_j, I over tail variables, 2 <= |I| <= max_degree.

    lambda^I is the reduced integer pair of (0, ..., 0) + I in a
    _DiagonalPowers table of the eigenvalues, compared with the pairs
    (n_j, d_j) of the lambda_j, so no Fraction is built; a table passed in
    is read and grown in place.  The list is sorted by degree, monomial and
    component.
    """
    table = _DiagonalPowers.of(eigenvalues)
    lams = table.factors
    n = len(lams)
    if not 0 <= r <= n:
        raise DomainError("fixed-locus dimension out of range")
    if any(lams[i] != 1 for i in range(r)):
        raise DomainError("the first r eigenvalues must equal one")
    if any(x == 0 for x in lams):
        raise DomainError("eigenvalues must be nonzero")
    t = n - r
    if not t:
        return []
    head, pack = (0,) * r, _packer(n)
    out = []
    for tail in graded_monomials(t, max_degree)[1 + t :]:
        value = table.pair(pack(head + tail))
        out.extend(Resonance(tail, j) for j, ratio in enumerate(table.ratios) if value == ratio)
    out.sort(key=lambda res: (sum(res.monomial), res.monomial, res.component))
    return out


def relation_lattice(eigenvalues: Sequence[Fraction]) -> RelationLattice:
    """Exact multiplicative-relation lattice via prime-factorization linear algebra."""
    lams = [_as_rational(x, "eigenvalues") for x in eigenvalues]
    if any(x == 0 for x in lams):
        raise DomainError("eigenvalues must be nonzero")
    n = len(lams)
    primes = sorted({p for lam in lams for p in factorize(abs(lam.numerator)) | factorize(lam.denominator)})
    rows = [
        [
            int_valuation(abs(lam.numerator), p) - int_valuation(lam.denominator, p)
            for lam in lams
        ]
        for p in primes
    ]
    kernel, complement = integer_kernel(rows, n)
    signs = [1 if lam < 0 else 0 for lam in lams]

    def parity(vec: Sequence[int]) -> int:
        return sum(v * s for v, s in zip(vec, signs)) % 2

    torsion_free = all(parity(vec) == 0 for vec in kernel)
    basis = [list(vec) for vec in kernel]
    odd = [i for i, vec in enumerate(basis) if parity(vec) == 1]
    if odd:
        anchor = odd[0]
        for i in odd[1:]:
            basis[i] = [a - b for a, b in zip(basis[i], basis[anchor])]
        basis[anchor] = [2 * a for a in basis[anchor]]
    return RelationLattice(
        basis=tuple(tuple(vec) for vec in basis),
        complement=tuple(tuple(vec) for vec in complement),
        unsigned_kernel=tuple(tuple(vec) for vec in kernel),
        rank=n - len(kernel),
        torsion_free=torsion_free,
    )


def symplectic_scaling_check(
    matrix: Sequence[Sequence[Fraction]],
    sigma: Sequence[Sequence[Fraction]],
    mu: Fraction,
) -> SymplecticReport:
    """Decide M^T sigma M = mu sigma exactly; report the eigenvalue pairing.

    The pairing (each lambda matched with mu / lambda) is only attempted
    when the identity holds and M is semisimple with rational eigenvalues.
    """
    m = ratlinalg.as_matrix(matrix)
    s = ratlinalg.as_matrix(sigma)
    mu = _as_rational(mu, "mu")
    n = len(s)
    if n % 2 != 0:
        raise DomainError("symplectic form needs even dimension")
    if any(len(row) != n for row in s) or len(m) != n or any(len(row) != n for row in m):
        raise DomainError("dimension mismatch")
    for i in range(n):
        for j in range(n):
            if s[i][j] != -s[j][i]:
                raise DomainError("form is not antisymmetric")
    if ratlinalg.det(s) == 0:
        raise DomainError("form is degenerate")
    lhs = ratlinalg.mat_mul(ratlinalg.mat_mul(ratlinalg.transpose(m), s), m)
    holds = all(lhs[i][j] == mu * s[i][j] for i in range(n) for j in range(n))
    pairs = None
    if holds:
        try:
            eigen = rational_eigenvalues(m)
        except IrrationalEigenvalueError:
            eigen = None
        if eigen is not None and eigen.semisimple:
            remaining = list(eigen.eigenvalues)
            built = []
            while remaining:
                lam = remaining.pop(0)
                partner = mu / lam
                if partner in remaining:
                    remaining.remove(partner)
                    built.append((lam, partner))
                else:
                    built = None
                    break
            if built is not None:
                pairs = tuple(built)
    return SymplecticReport(holds=holds, mu=mu, pairs=pairs)


def standard_symplectic_form(n: int) -> list[list[Fraction]]:
    """The form pairing (e_i, e_{i + n/2}); n must be even."""
    if n % 2 != 0:
        raise DomainError("even dimension required")
    half = n // 2
    s = [[Fraction(0)] * n for _ in range(n)]
    for i in range(half):
        s[i][i + half] = Fraction(1)
        s[i + half][i] = Fraction(-1)
    return s


def choose_prime(f: AnalyticMap, eigenvalues: Sequence[Fraction] | None = None) -> int:
    """Smallest odd prime at which all eigenvalues are units and all map
    coefficients are integral."""
    lams = list(eigenvalues) if eigenvalues is not None else None
    if lams is None:
        try:
            lams = list(rational_eigenvalues(jacobian_at_origin(f)).eigenvalues)
        except IrrationalEigenvalueError:
            lams = []
    if any(lam == 0 for lam in lams):
        raise DomainError("a zero eigenvalue is a unit at no prime")
    coeffs = [c for comp in f.components for _, c in comp.terms()]
    p = 3
    while True:
        if is_prime(p):
            ok = all(fraction_valuation(lam, p) == 0 for lam in lams)
            ok = ok and all(fraction_valuation(c, p) >= 0 for c in coeffs if c)
            if ok:
                return p
        p += 2
