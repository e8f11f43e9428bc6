"""Invariant p-adic neighbourhoods, vanishing sums, and density probes.

Orbit iteration works modulo p**K: a map with p-integral coefficients
sends the polydisc of points with all coordinate valuations >= s into
itself, and every iterate is certified to stay there and to be congruent
to the start modulo p**s.  When the linear part has unit determinant the
map is a p-adic isometry near the fixed point, checked on sampled pairs
through valuations of differences.  The unit test reads the linear
coefficients' residues mod p: every coefficient has been checked to be
p-integral, and reduction Z_(p) -> F_p is a ring map, so det J is a p-adic
unit exactly when the determinant of those residues is nonzero mod p.

Vanishing sums sum a_i b_i^s are evaluated at working precision; a
candidate zero counts only if it also vanishes at doubled precision.  The
finiteness certificate packages the stabilizing exponent M, the logarithms
c_i = log b_i^M (pairwise distinct exactly when the group generated by the
b_i is torsion-free), and a separating polynomial that strictly dominates
the leading-norm block.

Density probes are exact kernel computations of monomial-evaluation
matrices on orbit samples: an empty kernel at degree d is evidence that no
algebraic relation of degree <= d holds on the orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Sequence

from . import ratlinalg
from .arith import _as_rational, check_odd_prime, fraction_abs, fraction_valuation, int_valuation
from .dynamics import (
    AnalyticMap,
    RelationLattice,
    _poly_eval,
    jacobian_at_origin,
    rational_eigenvalues,
    relation_lattice,
)
from .errors import (
    DomainError,
    IntegralityError,
    PrecisionError,
    TorsionError,
)
from .padic import INFINITY, PAdic, _canonical, _minus_multiple, _Powers, padic_log, stabilizing_exponent
from .series import MultiSeries, _parent, graded_monomials


@dataclass(frozen=True)
class Neighbourhood:
    """The polydisc of points with every coordinate valuation >= level."""

    prime: int
    level: int
    dim: int

    def __post_init__(self):
        check_odd_prime(self.prime)
        if self.level < 1:
            raise DomainError("neighbourhood level must be at least 1")

    def contains(self, point: Sequence[PAdic]) -> bool:
        if len(point) != self.dim:
            return False
        return all(x.valuation >= self.level for x in point)


@dataclass(frozen=True)
class OrbitResult:
    points: tuple[tuple[PAdic, ...], ...]
    neighbourhood: Neighbourhood
    stays_in_neighbourhood: bool
    constant_mod_level: bool
    unit_jacobian: bool
    isometry_pairs_checked: int
    isometry_pairs_skipped: int


def _residue(q: Fraction, modulus: int) -> int:
    """q modulo modulus, for a q whose denominator is prime to modulus."""
    return q.numerator % modulus * pow(q.denominator % modulus, -1, modulus) % modulus


def _coefficient_residues(f: AnalyticMap, prime: int, modulus: int) -> tuple[list, list[int]]:
    """The map reduced modulo modulus, as (components, top).

    Each component is a list of (factors, coefficient), factors being the
    (variable, exponent) pairs of the nonzero exponents; top[i] is the
    largest exponent of variable i in any term.
    """
    components = []
    top = [0] * f.n
    for comp in f.components:
        terms = []
        for exps, coeff in comp.terms():
            if fraction_valuation(coeff, prime) < 0:
                raise IntegralityError(
                    f"coefficient {coeff} is not {prime}-integral"
                )
            factors = tuple((i, e) for i, e in enumerate(exps) if e)
            for i, e in factors:
                top[i] = max(top[i], e)
            terms.append((factors, _residue(coeff, modulus)))
        components.append(terms)
    return components, top


def iterate_in_neighbourhood(
    f: AnalyticMap,
    start: Sequence[Fraction | PAdic],
    steps: int,
    neighbourhood: Neighbourhood,
    precision: int = 32,
) -> OrbitResult:
    """Iterate a p-integral map and certify invariance of the polydisc.

    steps must be an int >= 0 and precision an int, else DomainError (a
    bool is no int); a precision below the level is a PrecisionError.

    Every iterate is checked to keep all coordinate valuations >= level and
    to agree with the starting point modulo p**level.  With a unit Jacobian
    determinant, valuations of differences of consecutive distinct points
    are checked to be preserved (local isometry evidence); pairs that are
    indistinguishable at the working precision are skipped and counted.

    On every input accepted here these checks hold, by the polydisc theorem
    (module docstring).  The map has p-integral coefficients and fixes the
    origin, so it sends the level-s polydisc into itself:
    ``stays_in_neighbourhood`` and ``constant_mod_level`` are always True.
    With a unit Jacobian, f(a) - f(b) is J(a - b) plus terms of valuation
    at least v(a - b) + s, and v(J(a - b)) = v(a - b), so every gap below
    the precision is preserved and the isometry check cannot fail.  The
    flags record the certificate; they never reject an orbit.
    """
    if type(steps) is not int or steps < 0:
        raise DomainError(f"steps must be an int >= 0, got {steps!r}")
    if type(precision) is not int:
        raise DomainError(f"precision must be an int, got {precision!r}")
    p, s, n = neighbourhood.prime, neighbourhood.level, neighbourhood.dim
    if n != f.n:
        raise DomainError("neighbourhood dimension does not match the map")
    if precision < s:
        raise PrecisionError(f"precision {precision} cannot certify level {s}")
    modulus = p**precision
    components, top = _coefficient_residues(f, p, modulus)

    residues: list[int] = []
    for i, x in enumerate(start):
        if isinstance(x, PAdic):
            if x.prime != p:
                raise DomainError("point prime does not match the neighbourhood")
            value = x.residue(precision)
        else:
            q = _as_rational(x, "start point")
            if q != 0 and fraction_valuation(q, p) < 0:
                raise DomainError(f"coordinate {i} is not integral")
            value = _residue(q, modulus)
        residues.append(value)
    point = tuple(residues)
    if any(_residue_valuation(x, p, precision) < s for x in point):
        raise DomainError("starting point is outside the neighbourhood")

    # det J is a p-adic unit exactly when the linear residues have a
    # determinant prime to p (module docstring)
    linear = [[0] * n for _ in range(n)]
    for row, terms in zip(linear, components):
        for factors, c in terms:
            if len(factors) == 1 and factors[0][1] == 1:
                row[factors[0][0]] = c % p
    unit_jacobian = ratlinalg.det(linear) % p != 0

    orbit = [point]
    for _ in range(steps):
        point = _evaluate_residues(components, top, point, modulus)
        orbit.append(point)

    # each residue x = p**v * unit splits into canonical fields: the unit is
    # prime to p and below p**(precision - v), 0 has v = precision, and the
    # neighbourhood has checked the prime
    points = []
    lowest = precision
    for pt in orbit:
        coords = []
        for x in pt:
            v, unit = (0, x) if x else (precision, 0)
            while unit and unit % p == 0:
                unit //= p
                v += 1
            if v < lowest:
                lowest = v
            coords.append(_canonical(p, v, unit, precision - v))
        points.append(tuple(coords))
    # the start is 0 mod p**s, so a point agrees with it mod p**s exactly
    # when its coordinates have valuation >= s: the two flags are one
    stays = lowest >= s

    checked = skipped = 0
    if unit_jacobian:
        # the gap of a pair, the least valuation of its coordinate
        # differences, is that of their gcd, which is below p**precision in
        # absolute value; the gap of each consecutive pair is the image gap
        # of the pair before
        gaps = [
            _residue_valuation(gcd(*(x - y for x, y in zip(a, b))), p, precision)
            for a, b in zip(orbit, orbit[1:])
        ]
        for gap, image_gap in zip(gaps, gaps[1:]):
            if gap >= precision:
                skipped += 1
                continue
            if image_gap != gap:
                raise AssertionError(
                    "unit-Jacobian map failed to preserve a difference valuation"
                )
            checked += 1

    return OrbitResult(
        points=tuple(points),
        neighbourhood=neighbourhood,
        stays_in_neighbourhood=stays,
        constant_mod_level=stays,
        unit_jacobian=unit_jacobian,
        isometry_pairs_checked=checked,
        isometry_pairs_skipped=skipped,
    )


def _evaluate_residues(components: list, top: list[int], point: tuple[int, ...], modulus: int) -> tuple[int, ...]:
    """The map at a point whose coordinates are already reduced mod modulus.

    Powers are tabled reduced up to each variable's top exponent; each term
    and each component sum is formed over the integers and reduced once per
    component.
    """
    powers = []
    for x, highest in zip(point, top):
        table = [1, x]
        for _ in range(highest - 1):
            table.append(table[-1] * x % modulus)
        powers.append(table)
    out = []
    for terms in components:
        total = 0
        for factors, c in terms:
            value = c
            for i, e in factors:
                value *= powers[i][e]
            total += value
        out.append(total % modulus)
    return tuple(out)


def _residue_valuation(x: int, p: int, precision: int) -> int:
    """Valuation of x, capped at precision; requires |x| < p**precision."""
    return precision if x == 0 else int_valuation(x, p)


@dataclass(frozen=True)
class SeparatingPolynomial:
    """Product over residue classes avoiding the target unit's class.

    |P(x)| equals |P(target)| exactly when x is congruent to the target
    modulo p**level, and is strictly smaller otherwise; both properties are
    verified on the supplied units.
    """

    coefficients: tuple[int, ...]
    prime: int
    level: int
    target_index: int
    target_abs: Fraction
    verified: bool

    def eval(self, x: Fraction) -> Fraction:
        return _poly_eval(self.coefficients, x)


def separating_polynomial(
    units: Sequence[Fraction], target_index: int, level: int, prime: int
) -> SeparatingPolynomial:
    """Build P(x) = prod over classes b != class(target) of (x - b_lift).

    The level is raised until the supplied units are pairwise distinct
    modulo p**level, so the construction never fails.
    """
    bs = [_as_rational(b, "units") for b in units]
    if not 0 <= target_index < len(bs):
        raise DomainError("target index out of range")
    for b in bs:
        if b == 0 or fraction_valuation(b, prime) != 0:
            raise DomainError(f"{b} is not a unit at {prime}")
    if len(set(bs)) != len(bs):
        raise DomainError("units must be pairwise distinct")
    s = max(level, 1)
    while True:
        modulus = prime**s
        residues = [_residue(b, modulus) for b in bs]
        if len(set(residues)) == len(residues):
            break
        s += 1
    target_residue = residues[target_index]
    coeffs = [1]
    for rep in range(modulus):
        if rep != target_residue:
            coeffs = _poly_mul_linear(coeffs, -rep)
    target_abs = fraction_abs(_poly_eval(coeffs, bs[target_index]), prime)
    verified = True
    for i, b in enumerate(bs):
        value = fraction_abs(_poly_eval(coeffs, b), prime)
        if i == target_index or residues[i] == target_residue:
            if value != target_abs:
                verified = False
        elif not value < target_abs:
            verified = False
    return SeparatingPolynomial(
        coefficients=tuple(coeffs),
        prime=prime,
        level=s,
        target_index=target_index,
        target_abs=target_abs,
        verified=verified,
    )


def _poly_mul_linear(coeffs: list[int], root_negated: int) -> list[int]:
    out = [0] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] += c * root_negated
        out[i + 1] += c
    return out


@dataclass(frozen=True)
class FinitenessCertificate:
    """Data behind the finite-vanishing conclusion for a unit power sum."""

    stabilizing_exponent: int
    log_digits: tuple[str, ...]
    logs_pairwise_distinct: bool
    leading_indices: tuple[int, ...]
    separating: SeparatingPolynomial


class VanishingSumInstance:
    """A finite sum s -> sum a_i b_i^s with distinct units b_i.

    Built from exact rationals so the working precision can be doubled on
    demand.  The units must generate a torsion-free multiplicative group,
    certified exactly through factorization and sign analysis, and
    p-adically by the pairwise-distinct logarithms of b_i^M.
    """

    __slots__ = ("a", "b", "prime", "precision", "M", "logs")

    def __init__(
        self,
        a: Sequence[Fraction],
        b: Sequence[Fraction],
        prime: int,
        precision: int = 24,
    ) -> None:
        check_odd_prime(prime)
        a = [_as_rational(x, "coefficients") for x in a]
        b = [_as_rational(x, "units") for x in b]
        if not a or len(a) != len(b):
            raise DomainError("need matching nonempty coefficient and unit vectors")
        if any(x == 0 for x in a):
            raise DomainError("coefficients must be nonzero")
        if len(set(b)) != len(b):
            raise DomainError("units must be pairwise distinct")
        for x in b:
            if x == 0 or fraction_valuation(x, prime) != 0:
                raise DomainError(f"{x} is not a unit at {prime}")
        lattice = relation_lattice(b)
        if not lattice.torsion_free:
            raise TorsionError("units generate a group with torsion")
        self.a = tuple(a)
        self.b = tuple(b)
        self.prime = prime
        self.precision = precision
        orders = [
            stabilizing_exponent(PAdic.from_rational(x, prime, precision)) for x in b
        ]
        self.M = lcm(*orders)
        logs = []
        for x in b:
            u = PAdic.from_rational(x**self.M, prime, precision)
            logs.append(padic_log(u))
        for i in range(len(logs)):
            for j in range(i + 1, len(logs)):
                if (logs[i] - logs[j]).is_zero():
                    raise PrecisionError(
                        "logarithms collide at the working precision; raise it"
                    )
        self.logs = tuple(logs)

    def evaluate(self, exponent: int, precision: int | None = None) -> PAdic:
        """The sum at one exponent, at the working or a custom precision."""
        prec = precision if precision is not None else self.precision
        total = PAdic.zero(self.prime)
        for coeff, base in zip(self.a, self.b):
            term = PAdic.from_rational(coeff * base**exponent, self.prime, prec)
            total = total + term
        return total


@dataclass(frozen=True)
class VanishingReport:
    solutions: frozenset[int]
    searched_through: int
    certificate: FinitenessCertificate


def vanishing_exponents(inst: VanishingSumInstance, s_max: int) -> VanishingReport:
    """All s in [1, s_max] with sum a_i b_i^s = 0 at the zero-at-precision policy.

    A candidate counts as zero only if the sum vanishes at the working
    precision and again at doubled precision.
    """
    if s_max < 1:
        raise DomainError("horizon must be at least 1")
    p, prec = inst.prime, inst.precision
    modulus = p**prec
    scale = p ** max(0, -min(fraction_valuation(a, p) for a in inst.a))
    coeff_res = [_residue(a * scale, modulus) for a in inst.a]
    base_res = [_residue(b, modulus) for b in inst.b]
    powers = list(base_res)
    found = []
    for s in range(1, s_max + 1):
        total = 0
        for c, bp in zip(coeff_res, powers):
            total = (total + c * bp) % modulus
        if total == 0 and inst.evaluate(s, 2 * prec).is_zero():
            found.append(s)
        powers = [bp * br % modulus for bp, br in zip(powers, base_res)]
    abs_values = [fraction_abs(a, p) for a in inst.a]
    top = max(abs_values)
    leading = tuple(i for i, v in enumerate(abs_values) if v == top)
    separating = separating_polynomial(inst.b, leading[0], 1, p)
    certificate = FinitenessCertificate(
        stabilizing_exponent=inst.M,
        log_digits=tuple(c.digit_string() for c in inst.logs),
        logs_pairwise_distinct=True,
        leading_indices=leading,
        separating=separating,
    )
    return VanishingReport(
        solutions=frozenset(found), searched_through=s_max, certificate=certificate
    )


def interpolation_reduction(
    inst: VanishingSumInstance, samples: Sequence[int], order: int
) -> list[PAdic]:
    """Sliding divided differences of s -> sum a_i b_i^s over the samples.

    Samples must be distinct and congruent modulo the stabilizing exponent;
    order m uses windows of m + 1 nodes.  As the window slides toward a
    p-adic limit point the values approach the m-th derivative data
    sum a_i b_i^(s0) (c_i / M)^m up to m!, which is what forces class sums
    to vanish when the sum vanishes on an infinite set.
    """
    nodes = sorted(set(int(j) for j in samples), reverse=True)
    if len(nodes) != len(samples):
        raise DomainError("sample exponents must be distinct")
    if order < 0:
        raise DomainError("derivative order must be non-negative")
    if len(nodes) < order + 1:
        raise DomainError(f"need at least {order + 1} samples for order {order}")
    residue = nodes[0] % inst.M
    if any(j % inst.M != residue for j in nodes):
        raise DomainError("samples must be congruent modulo the stabilizing exponent")
    out = []
    # slide from the numerically smallest window upward: when the samples
    # approach a limit point through growing prime powers, successive
    # windows are p-adically closer to it, so the outputs converge
    for t in range(len(nodes) - order - 1, -1, -1):
        window = nodes[t : t + order + 1]
        total = PAdic.zero(inst.prime)
        for l, j_l in enumerate(window):
            denom = 1
            for k, j_k in enumerate(window):
                if k != l:
                    denom *= j_l - j_k
            value = inst.evaluate(j_l)
            quotient = value / PAdic.from_rational(denom, inst.prime, inst.precision)
            total = total + quotient
        exhausted = (
            total.unit_digits == 0
            and not total.is_exact_zero()
            and total.valuation <= 0
        )
        if exhausted:
            raise PrecisionError(
                "divided-difference denominators consumed all working digits"
            )
        out.append(total)
    return out


@dataclass(frozen=True)
class RelationProbe:
    """Kernel of the monomial-evaluation matrix on sample points."""

    monomials: tuple[tuple[int, ...], ...]
    kernel: tuple[tuple[Fraction, ...], ...]
    rank: int
    degree: int
    sufficient_points: bool

    def kernel_polynomials(self, trunc: int | None = None) -> list[MultiSeries]:
        nvars = len(self.monomials[0]) if self.monomials else 0
        cap = trunc if trunc is not None else self.degree
        return [
            MultiSeries(nvars, cap, [(m, c) for m, c in zip(self.monomials, vec) if c])
            for vec in self.kernel
        ]

    def contains_relation(self, candidate: dict[tuple[int, ...], Fraction]) -> bool:
        """Whether the candidate polynomial lies in the kernel span."""
        if not self.kernel:
            return not candidate
        index = {m: i for i, m in enumerate(self.monomials)}
        vec = [Fraction(0)] * len(self.monomials)
        for mono, coeff in candidate.items():
            if mono not in index:
                return False
            vec[index[mono]] = Fraction(coeff)
        rows = [list(v) for v in self.kernel]
        before = ratlinalg.rank(rows)
        return ratlinalg.rank(rows + [vec]) == before


def relation_probe(points: Sequence[Sequence], degree: int) -> RelationProbe:
    """Exact kernel of polynomial relations of degree <= degree on the points.

    Rational points are eliminated over Q; points with p-adic coordinates
    over Q_p at their working precision, pivoting on the entry of largest
    norm.  An empty kernel is bounded-degree evidence of Zariski density;
    with fewer than C(n + d, d) points a nontrivial kernel is automatic
    and the result is flagged, not an error.

    The degree and the points are checked before any work: the degree is
    an int >= 0 (a bool is no int), and each point has the first point's
    dimension, at least one.  When the first point has a PAdic coordinate,
    every coordinate of every point must be a PAdic of one prime;
    otherwise none may be, and the coordinates are read as Fractions.

    A row holds the point's monomials in graded_monomials order.  The
    constant is Fraction(1), or in Q_p the 1 at the precision of the
    point's first coordinate; when that is an exact zero, at the largest
    finite precision in the point; and at 1 digit when that precision is
    0 or there is none.  The degree-1 entries are the coordinates, and each
    later monomial I is one product, row[I - e_j] * x_j with (j, I - e_j)
    from series._parent; graded_monomials lists I - e_j before I, so that
    entry is already in the row.  A p-adic product of units reduces modulo
    the smallest precision and adds valuations, so every order of the
    factors gives the fields of the product of powers.
    """
    if not points:
        raise DomainError("need at least one point")
    if type(degree) is not int or degree < 0:
        raise DomainError(f"degree must be an int >= 0, got {degree!r}")
    nvars = len(points[0])
    if nvars == 0:
        raise DomainError("points need at least one coordinate")
    if any(len(pt) != nvars for pt in points):
        raise DomainError("points differ in dimension")
    padic_mode = any(isinstance(x, PAdic) for x in points[0])
    if padic_mode:
        prime = next(x.prime for x in points[0] if isinstance(x, PAdic))
        if not all(isinstance(x, PAdic) and x.prime == prime for pt in points for x in pt):
            raise DomainError(f"p-adic points need PAdic coordinates at the one prime {prime}")
    elif any(isinstance(x, PAdic) for pt in points for x in pt):
        raise DomainError("a p-adic coordinate in a rational point")
    monos = graded_monomials(nvars, degree)
    index = {mono: i for i, mono in enumerate(monos)}
    # (prefix parent, variable) of each monomial above degree 1
    steps = []
    for mono in monos[1 + nvars :]:
        j, parent = _parent(mono)
        steps.append((index[parent], j))
    rows = []
    for pt in points:
        if padic_mode:
            prec = pt[0].precision
            if prec == INFINITY:
                prec = max((x.precision for x in pt if x.precision != INFINITY), default=0)
            vals = list(pt)
            row = [PAdic.from_rational(1, prime, prec or 1)]
        else:
            vals = [_as_rational(x, "points") for x in pt]
            row = [Fraction(1)]
        if degree:
            # graded_monomials lists the degree-1 block as x_0, ..., x_(n-1)
            row.extend(vals)
        for parent, j in steps:
            row.append(row[parent] * vals[j])
        rows.append(row)
    if padic_mode:
        kernel = _padic_kernel_basis(rows, len(monos))
    else:
        kernel = ratlinalg.kernel_basis(rows, len(monos))
    return RelationProbe(
        monomials=tuple(monos),
        kernel=tuple(tuple(vec) for vec in kernel),
        rank=len(monos) - len(kernel),
        degree=degree,
        sufficient_points=len(points) >= comb(nvars + degree, degree),
    )


def _padic_kernel_basis(rows: list[list[PAdic]], ncols: int) -> list[list[PAdic]]:
    """Kernel over Q_p at working precision, pivoting on maximal norm.

    Gauss-Jordan elimination that keeps only the live columns: once column
    c is pivoted it is never read again, because the pivot search reads
    only columns right of c and the basis reads only free columns.  So the
    work rows hold just the free columns found so far and the columns not
    yet reached, in their original order, and a pivot step drops column c
    from every row.  Each kept entry goes through exactly the operations of
    the full elimination, so the basis is the same.  A row update is one
    padic._minus_multiple call, which gives each entry the fields of
    x - factor * y (padic module docstring), reading the factor once and
    the powers of p from one table for the whole elimination; every entry
    stays a canonical PAdic of one prime.
    """
    prime = rows[0][0].prime
    powers = _Powers(prime)
    work = [list(row) for row in rows]
    nrows = len(work)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        # column c sits after the free columns found so far
        k = c - r
        best = None
        for i in range(r, nrows):
            entry = work[i][k]
            if entry.is_zero():
                continue
            if best is None or entry.valuation < work[best][k].valuation:
                best = i
        if best is None:
            continue
        work[r], work[best] = work[best], work[r]
        inv = work[r].pop(k)
        pivot_row = work[r] = [x / inv for x in work[r]]
        for i in range(nrows):
            if i != r:
                row = work[i]
                factor = row.pop(k)
                if not factor.is_zero():
                    work[i] = _minus_multiple(row, factor, pivot_row, powers)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    prec = max(int(x.precision) for x in rows[0] if x.precision != INFINITY)
    one = PAdic.from_rational(1, prime, max(prec, 1))
    zero = PAdic.zero(prime)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for k, fc in enumerate(free):
        vec = [zero] * ncols
        vec[fc] = one
        for i, pc in enumerate(pivots):
            vec[pc] = -work[i][k]
        basis.append(vec)
    return basis


@dataclass(frozen=True)
class ClosureEstimate:
    """Certified lower bound and finite-sample estimate of orbit-closure dimension."""

    lower_bound: int
    estimated_dimension: int
    consistent: bool
    transform: tuple[tuple[int, ...], ...]
    multipliers: tuple[Fraction, ...]
    probe: RelationProbe
    lattice: RelationLattice


def closure_dimension_estimate(
    eigenvalues: Sequence[Fraction],
    start: Sequence[Fraction],
    samples: int,
    degree: int,
) -> ClosureEstimate:
    """Probe the orbit closure of a diagonal map from a point off the axes.

    The multiplicative-relation lattice gives the certified bound
    rank distinct from the ambient dimension; a unimodular monomial change
    turns relation directions into coordinates with multiplier +-1, whose
    sampled values are constant (or two-valued), while the independent
    directions show no relation of degree <= degree.

    The independent directions are probed on their own only when there
    are relation directions; when every direction is independent the free
    points are the transformed points, and the one probe serves both.
    """
    lams = [_as_rational(x, "eigenvalues") for x in eigenvalues]
    pt = [_as_rational(x, "start point") for x in start]
    n = len(lams)
    if len(pt) != n:
        raise DomainError("start dimension mismatch")
    if any(x == 0 for x in pt):
        raise DomainError("start must avoid the coordinate hyperplanes")
    if samples < 2:
        raise DomainError("need at least two samples")
    lattice = relation_lattice(lams)
    columns = list(lattice.complement) + list(lattice.unsigned_kernel)
    multipliers = []
    for col in columns:
        value = Fraction(1)
        for lam, e in zip(lams, col):
            value *= lam**e
        multipliers.append(value)
    orbit_points = []
    current = list(pt)
    for _ in range(samples):
        orbit_points.append(tuple(current))
        current = [lam * x for lam, x in zip(lams, current)]
    transformed = []
    for point in orbit_points:
        image = []
        for col in columns:
            value = Fraction(1)
            for x, e in zip(point, col):
                value *= x**e
            image.append(value)
        transformed.append(tuple(image))
    probe = relation_probe(transformed, degree)
    free = len(lattice.complement)
    consistent = True
    for j in range(free, n):
        values = {pt_t[j] for pt_t in transformed}
        if multipliers[j] == 1:
            consistent = consistent and len(values) == 1
        else:  # multiplier -1: the coordinate alternates between two values
            consistent = consistent and len({abs(v) for v in values}) == 1
    if free and degree >= 1:
        if free == n:
            free_probe = probe
        else:
            free_probe = relation_probe([pt_t[:free] for pt_t in transformed], degree)
        if free_probe.sufficient_points and free_probe.kernel:
            consistent = False
    estimated = lattice.rank if consistent else min(lattice.rank, n - len(probe.kernel))
    return ClosureEstimate(
        lower_bound=lattice.rank,
        estimated_dimension=estimated,
        consistent=consistent,
        transform=tuple(tuple(c) for c in columns),
        multipliers=tuple(multipliers),
        probe=probe,
        lattice=lattice,
    )


@dataclass(frozen=True)
class UnionClosureComparison:
    equal: bool
    first: RelationProbe
    second: RelationProbe
    indices_first: tuple[int, ...]
    indices_second: tuple[int, ...]


def union_closure_compare(
    f: AnalyticMap,
    sample_points: Sequence[Sequence[Fraction]],
    indices_first: Sequence[int],
    indices_second: Sequence[int],
    degree: int,
) -> UnionClosureComparison:
    """Compare relation kernels of two unions of iterate images of a sample set.

    Requires the eigenvalue group to be torsion-free (exact sign and
    factorization analysis); equality of the kernels across different index
    sets is finite-sample evidence that the closure of the union does not
    depend on the index set.
    """
    eigen = rational_eigenvalues(jacobian_at_origin(f))
    lattice = relation_lattice(eigen.eigenvalues)
    if not lattice.torsion_free:
        raise TorsionError(
            "eigenvalues generate a group with torsion; replace the map by its square"
        )
    s1 = sorted(set(int(i) for i in indices_first))
    s2 = sorted(set(int(i) for i in indices_second))
    if not s1 or not s2 or min(s1) < 0 or min(s2) < 0:
        raise DomainError("index sets must be nonempty sets of non-negative integers")
    horizon = max(s1 + s2)
    union1 = []
    union2 = []
    for pt in sample_points:
        current = tuple(_as_rational(x, "sample points") for x in pt)
        for i in range(horizon + 1):
            if i in s1:
                union1.append(current)
            if i in s2:
                union2.append(current)
            current = f.components.eval(current)
    probe1 = relation_probe(union1, degree)
    probe2 = relation_probe(union2, degree)
    # kernel_basis reads each basis off the reduced echelon form of the rows,
    # over the same monomials on both sides, so kernels that span one space
    # are equal tuples
    equal = probe1.kernel == probe2.kernel
    return UnionClosureComparison(
        equal=equal,
        first=probe1,
        second=probe2,
        indices_first=tuple(s1),
        indices_second=tuple(s2),
    )
