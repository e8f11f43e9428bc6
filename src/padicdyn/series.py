"""Truncated multivariate power series over the rationals.

A series is stored by total degree, in one form: per graded layer, one
denominator and the integer numerators over it, each exponent tuple packed
once into an integer key with exponent i in the 16-bit field at bit 16 i.
All monomials above the truncation degree are discarded, and every
arithmetic operation truncates at the minimum truncation degree of its
operands, so precision can only shrink, never silently grow.

The form is canonical: each layer's denominator is positive and shares no
factor with all of the layer's numerators, no numerator is zero and no
layer is empty, so two series are equal exactly when their layer maps are.
Every kernel reads and writes this form, and brings its sums to it with
one gcd chain per layer (_reduced): the least denominator of
N_1 / D, ..., N_k / D is D / gcd(D, N_1, ..., N_k).  Fractions are built
only where a coefficient is handed out: terms, layer, coefficient,
constant_term, to_records, eval and repr.  A layer's entry depends on that
layer alone and is never changed after construction, so a series made from
another's layers (truncated, as_polynomial, _grown, the one-operand degrees
of a sum) shares their entries.

Keys add carry-free below 2**16, the cap on every truncation degree, so
products convolve the layers as they are; a square (both operands the same
object) visits each unordered pair of terms once.  A product is formed one
output degree at a time: its term products are summed in groups, one per
product of the operands' layer denominators, and the groups are merged once
over their lcm (_merge) before the next degree, so a low layer is never
multiplied at the width of a high one.  Composition sums c_I inner^I over
the inner map's monomial powers, each built from a parent as
inner^I = inner^(I - e_j) inner_j (the baby-step table of Brent and Kung)
in the same graded integer form, not reduced; one routine (_combine) adds
such a combination to a running sum, the products of a degree over one
lcm.  A one-shot substitution (SeriesTuple.compose) walks the powers up one
degree at a time and keeps one degree of them.  A kept table (_PowerTable)
holds every power it builds while its inner map changes between reads, as
h does in a conjugacy run (linearize): it forms again only the power
layers above the first inner layer that changed, and every read is exact.
The stream of homogeneous layers of h^(-1) (_LayerStream) reads one table
of a fixed inner map, and keeps its running sum in groups, one per layer
added, merging and reducing a degree only when it is read.  The product
kernel _mul and the kept table's compose take a lower bound low on the
output degree, below which a product forms no layer and a substitution
combines none, and the stream adds each layer's substitution above that
layer's own degree alone; a one-shot substitution forms every layer.  A
diagonal substitution x_i -> lambda_i x_i multiplies each coefficient by
lambda^I, and the homological solve of linearize divides it by
lambda^I - lambda_j; both read integer pairs, keyed by the packed key, from
one table per run (_DiagonalPowers) that callers share, so each layer is
scaled over one lcm of the pairs' denominators with no Fraction built per
term (_times_pairs).  The table keeps lambda^I itself as a reduced integer
pair, so neither a power, a divisor nor the resonance search of dynamics
builds a Fraction.  Both are exact.

A division by a series, or a square matrix of series, whose constant part
is invertible has one route, the degree-by-degree solve _series_solve: it
serves MultiSeries.inverse, the Hensel steps of eisenstein, and the Newton
windows and the shear of linearize.

The pivot induction of eisenstein (_graded_root) forms one layer of
F(phi) = sum_k a_k phi^k per degree from powers of phi that it keeps and
grows by each new layer, and divides that layer by a homogeneous form
(_pivot_quotient): long division on the integer numerators, each lead the
remainder's least packed key, since key order is the valuation order
there (the last variable weighs most), with the leads drawn from a heap
and the remainder and quotient scaled by the pivot coefficient where it
does not divide a lead, so no Fraction is built.

The monomial walks of the package step from a nonzero monomial I to a
parent I - e_j.  A walk over fixed monomials takes the prefix parent, j
the last variable of I (_parent): graded_monomials lists the monomials by
degree, each after its prefix parent, and the relation probes of orbit,
the resonance search of dynamics and the one-shot substitution run over
it.  Both power tables key their entries by the packed key and build an
entry from a kept parent's entry, so a read of a kept power is one dict
read.  On a miss one chain walk (_chained) steps from the kept parent
I - e_j with the largest j, reached by subtracting the unit key of j as
MultiSeries.partial lowers an exponent; only where no parent is kept does
it step down to the prefix parent and look again there.  It builds the
missing powers upwards and records each one's j (parents), so a kept
table re-forms a power from the parent it was built from, with no search.
A table read at scattered monomials, as the stream of h^(-1) reads those
of its layers, thus builds no more powers than their prefix closure, and
often fewer.

Gauss norms sup |a_I|_p rho^|I| are returned as exact data: the p-adic
valuation of the extremal coefficient, its degree, and the norm value as a
rational.  They accept any prime, including 2, since no series expansion
of log or exp is involved.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations_with_replacement, islice
from math import comb, gcd, lcm
from typing import Callable, Collection, Iterable, Iterator, Sequence

from . import ratlinalg
from .arith import _as_rational, _is_int, int_valuation, is_prime
from .errors import DivisionFailureError, DomainError, ResonantMonomialError

Exponents = tuple[int, ...]

# every truncation degree is below this cap, the range of one key field
_KEY_CAP = 1 << 16


def _key_fields(nvars: int) -> struct.Struct:
    """The layout of a packed key: exponent i in the little-endian unsigned
    16-bit field i, so the key is sum_i e_i 2**(16 i)."""
    return struct.Struct(f"<{nvars}H")


def _packer(nvars: int) -> Callable[[Exponents], int]:
    """The packed key of an exponent tuple of nvars entries below 2**16."""
    pack = _key_fields(nvars).pack
    return lambda exps: int.from_bytes(pack(*exps), "little")


def _unpacker(nvars: int) -> Callable[[int], Exponents]:
    """The exponent tuple of a packed key."""
    fields = _key_fields(nvars)
    unpack, size = fields.unpack, fields.size
    return lambda key: unpack(key.to_bytes(size, "little"))


class MultiSeries:
    """Truncated power series; immutable by convention."""

    __slots__ = ("nvars", "trunc", "_packed")

    def __init__(self, nvars: int, trunc: int, terms: Iterable[tuple[Exponents, Fraction]] = ()) -> None:
        if not _is_int(nvars) or nvars < 1:
            raise DomainError(f"need at least one variable, got {nvars!r}")
        if not _is_int(trunc) or not 0 <= trunc < _KEY_CAP:
            raise DomainError(f"truncation degree {trunc!r} is not an integer in [0, {_KEY_CAP - 1}]")
        pack = _packer(nvars)
        layers: dict[int, dict[int, Fraction]] = {}
        for exps, coeff in terms:
            exps = tuple(exps)
            if len(exps) != nvars or not all(_is_int(e) and e >= 0 for e in exps):
                raise DomainError(f"bad exponent tuple {exps} for {nvars} variables")
            deg = sum(exps)
            if deg > trunc:
                continue
            coeff = _as_rational(coeff)
            layer, key = layers.setdefault(deg, {}), pack(exps)
            layer[key] = layer[key] + coeff if key in layer else coeff
        packed: _Packed = {}
        for d, layer in layers.items():
            # the lcm of reduced denominators is the least one of the layer
            den = lcm(*(c.denominator for c in layer.values() if c))
            nums = {key: c.numerator * (den // c.denominator) for key, c in layer.items() if c}
            if nums:
                packed[d] = (den, nums)
        self.nvars = nvars
        self.trunc = trunc
        self._packed = packed

    @classmethod
    def _raw(cls, nvars: int, trunc: int, packed: "_Packed") -> "MultiSeries":
        """A series of the given layer map, taken as is: it must be in the
        canonical form of the module docstring."""
        if not _is_int(trunc) or trunc >= _KEY_CAP:
            raise DomainError(f"truncation degree {trunc!r} is not an integer below {_KEY_CAP}")
        obj = object.__new__(cls)
        obj.nvars = nvars
        obj.trunc = trunc
        obj._packed = packed
        return obj

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, trunc: int) -> "MultiSeries":
        return cls._raw(nvars, trunc, {})

    @classmethod
    def constant(cls, value, nvars: int, trunc: int) -> "MultiSeries":
        c = _as_rational(value)
        if not c:
            return cls.zero(nvars, trunc)
        return cls._raw(nvars, trunc, {0: (c.denominator, {_packer(nvars)((0,) * nvars): c.numerator})})

    @classmethod
    def one(cls, nvars: int, trunc: int) -> "MultiSeries":
        # the monomial 1 has key 0; no Fraction is built
        return cls._raw(nvars, trunc, {0: (1, {0: 1})})

    @classmethod
    def variable(cls, index: int, nvars: int, trunc: int) -> "MultiSeries":
        if not _is_int(index) or not 0 <= index < nvars:
            raise DomainError(f"variable index {index} out of range")
        if trunc < 1:
            return cls.zero(nvars, trunc)
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls._raw(nvars, trunc, {1: (1, {_packer(nvars)(exps): 1})})

    # -- views -----------------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        """All stored terms in graded lexicographic order."""
        unpack = _unpacker(self.nvars)
        for d in sorted(self._packed):
            den, nums = self._packed[d]
            for exps, n in sorted(zip(map(unpack, nums), nums.values()), reverse=True):
                yield exps, _fraction(n, den)

    def denominators(self) -> Iterator[int]:
        """The reduced denominator of each stored term, in no fixed order.

        A canonical layer has den > 0 and no zero numerator, so
        den // gcd(n, den) is Fraction(n, den).denominator, with no Fraction
        built."""
        for den, nums in self._packed.values():
            yield from (den // gcd(n, den) for n in nums.values())

    def valuations(self, prime: int) -> Iterator[tuple[int, Exponents, int]]:
        """(degree, exponents, p-adic valuation) of each stored term, in no
        fixed order: v_p(n) - v_p(den) over its layer's denominator, with no
        Fraction built."""
        unpack = _unpacker(self.nvars)
        for d, (den, nums) in self._packed.items():
            v_den = int_valuation(den, prime)
            for key, n in nums.items():
                yield d, unpack(key), int_valuation(n, prime) - v_den

    def layer(self, degree: int) -> dict[Exponents, Fraction]:
        """Layer degree as a fresh map of exponent tuples to Fractions."""
        if degree not in self._packed:
            return {}
        den, nums = self._packed[degree]
        unpack = _unpacker(self.nvars)
        return {unpack(key): _fraction(n, den) for key, n in nums.items()}

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        """The coefficient of x^exps: 0 for a tuple that names no monomial
        (a wrong length, a negative or non-int entry, a bool included)."""
        exps = tuple(exps)
        if len(exps) != self.nvars or not all(_is_int(e) and e >= 0 for e in exps):
            return _ZERO
        entry = self._packed.get(sum(exps))
        if entry is None:
            return _ZERO
        den, nums = entry
        n = nums.get(_packer(self.nvars)(exps))
        return _ZERO if n is None else _fraction(n, den)

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.nvars)

    def is_zero(self) -> bool:
        return not self._packed

    def lowest_degree(self) -> int | None:
        return min(self._packed) if self._packed else None

    def degree(self) -> int | None:
        return max(self._packed) if self._packed else None

    def term_count(self) -> int:
        return sum(len(nums) for _, nums in self._packed.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.trunc == other.trunc
            and self._packed == other._packed
        )

    __hash__ = None

    def agrees_through(self, other: "MultiSeries", degree: int) -> bool:
        """Equality of all terms of total degree <= degree."""
        if self.nvars != other.nvars:
            return False
        return all(self._packed.get(d) == other._packed.get(d) for d in range(degree + 1))

    def __repr__(self) -> str:
        parts = []
        for exps, coeff in self.terms():
            if len(parts) == 6:
                parts.append("...")
                break
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps) if e)
            parts.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        body = " + ".join(parts) if parts else "0"
        return f"<{body} | N={self.trunc}>"

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "MultiSeries") -> None:
        if self.nvars != other.nvars:
            raise DomainError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        return self._merged(other, 1)

    __radd__ = __add__

    def _merged(self, other, sign: int):
        """self + sign * other for sign = 1 or -1; a difference merges with
        negated numerators instead of negating other first."""
        if isinstance(other, (int, Fraction)):
            other = MultiSeries.constant(other, self.nvars, self.trunc)
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._check_compatible(other)
        trunc = min(self.trunc, other.trunc)
        mine, theirs = self._packed, other._packed
        sums: _Packed = {}
        shared: _Packed = {}
        for d in mine.keys() | theirs.keys():
            if d > trunc:
                continue
            # a degree held by one operand alone shares its entry, but a
            # subtrahend's is merged into nothing: a negated copy
            if d not in theirs or (d not in mine and sign > 0):
                shared[d] = mine.get(d) or theirs[d]
                continue
            (den_a, nums_a), (den_b, nums_b) = mine.get(d, (1, {})), theirs[d]
            den = lcm(den_a, den_b)
            scale_a, scale_b = den // den_a, sign * (den // den_b)
            out = dict(nums_a) if scale_a == 1 else {key: scale_a * v for key, v in nums_a.items()}
            get = out.get
            for key, v in nums_b.items():
                out[key] = get(key, 0) + scale_b * v
            sums[d] = (den, out)
        packed = _reduced(sums)
        packed.update(shared)
        return MultiSeries._raw(self.nvars, trunc, packed)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._merged(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value) -> "MultiSeries":
        """The series times a rational: one multiplication per numerator and
        one gcd chain per layer."""
        c = _as_rational(value)
        num, den_c = c.numerator, c.denominator
        sums: _Packed = {
            d: (den * den_c, {key: num * v for key, v in nums.items()}) for d, (den, nums) in self._packed.items()
        }
        return MultiSeries._raw(self.nvars, self.trunc, _reduced(sums))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._check_compatible(other)
        return _mul(self, other, min(self.trunc, other.trunc))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError("series powers take non-negative integer exponents")
        result = MultiSeries.one(self.nvars, self.trunc)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def truncated(self, new_trunc: int) -> "MultiSeries":
        """Discard all terms above new_trunc; never extends the cap.  The
        kept layer entries are shared."""
        if not _is_int(new_trunc) or new_trunc < 0:
            raise DomainError(f"truncation degree {new_trunc!r} is not a non-negative integer")
        if new_trunc >= self.trunc:
            return self
        packed = {d: entry for d, entry in self._packed.items() if d <= new_trunc}
        return MultiSeries._raw(self.nvars, new_trunc, packed)

    def as_polynomial(self, trunc: int) -> "MultiSeries":
        """Reinterpret exact polynomial content at a higher truncation degree.

        Only meaningful when the stored terms are the whole object, e.g.
        parsed polynomial input; raising the cap on a genuinely truncated
        series would fabricate zero coefficients.  The layer map is shared,
        not copied: no instance changes it after construction.
        """
        if not _is_int(trunc) or trunc < (self.degree() or 0):
            raise DomainError("as_polynomial takes an integer cap and cannot drop stored terms")
        return MultiSeries._raw(self.nvars, trunc, self._packed)

    def _grown(self, top: "MultiSeries") -> "MultiSeries":
        """This polynomial with the layer of top of degree trunc + 1 added,
        at that cap, which must stay below 2**16.

        The layer map is copied shallowly: the grown series shares the
        entries of this one and of top.
        """
        degree = self.trunc + 1
        packed = dict(self._packed)
        if degree in top._packed:
            packed[degree] = top._packed[degree]
        return MultiSeries._raw(self.nvars, degree, packed)

    # -- calculus and substitution ------------------------------------------

    def partial(self, index: int) -> "MultiSeries":
        """Partial derivative; the truncation degree drops by one."""
        if not _is_int(index) or not 0 <= index < self.nvars:
            raise DomainError(f"variable index {index} out of range")
        trunc = max(self.trunc - 1, 0)
        unpack = _unpacker(self.nvars)
        # lowering exponent index by one subtracts its unit key
        unit = _unit_keys(self.nvars)[index]
        sums: _Packed = {}
        for d, (den, nums) in self._packed.items():
            if d == 0 or d - 1 > trunc:
                continue
            out = {}
            for key, v in nums.items():
                e = unpack(key)[index]
                if e:
                    out[key - unit] = v * e
            sums[d - 1] = (den, out)
        return MultiSeries._raw(self.nvars, trunc, _reduced(sums))

    def substitute_zero(self, indices: Iterable[int]) -> "MultiSeries":
        """Set the given variables to zero, keeping the ambient variable count:
        the terms whose key has a nonzero field at one of them are dropped, by
        one mask, and each layer is reduced by one gcd chain."""
        idx = set(indices)
        if not idx <= set(range(self.nvars)):
            raise DomainError(f"variable indices {sorted(idx)} out of range")
        mask = _packer(self.nvars)(tuple(0xFFFF if i in idx else 0 for i in range(self.nvars)))
        sums = {
            d: (den, {key: v for key, v in nums.items() if not key & mask}) for d, (den, nums) in self._packed.items()
        }
        return MultiSeries._raw(self.nvars, self.trunc, _reduced(sums))

    def eval(self, point: Sequence[Fraction]) -> Fraction:
        """Exact evaluation, treating the stored terms as a polynomial."""
        if len(point) != self.nvars:
            raise DomainError("point dimension mismatch")
        vals = [_as_rational(v, "point coordinates") for v in point]
        total = Fraction(0)
        for d in sorted(self._packed):
            for exps, c in self.layer(d).items():
                term = c
                for v, e in zip(vals, exps):
                    if e:
                        term *= v**e
                total += term
        return total

    def compose(self, tail: "SeriesTuple | Sequence[MultiSeries]") -> "MultiSeries":
        """Substitution self(g_0, ..., g_{n-1}); see SeriesTuple.compose."""
        return SeriesTuple([self]).compose(tail)[0]

    def inverse(self) -> "MultiSeries":
        """Multiplicative inverse; requires an invertible constant term.

        The 1 x 1 solve self y = 1, one degree at a time; see _series_solve.
        """
        if not self.constant_term():
            raise DomainError("series inverse needs a unit constant term")
        return _series_solve([[self]], SeriesTuple([MultiSeries.one(self.nvars, self.trunc)]))[0]

    # -- serialization ----------------------------------------------------

    def to_records(self) -> list[dict]:
        return [
            {"exponents": list(e), "numerator": c.numerator, "denominator": c.denominator}
            for e, c in self.terms()
        ]

    @classmethod
    def from_records(cls, records: Sequence[dict], nvars: int, trunc: int) -> "MultiSeries":
        terms = []
        for rec in records:
            num, den = rec["numerator"], rec.get("denominator", 1)
            if not (_is_int(num) and _is_int(den) and den):
                raise DomainError(f"record coefficients must be integers over a nonzero integer, got {num!r}/{den!r}")
            terms.append((tuple(rec["exponents"]), Fraction(num, den)))
        return cls(nvars, trunc, terms)


_ZERO = Fraction(0)


def _fraction(n: int, den: int) -> Fraction:
    """n / den; Fraction skips its gcd for an integer, the common case of a
    map's coefficients."""
    return Fraction(n) if den == 1 else Fraction(n, den)


def _mul(a: MultiSeries, b: MultiSeries, trunc: int, low: int = 0) -> MultiSeries:
    """Product truncated at trunc, computing only the layers of degree >= low.

    With low > 0 the layers below low are absent from the result, not
    zero: callers that need one graded layer of a product (the series
    solve) pass low = trunc and read that layer alone.  A square (a is b)
    visits each unordered pair of terms once.
    """
    if a.is_zero() or b.is_zero():
        return MultiSeries.zero(a.nvars, trunc)
    if a is b:
        return MultiSeries._raw(a.nvars, trunc, _reduced(_square(a._packed, trunc, low)))
    if a.term_count() > b.term_count():
        a, b = b, a
    return MultiSeries._raw(a.nvars, trunc, _reduced(_convolve(a._packed, b._packed, trunc, low)))


# layers by degree, one denominator each: {deg: (den, {packed key: numerator})};
# the storage of a series in canonical form, and the sums of the kernels
_Packed = dict[int, tuple[int, dict[int, int]]]
# the products of one degree, grouped by the denominator they are over:
# {den: {packed key: numerator}}
_Groups = dict[int, dict[int, int]]


def _convolve(a: _Packed, b: _Packed, trunc: int, low: int = 0) -> _Packed:
    """The product of two layer maps in degrees low..trunc, one degree at a
    time: its products grouped by the product of the two layer
    denominators, and the groups merged (_merge) before the next degree is
    formed.  The sums are not reduced.

    Keys add carry-free, as no coordinate of a term of degree <= trunc
    reaches 2**16.  Degrees above the sum of the operands' top layers are
    never visited, so the cost does not grow with trunc.
    """
    out: _Packed = {}
    degrees = sorted(a)
    if not degrees or not b:
        return out
    bottom, top = min(b), max(b)
    for d in range(max(low, degrees[0] + bottom), min(trunc, degrees[-1] + top) + 1):
        groups: _Groups = {}
        for da in degrees[bisect_left(degrees, d - top) : bisect_right(degrees, d - bottom)]:
            entry = b.get(d - da)
            if entry is None:
                continue
            den_a, terms_a = a[da]
            den_b, terms_b = entry
            group = groups.setdefault(den_a * den_b, {})
            get = group.get
            pairs_b = terms_b.items()
            for ea, ca in terms_a.items():
                for eb, cb in pairs_b:
                    key = ea + eb
                    group[key] = get(key, 0) + ca * cb
        if groups:
            out[d] = _merge(groups.items())
    return out


def _square(a: _Packed, trunc: int, low: int = 0) -> _Packed:
    """_convolve(a, a, trunc, low) with each unordered pair of terms visited
    once: the off-diagonal products are formed once and doubled."""
    out: _Packed = {}
    degrees = sorted(a)
    if not degrees:
        return out
    bottom, top = degrees[0], degrees[-1]
    # a square of several degrees reads a layer at many of them, so it lists
    # each layer it reads once, as (key, numerator) pairs: a list is read
    # faster than a dict, most of all in one variable, where a layer holds
    # one term.  A square of one degree reads each layer once, from its
    # dict, and lists only the middle one, which it pairs with itself
    listed = low < trunc
    if listed:
        a = {d: (den, list(nums.items())) for d, (den, nums) in a.items() if low - top <= d <= trunc - bottom}
    for d in range(max(low, 2 * bottom), min(trunc, 2 * top) + 1):
        groups: _Groups = {}
        for da in degrees[bisect_left(degrees, d - top) : bisect_right(degrees, d // 2)]:
            entry = a.get(d - da)
            if entry is None:
                continue
            den_a, terms_a = a[da]
            den_b, terms_b = entry
            if not listed:
                terms_a = list(terms_a.items()) if 2 * da == d else terms_a.items()
                terms_b = terms_b.items()
            group = groups.setdefault(den_a * den_b, {})
            get = group.get
            if 2 * da == d:
                for i, (ea, ca) in enumerate(terms_a):
                    group[ea + ea] = get(ea + ea, 0) + ca * ca
                    twice = ca << 1
                    for eb, cb in terms_a[i + 1 :]:
                        key = ea + eb
                        group[key] = get(key, 0) + twice * cb
                continue
            for ea, ca in terms_a:
                twice = ca << 1
                for eb, cb in terms_b:
                    key = ea + eb
                    group[key] = get(key, 0) + twice * cb
        if groups:
            out[d] = _merge(groups.items())
    return out


def _merge(parts: Collection[tuple[int, dict[int, int]]]) -> tuple[int, dict[int, int]]:
    """(den, sums): the parts (den, {key: numerator}) of one degree summed
    over one denominator, the lcm of theirs; two parts may share one.  A
    single part is returned as it is; the parts are not changed."""
    if len(parts) == 1:
        return next(iter(parts))
    den = lcm(*[part_den for part_den, _ in parts])
    # the largest part is copied, the others are added to it
    parts = sorted(parts, key=lambda item: len(item[1]), reverse=True)
    part_den, part = parts[0]
    scale = den // part_den
    sums = dict(part) if scale == 1 else {key: scale * v for key, v in part.items()}
    get = sums.get
    for part_den, part in parts[1:]:
        scale = den // part_den
        if scale == 1:
            for key, v in part.items():
                sums[key] = get(key, 0) + v
        else:
            for key, v in part.items():
                sums[key] = get(key, 0) + scale * v
    return den, sums


def _reduced(sums: _Packed) -> _Packed:
    """The canonical form of sums over positive denominators, in fresh
    dicts: each layer over D / g for g = gcd(D, N_1, ..., N_k), its
    numerators divided by g, zero numerators and empty layers dropped.
    The gcd chain stops early once it reaches 1."""
    out: _Packed = {}
    for d, (den, nums) in sums.items():
        g = gcd(den, *nums.values())
        kept = {key: v for key, v in nums.items() if v} if g == 1 else {key: v // g for key, v in nums.items() if v}
        if kept:
            out[d] = (den // g, kept)
    return out


def _pivot_quotient(numerator: MultiSeries, divisor: MultiSeries) -> MultiSeries:
    """-N / V for N the layer of numerator at its cap and V the nonzero form
    divisor, homogeneous of degree s: a homogeneous series of degree
    numerator.trunc - s at that cap.

    Long division pivots on the least key P of V.  Packed-key order is the
    valuation order of the pivot induction (the last variable weighs most,
    then the one before), so the lead of the remainder is its least key,
    and every term a step adds lies above the lead, at shift + K for a key
    K > P of V: a heap of the remainder's keys, a cancelled key left in
    place until it is popped, gives the leads in order.  A lead that P does
    not divide (a field of lead - P negative) raises DivisionFailureError.

    The division runs on integer numerators.  V's numerators are divided
    by their content first; where the pivot coefficient b then does not
    divide the lead numerator c, the remainder and the quotient are scaled
    by |b| / gcd(b, c), so every quotient numerator is an integer over the
    running scale, and one gcd chain (_reduced) brings the result to
    canonical form.
    """
    nvars, degree = numerator.nvars, numerator.trunc
    [(s, (den_v, nums_v))] = divisor._packed.items()
    trunc = degree - s
    entry = numerator._packed.get(degree)
    if entry is None:
        return MultiSeries.zero(nvars, trunc)
    den_n, nums_n = entry
    content = gcd(*nums_v.values())
    pivot = min(nums_v)
    b = nums_v[pivot] // content
    rest = [(key, v // content) for key, v in nums_v.items() if key != pivot]
    unpack = _unpacker(nvars)
    pivot_exps = unpack(pivot)
    remainder = dict(nums_n)
    heap = list(remainder)
    heapify(heap)
    quotient: dict[int, int] = {}
    scale = 1
    while heap:
        lead = heappop(heap)
        c = remainder.pop(lead)
        if not c:
            continue
        exps = unpack(lead)
        if any(e < p for e, p in zip(exps, pivot_exps)):
            raise DivisionFailureError(f"pivot {pivot_exps} does not divide {exps}; wrong vanishing order or bad seed")
        if c % b:
            m = abs(b) // gcd(b, c)
            scale *= m
            c *= m
            remainder = {key: m * v for key, v in remainder.items()}
            quotient = {key: m * v for key, v in quotient.items()}
        f = c // b
        shift = lead - pivot
        quotient[shift] = f
        for key, v in rest:
            key += shift
            if key in remainder:
                remainder[key] -= f * v
            else:
                remainder[key] = -f * v
                heappush(heap, key)
    nums = {key: -den_v * v for key, v in quotient.items()}
    return MultiSeries._raw(nvars, trunc, _reduced({trunc: (den_n * content * scale, nums)}))


def _graded_root(coeffs: Sequence[MultiSeries], seed: MultiSeries, divisor: MultiSeries, degree: int) -> MultiSeries:
    """The root phi of F = sum_k a_k X^k through degree >= seed.trunc,
    continued from seed one layer at a time: layer d of phi is
    _pivot_quotient of layer d + s of F(phi), phi known below d, by the
    form divisor of degree s.  coeffs lists a_k for k = 0..m, m >= 1 the
    X-degree, zeros included, each at cap degree + s.

    A degree forms layer n = d + s of sum_k a_k phi^k from the packed
    layers alone.  phi^j for 2 <= j < m is kept at the cap, and each new
    layer delta of degree d adds sum_{i=1..j} C(j, i) phi^(j-i) delta^i to
    it, from the top j down, so every phi^(j-i) read is the old one; each
    term is a product with the homogeneous delta^i, which vanishes above
    the cap once i d does, and only the layers it reaches are replaced.
    phi^m is formed at n alone, from n less the top degree of a_m read
    there, as phi^(m-1) phi: a square when m = 2.  So a degree costs about
    one product with a layer per kept power, and the whole is quadratic in
    the degree in one variable at every m.  phi grows by each delta in
    place and shares the layer entries of seed.
    """
    nvars, [s] = seed.nvars, divisor._packed
    cap = degree + s
    a = [c._packed for c in coeffs]
    m = len(a) - 1
    one: _Packed = {0: (1, {0: 1})}
    phi = dict(seed._packed)
    powers = [one, phi]
    for _ in range(2, m):
        powers.append(_reduced(_convolve(powers[-1], phi, cap)))
    for d in range(seed.trunc + 1, degree + 1):
        n = d + s
        parts = [a[0][n]] if n in a[0] else []
        for k in range(1, m):
            parts += _convolve(a[k], powers[k], n, n).values()
        span = max((e for e in a[m] if e <= n), default=None)
        if span is not None:
            top = _square(phi, n, n - span) if m == 2 else _convolve(powers[m - 1], phi, n, n - span)
            parts += _convolve(a[m], top, n, n).values()
        numerator = MultiSeries._raw(nvars, n, _reduced({n: _merge(parts)}) if parts else {})
        delta = _pivot_quotient(numerator, divisor)._packed.get(d)
        if delta is None:
            continue
        # delta^i for each i < m with i d <= cap
        rises = [one, {d: delta}]
        while len(rises) < m and len(rises) * d <= cap:
            rises.append(_reduced(_convolve(rises[-1], rises[1], cap)))
        for j in range(m - 1, 1, -1):
            # the layers of phi^j that the terms reach, each merged once
            reached: dict[int, list[tuple[int, dict[int, int]]]] = {}
            for i in range(1, min(j, len(rises) - 1) + 1):
                [(den, nums)] = rises[i].values()
                c = comb(j, i)
                term = {i * d: (den, {key: c * v for key, v in nums.items()})}
                for e, entry in _convolve(term, powers[j - i], cap).items():
                    reached.setdefault(e, []).append(entry)
            kept = powers[j]
            for e, entries in reached.items():
                if e in kept:
                    entries.append(kept.pop(e))
            kept.update(_reduced({e: _merge(entries) for e, entries in reached.items()}))
        phi[d] = delta
    return MultiSeries._raw(nvars, degree, phi)


def _parent(exps: Exponents) -> tuple[int, Exponents]:
    """(j, I - e_j) for the last variable j of a nonzero monomial I."""
    j = max(i for i, e in enumerate(exps) if e)
    return j, exps[:j] + (exps[j] - 1,) + exps[j + 1 :]


def graded_monomials(nvars: int, degree: int) -> list[Exponents]:
    """All exponent tuples of total degree <= degree, by degree and then in
    descending lexicographic order (the order of their sorted variable
    lists), so each prefix parent comes first.  nvars must be at least 1;
    a negative degree gives no monomials.
    """
    if nvars < 1:
        raise DomainError("monomials need at least one variable")
    return [
        tuple(chosen.count(i) for i in range(nvars))
        for d in range(degree + 1)
        for chosen in combinations_with_replacement(range(nvars), d)
    ]


def _unit_keys(nvars: int) -> list[int]:
    """The packed keys of e_0, ..., e_(nvars - 1).  Keys add carry-free, so
    I - e_j has the key of I minus that of e_j when I_j > 0."""
    pack = _packer(nvars)
    return [pack(tuple(int(i == j) for i in range(nvars))) for j in range(nvars)]


def _chained(table, key: int):
    """table.entries[key], building it and its missing parents upwards from
    kept ones, each as table._step(j, parent) for parent the entry of
    I - e_j, and keeping them; table.parents records each built entry's j.

    For a missing I the step is from the kept parent I - e_j with the
    largest j, where I has one; only where no parent of I is kept does the
    walk go down to I - e_j with j the last variable of I (_parent) and
    look again there.  Every chain gives the same exact power, and each
    entry is inserted after its parent.

    table holds entries keyed by packed keys, their parents, the unpack of
    its keys and the unit keys of its variables (_unit_keys)."""
    entries, unpack, units = table.entries, table.unpack, table.units
    chain = []
    while key not in entries:
        exps = unpack(key)
        j = next((i for i in reversed(range(len(exps))) if exps[i] and key - units[i] in entries), None)
        if j is None:
            j = _parent(exps)[0]
        chain.append((key, j))
        key -= units[j]
    value = entries[key]
    parents = table.parents
    for mono, j in reversed(chain):
        value = table._step(j, value)
        entries[mono] = value
        parents[mono] = j
    return value


class _DiagonalPowers:
    """The monomial powers lambda^I of the factors of a diagonal map
    x_i -> lambda_i x_i, each built on first use and then kept.

    It stands in for the factor sequence: len, indexing and iteration give
    the lambda_i as Fractions, so one table can be handed wherever the
    eigenvalues go.  The factors must be rational: an int or a Fraction.

    entries maps the packed key of I to lambda^I as a reduced integer pair
    (a, b) with b > 0.  pair(key) reads it, and on a miss _chained builds it
    from a kept parent's pair as (a n_j, b d_j) over their gcd, for
    lambda_j = n_j / d_j and I - e_j that parent, as _PowerTable builds
    inner^I, and records j in parents: no Fraction per entry.  A graded
    walk, as the resonance search makes, finds the prefix parent kept.
    power(I) is the Fraction view of an entry, for the tests and the error
    path of divided.
    dynamics.enumerate_resonances compares the pairs with those of the
    factors (ratios).

    divided reads one more table per component j, each entry built on its
    first read: the inverse divisors 1 / (lambda^I - lambda_j), as reduced
    pairs with a positive denominator, keyed by the transverse key (the
    fixed-locus fields cleared), so one entry serves every fixed-locus
    dimension.  A zero divisor is never kept.
    """

    __slots__ = ("factors", "ratios", "unpack", "units", "entries", "parents", "divisors")

    def __init__(self, factors: Iterable[Fraction]) -> None:
        self.factors = tuple(_as_rational(x, "eigenvalues") for x in factors)
        self.ratios = [(x.numerator, x.denominator) for x in self.factors]
        n = len(self.factors)
        self.unpack = _unpacker(n)
        self.units = _unit_keys(n)
        self.entries: dict[int, tuple[int, int]] = {0: (1, 1)}
        self.parents: dict[int, int] = {}
        self.divisors: dict[int, dict[int, tuple[int, int]]] = {}

    @classmethod
    def of(cls, factors: "Sequence[Fraction] | _DiagonalPowers") -> "_DiagonalPowers":
        """factors itself if it is a table, else a new table of them."""
        return factors if isinstance(factors, cls) else cls(factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __getitem__(self, index):
        return self.factors[index]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.factors)

    def _step(self, j: int, parent: tuple[int, int]) -> tuple[int, int]:
        """lambda^I as a reduced pair, from the pair of I - e_j."""
        num, den = self.ratios[j]
        a, b = parent[0] * num, parent[1] * den
        g = gcd(a, b)
        return a // g, b // g

    def pair(self, key: int) -> tuple[int, int]:
        """lambda^I as a reduced pair (a, b), b > 0, for a packed key I."""
        value = self.entries.get(key)
        return _chained(self, key) if value is None else value

    def power(self, exps: Exponents) -> Fraction:
        """lambda^I as a Fraction, for an exponent tuple I with one entry per
        factor."""
        return Fraction(*self.pair(_packer(len(self.factors))(exps)))

    def substituted(self, comp: MultiSeries) -> MultiSeries:
        """comp(lambda_0 x_0, ..., lambda_(n-1) x_(n-1)): each coefficient
        c_I times lambda^I, a term whose power vanishes dropped."""
        return _times_pairs(comp, self.entries, self.pair, -1)

    def divided(self, comp: MultiSeries, j: int, r: int) -> MultiSeries:
        """comp with each coefficient c_I divided by lambda^I' - lambda_j, for
        I' the transverse part of I: its first r exponents set to zero.

        For lambda^I' = a / b and lambda_j = n / d the inverse divisor is
        b d / (a d - n b), reduced with its denominator made positive.  A
        vanishing divisor raises ResonantMonomialError at comp's
        lowest-degree, graded-lex first monomial with one."""
        n = len(self.factors)
        num, den = self.ratios[j]
        table = self.divisors.setdefault(j, {})

        def inverse_divisor(key: int) -> tuple[int, int]:
            a, b = self.pair(key)
            bottom = a * den - num * b
            if not bottom:
                first = next(exps for exps, _ in comp.terms() if self.power((0,) * r + exps[r:]) == self.factors[j])
                raise ResonantMonomialError(first, j)
            top = b * den
            g = gcd(top, bottom)
            if bottom < 0:
                g = -g
            pair = table[key] = (top // g, bottom // g)
            return pair

        return _times_pairs(comp, table, inverse_divisor, _packer(n)((0,) * r + (0xFFFF,) * (n - r)))


def _times_pairs(comp: MultiSeries, table: dict, build: Callable[[int], tuple[int, int]], mask: int) -> MultiSeries:
    """comp with each coefficient c_I times a / b, b > 0, for (a, b) the entry
    of I & mask in table, or build(I & mask) where it has none.  Each layer
    goes over den times the lcm of its b, with one gcd chain."""
    get = table.get
    sums: _Packed = {}
    for d, (den, nums) in comp._packed.items():
        scaled = []
        for key, v in nums.items():
            a, b = get(key & mask) or build(key & mask)
            scaled.append((key, v * a, b))
        common = lcm(*(b for _, _, b in scaled))
        sums[d] = (den * common, {key: v * (common // b) for key, v, b in scaled})
    return MultiSeries._raw(comp.nvars, comp.trunc, _reduced(sums))


def _combine(
    entry: tuple[int, dict[int, int]], power: Callable[[int], _Packed], acc: dict[int, _Groups], low: int = 0
) -> None:
    """Add sum_I (n_I / den) inner^I over a layer entry (den, {I: n_I}), in
    the degrees >= low, to the accumulator acc, {degree: groups}, with
    power(I) the layer map of inner^I for a packed key I.  The products
    n_I inner^I of a degree go into one group, over den times the lcm of the
    powers' denominators, each scaled to it through its scalar multiplier
    alone."""
    den, nums = entry
    products: dict[int, list[tuple[int, int, dict[int, int]]]] = {}
    for key, num in nums.items():
        for d, (power_den, lay) in power(key).items():
            if d >= low:
                products.setdefault(d, []).append((num, power_den, lay))
    for d, parts in products.items():
        common = lcm(*(power_den for _, power_den, _ in parts))
        out = acc.setdefault(d, {}).setdefault(den * common, {})
        get = out.get
        for num, power_den, lay in parts:
            mult = num * (common // power_den)
            for key, v in lay.items():
                out[key] = get(key, 0) + mult * v


def _summed(accs: list[dict[int, _Groups]], nvars: int, trunc: int) -> "SeriesTuple":
    """The tuple of the accumulators' sums, each degree merged and reduced."""
    sums = [_reduced({d: _merge(groups.items()) for d, groups in acc.items()}) for acc in accs]
    return SeriesTuple([MultiSeries._raw(nvars, trunc, packed) for packed in sums])


class _PowerTable:
    """The monomial powers inner^I of a square inner map that may change
    between reads, each built on first read and then kept.

    entries maps the packed key of I to inner^I, a layer map with one
    denominator per degree, not reduced, up to the table's degree, the cap
    of the last inner map.  power(key) is one dict read for a kept entry;
    on a miss _chained builds it as inner^I = inner^(I - e_j) inner_j from
    a kept parent I - e_j where there is one, and records j in parents.
    Every chain gives the same power, exactly, though not the same
    unreduced layers: a reader reduces its sums.  The degree-one entries
    are the inner map's own layers, in dicts the table owns.

    take(inner) makes inner the inner map.  Layer k of a power of degree
    >= 2 reads only the inner layers below k, so take finds the first inner
    layer m that differs from the one it took last, drops every power layer
    above m, and forms them again from inner's layers, up to the new degree.
    It walks the entries in the order they were inserted, which puts each
    power after the parent it was built from, and re-forms it from that
    parent, I - e_j for j = parents[I]: the constructor inserts degree 0
    and then the degree-one factors, and _chained inserts a missing parent
    before its child.  Every kept power layer was thus formed from inner
    layers equal to the current inner's, and compose(outer, inner, low)
    returns the layers >= low of outer.compose(inner) exactly, for any
    inner.
    """

    def __init__(self, nvars: int) -> None:
        self.unpack = _unpacker(nvars)
        self.units = _unit_keys(nvars)
        self.degree = 0
        self.factors: list[_Packed] = [{} for _ in range(nvars)]
        self.entries: dict[int, _Packed] = {0: {0: (1, {0: 1})}}
        self.entries.update(zip(self.units, self.factors))
        self.parents: dict[int, int] = {}

    def _step(self, j: int, parent: _Packed) -> _Packed:
        """inner^I through the table's degree, from the entry of its prefix
        parent I - e_j."""
        return _convolve(parent, self.factors[j], self.degree)

    def power(self, key: int) -> _Packed:
        """The entry inner^I of a packed key I."""
        entry = self.entries.get(key)
        return _chained(self, key) if entry is None else entry

    def take(self, inner: "SeriesTuple") -> int:
        """Make inner the inner map and return the table's new degree; see
        the class docstring."""
        n = len(self.factors)
        if len(inner) != n or inner.nvars != n:
            raise DomainError(f"the inner map must be {n} series in {n} variables")
        layers = [g._packed for g in inner]
        # a canonical layer map holds no empty layer: layer 0 is a constant term
        if any(0 in mine for mine in layers):
            raise DomainError("non-zero constant term in composition argument")
        cap = inner.trunc
        top = min(self.degree, cap)
        kept = next(
            (k for k in range(1, top + 1) if any(mine.get(k) != old.get(k) for mine, old in zip(layers, self.factors))),
            top,
        )
        for mine, factor in zip(layers, self.factors):
            factor.clear()
            factor.update(mine)
        entries = self.entries
        # the powers of degree >= 2, each after its recorded parent
        parents = self.parents
        for key, power in islice(entries.items(), n + 1, None):
            j = parents[key]
            for k in range(kept + 1, self.degree + 1):
                power.pop(k, None)
            power.update(_convolve(entries[key - self.units[j]], self.factors[j], cap, kept + 1))
        self.degree = cap
        return cap

    def compose(self, outer: "SeriesTuple", inner: "SeriesTuple", low: int = 0) -> "SeriesTuple":
        """The layers >= low of outer.compose(inner), from the kept powers;
        the layers below low are absent, not zero, as for _mul."""
        n = len(self.factors)
        if outer.nvars != n:
            raise DomainError(f"composition needs {outer.nvars} inner series, got {n}")
        cap = self.take(inner)
        accs: list[dict[int, _Groups]] = [{} for _ in outer]
        for comp, acc in zip(outer, accs):
            for d, entry in comp._packed.items():
                if d <= cap:
                    _combine(entry, self.power, acc, low)
        return _summed(accs, n, cap).truncated(outer.trunc)


class _LayerStream:
    """The running sum inner + sum_k layer_k o inner, read one degree at a
    time, where each homogeneous layer_k o inner enters only in the degrees
    above layer_k's own: the degrees up to it are read before it is added.

    layer o inner = sum_I c_I inner^I over the monomials I of a homogeneous
    layer, so add reads the powers of that layer's monomials alone, from one
    _PowerTable of inner shared by every layer and component.  The sum is
    kept in integers, per component and degree in groups (_Groups): one for
    the layer of inner and one per layer added (_combine), so no numerator
    kept so far is ever rescaled.  layer merges and reduces one degree.
    """

    def __init__(self, inner: "SeriesTuple") -> None:
        self.table = _PowerTable(inner.nvars)
        self.nvars, self.trunc = inner.nvars, self.table.take(inner)
        self.degree = 0
        # _combine adds into these groups, so inner's numerators are copied
        self.sums: list[dict[int, _Groups]] = [
            {d: {den: dict(nums)} for d, (den, nums) in comp._packed.items()} for comp in inner
        ]

    def add(self, layer: "SeriesTuple") -> None:
        """Add layer o inner in the degrees above the layer's own.  The layer
        must be homogeneous and nonzero, of no lower degree than the layers
        before."""
        degree = layer.lowest_degree()
        if degree is None or degree < self.degree or any(c._packed.keys() - {degree} for c in layer):
            raise DomainError("layers must be homogeneous, nonzero and of non-decreasing degree")
        if len(layer) != len(self.sums):
            raise DomainError("tuple size mismatch")
        self.degree = degree
        for comp, acc in zip(layer, self.sums):
            if degree in comp._packed:
                _combine(comp._packed[degree], self.table.power, acc, degree + 1)

    def layer(self, degree: int) -> "SeriesTuple":
        """Layer degree of the sum: homogeneous components at the inner cap."""
        return _summed([{degree: acc[degree]} if degree in acc else {} for acc in self.sums], self.nvars, self.trunc)


class SeriesTuple:
    """A tuple of series sharing variable count and truncation degree."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[MultiSeries]) -> None:
        comps = tuple(components)
        if not comps:
            raise DomainError("empty series tuple")
        nvars, trunc = comps[0].nvars, comps[0].trunc
        for c in comps:
            if c.nvars != nvars or c.trunc != trunc:
                raise DomainError("tuple components must share variables and truncation")
        self.components = comps

    @classmethod
    def identity(cls, nvars: int, trunc: int) -> "SeriesTuple":
        return cls([MultiSeries.variable(i, nvars, trunc) for i in range(nvars)])

    @classmethod
    def zero(cls, size: int, nvars: int, trunc: int) -> "SeriesTuple":
        return cls([MultiSeries.zero(nvars, trunc) for _ in range(size)])

    @classmethod
    def diagonal(cls, factors: Sequence[Fraction], trunc: int) -> "SeriesTuple":
        n = len(factors)
        return cls(
            [MultiSeries.variable(i, n, trunc).scale(factors[i]) for i in range(n)]
        )

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[MultiSeries]:
        return iter(self.components)

    def __getitem__(self, i: int) -> MultiSeries:
        return self.components[i]

    @property
    def nvars(self) -> int:
        return self.components[0].nvars

    @property
    def trunc(self) -> int:
        return self.components[0].trunc

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesTuple):
            return NotImplemented
        return self.components == other.components

    __hash__ = None

    def __repr__(self) -> str:
        return "(" + ", ".join(repr(c) for c in self.components) + ")"

    def __add__(self, other: "SeriesTuple") -> "SeriesTuple":
        if len(other) != len(self):
            raise DomainError("tuple size mismatch")
        return SeriesTuple([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "SeriesTuple") -> "SeriesTuple":
        if len(other) != len(self):
            raise DomainError("tuple size mismatch")
        return SeriesTuple([a - b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "SeriesTuple":
        return SeriesTuple([-c for c in self.components])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def lowest_degree(self) -> int | None:
        degs = [c.lowest_degree() for c in self.components if not c.is_zero()]
        return min(degs) if degs else None

    def truncated(self, new_trunc: int) -> "SeriesTuple":
        return SeriesTuple([c.truncated(new_trunc) for c in self.components])

    def agrees_through(self, other: "SeriesTuple", degree: int) -> bool:
        return len(self) == len(other) and all(
            a.agrees_through(b, degree) for a, b in zip(self.components, other.components)
        )

    def compose(self, inner: "SeriesTuple | Sequence[MultiSeries]") -> "SeriesTuple":
        """Substitution c(g_0, ..., g_{n-1}) into every component c; each g_i
        must have zero constant term, and the cap is the least of all caps.

        The powers of the g_i are walked up one degree at a time over the
        prefix closure (I -> I - e_last(I)) of the components' joint
        support, so a sparse outer map computes only the powers it reads,
        and only one degree of them is kept at a time; each degree adds one
        combination (_combine) per component to that component's
        accumulator.
        """
        comps = tuple(inner)
        if len(comps) != self.nvars:
            raise DomainError(f"composition needs {self.nvars} inner series, got {len(comps)}")
        for g in comps:
            if g.nvars != comps[0].nvars:
                raise DomainError("inner series disagree on variable count")
        factors = [g._packed for g in comps]
        if any(0 in layers for layers in factors):
            raise DomainError("non-zero constant term in composition argument")
        trunc = min([self.trunc] + [g.trunc for g in comps])
        terms = [{d: entry for d, entry in c._packed.items() if d <= trunc} for c in self.components]
        closure: list[set[Exponents]] = [set() for _ in range(trunc + 2)]  # by degree, one spare
        unpack = _unpacker(self.nvars)
        for exps in {unpack(key) for layers in terms for _, nums in layers.values() for key in nums}:
            while any(exps) and exps not in closure[sum(exps)]:
                closure[sum(exps)].add(exps)
                exps = _parent(exps)[1]
        entries: dict[Exponents, _Packed] = {(0,) * self.nvars: {0: (1, {0: 1})}}
        accs: list[dict[int, _Groups]] = [{} for _ in terms]
        for d in range(trunc + 1):
            for layers, acc in zip(terms, accs):
                if d in layers:
                    _combine(layers[d], lambda key: entries[unpack(key)], acc)
            below, entries = entries, {}
            for exps in closure[d + 1]:
                j, lower = _parent(exps)
                entries[exps] = _convolve(below[lower], factors[j], trunc)
            del below
        return _summed(accs, comps[0].nvars, trunc)

    def compose_diagonal(self, factors: "Sequence[Fraction] | _DiagonalPowers") -> "SeriesTuple":
        """Substitution x_i -> factors[i] * x_i, done by coefficient scaling.

        The coefficient at x^I is multiplied by lambda^I, read as an integer
        pair from a _DiagonalPowers table of the factors
        (_DiagonalPowers.substituted).  A table passed in is read and grown
        in place, so calls that share one (every call of a conjugacy run in
        linearize) form each lambda^I once; a plain sequence gets a table of
        its own.  Terms whose power vanishes (a zero factor) are dropped.
        """
        if len(factors) != self.nvars:
            raise DomainError("diagonal size mismatch")
        table = _DiagonalPowers.of(factors)
        return SeriesTuple([table.substituted(comp) for comp in self.components])

    def eval(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(c.eval(point) for c in self.components)

    def linear_matrix(self) -> list[list[Fraction]]:
        """Degree-one coefficients as a len(self) x nvars matrix."""
        n = self.nvars
        units = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
        mat = []
        for comp in self.components:
            layer = comp.layer(1)
            mat.append([layer.get(exps, _ZERO) for exps in units])
        return mat

    def jacobian(self) -> list[list[MultiSeries]]:
        return [[c.partial(j) for j in range(self.nvars)] for c in self.components]

    def layer_tuple(self, degree: int) -> "SeriesTuple":
        """The homogeneous part of each component at the given total degree."""
        out = []
        for comp in self.components:
            packed = {degree: comp._packed[degree]} if degree in comp._packed else {}
            out.append(MultiSeries._raw(comp.nvars, comp.trunc, packed))
        return SeriesTuple(out)

    def invert(self) -> "SeriesTuple":
        """Compositional inverse of a tuple with invertible linear part.

        Quadratic iteration: with u correct through degree k, the update
        u - Du (self o u - id) is correct through 2k, so log(trunc)
        compositions suffice.
        """
        n = self.nvars
        if len(self.components) != n:
            raise DomainError("compositional inverse needs a square tuple")
        for comp in self.components:
            if comp.constant_term():
                raise DomainError("compositional inverse needs zero constant terms")
        trunc = self.trunc
        m = self.linear_matrix()
        try:
            minv = ratlinalg.inverse(m)
        except DomainError as exc:
            raise DomainError("singular linear part") from exc
        unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        u = SeriesTuple([MultiSeries(n, trunc, zip(unit, row)) for row in minv])
        contact = 1
        while contact < trunc:
            contact = min(2 * contact, trunc)
            residual = self.compose(u.truncated(contact)) - SeriesTuple.identity(n, contact)
            if residual.is_zero():
                continue
            du = [
                [entry.as_polynomial(contact) for entry in row]
                for row in u.truncated(contact).jacobian()
            ]
            correction = _series_matrix_vector(du, residual)
            u = u - SeriesTuple([comp.as_polynomial(trunc) for comp in correction])
        return u

    def to_records(self) -> list[list[dict]]:
        return [c.to_records() for c in self.components]


def _series_matrix_vector(mat: Sequence[Sequence[MultiSeries]], vec: SeriesTuple) -> SeriesTuple:
    """The product of a matrix of series with a tuple of series."""
    out = []
    for row in mat:
        acc = MultiSeries.zero(vec.nvars, vec.trunc)
        for entry, comp in zip(row, vec.components):
            if not entry.is_zero() and not comp.is_zero():
                acc = acc + entry * comp
        out.append(acc)
    return SeriesTuple(out)


def _series_solve(mat: list[list[MultiSeries]], rhs: SeriesTuple) -> SeriesTuple:
    """The x with mat x = rhs, for a square series matrix whose constant
    part C is invertible, through the least cap of mat and rhs.

    One degree at a time: x_d = C^(-1) (rhs_d - ((mat - C) x)_d).  x holds
    the layers below d when layer d of mat x is formed, so C never meets
    it there, and each product is formed in that layer alone.  Each step is
    series arithmetic on homogeneous series at cap d, and x then grows by
    its new layer without copying (MultiSeries._grown).
    """
    n, nvars = len(rhs), rhs.nvars
    if len(mat) != n or any(len(row) != n for row in mat):
        raise DomainError("series solve needs a square matrix of the tuple's size")
    cinv = ratlinalg.inverse([[entry.constant_term() for entry in row] for row in mat])
    cap = min([rhs.trunc] + [entry.trunc for row in mat for entry in row])
    # nothing is known yet: the cap below degree 0
    x = [MultiSeries.zero(nvars, -1) for _ in range(n)]
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
        x = [comp._grown(layer) for comp, layer in zip(x, layers)]
    return SeriesTuple(x)


def _disjoint_sum(parts: Sequence[SeriesTuple]) -> SeriesTuple:
    """The sum of tuples whose components hold pairwise disjoint degrees.

    No coefficient is added: each component of the sum shares the layer
    entries of its summands.
    """
    if len({len(part) for part in parts}) != 1:
        raise DomainError("tuple size mismatch")
    out = []
    for comps in zip(*(part.components for part in parts)):
        if len({(c.nvars, c.trunc) for c in comps}) != 1:
            raise DomainError("summands must share variables and truncation")
        packed: _Packed = {}
        for comp in comps:
            if not packed.keys().isdisjoint(comp._packed):
                raise DomainError("summands must hold disjoint degrees")
            packed.update(comp._packed)
        out.append(MultiSeries._raw(comps[0].nvars, comps[0].trunc, packed))
    return SeriesTuple(out)


class GaussNorm:
    """Value and witness of sup_I |a_I|_p rho^|I| over the stored terms.

    The norm value is an exact rational: |a_I|_p is a power of p and rho is
    rational, so no rounding ever occurs.  ``valuation`` and ``degree`` give
    the extremal pair (p-power, rho-power); ``witness`` the extremal
    exponent tuple, graded-lex minimal among ties.
    """

    __slots__ = ("value", "valuation", "degree", "witness", "prime", "rho")

    def __init__(self, value, valuation, degree, witness, prime, rho):
        self.value = value
        self.valuation = valuation
        self.degree = degree
        self.witness = witness
        self.prime = prime
        self.rho = rho

    def __repr__(self):
        if self.witness is None:
            return "GaussNorm(0)"
        return f"GaussNorm({self.value} at {self.witness})"

    def __eq__(self, other):
        if isinstance(other, GaussNorm):
            return self.value == other.value
        return self.value == other


def gauss_norm(phi: MultiSeries, rho, prime: int) -> GaussNorm:
    """Gauss norm of a rational-coefficient series read p-adically."""
    rho = _as_rational(rho, "radius")
    if rho <= 0:
        raise DomainError("radius must be positive")
    if not is_prime(prime):
        raise DomainError(f"{prime} is not a prime")
    best = None  # (value, key, valuation, degree, witness)
    unpack = _unpacker(phi.nvars)
    for d, (den, nums) in phi._packed.items():
        # rho^d and the denominator are common to the layer: its least
        # numerator valuation wins, graded-lex first (the greatest exponent
        # tuple) among the keys tied at it, which alone are unpacked
        vals = [(int_valuation(n, prime), key) for key, n in nums.items()]
        val = min(v for v, _ in vals)
        exps = max(unpack(key) for v, key in vals if v == val)
        val -= int_valuation(den, prime)
        value = rho**d * Fraction(prime) ** -val
        key = (d,) + tuple(-e for e in exps)
        if best is None or value > best[0] or (value == best[0] and key < best[1]):
            best = (value, key, val, d, exps)
    if best is None:
        return GaussNorm(Fraction(0), None, None, None, prime, rho)
    return GaussNorm(best[0], best[2], best[3], best[4], prime, rho)


def tuple_gauss_norm(g: SeriesTuple, rho, prime: int) -> GaussNorm:
    """Max norm over the components of a tuple."""
    best = None
    for comp in g.components:
        norm = gauss_norm(comp, rho, prime)
        if best is None or norm.value > best.value:
            best = norm
    return best


def in_subspace_ar(phi: MultiSeries, r: int) -> bool:
    """True iff every monomial has total degree >= 2 in the last nvars - r variables."""
    if not 0 <= r <= phi.nvars:
        raise DomainError(f"fixed-locus dimension {r} out of range")
    unpack = _unpacker(phi.nvars)
    return all(sum(unpack(key)[r:]) >= 2 for _, nums in phi._packed.values() for key in nums)
