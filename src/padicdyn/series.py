"""Truncated multivariate power series over the rationals.

A series is stored densely by total degree: one sparse map per graded
layer, sending exponent tuples to nonzero Fraction coefficients.  All
monomials above the truncation degree are discarded, and every arithmetic
operation truncates at the minimum truncation degree of its operands, so
precision can only shrink, never silently grow.

Each series caches one graded integer view: per layer, one denominator,
the lcm of that layer's coefficient denominators, and the numerators over
it, each exponent tuple packed once into an integer key with exponent i in
the 16-bit field at bit 16 i.  A layer's entry depends on that layer alone,
so a series that shares layer dicts with another (truncated, as_polynomial,
_grown, the one-operand degrees of a sum) shares their entries too.  Keys
add carry-free below 2**16, the cap on every truncation degree, so products
convolve the views as they are; a square (both operands the same object)
visits each unordered pair of terms once.  A product is formed one output
degree at a time: its term products are summed in groups, one per product
of the operands' layer denominators, and the groups are merged once over
their lcm (_merge) before the next degree, so a low layer is never
multiplied at the width of a high one.  Composition sums
c_I inner^I over one table of the inner map's monomial powers
(_PowerTable), each power a graded view of its own.  It serves one
substitution (SeriesTuple.compose), which walks the table up one degree at
a time over the powers its outer map reads, and a stream of homogeneous
layers (_LayerStream), which builds a power when a layer first reads it and
keeps its running sum in groups too, one per layer added, merging a degree
and decoding it to Fractions only when it is read.  A combination of
powers puts its products over one lcm per degree, scaling each through
its scalar multiplier alone.  The product kernel _mul and both
substitutions take a lower bound low on the output degree: the layers
below it are not formed, and in SeriesTuple.compose neither are those
degrees of the table powers that only feed the result.  A caller that
needs one graded layer, such as a layer step of the linearizing
conjugacy, then pays for that layer and for the powers the table builds
further powers from.  A diagonal substitution x_i -> lambda_i x_i scales
each coefficient by lambda^I, read from a table of those powers
(_DiagonalPowers) that callers may share between substitutions.  All are
exact.

Every monomial walk of the package takes one step, from a nonzero
monomial I to its prefix parent I - e_j with j the last variable of I
(_parent).  Both power tables build an entry from its prefix parent's
entry; when a single power is asked for, one chain walk (_chained) goes
down to a kept entry and builds the missing ones upwards.
graded_monomials lists the monomials by degree, each after its prefix
parent; the relation probes of orbit and the resonance search of
dynamics run over it.

Gauss norms sup |a_I|_p rho^|I| are returned as exact data: the p-adic
valuation of the extremal coefficient, its degree, and the norm value as a
rational.  They accept any prime, including 2, since no series expansion
of log or exp is involved.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from typing import Container, Iterable, Iterator, Sequence

from . import ratlinalg
from .arith import fraction_valuation, is_prime
from .errors import DomainError

Exponents = tuple[int, ...]

# every truncation degree is below this cap, the range of one key field
_KEY_CAP = 1 << 16


def _key_fields(nvars: int) -> struct.Struct:
    """The layout of a packed key: exponent i in the little-endian unsigned
    16-bit field i, so the key is sum_i e_i 2**(16 i)."""
    return struct.Struct(f"<{nvars}H")


def _is_int(value) -> bool:
    """True for an int proper: not a bool, not a float with an integral value."""
    return type(value) is int


def _as_coeff(value) -> Fraction:
    """value as a Fraction; an int or a Fraction, never a float."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise DomainError(f"coefficients must be rational, got {type(value).__name__}")


class MultiSeries:
    """Truncated power series; immutable by convention."""

    __slots__ = ("nvars", "trunc", "_layers", "_view")

    def __init__(self, nvars: int, trunc: int, terms: Iterable[tuple[Exponents, Fraction]] = ()) -> None:
        if not _is_int(nvars) or nvars < 1:
            raise DomainError(f"need at least one variable, got {nvars!r}")
        if not _is_int(trunc) or not 0 <= trunc < _KEY_CAP:
            raise DomainError(f"truncation degree {trunc!r} is not an integer in [0, {_KEY_CAP - 1}]")
        layers: dict[int, dict[Exponents, Fraction]] = {}
        for exps, coeff in terms:
            exps = tuple(exps)
            if len(exps) != nvars or not all(_is_int(e) and e >= 0 for e in exps):
                raise DomainError(f"bad exponent tuple {exps} for {nvars} variables")
            deg = sum(exps)
            if deg > trunc:
                continue
            coeff = _as_coeff(coeff)
            layer = layers.setdefault(deg, {})
            if exps not in layer:
                if coeff:
                    layer[exps] = coeff
                continue
            acc = layer[exps] + coeff
            if acc:
                layer[exps] = acc
            else:
                del layer[exps]
        self.nvars = nvars
        self.trunc = trunc
        self._layers = {d: lay for d, lay in layers.items() if lay}
        self._view = None

    @classmethod
    def _raw(
        cls, nvars: int, trunc: int, layers: dict[int, dict[Exponents, Fraction]], view: "_View | None" = None
    ) -> "MultiSeries":
        """A series of the given layer map, taken as is.  view, when given,
        holds the graded-view entries of some of these layers, shared with
        the series they come from."""
        if not _is_int(trunc) or trunc >= _KEY_CAP:
            raise DomainError(f"truncation degree {trunc!r} is not an integer below {_KEY_CAP}")
        obj = object.__new__(cls)
        obj.nvars = nvars
        obj.trunc = trunc
        obj._layers = layers
        obj._view = view
        return obj

    def _graded(self) -> "_View":
        """The graded integer view, cached: {deg: (den, [(key, numerator)])}
        with den the lcm of that layer's denominators and the exponents
        packed by _key_fields.

        An entry depends on its layer alone, so a series made from another's
        layers starts with those layers' entries, and only its other layers
        are packed here.  truncated, as_polynomial and _grown build the
        source's view first, so that it is kept on the source and handed on
        from there; _merged, _disjoint_sum and _inverse_from hand on the
        entries their operands already hold.  Built once: instances and
        their entries are never changed after construction.
        """
        view = self._view
        if view is not None and len(view) == len(self._layers):
            return view
        known = view or {}
        pack = _key_fields(self.nvars).pack
        built = dict(known)
        for d in self._layers.keys() - known.keys():
            layer = self._layers[d]
            den = lcm(*(c.denominator for c in layer.values()))
            terms = [
                (int.from_bytes(pack(*e), "little"), c.numerator * (den // c.denominator)) for e, c in layer.items()
            ]
            built[d] = (den, terms)
        self._view = built
        return built

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, trunc: int) -> "MultiSeries":
        return cls._raw(nvars, trunc, {})

    @classmethod
    def constant(cls, value, nvars: int, trunc: int) -> "MultiSeries":
        c = _as_coeff(value)
        if not c:
            return cls.zero(nvars, trunc)
        return cls._raw(nvars, trunc, {0: {(0,) * nvars: c}})

    @classmethod
    def one(cls, nvars: int, trunc: int) -> "MultiSeries":
        return cls.constant(1, nvars, trunc)

    @classmethod
    def variable(cls, index: int, nvars: int, trunc: int) -> "MultiSeries":
        if not 0 <= index < nvars:
            raise DomainError(f"variable index {index} out of range")
        if trunc < 1:
            return cls.zero(nvars, trunc)
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls._raw(nvars, trunc, {1: {exps: Fraction(1)}})

    # -- views -----------------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        """All stored terms in graded lexicographic order."""
        for d in sorted(self._layers):
            for exps in sorted(self._layers[d], reverse=True):
                yield exps, self._layers[d][exps]

    def layer(self, degree: int) -> dict[Exponents, Fraction]:
        return dict(self._layers.get(degree, {}))

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        exps = tuple(exps)
        return self._layers.get(sum(exps), {}).get(exps, _ZERO)

    def constant_term(self) -> Fraction:
        return self._layers.get(0, {}).get((0,) * self.nvars, _ZERO)

    def is_zero(self) -> bool:
        return not self._layers

    def lowest_degree(self) -> int | None:
        return min(self._layers) if self._layers else None

    def degree(self) -> int | None:
        return max(self._layers) if self._layers else None

    def term_count(self) -> int:
        return sum(len(lay) for lay in self._layers.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.trunc == other.trunc
            and self._layers == other._layers
        )

    __hash__ = None

    def agrees_through(self, other: "MultiSeries", degree: int) -> bool:
        """Equality of all terms of total degree <= degree."""
        if self.nvars != other.nvars:
            return False
        for d in range(degree + 1):
            if self._layers.get(d, {}) != other._layers.get(d, {}):
                return False
        return True

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
        negated coefficients instead of negating other first."""
        if isinstance(other, (int, Fraction)):
            other = MultiSeries.constant(other, self.nvars, self.trunc)
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._check_compatible(other)
        trunc = min(self.trunc, other.trunc)
        layers: dict[int, dict[Exponents, Fraction]] = {}
        view: _View = {}
        for d in set(self._layers) | set(other._layers):
            if d > trunc:
                continue
            # a degree held by one operand alone shares its layer dict and
            # its view entry, or takes a negated copy of a subtrahend's
            if d not in self._layers and sign < 0:
                layers[d] = {e: -c for e, c in other._layers[d].items()}
                continue
            if d not in self._layers or d not in other._layers:
                source = self if d in self._layers else other
                layers[d] = source._layers[d]
                if source._view and d in source._view:
                    view[d] = source._view[d]
                continue
            merged = dict(self._layers[d])
            for exps, c in other._layers[d].items():
                acc = merged.get(exps, _ZERO)
                acc = acc + c if sign > 0 else acc - c
                if acc:
                    merged[exps] = acc
                else:
                    merged.pop(exps, None)
            if merged:
                layers[d] = merged
        return MultiSeries._raw(self.nvars, trunc, layers, view)

    def __neg__(self):
        layers = {d: {e: -c for e, c in lay.items()} for d, lay in self._layers.items()}
        return MultiSeries._raw(self.nvars, self.trunc, layers)

    def __sub__(self, other):
        return self._merged(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value) -> "MultiSeries":
        c = _as_coeff(value)
        if not c:
            return MultiSeries.zero(self.nvars, self.trunc)
        layers = {d: {e: c * v for e, v in lay.items()} for d, lay in self._layers.items()}
        return MultiSeries._raw(self.nvars, self.trunc, layers)

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
        kept layer dicts and their view entries are shared."""
        if not _is_int(new_trunc) or new_trunc < 0:
            raise DomainError(f"truncation degree {new_trunc!r} is not a non-negative integer")
        if new_trunc >= self.trunc:
            return self
        layers = {d: lay for d, lay in self._layers.items() if d <= new_trunc}
        view = {d: v for d, v in self._graded().items() if d <= new_trunc}
        return MultiSeries._raw(self.nvars, new_trunc, layers, view)

    def as_polynomial(self, trunc: int) -> "MultiSeries":
        """Reinterpret exact polynomial content at a higher truncation degree.

        Only meaningful when the stored terms are the whole object, e.g.
        parsed polynomial input; raising the cap on a genuinely truncated
        series would fabricate zero coefficients.  The layer dicts and the
        graded view are shared, not copied: no instance changes them after
        construction.
        """
        if not _is_int(trunc) or trunc < (self.degree() or 0):
            raise DomainError("as_polynomial takes an integer cap and cannot drop stored terms")
        return MultiSeries._raw(self.nvars, trunc, self._layers, self._graded())

    def _grown(self, layer: dict[Exponents, Fraction]) -> "MultiSeries":
        """This polynomial with a new top layer, homogeneous of degree
        trunc + 1, at that cap, which must stay below 2**16.

        The layer map is copied shallowly and its layer dicts are shared,
        with their view entries: the grown series packs its new layer alone
        when its view is first read.
        """
        degree = self.trunc + 1
        layer = {e: c for e, c in layer.items() if c}
        layers = dict(self._layers)
        if layer:
            layers[degree] = layer
        return MultiSeries._raw(self.nvars, degree, layers, self._graded())

    # -- calculus and substitution ------------------------------------------

    def partial(self, index: int) -> "MultiSeries":
        """Partial derivative; the truncation degree drops by one."""
        if not 0 <= index < self.nvars:
            raise DomainError(f"variable index {index} out of range")
        trunc = max(self.trunc - 1, 0)
        layers: dict[int, dict[Exponents, Fraction]] = {}
        for d, lay in self._layers.items():
            if d == 0 or d - 1 > trunc:
                continue
            out: dict[Exponents, Fraction] = {}
            for exps, c in lay.items():
                e = exps[index]
                if e == 0:
                    continue
                shifted = exps[:index] + (e - 1,) + exps[index + 1 :]
                out[shifted] = c * e
            if out:
                layers[d - 1] = out
        return MultiSeries._raw(self.nvars, trunc, layers)

    def substitute_zero(self, indices: Iterable[int]) -> "MultiSeries":
        """Set the given variables to zero, keeping the ambient variable count."""
        idx = set(indices)
        layers: dict[int, dict[Exponents, Fraction]] = {}
        for d, lay in self._layers.items():
            out = {e: c for e, c in lay.items() if all(e[i] == 0 for i in idx)}
            if out:
                layers[d] = out
        return MultiSeries._raw(self.nvars, self.trunc, layers)

    def eval(self, point: Sequence[Fraction]) -> Fraction:
        """Exact evaluation, treating the stored terms as a polynomial."""
        if len(point) != self.nvars:
            raise DomainError("point dimension mismatch")
        vals = [Fraction(v) for v in point]
        total = Fraction(0)
        for d in sorted(self._layers):
            for exps, c in self._layers[d].items():
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

        Newton doubling from the inverse of the constant term; see
        _inverse_from.
        """
        c0 = self.constant_term()
        if not c0:
            raise DomainError("series inverse needs a unit constant term")
        return _inverse_from(self, MultiSeries.constant(1 / c0, self.nvars, 0))

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
            coeff = Fraction(int(rec["numerator"]), int(rec.get("denominator", 1)))
            terms.append((tuple(rec["exponents"]), coeff))
        return cls(nvars, trunc, terms)


_ZERO = Fraction(0)


def _inverse_from(s: MultiSeries, y: MultiSeries) -> MultiSeries:
    """1/s through s.trunc by Newton doubling, continued from y, the inverse
    of s through y.trunc; a y with a higher cap is truncated.

    A pass from correct to new = min(2 correct + 1, trunc) forms the error
    e = s y - 1, whose layers through correct vanish, in the degrees above
    correct alone, and sets y <- y - y e.  The product y e has no layer
    through correct either, so y keeps its layers, with their view entries,
    and gains the new ones: each pass costs about half of the two full
    products of y (2 - s y).
    """
    correct, trunc = y.trunc, s.trunc
    while correct < trunc:
        new = min(2 * correct + 1, trunc)
        error = _mul(s, y, new, correct + 1)
        step = _mul(y, error, new, correct + 1)
        layers = dict(y._layers)
        for d, lay in step._layers.items():
            layers[d] = {e: -c for e, c in lay.items()}
        y = MultiSeries._raw(s.nvars, new, layers, y._view)
        correct = new
    return y.truncated(trunc)


def _mul(a: MultiSeries, b: MultiSeries, trunc: int, low: int = 0) -> MultiSeries:
    """Product truncated at trunc, computing only the layers of degree >= low.

    With low > 0 the layers below low are absent from the result, not
    zero: callers that need one graded layer of a product (the pivot
    induction) pass low = trunc and read that layer alone.  A square (a is
    b) visits each unordered pair of terms once.
    """
    if a.is_zero() or b.is_zero():
        return MultiSeries.zero(a.nvars, trunc)
    if a is b:
        return _unpacked(_square(a._graded(), trunc, low), a.nvars, trunc)
    if a.term_count() > b.term_count():
        a, b = b, a
    return _unpacked(_convolve(a._graded(), b._graded(), trunc, low), a.nvars, trunc)


# a graded integer view: {deg: (den, [(packed key, numerator over den)])}
_View = dict[int, tuple[int, list[tuple[int, int]]]]
# the products of one degree, grouped by the denominator they are over:
# {den: {packed key: numerator}}
_Groups = dict[int, dict[int, int]]
# sums by degree, one denominator each: {deg: (den, {packed key: numerator})}
_Sums = dict[int, tuple[int, dict[int, int]]]


def _convolve(a: _View, b: _View, trunc: int, low: int = 0) -> _Sums:
    """The product of two views in degrees low..trunc, one degree at a time:
    its products grouped by the product of the two layer denominators, and
    the groups merged (_merge) before the next degree is formed.

    Keys add carry-free, as no coordinate of a term of degree <= trunc
    reaches 2**16.  Degrees above the sum of the operands' top layers are
    never visited, so the cost does not grow with trunc.
    """
    out: _Sums = {}
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
            for ea, ca in terms_a:
                for eb, cb in terms_b:
                    key = ea + eb
                    group[key] = get(key, 0) + ca * cb
        if groups:
            out[d] = _merge(groups)
    return out


def _square(a: _View, trunc: int, low: int = 0) -> _Sums:
    """_convolve(a, a, trunc, low) with each unordered pair of terms visited
    once: the off-diagonal products are formed once and doubled."""
    out: _Sums = {}
    degrees = sorted(a)
    if not degrees:
        return out
    bottom, top = degrees[0], degrees[-1]
    for d in range(max(low, 2 * bottom), min(trunc, 2 * top) + 1):
        groups: _Groups = {}
        for da in degrees[bisect_left(degrees, d - top) : bisect_right(degrees, d // 2)]:
            entry = a.get(d - da)
            if entry is None:
                continue
            den_a, terms_a = a[da]
            den_b, terms_b = entry
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
            out[d] = _merge(groups)
    return out


def _merge(groups: _Groups) -> tuple[int, dict[int, int]]:
    """(den, sums): the groups of one degree summed over one denominator,
    the lcm of theirs.  A single group is returned as it is; the groups are
    not changed."""
    if len(groups) == 1:
        return next(iter(groups.items()))
    den = lcm(*groups)
    # the largest group is copied, the others are added to it
    parts = sorted(groups.items(), key=lambda item: len(item[1]), reverse=True)
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


def _unpacked(sums: _Sums, nvars: int, trunc: int) -> MultiSeries:
    """The series of sums: numerator / den at each packed key."""
    fields = _key_fields(nvars)
    unpack, size = fields.unpack, fields.size
    layers: dict[int, dict[Exponents, Fraction]] = {}
    for d, (den, out) in sums.items():
        lay = {unpack(key.to_bytes(size, "little")): Fraction(n, den) for key, n in out.items() if n}
        if lay:
            layers[d] = lay
    return MultiSeries._raw(nvars, trunc, layers)


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


def _chained(entries: dict, exps: Exponents, step):
    """entries[I], building it and its missing prefix parents upwards from
    the nearest kept one, each as step(j, entries[I - e_j]) with j the last
    variable of I, and keeping them."""
    chain = []
    while exps not in entries:
        j, lower = _parent(exps)
        chain.append((exps, j))
        exps = lower
    value = entries[exps]
    for mono, j in reversed(chain):
        value = step(j, value)
        entries[mono] = value
    return value


class _DiagonalPowers:
    """The monomial powers lambda^I of the factors of a diagonal map
    x_i -> lambda_i x_i, each built on first use and then kept.

    It stands in for the factor sequence: len, indexing and iteration give
    the lambda_i as Fractions, so one table can be handed wherever the
    eigenvalues go.  SeriesTuple.compose_diagonal,
    linearize.solve_homological and dynamics.enumerate_resonances read
    lambda^I from it with power.  An entry is built by _chained as
    lambda^I = lambda^(I - e_j) lambda_j with j the last variable of I, as
    _PowerTable builds inner^I: one Fraction product per new entry.
    """

    __slots__ = ("factors", "entries")

    def __init__(self, factors: Iterable[Fraction]) -> None:
        self.factors = tuple(Fraction(x) for x in factors)
        self.entries: dict[Exponents, Fraction] = {(0,) * len(self.factors): Fraction(1)}

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

    def power(self, exps: Exponents) -> Fraction:
        """lambda^I for an exponent tuple I with one entry per factor."""
        value = self.entries.get(exps)
        if value is None:
            value = _chained(self.entries, exps, lambda j, lower: lower * self.factors[j])
        return value


class _PowerTable:
    """The monomial powers inner^I of a fixed inner map.

    An entry is built as inner^I = inner^(I - e_j) inner_j with j the last
    variable of I: the baby-step table of Brent and Kung's composition.  The
    factors are the inner series' graded views, and each entry is a graded
    view too, one denominator per degree, so a table step costs integer
    products at the width of the layers it reads, and a combination
    sum_I c_I inner^I one Fraction per output coefficient.

    The table is read in one of two ways.  SeriesTuple.compose walks it up
    one degree at a time with extend, over a set of monomials it gives,
    and keeps that degree's entries alone.  _LayerStream asks for single
    powers with power, which builds a missing power (and its missing prefix
    parents) on demand and keeps every power it builds.
    """

    def __init__(self, inner: Sequence[MultiSeries], trunc: int) -> None:
        if any(g.constant_term() for g in inner):
            raise DomainError("non-zero constant term in composition argument")
        self.trunc = trunc
        self.factors = [g._graded() for g in inner]
        self.entries: dict[Exponents, _View] = {(0,) * len(inner): {0: (1, [(0, 1)])}}

    def _step(self, j: int, parent: _View, low: int = 0) -> _View:
        """inner^I in the degrees >= low, from the entry of its prefix
        parent I - e_j."""
        product = _convolve(parent, self.factors[j], self.trunc, low)
        return {d: (den, list(sums.items())) for d, (den, sums) in product.items()}

    def extend(self, monomials: Iterable[Exponents], low: int, parents: Container[Exponents]) -> None:
        """Move the table up one degree, to the entries of the given monomials.

        An entry that is not in parents (no later entry is built from it) is
        read only by combine, so it is formed in the degrees >= low alone.
        """
        below = self.entries
        self.entries = {}
        for exps in monomials:
            j, lower = _parent(exps)
            self.entries[exps] = self._step(j, below[lower], 0 if exps in parents else low)

    def power(self, exps: Exponents) -> _View:
        """The entry inner^I, built by _chained on first use and then kept."""
        return _chained(self.entries, exps, self._step)

    def combine(self, terms: dict[Exponents, Fraction], acc: dict[int, _Groups], low: int = 0) -> None:
        """Add sum_I c_I inner^I over terms, in the degrees >= low, to the
        accumulator acc, {degree: groups}: the products c_I inner^I of a
        degree go into one group, over the lcm of their denominators, each
        scaled to it through its scalar multiplier alone."""
        products: dict[int, list[tuple[int, int, list[tuple[int, int]]]]] = {}
        for exps, c in terms.items():
            for d, (den, lay) in self.power(exps).items():
                if d >= low:
                    products.setdefault(d, []).append((c.numerator, c.denominator * den, lay))
        for d, parts in products.items():
            common = lcm(*(den for _, den, _ in parts))
            out = acc.setdefault(d, {}).setdefault(common, {})
            get = out.get
            for num, den, lay in parts:
                mult = num * (common // den)
                for key, v in lay:
                    out[key] = get(key, 0) + mult * v


class _LayerStream:
    """The running sum start + sum_k layer_k o inner, read one degree at a time.

    layer o inner = sum_I c_I inner^I over the monomials I of a homogeneous
    layer, so add reads the powers of that layer's monomials alone, from one
    _PowerTable of inner shared by every layer and component.  The sum is
    kept in integers, per component and degree in groups (_Groups): one for
    the graded view of start and one per layer added by combine, so no
    numerator kept so far is ever rescaled.  layer merges one degree and
    decodes it to Fractions.
    """

    def __init__(self, inner: "SeriesTuple", start: "SeriesTuple") -> None:
        n = inner.nvars
        if len(inner) != n:
            raise DomainError("the inner map must be square")
        if start.nvars != n:
            raise DomainError("the start must have the inner map's variables")
        self.table = _PowerTable(inner.components, inner.trunc)
        self.nvars, self.trunc = n, inner.trunc
        self.degree = 0
        self.sums: list[dict[int, _Groups]] = [
            {d: {den: dict(terms)} for d, (den, terms) in comp._graded().items() if d <= self.trunc} for comp in start
        ]

    def add(self, layer: "SeriesTuple", low: int) -> None:
        """Add layer o inner in the degrees >= low.  The layer must be
        homogeneous and nonzero, of no lower degree than the layers before."""
        degree = layer.lowest_degree()
        if degree is None or degree < self.degree or any(set(c._layers) - {degree} for c in layer):
            raise DomainError("layers must be homogeneous, nonzero and of non-decreasing degree")
        if len(layer) != len(self.sums):
            raise DomainError("tuple size mismatch")
        self.degree = degree
        for comp, acc in zip(layer, self.sums):
            terms = comp._layers.get(degree)
            if terms:
                self.table.combine(terms, acc, low)

    def layer(self, degree: int) -> "SeriesTuple":
        """Layer degree of the sum: homogeneous components at the inner cap."""
        return SeriesTuple(
            [
                _unpacked({degree: _merge(acc[degree])} if degree in acc else {}, self.nvars, self.trunc)
                for acc in self.sums
            ]
        )


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

    def compose(self, inner: "SeriesTuple | Sequence[MultiSeries]", low: int = 0) -> "SeriesTuple":
        """Substitution c(g_0, ..., g_{n-1}) into every component c, in the
        degrees >= low; each g_i must have zero constant term, and the cap is
        the least of all caps.

        One _PowerTable of the g_i serves every component.  It moves up over
        the prefix closure (I -> I - e_last(I)) of their joint support, so a
        sparse outer map computes only the powers it reads; each degree adds
        one combination per component to that component's accumulator.

        With low > 0 the layers below low are absent from the result, not
        zero, as for _mul: callers that need only the top layer (the layer
        steps of linearize) pass low = cap.  The leaves of the closure, the
        powers no other power is built from, are then formed in the degrees
        >= low alone; the powers they are built from are still formed in
        full.
        """
        comps = tuple(inner)
        if len(comps) != self.nvars:
            raise DomainError(f"composition needs {self.nvars} inner series, got {len(comps)}")
        for g in comps:
            if g.nvars != comps[0].nvars:
                raise DomainError("inner series disagree on variable count")
        trunc = min([self.trunc] + [g.trunc for g in comps])
        terms = [{d: lay for d, lay in c._layers.items() if d <= trunc} for c in self.components]
        closure: list[set[Exponents]] = [set() for _ in range(trunc + 2)]  # by degree, one spare
        parents: set[Exponents] = set()
        for exps in {e for layers in terms for lay in layers.values() for e in lay}:
            while any(exps) and exps not in closure[sum(exps)]:
                closure[sum(exps)].add(exps)
                exps = _parent(exps)[1]
                parents.add(exps)
        table = _PowerTable(comps, trunc)
        accs: list[dict[int, _Groups]] = [{} for _ in terms]
        for d in range(trunc + 1):
            for layers, acc in zip(terms, accs):
                table.combine(layers.get(d, {}), acc, low)
            table.extend(closure[d + 1], low, parents)
        return SeriesTuple(
            [_unpacked({d: _merge(groups) for d, groups in acc.items()}, comps[0].nvars, trunc) for acc in accs]
        )

    def compose_diagonal(self, factors: "Sequence[Fraction] | _DiagonalPowers") -> "SeriesTuple":
        """Substitution x_i -> factors[i] * x_i, done by coefficient scaling.

        The coefficient at x^I is multiplied by lambda^I, read from a
        _DiagonalPowers table of the factors.  A table passed in is read and
        grown in place, so calls that share one (every call of a conjugacy
        run in linearize) form each lambda^I once; a plain sequence gets a
        table of its own.  Terms whose power vanishes (a zero factor) are
        dropped.
        """
        if len(factors) != self.nvars:
            raise DomainError("diagonal size mismatch")
        power = _DiagonalPowers.of(factors).power
        out = []
        for comp in self.components:
            layers: dict[int, dict[Exponents, Fraction]] = {}
            for d, lay in comp._layers.items():
                new = {}
                for exps, c in lay.items():
                    scale = power(exps)
                    if scale:
                        new[exps] = c * scale
                if new:
                    layers[d] = new
            out.append(MultiSeries._raw(comp.nvars, comp.trunc, layers))
        return SeriesTuple(out)

    def eval(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(c.eval(point) for c in self.components)

    def linear_matrix(self) -> list[list[Fraction]]:
        """Degree-one coefficients as a len(self) x nvars matrix."""
        n = self.nvars
        mat = []
        for comp in self.components:
            row = []
            for j in range(n):
                exps = tuple(1 if i == j else 0 for i in range(n))
                row.append(comp.coefficient(exps))
            mat.append(row)
        return mat

    def jacobian(self) -> list[list[MultiSeries]]:
        return [[c.partial(j) for j in range(self.nvars)] for c in self.components]

    def layer_tuple(self, degree: int) -> "SeriesTuple":
        """The homogeneous part of each component at the given total degree."""
        out = []
        for comp in self.components:
            lay = comp._layers.get(degree)
            layers = {degree: dict(lay)} if lay else {}
            out.append(MultiSeries._raw(comp.nvars, comp.trunc, layers))
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


def _disjoint_sum(parts: Sequence[SeriesTuple]) -> SeriesTuple:
    """The sum of tuples whose components hold pairwise disjoint degrees.

    No coefficient is added: each component of the sum shares the layer
    dicts of its summands, and their view entries.
    """
    if len({len(part) for part in parts}) != 1:
        raise DomainError("tuple size mismatch")
    out = []
    for comps in zip(*(part.components for part in parts)):
        if len({(c.nvars, c.trunc) for c in comps}) != 1:
            raise DomainError("summands must share variables and truncation")
        layers: dict[int, dict[Exponents, Fraction]] = {}
        view: _View = {}
        for comp in comps:
            if not layers.keys().isdisjoint(comp._layers):
                raise DomainError("summands must hold disjoint degrees")
            layers.update(comp._layers)
            view.update(comp._view or {})
        out.append(MultiSeries._raw(comps[0].nvars, comps[0].trunc, layers, view))
    return SeriesTuple(out)


def invert_tuple(g: SeriesTuple) -> SeriesTuple:
    """Compositional inverse with compose(g, invert_tuple(g)) = identity."""
    return g.invert()


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
    rho = Fraction(rho)
    if rho <= 0:
        raise DomainError("radius must be positive")
    if not is_prime(prime):
        raise DomainError(f"{prime} is not a prime")
    best = None  # (value, key, valuation, degree, witness)
    for d, lay in phi._layers.items():
        # rho^d is common to the layer: its least valuation wins, graded-lex first
        val, key, exps = min((fraction_valuation(c, prime), tuple(-e for e in exps), exps) for exps, c in lay.items())
        value = rho**d * Fraction(prime) ** -val
        key = (d,) + key
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
    return all(sum(exps[r:]) >= 2 for lay in phi._layers.values() for exps in lay)
