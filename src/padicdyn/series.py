"""Truncated multivariate power series over the rationals.

A series is stored densely by total degree: one sparse map per graded
layer, sending exponent tuples to nonzero Fraction coefficients.  All
monomials above the truncation degree are discarded, and every arithmetic
operation truncates at the minimum truncation degree of its operands, so
precision can only shrink, never silently grow.

Each series caches one integer view: its coefficients over one common
denominator, each exponent tuple packed once into an integer key with
exponent i in the 16-bit field at bit 16 i.  Keys add carry-free below
2**16, the cap on every truncation degree, so products convolve the views
as they are; a square (both operands the same object) visits each
unordered pair of terms once.  Composition sums
c_I inner^I over one table of the inner map's monomial powers
(_PowerTable), kept in integers.  It serves one substitution
(SeriesTuple.compose), which walks the table up one degree at a time over
the powers its outer map reads, and a stream of homogeneous layers
(_LayerStream), which builds a power when a layer first reads it and keeps
its running sum in integers, one denominator per degree, decoding a degree
to Fractions only when it is read.  The product kernel _mul and both
substitutions take a lower bound low on the output degree: the layers
below it are not formed, and in SeriesTuple.compose neither are those
degrees of the table powers that only feed the result.  A caller that
needs one graded layer, such as a layer step of the linearizing
conjugacy, then pays for that layer and for the powers the table builds
further powers from.  A diagonal substitution x_i -> lambda_i x_i scales
each coefficient by lambda^I, read from a table of those powers
(_DiagonalPowers) that callers may share between substitutions.  All are
exact.

Gauss norms sup |a_I|_p rho^|I| are returned as exact data: the p-adic
valuation of the extremal coefficient, its degree, and the norm value as a
rational.  They accept any prime, including 2, since no series expansion
of log or exp is involved.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from math import lcm, prod
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


def _numerators(layer: dict[Exponents, Fraction], den: int, pack) -> list[tuple[int, int]]:
    """A layer of an integer view: (packed key, numerator over den) per term."""
    return [(int.from_bytes(pack(*e), "little"), c.numerator * (den // c.denominator)) for e, c in layer.items()]


def _as_coeff(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"coefficients must be rational, got {type(value).__name__}")


class MultiSeries:
    """Truncated power series; immutable by convention."""

    __slots__ = ("nvars", "trunc", "_layers", "_ints")

    def __init__(self, nvars: int, trunc: int, terms: Iterable[tuple[Exponents, Fraction]] = ()) -> None:
        if nvars < 1:
            raise DomainError("need at least one variable")
        if not 0 <= trunc < _KEY_CAP:
            raise DomainError(f"truncation degree {trunc} is not in [0, {_KEY_CAP - 1}]")
        layers: dict[int, dict[Exponents, Fraction]] = {}
        for exps, coeff in terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
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
        self._ints = None

    @classmethod
    def _raw(cls, nvars: int, trunc: int, layers: dict[int, dict[Exponents, Fraction]]) -> "MultiSeries":
        if trunc >= _KEY_CAP:
            raise DomainError(f"truncation degree {trunc} is not in [0, {_KEY_CAP - 1}]")
        obj = object.__new__(cls)
        obj.nvars = nvars
        obj.trunc = trunc
        obj._layers = layers
        obj._ints = None
        return obj

    def _int_layers(self):
        """The integer view, cached: (den, {deg: [(key, int)]}) with one
        common denominator den and the exponents packed by _key_fields.

        Built once: instances are never mutated after construction, and
        as_polynomial and _grown pass the view on."""
        cached = self._ints
        if cached is None:
            den = 1
            for lay in self._layers.values():
                for c in lay.values():
                    den = lcm(den, c.denominator)
            pack = _key_fields(self.nvars).pack
            cached = (den, {d: _numerators(lay, den, pack) for d, lay in self._layers.items()})
            self._ints = cached
        return cached

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
        for d in set(self._layers) | set(other._layers):
            if d > trunc:
                continue
            # a degree held by one operand alone shares its layer dict,
            # or takes a negated copy of a subtrahend's
            if d not in other._layers:
                layers[d] = self._layers[d]
                continue
            if d not in self._layers:
                layers[d] = other._layers[d] if sign > 0 else {e: -c for e, c in other._layers[d].items()}
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
        return MultiSeries._raw(self.nvars, trunc, layers)

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
        kept layer dicts are shared."""
        if new_trunc < 0:
            raise DomainError("truncation degree must be non-negative")
        if new_trunc >= self.trunc:
            return self
        layers = {d: lay for d, lay in self._layers.items() if d <= new_trunc}
        return MultiSeries._raw(self.nvars, new_trunc, layers)

    def as_polynomial(self, trunc: int) -> "MultiSeries":
        """Reinterpret exact polynomial content at a higher truncation degree.

        Only meaningful when the stored terms are the whole object, e.g.
        parsed polynomial input; raising the cap on a genuinely truncated
        series would fabricate zero coefficients.  The layer dicts and a
        cached integer view are shared, not copied: no instance changes
        them after construction.
        """
        if trunc < (self.degree() or 0):
            raise DomainError("as_polynomial cannot drop stored terms")
        out = MultiSeries._raw(self.nvars, trunc, self._layers)
        out._ints = self._ints
        return out

    def _grown(self, layer: dict[Exponents, Fraction]) -> "MultiSeries":
        """This polynomial with a new top layer, homogeneous of degree
        trunc + 1, at that cap, which must stay below 2**16.

        The layer map is copied shallowly and its layer dicts are shared.  A
        cached integer view grows by the new layer, packed once; when the
        common denominator grows, the old numerators are rescaled once by
        new_den / den instead of a new lcm pass.
        """
        degree = self.trunc + 1
        layer = {e: c for e, c in layer.items() if c}
        layers = dict(self._layers)
        if layer:
            layers[degree] = layer
        out = MultiSeries._raw(self.nvars, degree, layers)
        if self._ints is not None:
            den, ints = self._ints
            new_den = lcm(den, *(c.denominator for c in layer.values()))
            scale = new_den // den
            ints = {d: [(k, v * scale) for k, v in lay] for d, lay in ints.items()} if scale > 1 else dict(ints)
            if layer:
                ints[degree] = _numerators(layer, new_den, _key_fields(self.nvars).pack)
            out._ints = (new_den, ints)
        return out

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
    through correct either, so y keeps its layers and gains the new ones:
    each pass costs about half of the two full products of y (2 - s y).
    """
    correct, trunc = y.trunc, s.trunc
    while correct < trunc:
        new = min(2 * correct + 1, trunc)
        error = _mul(s, y, new, correct + 1)
        step = _mul(y, error, new, correct + 1)
        layers = dict(y._layers)
        for d, lay in step._layers.items():
            layers[d] = {e: -c for e, c in lay.items()}
        y = MultiSeries._raw(s.nvars, new, layers)
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
        den, ints = a._int_layers()
        return _unpacked(_square(ints, trunc, low), den * den, a.nvars, trunc)
    if a.term_count() > b.term_count():
        a, b = b, a
    den_a, ints_a = a._int_layers()
    den_b, ints_b = b._int_layers()
    return _unpacked(_convolve(ints_a, ints_b, trunc, low), den_a * den_b, a.nvars, trunc)


_Packed = dict[int, list[tuple[int, int]]]
_Sums = dict[int, dict[int, int]]


def _convolve(a: _Packed, b: _Packed, trunc: int, low: int = 0) -> _Sums:
    """The product of two packed operands in degrees low..trunc, as {deg: {key: numerator}}.

    Keys add carry-free, as no coordinate of a term of degree <= trunc
    reaches 2**16.  Degrees of b above its top layer are never visited, so
    the cost does not grow with trunc.
    """
    acc: _Sums = {}
    top = max(b, default=-1)
    for da, terms_a in a.items():
        for db in range(max(low - da, 0), min(trunc - da, top) + 1):
            terms_b = b.get(db)
            if terms_b is None:
                continue
            out = acc.setdefault(da + db, {})
            get = out.get
            for ea, ca in terms_a:
                for eb, cb in terms_b:
                    key = ea + eb
                    out[key] = get(key, 0) + ca * cb
    return acc


def _square(a: _Packed, trunc: int, low: int = 0) -> _Sums:
    """_convolve(a, a, trunc, low) with each unordered pair of terms visited
    once: the off-diagonal products are formed once and doubled."""
    acc: _Sums = {}
    top = max(a, default=-1)
    for da, terms_a in a.items():
        if low <= 2 * da <= trunc:
            out = acc.setdefault(2 * da, {})
            get = out.get
            for i, (ea, ca) in enumerate(terms_a):
                out[ea + ea] = get(ea + ea, 0) + ca * ca
                twice = ca << 1
                for eb, cb in terms_a[i + 1 :]:
                    key = ea + eb
                    out[key] = get(key, 0) + twice * cb
        for db in range(max(low - da, da + 1), min(trunc - da, top) + 1):
            terms_b = a.get(db)
            if terms_b is None:
                continue
            out = acc.setdefault(da + db, {})
            get = out.get
            for ea, ca in terms_a:
                twice = ca << 1
                for eb, cb in terms_b:
                    key = ea + eb
                    out[key] = get(key, 0) + twice * cb
    return acc


def _unpacked(acc: _Sums, den: int, nvars: int, trunc: int) -> MultiSeries:
    """The series acc / den."""
    fields = _key_fields(nvars)
    unpack, size = fields.unpack, fields.size
    layers: dict[int, dict[Exponents, Fraction]] = {}
    for d, out in acc.items():
        lay = {unpack(key.to_bytes(size, "little")): Fraction(n, den) for key, n in out.items() if n}
        if lay:
            layers[d] = lay
    return MultiSeries._raw(nvars, trunc, layers)


def _parent(exps: Exponents) -> tuple[int, Exponents]:
    """(j, I - e_j) for the last variable j of a nonzero monomial I."""
    j = max(i for i, e in enumerate(exps) if e)
    return j, exps[:j] + (exps[j] - 1,) + exps[j + 1 :]


class _DiagonalPowers:
    """The monomial powers lambda^I of the factors of a diagonal map
    x_i -> lambda_i x_i, each built on first use and then kept.

    It stands in for the factor sequence: len, indexing and iteration give
    the lambda_i as Fractions, so one table can be handed wherever the
    eigenvalues go.  SeriesTuple.compose_diagonal and
    linearize.solve_homological read lambda^I from it with power.  An entry
    is built as lambda^I = lambda^(I - e_j) lambda_j with j the last
    variable of I, as _PowerTable builds inner^I: a missing chain of prefix
    parents is walked down to a kept entry and built upwards, one Fraction
    product per new entry.
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
        entries = self.entries
        value = entries.get(exps)
        if value is not None:
            return value
        chain = []
        while exps not in entries:
            j, lower = _parent(exps)
            chain.append((exps, j))
            exps = lower
        value = entries[exps]
        for mono, j in reversed(chain):
            value = value * self.factors[j]
            entries[mono] = value
        return value


class _PowerTable:
    """The monomial powers inner^I of a fixed inner map.

    An entry is built as inner^I = inner^(I - e_j) inner_j with j the last
    variable of I: the baby-step table of Brent and Kung's composition.  The
    factors are the inner series' cached integer views, and an entry holds
    packed integer layers over the denominator prod_j den_j^(I_j) of the
    factors' common denominators, so a table step costs integer products,
    and a combination sum_I c_I inner^I one Fraction per output
    coefficient.

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
        ints = [g._int_layers() for g in inner]
        self.dens = [den for den, _ in ints]
        self.factors = [layers for _, layers in ints]
        self.entries: dict[Exponents, _Packed] = {(0,) * len(inner): {0: [(0, 1)]}}

    def den(self, exps: Exponents) -> int:
        return prod(den**e for den, e in zip(self.dens, exps))

    def common(self, terms: Iterable[tuple[Exponents, Fraction]]) -> int:
        """A common denominator of the products c_I inner^I over terms."""
        return lcm(1, *(c.denominator * self.den(exps) for exps, c in terms))

    def _step(self, exps: Exponents, low: int = 0) -> _Packed:
        """inner^I in the degrees >= low, from the entry of its prefix parent."""
        j, lower = _parent(exps)
        product = _convolve(self.entries[lower], self.factors[j], self.trunc, low)
        return {d: list(lay.items()) for d, lay in product.items()}

    def extend(self, monomials: Iterable[Exponents], low: int = 0, parents: Container[Exponents] = ()) -> None:
        """Move the table up one degree, to the entries of the given monomials.

        An entry that is not in parents (no later entry is built from it) is
        read only by combine, so it is formed in the degrees >= low alone.
        """
        self.entries = {exps: self._step(exps, 0 if exps in parents else low) for exps in monomials}

    def power(self, exps: Exponents) -> _Packed:
        """The entry inner^I, built on first use and then kept.

        A missing entry is built from its prefix parent I - e_last(I); the
        chain of missing parents is walked down to a kept entry first and
        then built upwards, so no recursion is needed.
        """
        missing = []
        lower = exps
        while lower not in self.entries:
            missing.append(lower)
            lower = _parent(lower)[1]
        for mono in reversed(missing):
            self.entries[mono] = self._step(mono)
        return self.entries[exps]

    def combine(self, terms: dict[Exponents, Fraction], common: int, acc: _Sums, low: int = 0) -> None:
        """Add common * sum_I c_I inner^I over terms of the current degree,
        in the degrees >= low, to the accumulator acc."""
        for exps, c in terms.items():
            mult = c.numerator * (common // (c.denominator * self.den(exps)))
            for d, lay in self.entries[exps].items():
                if d < low:
                    continue
                dacc = acc.setdefault(d, {})
                get = dacc.get
                for key, v in lay:
                    dacc[key] = get(key, 0) + mult * v


class _LayerStream:
    """The running sum start + sum_k layer_k o inner, read one degree at a time.

    layer o inner = sum_I c_I inner^I over the monomials I of a homogeneous
    layer, so add reads the powers of that layer's monomials alone, from one
    _PowerTable of inner shared by every layer and component.  The sum is
    kept in integers: per component and per degree, numerators over one
    denominator, which grows to the lcm with the common denominator of each
    added layer (the old numerators are rescaled then).  layer decodes one
    degree to Fractions.
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
        self.dens: list[dict[int, int]] = []
        self.nums: list[_Sums] = []
        for comp in start:
            den, ints = comp._int_layers()
            self.dens.append({d: den for d in ints if d <= self.trunc})
            self.nums.append({d: dict(lay) for d, lay in ints.items() if d <= self.trunc})

    def add(self, layer: "SeriesTuple", low: int) -> None:
        """Add layer o inner in the degrees >= low.  The layer must be
        homogeneous and nonzero, of no lower degree than the layers before."""
        degree = layer.lowest_degree()
        if degree is None or degree < self.degree or any(set(c._layers) - {degree} for c in layer):
            raise DomainError("layers must be homogeneous, nonzero and of non-decreasing degree")
        if len(layer) != len(self.nums):
            raise DomainError("tuple size mismatch")
        self.degree = degree
        table = self.table
        for comp, dens, nums in zip(layer, self.dens, self.nums):
            terms = comp._layers.get(degree)
            if not terms:
                continue
            common = table.common(terms.items())
            powers = [
                (c.numerator * (common // (c.denominator * table.den(exps))), table.power(exps))
                for exps, c in terms.items()
            ]
            for d in range(max(low, degree), self.trunc + 1):
                parts = [(mult, power[d]) for mult, power in powers if d in power]
                if not parts:
                    continue
                den = dens.get(d, 1)
                new = lcm(den, common)
                out = nums.get(d, {})
                if new != den:
                    rescale = new // den
                    out = {key: v * rescale for key, v in out.items()}
                get = out.get
                scale = new // common
                for mult, lay in parts:
                    mult *= scale
                    for key, v in lay:
                        out[key] = get(key, 0) + mult * v
                dens[d], nums[d] = new, out

    def layer(self, degree: int) -> "SeriesTuple":
        """Layer degree of the sum: homogeneous components at the inner cap."""
        return SeriesTuple(
            [
                _unpacked({degree: nums.get(degree, {})}, dens.get(degree, 1), self.nvars, self.trunc)
                for dens, nums in zip(self.dens, self.nums)
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
        commons = [table.common(t for lay in layers.values() for t in lay.items()) for layers in terms]
        accs: list[_Sums] = [{} for _ in terms]
        for d in range(trunc + 1):
            for layers, common, acc in zip(terms, commons, accs):
                table.combine(layers.get(d, {}), common, acc, low)
            table.extend(closure[d + 1], low, parents)
        return SeriesTuple([_unpacked(acc, common, comps[0].nvars, trunc) for acc, common in zip(accs, commons)])

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
            correction = []
            for i in range(n):
                acc = MultiSeries.zero(n, contact)
                for j in range(n):
                    if not du[i][j].is_zero() and not residual[j].is_zero():
                        acc = acc + du[i][j] * residual[j]
                correction.append(acc.as_polynomial(trunc))
            u = u - SeriesTuple(correction)
        return u

    def to_records(self) -> list[list[dict]]:
        return [c.to_records() for c in self.components]


def _disjoint_sum(parts: Sequence[SeriesTuple]) -> SeriesTuple:
    """The sum of tuples whose components hold pairwise disjoint degrees.

    No coefficient is added: each component of the sum shares the layer
    dicts of its summands.
    """
    if len({len(part) for part in parts}) != 1:
        raise DomainError("tuple size mismatch")
    out = []
    for comps in zip(*(part.components for part in parts)):
        if len({(c.nvars, c.trunc) for c in comps}) != 1:
            raise DomainError("summands must share variables and truncation")
        layers: dict[int, dict[Exponents, Fraction]] = {}
        for comp in comps:
            if not layers.keys().isdisjoint(comp._layers):
                raise DomainError("summands must hold disjoint degrees")
            layers.update(comp._layers)
        out.append(MultiSeries._raw(comps[0].nvars, comps[0].trunc, layers))
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
