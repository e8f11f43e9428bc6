"""Truncated multivariate power series over the rationals.

A series is stored densely by total degree: one sparse map per graded
layer, sending exponent tuples to nonzero Fraction coefficients.  All
monomials above the truncation degree are discarded, and every arithmetic
operation truncates at the minimum truncation degree of its operands, so
precision can only shrink, never silently grow.

Multiplication clears denominators once per operand and convolves integer
coefficients; composition is a Horner scheme over the variables, except for
a stream of homogeneous layers composed with one fixed inner map, which
reads a shared table of the inner map's monomial powers (_layer_composer).
All are exact.

Gauss norms sup |a_I|_p rho^|I| are returned as exact data: the p-adic
valuation of the extremal coefficient, its degree, and the norm value as a
rational.  They accept any prime, including 2, since no series expansion
of log or exp is involved.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

from .arith import fraction_abs, fraction_valuation, is_prime
from .errors import DomainError

Exponents = tuple[int, ...]


def _as_coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be rational, got {type(value).__name__}")


class MultiSeries:
    """Truncated power series; immutable by convention."""

    __slots__ = ("nvars", "trunc", "_layers", "_ints")

    def __init__(self, nvars: int, trunc: int, terms: Iterable[tuple[Exponents, Fraction]] = ()) -> None:
        if nvars < 1:
            raise DomainError("need at least one variable")
        if trunc < 0:
            raise DomainError("truncation degree must be non-negative")
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
            acc = layer.get(exps, _ZERO) + coeff
            if acc:
                layer[exps] = acc
            else:
                layer.pop(exps, None)
        self.nvars = nvars
        self.trunc = trunc
        self._layers = {d: lay for d, lay in layers.items() if lay}
        self._ints = None

    @classmethod
    def _raw(cls, nvars: int, trunc: int, layers: dict[int, dict[Exponents, Fraction]]) -> "MultiSeries":
        obj = object.__new__(cls)
        obj.nvars = nvars
        obj.trunc = trunc
        obj._layers = layers
        obj._ints = None
        return obj

    def _int_layers(self):
        """Common-denominator integer view, cached: (den, {deg: [(exps, int)]}).

        Safe to cache because instances are never mutated after construction.
        """
        cached = self._ints
        if cached is None:
            den = 1
            for lay in self._layers.values():
                for c in lay.values():
                    den = lcm(den, c.denominator)
            cached = (
                den,
                {
                    d: [(e, c.numerator * (den // c.denominator)) for e, c in lay.items()]
                    for d, lay in self._layers.items()
                },
            )
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
            merged = dict(self._layers.get(d, {}))
            for exps, c in other._layers.get(d, {}).items():
                acc = merged.get(exps, _ZERO) + c
                if acc:
                    merged[exps] = acc
                else:
                    merged.pop(exps, None)
            if merged:
                layers[d] = merged
        return MultiSeries._raw(self.nvars, trunc, layers)

    __radd__ = __add__

    def __neg__(self):
        layers = {d: {e: -c for e, c in lay.items()} for d, lay in self._layers.items()}
        return MultiSeries._raw(self.nvars, self.trunc, layers)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiSeries.constant(other, self.nvars, self.trunc)
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return self + (-other)

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
        """Discard all terms above new_trunc; never extends the cap."""
        if new_trunc < 0:
            raise DomainError("truncation degree must be non-negative")
        if new_trunc >= self.trunc:
            return self if new_trunc == self.trunc else MultiSeries._raw(
                self.nvars, self.trunc, self._layers
            )
        layers = {d: dict(lay) for d, lay in self._layers.items() if d <= new_trunc}
        return MultiSeries._raw(self.nvars, new_trunc, layers)

    def as_polynomial(self, trunc: int) -> "MultiSeries":
        """Reinterpret exact polynomial content at a higher truncation degree.

        Only meaningful when the stored terms are the whole object, e.g.
        parsed polynomial input; raising the cap on a genuinely truncated
        series would fabricate zero coefficients.
        """
        if trunc < (self.degree() or 0):
            raise DomainError("as_polynomial cannot drop stored terms")
        return MultiSeries._raw(self.nvars, trunc, {d: dict(lay) for d, lay in self._layers.items()})

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
        """Substitution self(g_0, ..., g_{n-1}); each g_i must have zero constant term."""
        comps = tuple(tail.components) if isinstance(tail, SeriesTuple) else tuple(tail)
        if len(comps) != self.nvars:
            raise DomainError(f"composition needs {self.nvars} inner series, got {len(comps)}")
        inner_nvars = comps[0].nvars
        trunc = min([self.trunc] + [g.trunc for g in comps])
        for g in comps:
            if g.nvars != inner_nvars:
                raise DomainError("inner series disagree on variable count")
            if g.constant_term():
                raise DomainError("non-zero constant term in composition argument")
        flat = {e: c for _, lay in self._layers.items() for e, c in lay.items()}
        return _compose_rec(flat, self.nvars - 1, comps, inner_nvars, trunc)

    def inverse(self) -> "MultiSeries":
        """Multiplicative inverse; requires an invertible constant term.

        Newton doubling y <- y (2 - self y): each pass doubles the number
        of correct orders, so log(trunc) multiplications suffice.
        """
        c0 = self.constant_term()
        if not c0:
            raise DomainError("series inverse needs a unit constant term")
        n, trunc = self.nvars, self.trunc
        y = MultiSeries.constant(1 / c0, n, 0)
        correct = 0
        while correct < trunc:
            correct = min(2 * correct + 1, trunc)
            scope = self.truncated(correct)
            y = y.as_polynomial(correct)
            y = y * (MultiSeries.constant(2, n, correct) - scope * y)
        return y

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


def _mul(a: MultiSeries, b: MultiSeries, trunc: int, low: int = 0) -> MultiSeries:
    """Product truncated at trunc, computing only the layers of degree >= low.

    With low > 0 the layers below low are absent from the result, not
    zero: callers that need one graded layer of a product (the pivot
    induction) pass low = trunc and read that layer alone.
    """
    if a.is_zero() or b.is_zero():
        return MultiSeries.zero(a.nvars, trunc)
    if a.term_count() > b.term_count():
        a, b = b, a
    den_a, ints_a = a._int_layers()
    den_b, ints_b = b._int_layers()
    base = trunc + 1
    weights = [base**i for i in range(a.nvars)]
    packed_a = {d: _pack(terms, weights) for d, terms in ints_a.items() if d <= trunc}
    packed_b = {d: _pack(terms, weights) for d, terms in ints_b.items() if d <= trunc}
    acc: dict[int, dict[int, int]] = {}
    for da, terms_a in packed_a.items():
        for db in range(max(low - da, 0), trunc - da + 1):
            terms_b = packed_b.get(db)
            if terms_b is None:
                continue
            d = da + db
            out = acc.setdefault(d, {})
            get = out.get
            for ea, ca in terms_a:
                for eb, cb in terms_b:
                    key = ea + eb
                    out[key] = get(key, 0) + ca * cb
    den = den_a * den_b
    layers: dict[int, dict[Exponents, Fraction]] = {}
    for d, out in acc.items():
        lay = {_unpack(key, base, a.nvars): Fraction(n, den) for key, n in out.items() if n}
        if lay:
            layers[d] = lay
    return MultiSeries._raw(a.nvars, trunc, layers)


def _pack(terms: Iterable[tuple[Exponents, int]], weights: list[int]) -> list[tuple[int, int]]:
    """Exponent tuples packed into one integer each, with weights base**i.

    Coordinates never exceed the total degree, so with base = trunc + 1 the
    keys of a product are the sums of the keys, carry-free.
    """
    return [(sum(w * e for w, e in zip(weights, exps)), c) for exps, c in terms]


def _unpack(key: int, base: int, nvars: int) -> Exponents:
    exps = []
    for _ in range(nvars):
        key, e = divmod(key, base)
        exps.append(e)
    return tuple(exps)


def _compose_rec(
    flat: dict[Exponents, Fraction],
    var: int,
    comps: tuple[MultiSeries, ...],
    inner_nvars: int,
    trunc: int,
) -> MultiSeries:
    if not flat:
        return MultiSeries.zero(inner_nvars, trunc)
    if var < 0:
        value = flat.get(next(iter(flat)))
        return MultiSeries.constant(value, inner_nvars, trunc)
    buckets: dict[int, dict[Exponents, Fraction]] = {}
    for exps, c in flat.items():
        j = exps[var]
        if j > trunc:
            continue
        cleared = exps[:var] + (0,) + exps[var + 1 :]
        buckets.setdefault(j, {})[cleared] = c
    if not buckets:
        return MultiSeries.zero(inner_nvars, trunc)
    g = comps[var]
    jmax = max(buckets)
    acc = _compose_rec(buckets.get(jmax, {}), var - 1, comps, inner_nvars, trunc)
    for j in range(jmax - 1, -1, -1):
        acc = acc * g
        if j in buckets:
            acc = acc + _compose_rec(buckets[j], var - 1, comps, inner_nvars, trunc)
    return acc


def _layer_composer(inner: "SeriesTuple"):
    """compose(layer, low): layer o inner in degrees >= low, for homogeneous
    layers given in non-decreasing degree d.

    layer o inner = sum_I c_I inner^I over the monomials I of degree d, so
    the monomial powers inner^I are tabulated degree by degree, as
    inner^I = inner^(I - e_j) inner_j with j the last variable of I: the
    baby-step table of Brent and Kung's composition.  The table is shared
    by every component and every layer, and only the current degree is
    kept.  An entry is integers over one denominator, (den, {deg: {key:
    numerator}}) with exponents packed as in _mul, so a layer costs integer
    products and one Fraction per output coefficient.
    """
    n, trunc = inner.nvars, inner.trunc
    if len(inner) != n:
        raise DomainError("the inner map must be square")
    if any(g.constant_term() for g in inner):
        raise DomainError("non-zero constant term in composition argument")
    base = trunc + 1
    weights = [base**i for i in range(n)]
    factors = []
    for g in inner:
        den, ints = g._int_layers()
        factors.append((den, [(d, _pack(terms, weights)) for d, terms in ints.items()]))
    table = {(0,) * n: (1, {0: {0: 1}})}
    table_degree = 0

    def extend():
        nonlocal table, table_degree
        nxt = {}
        for exps, (den, layers) in table.items():
            last = max((i for i, e in enumerate(exps) if e), default=0)
            for j in range(last, n):
                fden, flayers = factors[j]
                out = {}
                for da, terms_a in layers.items():
                    for db, terms_b in flayers:
                        if da + db > trunc:
                            continue
                        lay = out.setdefault(da + db, {})
                        get = lay.get
                        for ka, ca in terms_a.items():
                            for kb, cb in terms_b:
                                key = ka + kb
                                lay[key] = get(key, 0) + ca * cb
                step = exps[:j] + (exps[j] + 1,) + exps[j + 1 :]
                nxt[step] = (den * fden, {d: {k: c for k, c in lay.items() if c} for d, lay in out.items()})
        table = nxt
        table_degree += 1

    def compose(layer: "SeriesTuple", low: int) -> "SeriesTuple":
        degree = layer.lowest_degree()
        if degree is None or degree < table_degree or any(set(c._layers) - {degree} for c in layer):
            raise DomainError("layers must be homogeneous, nonzero and of non-decreasing degree")
        while table_degree < degree:
            extend()
        out = []
        for comp in layer:
            terms = comp._layers.get(degree, {})
            common = 1
            for exps, c in terms.items():
                common = lcm(common, c.denominator * table[exps][0])
            acc: dict[int, dict[int, int]] = {}
            for exps, c in terms.items():
                den, layers = table[exps]
                mult = c.numerator * (common // (c.denominator * den))
                for d, lay in layers.items():
                    if d < low:
                        continue
                    dacc = acc.setdefault(d, {})
                    get = dacc.get
                    for key, v in lay.items():
                        dacc[key] = get(key, 0) + mult * v
            layers_out = {}
            for d, dacc in acc.items():
                lay = {_unpack(key, base, n): Fraction(v, common) for key, v in dacc.items() if v}
                if lay:
                    layers_out[d] = lay
            out.append(MultiSeries._raw(n, trunc, layers_out))
        return SeriesTuple(out)

    return compose


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

    def compose(self, inner: "SeriesTuple") -> "SeriesTuple":
        return SeriesTuple([c.compose(inner) for c in self.components])

    def compose_diagonal(self, factors: Sequence[Fraction]) -> "SeriesTuple":
        """Substitution x_i -> factors[i] * x_i, done by coefficient scaling."""
        if len(factors) != self.nvars:
            raise DomainError("diagonal size mismatch")
        facs = [Fraction(f) for f in factors]
        out = []
        for comp in self.components:
            layers: dict[int, dict[Exponents, Fraction]] = {}
            for d, lay in comp._layers.items():
                new = {}
                for exps, c in lay.items():
                    scale = Fraction(1)
                    for f, e in zip(facs, exps):
                        if e:
                            scale *= f**e
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
        from . import ratlinalg

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
        u = SeriesTuple([_linear_combination(minv[i], n, trunc) for i in range(n)])
        contact = 1
        while contact < trunc:
            contact = min(2 * contact, trunc)
            scope = self.truncated(contact)
            residual = scope.compose(u.truncated(contact)) - SeriesTuple.identity(n, contact)
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


def _linear_combination(coeffs: Sequence[Fraction], nvars: int, trunc: int) -> MultiSeries:
    terms = []
    for j, c in enumerate(coeffs):
        if c:
            terms.append((tuple(1 if i == j else 0 for i in range(nvars)), Fraction(c)))
    return MultiSeries(nvars, trunc, terms)


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
    best = None  # (value, witness, valuation, degree)
    for exps, coeff in phi.terms():
        val = fraction_valuation(coeff, prime)
        value = fraction_abs(coeff, prime) * rho ** sum(exps)
        key = (sum(exps),) + tuple(-e for e in exps)
        if best is None or value > best[0] or (value == best[0] and key < best[1]):
            best = (value, key, val, sum(exps), exps)
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
    for exps, _ in phi.terms():
        if sum(exps[r:]) < 2:
            return False
    return True
