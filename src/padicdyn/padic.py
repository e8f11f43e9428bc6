"""Capped-precision arithmetic in Q_p for odd primes p.

An element is p**valuation * unit with the unit part kept modulo
p**precision, i.e. to a fixed number of significant p-adic digits.
Arithmetic never claims more digits than its inputs support: precision is
the minimum of the operand precisions, shortened further when cancellation
in an addition consumes leading digits.

Zero comes in two flavours.  An exact zero has valuation +infinity.  An
inexact zero O(p**k), the result of complete cancellation, records only
that the value lies in p**k Z_p; its ``valuation`` is that lower bound k
and its ``precision`` is zero.

Only odd primes are accepted: the logarithm's convergence condition
|x| < |p|**(1/(p-1)) then reduces to "u = 1 mod p", which keeps the whole
module free of case analysis at p = 2.  Each prime is validated once per
process: a prime that passed the primality test is remembered, while 2,
1 and composites are rejected on every call.

Every element is stored in one canonical form, which ``PAdic(...)``
establishes from int fields, or from valuation INFINITY and unit 0 for an
exact zero (any other field, a float or a bool, is refused):

* the prime is an odd prime;
* a nonzero element has an int valuation, an int precision >= 1 and a
  unit 0 < unit_digits < p**precision prime to p;
* an inexact zero has an int valuation, unit_digits 0 and precision 0;
* an exact zero has valuation and precision INFINITY and unit_digits 0.

Arithmetic on canonical operands already knows its result is canonical
(a product or quotient of units reduced modulo p**precision is a unit;
a sum strips its own factors of p), so it builds the result with
``_canonical``, which stores the fields without checking or reducing them
again.  Only code that has just established the form may call it.

One row update of an elimination, [x - f * y for x, y in zip(row,
pivot_row)], is one call, ``_minus_multiple``.  It reads f's fields once
and takes p**k from one table per elimination, ``_Powers``.  Where x is
not an exact zero and f and y have nonzero units, the entry runs the digit
step of ``_signed_sum`` inline on the fields of the product (valuation
v_f + v_y, unit u_f * u_y, precision N = min(N_f, N_y)) without building
it; every other entry takes the operators.  Two shortcuts leave the fields
of x - (f * y) as they are.  The product's unit is not reduced modulo
p**N: that would change it by a multiple of p**N, which enters the sum
times p**(v_f + v_y - lo), lo the lower valuation.  The sum is reduced
modulo p**(cap - lo), and its absolute precision cap is at most
v_f + v_y + N, so that modulus divides the change.  And a term whose shift
above lo reaches cap - lo is a multiple of p**(cap - lo), which the
reduction would discard, so it is skipped.  cap - lo is at most the
precision of one of the two terms, so no power above the largest precision
in the matrix is read.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import _as_rational, _is_int, check_odd_prime, divisors, int_valuation
from .errors import DomainError, PrecisionError

INFINITY = float("inf")


# below this many digits, _digits peels one digit per divmod
_DIGITS_BASE = 64


def _digits(u: int, prime: int, n: int) -> list[int]:
    """The n lowest base-prime digits of u >= 0, least significant first.

    Splits u by prime**(n // 2) and converts both halves, so the cost is
    that of a few divisions of u's size instead of n of them (subquadratic
    radix conversion: Brent and Zimmermann, Modern Computer Arithmetic,
    section 1.7).  Short runs peel one digit per divmod.
    """
    if n <= _DIGITS_BASE:
        out = []
        for _ in range(n):
            u, d = divmod(u, prime)
            out.append(d)
        return out
    half = n // 2
    high, low = divmod(u, prime**half)
    return _digits(low, prime, half) + _digits(high, prime, n - half)


class PAdic:
    """One element of Q_p at capped precision.  Immutable."""

    __slots__ = ("prime", "valuation", "unit_digits", "precision")

    def __init__(self, prime: int, valuation, unit_digits: int, precision) -> None:
        check_odd_prime(prime)
        if unit_digits == 0 and valuation == INFINITY:
            # exact zero
            unit_digits, precision = 0, INFINITY
        elif not (_is_int(valuation) and _is_int(unit_digits) and _is_int(precision)):
            raise DomainError(
                f"p-adic fields must be integers, got {valuation!r}, {unit_digits!r}, {precision!r}"
            )
        elif unit_digits == 0:
            # inexact zero O(p**bound)
            valuation, precision = valuation + max(precision, 0), 0
        elif precision <= 0:
            # nothing known beyond "lies in p**(valuation) Z_p"
            valuation, unit_digits, precision = valuation + precision, 0, 0
        else:
            unit_digits %= prime**precision
            if unit_digits == 0:
                valuation, precision = valuation + precision, 0
            else:
                # dividing out p**shift leaves the unit below p**(precision - shift)
                shift = 0
                while unit_digits % prime == 0:
                    unit_digits //= prime
                    shift += 1
                valuation, precision = valuation + shift, precision - shift
        _set_prime(self, prime)
        _set_valuation(self, valuation)
        _set_unit_digits(self, unit_digits)
        _set_precision(self, precision)

    def __setattr__(self, name, value):
        raise AttributeError("PAdic values are immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, prime: int) -> "PAdic":
        return cls(prime, INFINITY, 0, 0)

    @classmethod
    def from_rational(cls, value, prime: int, precision: int) -> "PAdic":
        """Image of a rational in Q_p truncated to `precision` digits."""
        check_odd_prime(prime)
        if not _is_int(precision) or precision <= 0:
            raise DomainError(f"precision must be a positive integer, got {precision!r}")
        value = _as_rational(value, "p-adic values")
        if value == 0:
            return cls.zero(prime)
        vnum = int_valuation(value.numerator, prime)
        vden = int_valuation(value.denominator, prime)
        num = value.numerator // prime**vnum
        den = value.denominator // prime**vden
        modulus = prime**precision
        unit = num * pow(den, -1, modulus) % modulus
        return cls(prime, vnum - vden, unit, precision)

    # -- predicates --------------------------------------------------------

    def is_exact_zero(self) -> bool:
        return self.unit_digits == 0 and self.valuation == INFINITY

    def is_zero(self) -> bool:
        """Zero at the working precision (includes exact zero)."""
        return self.unit_digits == 0

    # -- views -------------------------------------------------------------

    def abs_value(self) -> Fraction:
        """|x|_p as an exact rational; for an inexact zero, the upper bound."""
        if self.is_exact_zero():
            return Fraction(0)
        v = self.valuation
        return Fraction(1, self.prime**v) if v >= 0 else Fraction(self.prime ** (-v))

    def digits(self, count: int | None = None) -> list[int]:
        """Base-p digits of the unit part, least significant first: count of
        them (zeros above the unit's own digits), by default precision."""
        if count is not None and not (_is_int(count) and count >= 0):
            raise DomainError(f"digit count must be a non-negative int, got {count!r}")
        if self.unit_digits == 0:
            return []
        return _digits(self.unit_digits, self.prime, count if count is not None else self.precision)

    def digit_string(self) -> str:
        """Canonical text form: unit digits LSD-first, then e<valuation>."""
        if self.is_exact_zero():
            return "0"
        if self.unit_digits == 0:
            return f"0e{self.valuation}"
        body = "-".join(str(d) for d in self.digits())
        return f"{body}e{self.valuation}"

    def residue(self, k: int) -> int:
        """Integer value modulo p**k; requires valuation >= 0 and k digits known."""
        if not (_is_int(k) and k >= 0):
            raise DomainError(f"residue digit count must be a non-negative int, got {k!r}")
        if self.is_exact_zero():
            return 0
        if self.valuation < 0:
            raise DomainError("residue of a non-integral element")
        if self.valuation + self.precision < k:
            raise PrecisionError(f"only {self.valuation + self.precision} digits known")
        if self.valuation >= k:
            return 0
        return self.unit_digits * self.prime**self.valuation % self.prime**k

    def lift(self) -> Fraction:
        """The rational p**v * unit represented by the stored digits."""
        if self.unit_digits == 0:
            return Fraction(0)
        v = self.valuation
        if v >= 0:
            return Fraction(self.unit_digits * self.prime**v)
        return Fraction(self.unit_digits, self.prime ** (-v))

    def __repr__(self) -> str:
        if self.is_exact_zero():
            return f"PAdic(0; p={self.prime})"
        if self.unit_digits == 0:
            return f"PAdic(O({self.prime}^{self.valuation}))"
        return (
            f"PAdic({self.unit_digits}*{self.prime}^{self.valuation}"
            f" + O({self.prime}^{self.valuation + self.precision}))"
        )

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PAdic):
            if other.prime != self.prime:
                raise DomainError("mixed primes in p-adic arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            prec = 1 if self.precision == INFINITY else max(int(self.precision), 1)
            return PAdic.from_rational(other, self.prime, prec)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._sum(other, 1)

    __radd__ = __add__

    def _sum(self, other: "PAdic", sign: int) -> "PAdic":
        """self + sign * other for sign = 1 or -1: exact zeros here, the
        digits in _signed_sum.

        Negation keeps valuation and precision, so a difference needs no
        negated copy of other: its digits enter the sum with a minus sign.
        """
        if self.is_exact_zero():
            return other if sign > 0 else -other
        if other.is_exact_zero():
            return self
        return self._signed_sum(other.valuation, other.unit_digits, other.precision, sign)

    def _signed_sum(self, valuation: int, unit: int, precision: int, sign: int) -> "PAdic":
        """self + sign * p**valuation * unit, the second term known to
        precision digits; neither term is an exact zero.

        unit need not lie below p**precision: the sum is reduced modulo
        p**(cap - lo) with cap <= valuation + precision, which discards the
        excess (module docstring).
        """
        # neither is an exact zero, so every field below is an int
        p = self.prime
        va, vb = self.valuation, valuation
        cap = min(va + self.precision, vb + precision)
        lo = min(va, vb)
        if cap <= lo:
            return _canonical(p, cap, 0, 0)
        total = 0
        if self.unit_digits:
            total += self.unit_digits * p ** (va - lo)
        if unit:
            total += sign * unit * p ** (vb - lo)
        total %= p ** (cap - lo)
        if total == 0:
            return _canonical(p, cap, 0, 0)
        # dividing out p**shift leaves the unit below p**(cap - lo - shift)
        shift = 0
        while total % p == 0:
            total //= p
            shift += 1
        return _canonical(p, lo + shift, total, cap - lo - shift)

    def __neg__(self):
        if self.unit_digits == 0:
            return self
        modulus = self.prime**self.precision
        return _canonical(self.prime, self.valuation, (-self.unit_digits) % modulus, self.precision)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._sum(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._sum(self, -1)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.unit_digits and other.unit_digits:
            prec = min(self.precision, other.precision)
            unit = self.unit_digits * other.unit_digits % self.prime**prec
            return _canonical(self.prime, self.valuation + other.valuation, unit, prec)
        if self.is_exact_zero() or other.is_exact_zero():
            return PAdic.zero(self.prime)
        return _canonical(self.prime, self.valuation + other.valuation, 0, 0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.unit_digits == 0:
            raise PrecisionError("division by zero at working precision")
        if self.is_exact_zero():
            return self
        if self.unit_digits == 0:
            return _canonical(self.prime, self.valuation - other.valuation, 0, 0)
        prec = min(self.precision, other.precision)
        modulus = self.prime**prec
        unit = self.unit_digits * pow(other.unit_digits, -1, modulus) % modulus
        return _canonical(self.prime, self.valuation - other.valuation, unit, prec)

    def __rtruediv__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if self.is_exact_zero():
            if n == 0:
                return PAdic.from_rational(1, self.prime, 1)
            if n < 0:
                raise PrecisionError("division by zero at working precision")
            return self
        prec = max(int(self.precision), 1) if self.precision != INFINITY else 1
        if n < 0:
            base = PAdic.from_rational(1, self.prime, prec) / self
            n = -n
        else:
            base = self
        result = PAdic.from_rational(1, self.prime, prec)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, PAdic):
            return NotImplemented
        if other.prime != self.prime:
            return False
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("PAdic values compare at precision and are unhashable")


# the slot descriptors' setters, which bypass the raising __setattr__
_set_prime = PAdic.prime.__set__
_set_valuation = PAdic.valuation.__set__
_set_unit_digits = PAdic.unit_digits.__set__
_set_precision = PAdic.precision.__set__


def _canonical(prime: int, valuation: int, unit_digits: int, precision: int) -> PAdic:
    """A PAdic from fields already in canonical form (module docstring).

    Nothing is checked or reduced: the caller has established the form.
    """
    x = object.__new__(PAdic)
    _set_prime(x, prime)
    _set_valuation(x, valuation)
    _set_unit_digits(x, unit_digits)
    _set_precision(x, precision)
    return x


class _Powers(dict):
    """p**k for k >= 0, each computed on first use.  An elimination reads
    few distinct k, while a list up to its largest precision N would hold
    about N**2 / 2 * log2(p) bits."""

    __slots__ = ("prime",)

    def __init__(self, prime: int) -> None:
        super().__init__()
        self.prime = prime

    def __missing__(self, k: int) -> int:
        value = self[k] = self.prime**k
        return value


def _minus_multiple(row: list[PAdic], factor: PAdic, pivot_row: list[PAdic], powers: list[int]) -> list[PAdic]:
    """[x - factor * y for x, y in zip(row, pivot_row)], entry by entry with
    the fields of those operations.

    powers[k] is p**k for every k up to the largest precision of the
    entries, as a _Powers table gives it.  The inline digit step and its two shortcuts are those of the
    module docstring.  All entries share the prime; nothing checks it.
    """
    fu = factor.unit_digits
    if not fu:
        return [x - factor * y for x, y in zip(row, pivot_row)]
    p, fv, fn = factor.prime, factor.valuation, factor.precision
    out = []
    for x, y in zip(row, pivot_row):
        yu = y.unit_digits
        va = x.valuation
        if not yu or va == INFINITY:
            out.append(x - factor * y)
            continue
        # x is no exact zero and both units are nonzero: every field is an int
        vb = fv + y.valuation
        nb = y.precision
        if fn < nb:
            nb = fn
        cap = va + x.precision
        if vb + nb < cap:
            cap = vb + nb
        lo = va if va < vb else vb
        width = cap - lo
        if width <= 0:
            out.append(_canonical(p, cap, 0, 0))
            continue
        total = 0
        xu = x.unit_digits
        if xu and va - lo < width:
            total = xu * powers[va - lo]
        if vb - lo < width:
            total -= fu * yu * powers[vb - lo]
        total %= powers[width]
        if not total:
            out.append(_canonical(p, cap, 0, 0))
            continue
        # dividing out p**shift leaves the unit below p**(width - shift)
        shift = 0
        while total % p == 0:
            total //= p
            shift += 1
        out.append(_canonical(p, lo + shift, total, width - shift))
    return out


def padic_log(u: PAdic) -> PAdic:
    """Logarithm sum_{k>=1} (-1)**(k+1) (u-1)**k / k, for u = 1 mod p."""
    t = u - 1
    if t.is_exact_zero():
        return PAdic.zero(u.prime)
    if t.unit_digits != 0 and t.valuation < 1:
        raise DomainError("padic_log requires u = 1 mod p")
    if t.unit_digits == 0:
        if t.valuation < 1:
            raise PrecisionError("cannot certify u = 1 mod p at this precision")
        return PAdic(u.prime, t.valuation, 0, 0)
    cap = t.valuation + t.precision
    total = PAdic.zero(u.prime)
    power = t
    k = 1
    while power.unit_digits and k * t.valuation - _log_floor(k, u.prime) < cap:
        term = power / PAdic.from_rational(k, u.prime, t.precision)
        if k % 2 == 0:
            term = -term
        total = total + term
        power = power * t
        k += 1
    return total


def padic_exp(x: PAdic) -> PAdic:
    """Exponential sum_{k>=0} x**k / k!, for x in p Z_p (odd p)."""
    if x.is_exact_zero():
        return PAdic.from_rational(1, x.prime, 10)
    if x.unit_digits != 0 and x.valuation < 1:
        raise DomainError("padic_exp requires valuation >= 1")
    if x.unit_digits == 0:
        return PAdic.from_rational(1, x.prime, max(int(x.valuation), 1))
    cap = x.valuation + x.precision
    total = PAdic.from_rational(1, x.prime, x.precision)
    term = total
    k = 1
    while True:
        term = term * x / PAdic.from_rational(k, x.prime, x.precision)
        if term.unit_digits == 0 or term.valuation >= cap:
            break
        total = total + term
        k += 1
    return total


def stabilizing_exponent(b: PAdic) -> int:
    """Smallest M >= 1 with b**M = 1 mod p; M divides p - 1."""
    if b.is_zero() or b.valuation != 0:
        raise DomainError("stabilizing exponent requires a unit")
    r = b.unit_digits % b.prime
    for m in divisors(b.prime - 1):
        if pow(r, m, b.prime) == 1:
            return m
    raise AssertionError("unreachable: the order divides p - 1")


def _log_floor(k: int, p: int) -> int:
    f = 0
    while k >= p:
        k //= p
        f += 1
    return f
