"""Integer and rational number-theory helpers.

Everything here is exact: primality is decided by a deterministic
Miller-Rabin base set, factorization by trial division with a Pollard rho
fallback, and integer kernels by unimodular column reduction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import DomainError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_ODD_PRIMES: set[int] = set()


def check_odd_prime(p: int) -> None:
    """Reject anything but an odd prime with DomainError.

    Each accepted prime is tested once per process; 2, 1 and composites
    are rejected on every call.
    """
    if p in _ODD_PRIMES:
        return
    if p == 2 or not is_prime(p):
        raise DomainError(f"{p} is not an odd prime")
    _ODD_PRIMES.add(p)


def _pollard_rho(n: int) -> int:
    # n odd composite, not a prime power of a small prime
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)  # wheel mod 30
    i = 0
    while f * f <= n and f < 100000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += increments[i]
        i = (i + 1) % 8
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return out


def prime_support(numbers: Iterable[int]) -> frozenset[int]:
    """The primes dividing any of the given positive integers.

    Each distinct number is first stripped of the primes already found, and
    only a leftover cofactor above 1 is factorized, so denominators that
    share their primes (all powers of k, say) cost one factorization.
    Stripping squares the divisor each round, so a power p**e takes about
    log2(e) gcds.
    """
    primes: set[int] = set()
    radical = 1
    for n in sorted(set(numbers)):
        g = math.gcd(n, radical)
        while g > 1:
            n //= g
            g = math.gcd(n, g * g)
        if n > 1:
            found = factorize(n)
            primes.update(found)
            radical *= math.prod(found)
    return frozenset(primes)


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def int_valuation(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer; p must be at least 2."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    if p < 2:
        raise ValueError(f"valuation needs a base of at least 2, got {p}")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def fraction_valuation(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


def fraction_abs(x: Fraction, p: int) -> Fraction:
    """p-adic absolute value |x|_p = p**(-v) as an exact rational."""
    if x == 0:
        return Fraction(0)
    v = fraction_valuation(x, p)
    return Fraction(1, p**v) if v >= 0 else Fraction(p ** (-v))


def integer_kernel(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[list[int]]]:
    """Kernel of an integer matrix acting on Z^ncols, with a complement.

    Returns (kernel_basis, complement_basis).  The concatenation
    complement + kernel forms the columns of a unimodular matrix, so the
    kernel basis spans the full saturated lattice {v in Z^ncols : A v = 0}
    and the complement extends it to a basis of Z^ncols.
    """
    m = len(rows)
    acols = [[rows[i][j] for i in range(m)] for j in range(ncols)]
    ucols = [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    piv = 0
    for r in range(m):
        while True:
            active = [j for j in range(piv, ncols) if acols[j][r] != 0]
            if len(active) <= 1:
                break
            j0 = min(active, key=lambda j: abs(acols[j][r]))
            for j in active:
                if j == j0:
                    continue
                q = acols[j][r] // acols[j0][r]
                if q:
                    for i in range(m):
                        acols[j][i] -= q * acols[j0][i]
                    for i in range(ncols):
                        ucols[j][i] -= q * ucols[j0][i]
        if active:
            j0 = active[0]
            acols[piv], acols[j0] = acols[j0], acols[piv]
            ucols[piv], ucols[j0] = ucols[j0], ucols[piv]
            piv += 1
    kernel = [_canonical_sign(ucols[j]) for j in range(piv, ncols)]
    complement = [_canonical_sign(ucols[j]) for j in range(piv)]
    return kernel, complement


def _canonical_sign(vec: list[int]) -> list[int]:
    for x in vec:
        if x != 0:
            return vec if x > 0 else [-y for y in vec]
    return vec
