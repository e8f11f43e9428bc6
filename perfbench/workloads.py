"""The three benchmark workloads: inputs from a seed, operations, oracles.

Every workload is a list of operations.  An operation builds fresh library
objects from plain data (untimed), makes one timed call into padicdyn, and
is then checked: against an independent oracle on the first pass, and by
digest on every pass.  Library functions are looked up through their
modules at call time, so the tracer's wrappers see every call.

Seed 0 reproduces the acceptance fixtures of tests/test_acceptance.py.
Other seeds keep the structure (eigenvalues, nonresonance, fixed loci,
vanishing orders) and change only coefficients or generator streams.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Any, Callable

from padicdyn import dynamics, eisenstein, linearize, orbit, series

WORKLOADS = ("conjugacy", "algebraic", "orbit")
# Seeds other than 0 change coefficients by signs only.  A multiplier c
# with |c| > 1 adds about deg * log2|c| bits to coefficients of degree deg,
# and independent signs on single coefficients change how terms cancel;
# both made the work per pass depend on the seed.
SIGNS = (-1, 1)

SIZES = {
    "full": {
        "conjugacy": {"degree": 12},
        "algebraic": {
            "unramified": [(2, 1, 400), (3, 1, 300), (2, 2, 60), (2, 3, 24)],
            "ramified_1d": 200,
            "ramified_2d": 40,
        },
        "orbit": {
            "maps": 1000, "steps": 50, "precision": 96,
            "vanishing": 20, "s_max": 200,
            "closure_samples": 80, "closure_degree": 4,
            "probe_steps": 120, "probe_degree": 6, "probe_precision": 128,
            "union_iterates": 80, "union_degree": 4,
        },
    },
    "quick": {
        "conjugacy": {"degree": 6},
        "algebraic": {
            "unramified": [(2, 1, 60), (3, 1, 40), (2, 2, 12), (2, 3, 6)],
            "ramified_1d": 30,
            "ramified_2d": 10,
        },
        "orbit": {
            "maps": 40, "steps": 20, "precision": 32,
            "vanishing": 4, "s_max": 60,
            "closure_samples": 20, "closure_degree": 2,
            "probe_steps": 30, "probe_degree": 3, "probe_precision": 48,
            "union_iterates": 20, "union_degree": 2,
        },
    },
}


@dataclass
class Op:
    """One operation of a pass.

    ``part`` (1 or 2) says which half of the workload the operation belongs
    to; README.md lists the halves.  ``build`` returns fresh positional
    arguments for ``call``; ``check``
    returns the list of oracle violations (empty when the output is right);
    ``digest`` is the SHA-256 of the canonical output.  ``pinned`` is False
    when the oracle already determines the whole output, so no digest needs
    to be recorded for it.
    """

    name: str
    part: int
    build: Callable[[], tuple]
    call: Callable[..., Any]
    check: Callable[[Any], list]
    digest: Callable[[Any], str]
    pinned: bool = True


def make_ops(workload: str, seed: int, size: str = "full") -> list[Op]:
    params = SIZES[size][workload]
    if workload == "conjugacy":
        return _conjugacy_ops(seed, params)
    if workload == "algebraic":
        return _algebraic_ops(seed, params)
    if workload == "orbit":
        return _orbit_ops(seed, params)
    raise ValueError(f"unknown workload {workload!r}")


# -- canonical text and digests ------------------------------------------------


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _q(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def series_text(s) -> str:
    body = ";".join(f"{','.join(map(str, e))}:{_q(c)}" for e, c in s.terms())
    return f"{s.nvars}|{s.trunc}|{body}"


def tuple_text(t) -> str:
    return "\n".join(series_text(c) for c in t.components)


def padic_text(x) -> str:
    return f"{x.prime}:{x.valuation}:{x.unit_digits}:{x.precision}"


# -- independent truncated polynomial arithmetic (oracle only) -----------------


def _poly_mul(a: dict, b: dict, trunc: int) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        da = sum(ea)
        for eb, cb in b.items():
            if da + sum(eb) <= trunc:
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _poly_compose(outer, inner, trunc) -> list:
    """outer(inner(x)) through degree trunc, with dict polynomials.

    ``outer`` is a list of term lists [(exponents, coefficient)], one per
    component; ``inner`` a list of {exponents: coefficient}.
    """
    inner = [{e: c for e, c in g.items() if sum(e) <= trunc} for g in inner]
    n = len(inner)
    powers: dict = {}

    def power(i: int, e: int) -> dict:
        if (i, e) not in powers:
            powers[(i, e)] = inner[i] if e == 1 else _poly_mul(power(i, e - 1), inner[i], trunc)
        return powers[(i, e)]

    out = []
    for terms in outer:
        acc: dict = {}
        for exps, coeff in terms:
            if sum(exps) > trunc:
                continue
            term = {(0,) * n: Fraction(coeff)}
            for i, e in enumerate(exps):
                if e:
                    term = _poly_mul(term, power(i, e), trunc)
            for mono, c in term.items():
                acc[mono] = acc.get(mono, 0) + c
        out.append({e: c for e, c in acc.items() if c})
    return out


def _poly_residual(f_terms, h, lams, trunc) -> list:
    """f(h(x)) - h(lams * x) through degree trunc, with dict polynomials."""
    comps = [dict(c.terms()) for c in h.components]
    out = []
    for acc, comp in zip(_poly_compose(f_terms, comps, trunc), comps):
        for mono, c in comp.items():
            scale = Fraction(1)
            for lam, e in zip(lams, mono):
                scale *= lam**e
            acc[mono] = acc.get(mono, 0) - c * scale
        out.append({e: c for e, c in acc.items() if c})
    return out


# -- conjugacy -----------------------------------------------------------------

# The seven-map fixture suite of the acceptance tests, plus two maps whose
# linear part must be normalized first.  Entries: (fixed-locus dim, components).
CONJUGACY_MAPS = {
    "doubling-1d": (0, [[((1,), 2), ((2,), 1)]]),
    "cubic-tail-1d": (0, [[((1,), 2), ((2,), 1), ((3,), 1)]]),
    "locus-line-2d": (1, [[((1, 0), 1), ((0, 2), 1)], [((0, 1), -2)]]),
    "independent-3d": (0, [
        [((1, 0, 0), 2), ((0, 1, 1), 1)],
        [((0, 1, 0), 3), ((2, 0, 0), 1), ((0, 0, 2), 1)],
        [((0, 0, 1), 5), ((1, 1, 0), 1)],
    ]),
    "independent-2d": (0, [[((1, 0), 2), ((0, 2), 1)], [((0, 1), 5), ((2, 0), 1)]]),
    "locus-coupled-3d": (1, [
        [((1, 0, 0), 1), ((0, 1, 1), 1)],
        [((0, 1, 0), 2), ((0, 0, 2), 1), ((1, 0, 2), 1)],
        [((0, 0, 1), 3), ((0, 2, 0), 1)],
    ]),
    "symplectic-4d": (2, [
        [((1, 0, 0, 0), 1), ((0, 0, 1, 1), 1)],
        [((0, 1, 0, 0), 1), ((0, 0, 2, 0), 1)],
        [((0, 0, 1, 0), -2), ((0, 0, 0, 2), 1), ((1, 0, 0, 2), 1)],
        [((0, 0, 0, 1), -2), ((0, 0, 2, 0), 1)],
    ]),
    "shear-2d": (1, [[((1, 0), 1), ((0, 1), 1)], [((0, 1), -2), ((0, 2), 1)]]),
    "triangular-3d": (1, [
        [((1, 0, 0), 1)],
        [((0, 1, 0), -2), ((1, 0, 1), 1), ((0, 2, 0), 1)],
        [((0, 0, 1), -3), ((0, 1, 1), 1)],
    ]),
}
NEWTON_PRIME = 7
INVERSE_CHECK_DEGREE = 6


def conjugacy_inputs(seed: int) -> dict:
    """Fixture maps conjugated by a seeded diagonal sign change x -> S x.

    The x^I coefficient of component j is multiplied by s_j * s^I, so every
    coefficient of h changes by a sign and the work stays the same.
    """
    rng = random.Random(f"conjugacy-{seed}")
    out = {}
    for name, (r, comps) in CONJUGACY_MAPS.items():
        signs = [1 if seed == 0 else rng.choice(SIGNS) for _ in comps]
        scaled = []
        for sj, comp in zip(signs, comps):
            terms = []
            for exps, c in comp:
                for si, e in zip(signs, exps):
                    c *= si**e
                terms.append((exps, c * sj))
            scaled.append(terms)
        out[name] = (r, scaled)
    return out


def build_map(r, comps, trunc):
    n = len(comps)
    return dynamics.AnalyticMap(
        series.SeriesTuple([series.MultiSeries(n, trunc, [(e, Fraction(c)) for e, c in t]) for t in comps]),
        fixed_locus_dim=r,
    )


def _conjugacy_ops(seed: int, params: dict) -> list[Op]:
    degree = params["degree"]
    ops = []
    obo_h: dict = {}
    for name, (r, comps) in conjugacy_inputs(seed).items():
        build = (lambda r=r, comps=comps: (build_map(r, comps, degree),))
        ops.append(Op(f"{name}/obo", 1, build, _run_obo(degree),
                      _check_obo(name, r, comps, degree, obo_h), _digest_conjugacy))
        ops.append(Op(f"{name}/newton", 2, build, _run_newton(degree),
                      _check_newton(name, degree, obo_h), _digest_conjugacy))
    return ops


def _run_obo(degree):
    def call(f):
        g, change = linearize.normalize_fixed_locus(f)
        return linearize.linearize_order_by_order(g, degree), None, change
    return call


def _run_newton(degree):
    def call(f):
        g, change = linearize.normalize_fixed_locus(f)
        params = dynamics.DiophantineParams(1, 0)
        result, trace = linearize.linearize_newton(g, degree, params, prime=NEWTON_PRIME)
        return result, trace, change
    return call


def _conjugacy_common(result, degree) -> list:
    bad = []
    if not result.residual.is_zero():
        bad.append("residual is not zero")
    if result.verified_degree != degree:
        bad.append(f"verified degree {result.verified_degree} != {degree}")
    n = len(result.h)
    if any(c.constant_term() for c in result.h.components):
        bad.append("h has a constant term")
    if result.h.linear_matrix() != [[int(i == j) for j in range(n)] for i in range(n)]:
        bad.append("h is not tangent to the identity")
    # h o h^-1 = id, recomputed independently through a low degree
    low = min(degree, INVERSE_CHECK_DEGREE)
    ident = [{tuple(int(i == j) for i in range(n)): 1} for j in range(n)]
    outer = [list(c.terms()) for c in result.h.components]
    if _poly_compose(outer, [dict(c.terms()) for c in result.h_inverse.components], low) != ident:
        bad.append(f"h o h^-1 is not the identity through degree {low}")
    return bad


def _check_obo(name, r, comps, degree, obo_h):
    def check(out):
        result, _, change = out
        bad = _conjugacy_common(result, degree)
        obo_h[name] = tuple_text(result.h)
        if r == 0 and change == series.SeriesTuple.identity(len(comps), change.trunc):
            # f is its own normal form: recompute f o h - h o Lambda independently
            lams = [dict(comp)[tuple(int(i == j) for i in range(len(comps)))] for j, comp in enumerate(comps)]
            if any(_poly_residual(comps, result.h, lams, degree)):
                bad.append("independent residual f(h) - h(Lambda x) is not zero")
        if name == "doubling-1d":
            # f = 2x + c x^2 is conjugate to 2x + x^2, whose h is e^x - 1
            c = Fraction(comps[0][1][1])
            for k in range(1, degree + 1):
                if result.h[0].coefficient((k,)) != c ** (k - 1) / factorial(k):
                    bad.append(f"coefficient {k} of h differs from c^(k-1)/k!")
                    break
        return bad
    return check


def _check_newton(name, degree, obo_h):
    def check(out):
        result, trace, _ = out
        bad = _conjugacy_common(result, degree)
        if name in obo_h and tuple_text(result.h) != obo_h[name]:
            bad.append("Newton h differs from order-by-order h")
        for it in trace.iterations:
            if it.delta_order != it.window[0]:
                bad.append(f"correction order {it.delta_order} != window start {it.window[0]}")
        return bad
    return check


def _digest_conjugacy(out) -> str:
    result, trace, change = out
    parts = [
        tuple_text(result.h),
        tuple_text(result.h_inverse),
        tuple_text(change),
        ",".join(map(str, sorted(result.denominator_primes))),
        ",".join(map(_q, result.eigenvalues)),
    ]
    if trace is not None:
        parts.append(f"{trace.prime}|{_q(trace.rescale)}|{','.join(map(_q, trace.radii))}")
        for it in trace.iterations:
            norm = "-" if it.delta_norm is None else _q(it.delta_norm.value)
            passes = None if it.bound is None else it.bound.passes
            parts.append(f"{it.index}|{it.window}|{it.delta_order}|{norm}|{passes}")
    return _sha("\n".join(parts))


# -- algebraic -----------------------------------------------------------------


def _binom(a: Fraction, m: int) -> Fraction:
    out = Fraction(1)
    for i in range(m):
        out = out * (a - i) / (i + 1)
    return out


def _monomials(n: int, degree: int):
    if n == 1:
        for d in range(degree + 1):
            yield (d,)
        return
    for first in range(degree + 1):
        for rest in _monomials(n - 1, degree - first):
            yield (first,) + rest


def algebraic_inputs(seed: int, params: dict) -> list:
    """Root problems: (name, nvars, relation terms, seed terms, seed trunc,
    degree, k, oracle).  The root is a k-th root with k prime, so its
    denominators are powers of k; ``oracle()`` gives the exact coefficient of
    every monomial through the degree, from generalized binomial and
    multinomial coefficients."""
    rng = random.Random(f"algebraic-{seed}")

    def draw() -> int:
        return 1 if seed == 0 else rng.choice(SIGNS)

    problems = []
    for k, n, degree in params["unramified"]:
        # X^k = 1 + c_1 x_1 + ... + c_n x_n, seed 1
        cs = [draw() for _ in range(n)]
        zero = (0,) * n
        rel = [(zero, k, 1), (zero, 0, -1)]
        rel += [(tuple(int(i == j) for j in range(n)), 0, -cs[i]) for i in range(n)]

        def oracle(k=k, n=n, degree=degree, cs=cs):
            out = {}
            for mono in _monomials(n, degree):
                m = sum(mono)
                coeff = _binom(Fraction(1, k), m) * factorial(m)
                for e, c in zip(mono, cs):
                    coeff = coeff / factorial(e) * c**e
                out[mono] = coeff
            return out

        problems.append((f"root{k}-n{n}-d{degree}", n, rel, [(zero, 1)], 0, degree, k, oracle))

    # (X - x)^2 = x^6 (1 + c x), seed x + x^3: X = x + x^3 sqrt(1 + c x)
    degree = params["ramified_1d"]
    c = draw()
    rel = [((0,), 2, 1), ((1,), 1, -2), ((2,), 0, 1), ((6,), 0, -1), ((7,), 0, -c)]

    def oracle_1d(degree=degree, c=c):
        out = {(1,): Fraction(1)}
        for m in range(degree - 2):
            out[(m + 3,)] = _binom(Fraction(1, 2), m) * c**m
        return out

    problems.append((f"ramified-1d-d{degree}", 1, rel, [((1,), 1), ((3,), 1)], 3, degree, 2, oracle_1d))

    # (X - x1)^2 = x2^4 (1 + c1 x1 + c2 x2), seed x1 + x2^2
    degree = params["ramified_2d"]
    c1, c2 = draw(), draw()
    rel = [((0, 0), 2, 1), ((1, 0), 1, -2), ((2, 0), 0, 1), ((0, 4), 0, -1),
           ((1, 4), 0, -c1), ((0, 5), 0, -c2)]

    def oracle_2d(degree=degree, c1=c1, c2=c2):
        out = {(1, 0): Fraction(1)}
        for a, b in _monomials(2, degree - 2):
            multinomial = factorial(a + b) // (factorial(a) * factorial(b))
            out[(a, b + 2)] = _binom(Fraction(1, 2), a + b) * multinomial * c1**a * c2**b
        return out

    problems.append((f"ramified-2d-d{degree}", 2, rel, [((1, 0), 1), ((0, 2), 1)], 2, degree, 2, oracle_2d))
    return problems


def _algebraic_ops(seed: int, params: dict) -> list[Op]:
    ops = []
    for name, n, rel, seed_terms, seed_trunc, degree, k, oracle in algebraic_inputs(seed, params):
        def build(n=n, rel=rel, seed_terms=seed_terms, seed_trunc=seed_trunc):
            relation = eisenstein.XPolynomial.from_terms(n, [(e, k, Fraction(c)) for e, k, c in rel])
            return relation, series.MultiSeries(n, seed_trunc, [(e, Fraction(c)) for e, c in seed_terms])

        def call(relation, seed_series, degree=degree):
            spec = eisenstein.AlgebraicSeriesSpec.build(relation, seed_series)
            phi = eisenstein.coefficients_up_to(spec, degree)
            return phi, eisenstein.denominator_support(phi)

        def check(out, oracle=oracle, degree=degree, k=k):
            phi, support = out
            bad = []
            want = {e: c for e, c in oracle().items() if c}
            if dict(phi.terms()) != want or phi.trunc != degree:
                bad.append("root coefficients differ from the binomial oracle")
            if support.primes != {k} or support.squarefree_product != k:
                bad.append(f"denominator support {sorted(support.primes)} is not the prime {k}")
            return bad

        def digest(out):
            phi, support = out
            return _sha(f"{series_text(phi)}\n{sorted(support.primes)}|{support.squarefree_product}")

        ops.append(Op(name, 1 if name.startswith("root") else 2, build, call, check, digest))
    return ops


# -- orbit ---------------------------------------------------------------------


def _random_integral_map(rng, n, prime, trunc=3):
    """The criterion-05 generator, as plain data."""
    comps = []
    for i in range(n):
        terms = {}
        for j in range(n):
            exps = tuple(1 if k == j else 0 for k in range(n))
            coeff = rng.randint(0, 3 * prime)
            if i == j and coeff == 0:
                coeff = 1
            if coeff:
                terms[exps] = coeff
        for _ in range(4):
            exps = tuple(rng.randint(0, 3) for _ in range(n))
            if 2 <= sum(exps) <= trunc:
                terms[exps] = rng.randint(-prime * 2, prime * 2)
        comps.append([(e, c) for e, c in terms.items() if c])
    return comps


def orbit_batch_inputs(seed: int, count: int) -> list:
    rng = random.Random(512 + seed)
    out = []
    for _ in range(count):
        prime = rng.choice((3, 5, 7))
        n = rng.randint(1, 3)
        comps = _random_integral_map(rng, n, prime)
        start = [prime * rng.randint(0, 6) for _ in range(n)]
        out.append((prime, n, comps, start))
    return out


UNIT_POOL = [Fraction(2), Fraction(3), Fraction(4), Fraction(6), Fraction(7),
             Fraction(2, 3), Fraction(3, 2), Fraction(7, 2)]


def vanishing_inputs(seed: int, count: int) -> list:
    """The criterion-07 generator: planted two-term vanishing sums at p = 5."""
    rng = random.Random(1031 + seed)
    out = []
    for _ in range(count):
        b1, b2 = rng.sample(UNIT_POOL, 2)
        planted = rng.randint(1, 20)
        scale = Fraction(rng.randint(1, 5))
        out.append(([scale * b2**planted, -scale * b1**planted], [b1, b2], planted))
    return out


def _valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _expected_orbit(prime, comps, start, steps, precision):
    """Orbit residues mod p**precision, the PAdic fields of each point, and
    the invariance and isometry data, by plain integer arithmetic."""
    mod = prime**precision
    pts = [tuple(x % mod for x in start)]
    for _ in range(steps):
        x = pts[-1]
        image = []
        for terms in comps:
            total = 0
            for exps, c in terms:
                value = c
                for xi, e in zip(x, exps):
                    value *= pow(xi, e, mod)
                total += value
            image.append(total % mod)
        pts.append(tuple(image))

    def val(x):
        return precision if x % mod == 0 else _valuation(x, prime)

    def fields(x):
        if x % mod == 0:
            return (prime, precision, 0, 0)
        v = _valuation(x, prime)
        return (prime, v, (x // prime**v) % prime ** (precision - v), precision - v)

    stays = all(val(x) >= 1 for pt in pts for x in pt)
    constant = all((x - x0) % prime == 0 for pt in pts for x, x0 in zip(pt, pts[0]))
    n = len(comps)
    lin = [[Fraction(dict(terms).get(tuple(int(k == j) for k in range(n)), 0)) for j in range(n)] for terms in comps]
    det = _det(lin)
    unit = det != 0 and _valuation(det.numerator, prime) == 0 and _valuation(det.denominator, prime) == 0
    checked = skipped = 0
    if unit:
        for a, b, fa, fb in zip(pts, pts[1:], pts[1:], pts[2:]):
            gap = min(val(x - y) for x, y in zip(a, b))
            if gap >= precision:
                skipped += 1
            else:
                checked += 1
    return [tuple(fields(x) for x in pt) for pt in pts], stays, constant, unit, checked, skipped


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]]) for j in range(len(m)))


def _orbit_fields(result):
    return [tuple((x.prime, x.valuation, x.unit_digits, x.precision) for x in pt) for pt in result.points]


def _check_orbit_result(result, prime, comps, start, steps, precision) -> list:
    pts, stays, constant, unit, checked, skipped = _expected_orbit(prime, comps, start, steps, precision)
    bad = []
    if _orbit_fields(result) != pts:
        bad.append("orbit points differ from the integer iteration")
    if (result.stays_in_neighbourhood, result.constant_mod_level) != (True, True) or not (stays and constant):
        bad.append("invariance flags are not both true")
    if (result.unit_jacobian, result.isometry_pairs_checked, result.isometry_pairs_skipped) != (unit, checked, skipped):
        bad.append("isometry data differ from the integer iteration")
    return bad


def _digest_orbit_result(result) -> str:
    flags = (result.stays_in_neighbourhood, result.constant_mod_level, result.unit_jacobian,
             result.isometry_pairs_checked, result.isometry_pairs_skipped)
    return _sha(f"{_orbit_fields(result)}|{flags}")


def _orbit_ops(seed: int, params: dict) -> list[Op]:
    ops = []
    steps, precision = params["steps"], params["precision"]
    for idx, (prime, n, comps, start) in enumerate(orbit_batch_inputs(seed, params["maps"])):
        def build(prime=prime, n=n, comps=comps, start=start):
            f = build_map(0, comps, 3)
            return f, [Fraction(x) for x in start], orbit.Neighbourhood(prime=prime, level=1, dim=n)

        def call(f, start, nbhd):
            return orbit.iterate_in_neighbourhood(f, start, steps, nbhd, precision=precision)

        def check(result, prime=prime, comps=comps, start=start):
            return _check_orbit_result(result, prime, comps, start, steps, precision)

        ops.append(Op(f"map{idx:04d}", 1, build, call, check, _digest_orbit_result, pinned=False))

    s_max = params["s_max"]
    for idx, (a, b, planted) in enumerate(vanishing_inputs(seed, params["vanishing"])):
        def call(a, b):
            inst = orbit.VanishingSumInstance(a, b, prime=5)
            report = orbit.vanishing_exponents(inst, s_max)
            return report, [orbit.separating_polynomial(b, i, 1, 5) for i in range(2)]

        def check(out, a=a, b=b, planted=planted):
            report, seps = out
            brute = {s for s in range(1, s_max + 1) if a[0] * b[0] ** s + a[1] * b[1] ** s == 0}
            bad = []
            if report.solutions != brute or planted not in brute:
                bad.append("vanishing set differs from brute force")
            if not report.certificate.separating.verified or not all(sp.verified for sp in seps):
                bad.append("separating polynomial not verified")
            return bad

        def digest(out):
            report, seps = out
            cert = report.certificate
            text = (f"{sorted(report.solutions)}|{report.searched_through}|{cert.stabilizing_exponent}|"
                    f"{cert.log_digits}|{cert.leading_indices}|{cert.logs_pairwise_distinct}|"
                    + "|".join(f"{sp.coefficients}:{sp.level}:{_q(sp.target_abs)}" for sp in [cert.separating] + seps))
            return _sha(text)

        ops.append(Op(f"vanishing{idx:02d}", 2, (lambda a=a, b=b: (list(a), list(b))), call, check, digest))

    samples, cdeg = params["closure_samples"], params["closure_degree"]
    for lams, dim in (((2, 3, 5), 3), ((2, 4, 3), 2)):
        def call(lams, start):
            return orbit.closure_dimension_estimate(lams, start, samples, cdeg)

        def check(est, dim=dim):
            ok = est.lower_bound == est.estimated_dimension == dim and est.consistent
            return [] if ok else [f"closure dimension is not {dim}"]

        def digest(est):
            return _sha(f"{est.lower_bound}|{est.estimated_dimension}|{est.consistent}|{est.transform}|"
                        f"{[_q(m) for m in est.multipliers]}|{_probe_text(est.probe)}|{est.lattice.basis}")

        ops.append(Op(f"closure-{''.join(map(str, lams))}", 2,
                      (lambda lams=lams: ([Fraction(x) for x in lams], [Fraction(1)] * 3)), call, check, digest))

    pcomps = [[((1, 0), 6), ((0, 2), 5)], [((0, 1), 11), ((2, 0), 5)]]
    psteps, pprec, pdeg = params["probe_steps"], params["probe_precision"], params["probe_degree"]

    def probe_call(f, start, nbhd):
        res = orbit.iterate_in_neighbourhood(f, start, psteps, nbhd, precision=pprec)
        return res, orbit.relation_probe(res.points, pdeg)

    def probe_check(out):
        res, probe = out
        bad = _check_orbit_result(res, 5, pcomps, [5, 10], psteps, pprec)
        if probe.rank + len(probe.kernel) != len(probe.monomials) or len(probe.monomials) != (pdeg + 1) * (pdeg + 2) // 2:
            bad.append("probe rank and kernel do not fill the monomial space")
        return bad

    ops.append(Op("padic-probe", 2,
                  lambda: (build_map(0, pcomps, 2), [Fraction(5), Fraction(10)], orbit.Neighbourhood(prime=5, level=1, dim=2)),
                  probe_call, probe_check, lambda out: _sha(_probe_text(out[1]))))

    iterates, udeg = params["union_iterates"], params["union_degree"]

    def union_call(f, sample):
        return orbit.union_closure_compare(f, sample, range(0, iterates + 1, 2), range(1, iterates + 1, 2), udeg)

    ops.append(Op("union-23", 2,
                  lambda: (build_map(0, [[((1, 0), 2)], [((0, 1), 3)]], 4),
                           [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(2))]),
                  union_call,
                  lambda cmp: [] if cmp.equal else ["even and odd unions differ"],
                  lambda cmp: _sha(f"{cmp.equal}|{_probe_text(cmp.first)}|{_probe_text(cmp.second)}")))
    return ops


def _probe_text(probe) -> str:
    def entry(x):
        return padic_text(x) if isinstance(x, orbit.PAdic) else _q(Fraction(x))

    kernel = ";".join(",".join(entry(x) for x in vec) for vec in probe.kernel)
    return f"{probe.monomials}|{probe.rank}|{probe.degree}|{probe.sufficient_points}|{kernel}"
