"""Command line front end: parse map documents, dispatch analyses, emit reports.

Subcommands: analyze, linearize, newton, eisenstein, orbit, probe, vanishing.
Input documents are UTF-8 JSON; reports are JSON (default) or plain text,
deterministic for fixed inputs and flags up to the timing field.  Exit
codes: 0 on success, 2 on a mathematical obstruction (resonance,
irrational eigenvalue, torsion, ...) or a result too tall to write out
(HeightCeilingError), 1 on a usage or document error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Any, Sequence

from . import ratlinalg
from .arith import check_odd_prime
from .dynamics import (
    AnalyticMap,
    DiophantineParams,
    choose_prime,
    enumerate_resonances,
    jacobian_at_origin,
    rational_eigenvalues,
    relation_lattice,
    symplectic_scaling_check,
)
from .eisenstein import (
    AlgebraicSeriesSpec,
    XPolynomial,
    coefficients_up_to,
    denominator_support,
)
from .errors import DocumentError, DomainError, HeightCeilingError, PadicDynError
from .linearize import (
    linearize_newton,
    linearize_order_by_order,
    normalize_fixed_locus,
)
from .orbit import (
    Neighbourhood,
    VanishingSumInstance,
    closure_dimension_estimate,
    iterate_in_neighbourhood,
    relation_probe,
    vanishing_exponents,
)
from .series import MultiSeries, SeriesTuple

SCHEMA_VERSION = "1"
DEFAULT_PRECISION = 32
DEFAULT_TRUNCATION = 8
# exact orbit points of a nonlinear map can grow in height geometrically per
# step; probe refuses a point with a coordinate taller than this many bits
PROBE_MAX_BITS = 2**16
# an orbit's work and the size of its report both grow with its
# (steps + 1) * dimension * precision p-adic digits; orbit refuses more
ORBIT_MAX_DIGITS = 2**22
# a series in n variables through degree d has C(n + d, n) monomials; analyze,
# linearize, newton and eisenstein refuse a working degree with more
SERIES_MAX_MONOMIALS = 2**11
# Python refuses to write an integer of more than 4300 decimal digits as text
# (sys.get_int_max_str_digits); a report refuses rationals above this many
# bits, which stay below that limit
ENCODE_MAX_BITS = 14_000

USAGE_EXIT = 1
OBSTRUCTION_EXIT = 2


def _rational(value: Any, path: str) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError(path, "expected a rational number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(path, f"not a rational: {value!r}") from exc
    raise DocumentError(path, f"expected int or 'n/d' string, got {type(value).__name__}")


def _prime(value: Any, path: str) -> int:
    """An odd prime from a document field or flag; anything else is a document error."""
    try:
        # a bool, float or string is rejected even where it equals a prime
        check_odd_prime(value if type(value) is int else 0)
    except DomainError as exc:
        raise DocumentError(path, f"expected an odd prime, got {value!r}") from exc
    return value


def _integer(value: Any, path: str, minimum: int | None = None) -> int:
    """An integer flag or document field, at least minimum when one is
    given; anything else is a document error.  A bool is refused: JSON true
    and false are no integers, though Python counts them as 1 and 0."""
    if type(value) is not int:
        raise DocumentError(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise DocumentError(path, f"expected an integer >= {minimum}, got {value}")
    return value


# smallest accepted value of each integer flag; --degree depends on the command
_FLAG_MINIMUMS = {"steps": 0, "points": 1, "smax": 1, "level": 1, "precision": 1}
_DEGREE_MINIMUMS = {"analyze": 2, "linearize": 2, "newton": 2, "eisenstein": 0, "probe": 1}
_FLAG_HELP = {"prime": "odd working prime", "precision": "p-adic digits", "degree": "working degree"}


def _series_fits(nvars: int, degree: int) -> bool:
    """C(nvars + degree, nvars) <= SERIES_MAX_MONOMIALS, found without
    forming a binomial above the ceiling."""
    count, top = 1, nvars + degree
    # C(top, k) grows with k up to min(nvars, degree) <= top / 2
    for k in range(1, min(nvars, degree) + 1):
        count = count * (top - k + 1) // k
        if count > SERIES_MAX_MONOMIALS:
            return False
    return True


def _check_series_degree(nvars: int, degree: int, path: str) -> None:
    """Refuse a series working degree above SERIES_MAX_MONOMIALS monomials
    before any work starts."""
    if _series_fits(nvars, degree):
        return
    largest = 0
    while _series_fits(nvars, largest + 1):
        largest += 1
    raise DocumentError(
        path,
        f"{nvars}-variable series through degree {degree} have more than "
        f"{SERIES_MAX_MONOMIALS} monomials; the largest accepted degree is {largest}",
    )


def _check_height(x: Fraction) -> None:
    tallest = max(x.numerator.bit_length(), x.denominator.bit_length())
    if tallest > ENCODE_MAX_BITS:
        raise HeightCeilingError(
            f"a rational of {tallest} bits is above the report ceiling of "
            f"{ENCODE_MAX_BITS} bits; ask for a lower degree or fewer points"
        )


def _encode_rational(x: Fraction):
    x = Fraction(x)
    _check_height(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _encode_series(s: MultiSeries | SeriesTuple) -> list:
    """The term records of a series or a tuple, under the same height
    ceiling as _encode_rational."""
    for comp in s.components if isinstance(s, SeriesTuple) else (s,):
        for _, c in comp.terms():
            _check_height(c)
    return s.to_records()


def _encode_matrix(m) -> list[list]:
    return [[_encode_rational(x) for x in row] for row in m]


class MapDocument:
    """A parsed map description with documented defaults filled in."""

    def __init__(
        self,
        analytic_map: AnalyticMap,
        prime: int | None,
        precision: int,
        symplectic_form: list[list[Fraction]] | None,
    ) -> None:
        self.map = analytic_map
        self.prime = prime
        self.precision = precision
        self.symplectic_form = symplectic_form


def _term_record(record: Any, where: str, n: int) -> tuple[tuple[int, ...], Fraction]:
    """(exponents, coefficient) of a term record over n variables."""
    if not isinstance(record, dict):
        raise DocumentError(where, "expected a term record")
    exps = record.get("exponents")
    if not isinstance(exps, list) or len(exps) != n:
        raise DocumentError(f"{where}.exponents", f"expected {n} non-negative integers")
    exps = tuple(_integer(e, f"{where}.exponents", 0) for e in exps)
    num = _integer(record.get("numerator"), f"{where}.numerator")
    den = _integer(record.get("denominator", 1), f"{where}.denominator")
    if den == 0:
        raise DocumentError(f"{where}.denominator", "expected a nonzero integer")
    return exps, Fraction(num, den)


def parse_map_document(data: Any, series_at_truncation: bool = False) -> MapDocument:
    """The parsed document.  For a command that works on series at the
    truncation degree (analyze by default; linearize and newton, which
    normalize the map there), series_at_truncation checks that degree
    against SERIES_MAX_MONOMIALS before any series is built."""
    if not isinstance(data, dict):
        raise DocumentError("$", "document must be a JSON object")
    if "dimension" not in data:
        raise DocumentError("dimension", "missing")
    n = _integer(data["dimension"], "dimension", 1)
    variables = data.get("variables", [f"x{i + 1}" for i in range(n)])
    if not isinstance(variables, list) or len(variables) != n or not all(isinstance(v, str) for v in variables):
        raise DocumentError("variables", f"expected {n} names")
    r = _integer(data.get("fixed_locus_dim", 0), "fixed_locus_dim", 0)
    if r > n:
        raise DocumentError("fixed_locus_dim", f"expected an integer <= {n}, got {r}")
    trunc = _integer(data.get("truncation_degree", DEFAULT_TRUNCATION), "truncation_degree", 1)
    if series_at_truncation:
        _check_series_degree(n, trunc, "truncation_degree")
    components = data.get("components")
    if not isinstance(components, list) or len(components) != n:
        raise DocumentError("components", f"expected {n} component term lists")
    series = []
    for i, terms in enumerate(components):
        if not isinstance(terms, list):
            raise DocumentError(f"components[{i}]", "expected a list of term records")
        parsed = [_term_record(record, f"components[{i}][{t}]", n) for t, record in enumerate(terms)]
        series.append(MultiSeries(n, trunc, parsed))
    prime = data.get("prime")
    if prime is not None:
        _prime(prime, "prime")
    precision = _integer(data.get("precision", DEFAULT_PRECISION), "precision", 1)
    form = None
    if "symplectic_form" in data:
        raw = data["symplectic_form"]
        if not isinstance(raw, list) or len(raw) != n or any(
            not isinstance(row, list) or len(row) != n for row in raw
        ):
            raise DocumentError("symplectic_form", f"expected an {n}x{n} matrix")
        form = [
            [_rational(x, f"symplectic_form[{i}][{j}]") for j, x in enumerate(row)]
            for i, row in enumerate(raw)
        ]
        if not any(x for row in form for x in row):
            raise DocumentError("symplectic_form", "must not be all zero")
    try:
        amap = AnalyticMap(SeriesTuple(series), fixed_locus_dim=r)
    except PadicDynError as exc:
        raise DocumentError("components", str(exc)) from exc
    return MapDocument(amap, prime, precision, form)


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DocumentError(path, f"cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc


def _parse_point(text: str, n: int) -> list[Fraction]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise DocumentError("--start", f"expected {n} comma-separated rationals")
    return [_rational(p, "--start") for p in parts]


def cmd_analyze(args) -> dict:
    doc = parse_map_document(_load_json(args.document), series_at_truncation=args.degree is None)
    f = doc.map
    depth = args.degree if args.degree is not None else f.trunc
    if args.degree is not None:
        _check_series_degree(f.n, depth, "--degree")
    jac = jacobian_at_origin(f)
    symplectic = None
    if doc.symplectic_form is not None:
        # the form is part of the document: a bad one is refused before any
        # obstruction; the parser refused an all-zero form, so mu exists
        sigma = doc.symplectic_form
        m = ratlinalg.as_matrix(jac)
        lhs = ratlinalg.mat_mul(ratlinalg.mat_mul(ratlinalg.transpose(m), ratlinalg.as_matrix(sigma)), m)
        mu = next(lhs[i][j] / x for i, row in enumerate(sigma) for j, x in enumerate(row) if x)
        try:
            check = symplectic_scaling_check(jac, sigma, mu)
        except DomainError as exc:
            raise DocumentError("symplectic_form", str(exc)) from exc
        symplectic = {
            "scaling": _encode_rational(mu),
            "holds": check.holds,
            "pairs": None
            if check.pairs is None
            else [[_encode_rational(a), _encode_rational(b)] for a, b in check.pairs],
        }
    eigen = rational_eigenvalues(jac)
    lams = list(eigen.eigenvalues)
    resonances = enumerate_resonances(lams, f.fixed_locus_dim, depth) if all(
        lams[i] == 1 for i in range(f.fixed_locus_dim)
    ) else None
    lattice = relation_lattice(lams)
    prime = args.prime or doc.prime or choose_prime(f, lams)
    report = {
        "dimension": f.n,
        "fixed_locus_dim": f.fixed_locus_dim,
        "jacobian": _encode_matrix(jac),
        "eigenvalues": [_encode_rational(x) for x in lams],
        "semisimple": eigen.semisimple,
        "resonances": None
        if resonances is None
        else [
            {"monomial": list(res.monomial), "component": res.component}
            for res in resonances
        ],
        "resonance_degree": depth,
        "relation_lattice": {
            "basis": [list(v) for v in lattice.basis],
            "rank": lattice.rank,
            "torsion_free": lattice.torsion_free,
        },
        "default_prime": prime,
    }
    if symplectic is not None:
        report["symplectic"] = symplectic
    return report


def _conjugacy_report(result, change: SeriesTuple | None) -> dict:
    report = {
        "h": _encode_series(result.h),
        "h_inverse": _encode_series(result.h_inverse),
        "verified_degree": result.verified_degree,
        "residual_zero": result.residual.is_zero(),
        "denominator_primes": sorted(result.denominator_primes),
        "eigenvalues": [_encode_rational(x) for x in result.eigenvalues],
    }
    if change is not None:
        report["normalizing_change"] = _encode_series(change)
    return report


def _prepare_linearizable(doc: MapDocument, degree: int):
    f = doc.map
    _check_series_degree(f.n, degree, "--degree")
    if f.trunc < degree:
        f = AnalyticMap(
            SeriesTuple([c.as_polynomial(degree) for c in f.components]),
            f.fixed_locus_dim,
        )
    normalized, change = normalize_fixed_locus(f)
    identity = SeriesTuple.identity(f.n, f.trunc)
    return normalized, (None if change == identity else change)


def cmd_linearize(args) -> dict:
    doc = parse_map_document(_load_json(args.document), series_at_truncation=True)
    degree = args.degree if args.degree is not None else DEFAULT_TRUNCATION
    f, change = _prepare_linearizable(doc, degree)
    result = linearize_order_by_order(f, degree)
    return _conjugacy_report(result, change)


def cmd_newton(args) -> dict:
    doc = parse_map_document(_load_json(args.document), series_at_truncation=True)
    degree = args.degree if args.degree is not None else DEFAULT_TRUNCATION
    f, change = _prepare_linearizable(doc, degree)
    params = DiophantineParams(_rational(args.c_const, "--c-const"), _rational(args.beta, "--beta"))
    prime = args.prime or doc.prime
    result, trace = linearize_newton(f, degree, params, prime=prime)
    report = _conjugacy_report(result, change)
    report["newton_trace"] = {
        "prime": trace.prime,
        "rescale": _encode_rational(trace.rescale),
        "radii": [_encode_rational(r) for r in trace.radii],
        "iterations": [
            {
                "index": it.index,
                "window": list(it.window),
                "delta_order": it.delta_order,
                "delta_norm": _encode_rational(it.delta_norm.value),
                "rho": _encode_rational(it.rho),
                "bound_satisfied": it.bound.passes,
                "minimal_c1": {
                    "coefficient": _encode_rational(it.bound.minimal_c1.coeff),
                    "base": _encode_rational(it.bound.minimal_c1.base),
                    "exponent": _encode_rational(it.bound.minimal_c1.exponent),
                },
            }
            for it in trace.iterations
        ],
    }
    return report


def cmd_eisenstein(args) -> dict:
    data = _load_json(args.document)
    if not isinstance(data, dict):
        raise DocumentError("$", "document must be a JSON object")
    nvars = _integer(data.get("num_vars"), "num_vars", 1)
    raw_terms = data.get("relation")
    if not isinstance(raw_terms, list) or not raw_terms:
        raise DocumentError("relation", "expected a nonempty list of term records")
    terms = []
    for t, record in enumerate(raw_terms):
        where = f"relation[{t}]"
        exps, coeff = _term_record(record, where, nvars)
        xpow = _integer(record.get("x_power", 0), f"{where}.x_power", 0)
        terms.append((exps, xpow, coeff))
    relation = XPolynomial.from_terms(nvars, terms)
    seed_records = data.get("seed", [])
    if not isinstance(seed_records, list):
        raise DocumentError("seed", "expected a list of term records")
    seed_degree = _integer(data.get("seed_degree", 0), "seed_degree", 0)
    seed = MultiSeries(
        nvars, seed_degree, [_term_record(record, f"seed[{t}]", nvars) for t, record in enumerate(seed_records)]
    )
    depth = args.degree if args.degree is not None else DEFAULT_TRUNCATION
    _check_series_degree(nvars, depth, "--degree")
    spec = AlgebraicSeriesSpec.build(relation, seed)
    phi = coefficients_up_to(spec, depth)
    support = denominator_support(phi)
    return {
        "vanishing_order": spec.vanishing_order,
        "pivot_monomial": list(spec.pivot_monomial),
        "coefficients": _encode_series(phi),
        "degree": depth,
        "denominator_primes": sorted(support.primes),
        "squarefree_product": support.squarefree_product,
    }


def _check_orbit_work(steps: int, dim: int, precision: int, precision_path: str) -> None:
    """Refuse an orbit above ORBIT_MAX_DIGITS digits before it is iterated."""
    if (steps + 1) * dim * precision <= ORBIT_MAX_DIGITS:
        return
    ceiling = f"the ceiling of {ORBIT_MAX_DIGITS} digits"
    largest = ORBIT_MAX_DIGITS // (dim * precision) - 1
    if largest < 0:
        raise DocumentError(
            precision_path,
            f"one point of {dim} coordinates at {precision} digits is above {ceiling}; "
            f"ask for a precision of at most {ORBIT_MAX_DIGITS // dim}",
        )
    raise DocumentError(
        "--steps",
        f"{steps + 1} points of {dim} coordinates at {precision} digits are above {ceiling}; "
        f"ask for at most {largest} steps",
    )


def cmd_orbit(args) -> dict:
    doc = parse_map_document(_load_json(args.document))
    f = doc.map
    precision = args.precision if args.precision is not None else doc.precision
    _check_orbit_work(args.steps, f.n, precision, "--precision" if args.precision is not None else "precision")
    prime = args.prime or doc.prime or choose_prime(f)
    start = _parse_point(args.start, f.n)
    nbhd = Neighbourhood(prime=prime, level=args.level, dim=f.n)
    try:
        result = iterate_in_neighbourhood(f, start, args.steps, nbhd, precision=precision)
    except DomainError as exc:
        # steps, precision and the neighbourhood are checked above, so what
        # is refused is the point: not integral, or outside the neighbourhood
        raise DocumentError("--start", str(exc)) from exc
    return {
        "prime": prime,
        "level": args.level,
        "precision": precision,
        "steps": args.steps,
        "points": [[x.digit_string() for x in pt] for pt in result.points],
        "stays_in_neighbourhood": result.stays_in_neighbourhood,
        "constant_mod_level": result.constant_mod_level,
        "unit_jacobian": result.unit_jacobian,
        "isometry_pairs_checked": result.isometry_pairs_checked,
        "isometry_pairs_skipped": result.isometry_pairs_skipped,
    }


def cmd_probe(args) -> dict:
    doc = parse_map_document(_load_json(args.document))
    f = doc.map
    start = _parse_point(args.start, f.n)
    degree = args.degree if args.degree is not None else 2
    m = f.components.linear_matrix()
    linear_diagonal = ratlinalg.is_diagonal(m) and all(
        comp.degree() is not None and comp.degree() <= 1 for comp in f.components
    )
    if linear_diagonal:
        lams = [m[i][i] for i in range(f.n)]
        est = closure_dimension_estimate(lams, start, args.points, degree)
        return {
            "mode": "diagonal",
            "eigenvalues": [_encode_rational(x) for x in lams],
            "lower_bound": est.lower_bound,
            "estimated_dimension": est.estimated_dimension,
            "consistent": est.consistent,
            "transform": [list(col) for col in est.transform],
            "multipliers": [_encode_rational(x) for x in est.multipliers],
            "kernel_dimension": len(est.probe.kernel),
            "kernel": [[_encode_rational(c) for c in vec] for vec in est.probe.kernel],
            "monomials": [list(mn) for mn in est.probe.monomials],
        }
    points = [tuple(start)]
    while True:
        tallest = max(
            max(x.numerator.bit_length(), x.denominator.bit_length()) for x in points[-1]
        )
        if tallest > PROBE_MAX_BITS:
            raise DocumentError(
                "--points",
                f"orbit point {len(points) - 1} (the start is point 0) has a coordinate of "
                f"{tallest} bits, above the ceiling of {PROBE_MAX_BITS}; "
                f"ask for at most {len(points) - 1} points",
            )
        if len(points) == args.points:
            break
        points.append(f.components.eval(points[-1]))
    probe = relation_probe(points, degree)
    return {
        "mode": "orbit",
        "points_used": len(points),
        "degree": degree,
        "kernel_dimension": len(probe.kernel),
        "kernel": [[_encode_rational(c) for c in vec] for vec in probe.kernel],
        "monomials": [list(mn) for mn in probe.monomials],
        "sufficient_points": probe.sufficient_points,
    }


def cmd_vanishing(args) -> dict:
    data = _load_json(args.document)
    if not isinstance(data, dict):
        raise DocumentError("$", "document must be a JSON object")
    raw_a = data.get("coefficients")
    raw_b = data.get("units")
    if not isinstance(raw_a, list) or not isinstance(raw_b, list):
        raise DocumentError("coefficients/units", "expected lists of rationals")
    a = [_rational(x, f"coefficients[{i}]") for i, x in enumerate(raw_a)]
    b = [_rational(x, f"units[{i}]") for i, x in enumerate(raw_b)]
    prime = args.prime or _prime(data.get("prime"), "prime")
    if args.precision is not None:
        precision = args.precision
    else:
        precision = _integer(data.get("precision", DEFAULT_PRECISION), "precision", 1)
    inst = VanishingSumInstance(a, b, prime, precision)
    report = vanishing_exponents(inst, args.smax)
    cert = report.certificate
    return {
        "prime": prime,
        "precision": precision,
        "smax": args.smax,
        "solutions": sorted(report.solutions),
        "certificate": {
            "stabilizing_exponent": cert.stabilizing_exponent,
            "log_digits": list(cert.log_digits),
            "logs_pairwise_distinct": cert.logs_pairwise_distinct,
            "leading_indices": list(cert.leading_indices),
            "separating_polynomial": {
                "coefficients": list(cert.separating.coefficients),
                "level": cert.separating.level,
                "target_index": cert.separating.target_index,
                "target_abs": _encode_rational(cert.separating.target_abs),
                "verified": cert.separating.verified,
            },
        },
    }


_COMMANDS = {
    "analyze": cmd_analyze,
    "linearize": cmd_linearize,
    "newton": cmd_newton,
    "eisenstein": cmd_eisenstein,
    "orbit": cmd_orbit,
    "probe": cmd_probe,
    "vanishing": cmd_vanishing,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise a DocumentError on
    "arguments", so they end in the same JSON payload as any document
    error.  Subcommand parsers are built from the same class."""

    def error(self, message: str):
        raise DocumentError("arguments", message)


def _salvaged(argv: Sequence[str] | None) -> argparse.Namespace:
    """The command, --out and --format of a command line that did not
    parse, as far as they can be read; a command that does not exist is
    None, and so is anything that cannot be read."""
    loose = _Parser(add_help=False)
    loose.add_argument("command", nargs="?")
    loose.add_argument("--out")
    loose.add_argument("--format")
    try:
        args = loose.parse_known_args(argv)[0]
    except DocumentError:
        args = argparse.Namespace(command=None, out=None, format=None)
    if args.command not in _COMMANDS:
        args.command = None
    return args


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="padicdyn",
        description="Exact p-adic analysis of polynomial self-maps near fixed points",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *flags: str):
        """The document, --out, --format and the integer flags the command reads."""
        p.add_argument("document", help="path to the JSON input document")
        for flag in flags:
            p.add_argument(f"--{flag}", type=int, default=None, help=_FLAG_HELP[flag])
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument(
            "--format", choices=("json", "text"), default="json", help="report format"
        )

    common(sub.add_parser("analyze", help="eigenvalues, resonances, relations"), "prime", "degree")
    common(sub.add_parser("linearize", help="order-by-order conjugacy"), "degree")
    newton = sub.add_parser("newton", help="Newton conjugacy with norm trace")
    common(newton, "prime", "degree")
    newton.add_argument("--c-const", default="1", help="diophantine constant C")
    newton.add_argument("--beta", default="0", help="diophantine exponent beta")
    common(sub.add_parser("eisenstein", help="algebraic series coefficients"), "degree")
    orbit = sub.add_parser("orbit", help="iterate inside an invariant neighbourhood")
    common(orbit, "prime", "precision")
    orbit.add_argument("--start", required=True, help="comma-separated rational point")
    orbit.add_argument("--steps", type=int, default=10)
    orbit.add_argument("--level", type=int, default=1, help="neighbourhood level s")
    probe = sub.add_parser("probe", help="orbit relation kernel and closure bound")
    common(probe, "degree")
    probe.add_argument("--start", required=True, help="comma-separated rational point")
    probe.add_argument("--points", type=int, default=50)
    vanishing = sub.add_parser("vanishing", help="vanishing exponents of a unit power sum")
    common(vanishing, "prime", "precision")
    vanishing.add_argument("--smax", type=int, default=200, help="exponent horizon")
    return parser


def _render_text(payload: dict) -> str:
    out: list[str] = []

    def walk(value, indent: str, label: str):
        if isinstance(value, dict):
            out.append(f"{indent}{label}:")
            for key in sorted(value):
                walk(value[key], indent + "  ", key)
        elif isinstance(value, list):
            out.append(f"{indent}{label}: " + json.dumps(value, sort_keys=True))
        else:
            out.append(f"{indent}{label}: {value}")

    for key in sorted(payload):
        walk(payload[key], "", key)
    return "\n".join(out) + "\n"


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch, and write the report; returns the exit code."""
    parser = build_parser()
    started = time.perf_counter()
    args = None
    try:
        try:
            args, unknown = parser.parse_known_args(argv)
        except SystemExit as exc:
            # --help; a usage error raises DocumentError instead of argparse's
            # exit 2, a slot reserved for mathematical obstructions here
            return 0 if exc.code in (0, None) else USAGE_EXIT
        if unknown:
            raise DocumentError("arguments", f"{args.command} does not take {' '.join(unknown)}")
        if getattr(args, "prime", None) is not None:
            _prime(args.prime, "--prime")
        minimums = dict(_FLAG_MINIMUMS, degree=_DEGREE_MINIMUMS.get(args.command, 0))
        for name, minimum in minimums.items():
            value = getattr(args, name, None)
            if value is not None:
                _integer(value, f"--{name}", minimum)
        report = _COMMANDS[args.command](args)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "arguments": {
                key: value
                for key, value in sorted(vars(args).items())
                if key not in ("command", "out", "format") and value is not None
            },
            "report": report,
        }
        exit_code = 0
    except DocumentError as exc:
        if args is None:
            # the command line did not parse: the payload still goes to --out
            args = _salvaged(argv)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "error": {"kind": "document", "location": exc.path, "message": str(exc)},
        }
        exit_code = USAGE_EXIT
    except PadicDynError as exc:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "error": {"kind": type(exc).__name__, "message": str(exc)},
        }
        exit_code = OBSTRUCTION_EXIT
    payload["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    if getattr(args, "format", "json") == "text":
        rendered = _render_text(payload)
    else:
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)
    return exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
