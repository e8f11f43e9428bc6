"""Out-of-program tracing for the padicdyn benchmark.

``Tracer.install`` replaces each entry point listed in ``TARGETS``
with a timing wrapper at every place it is bound: module globals of every
loaded padicdyn module (which covers names copied in by ``from .x import
y``) and class attributes (which covers aliases such as ``__radd__ =
__add__``).  No file of the library changes.

A span is (name, start, end, parent, op id).  Spans are kept in memory in
flat arrays and written once, at the end of the run.  Self time is a span's
duration minus the time its direct children cover, accumulated as spans
close; ``total_s`` counts only the outermost span of a name, so recursion
is not counted twice.  The benchmark's own operation spans are the roots;
their self time is op time that no library span covers.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (metric prefix, module, attribute path, what the wrapper records)
#   "span"  timed span;  "count"  call count only, no span
TARGETS = [
    ("series.mul", "padicdyn.series", "MultiSeries.__mul__", "span"),
    ("series.mul", "padicdyn.series", "MultiSeries.__rmul__", "span"),
    ("series.addsub", "padicdyn.series", "MultiSeries.__add__", "span"),
    ("series.addsub", "padicdyn.series", "MultiSeries.__sub__", "span"),
    ("series.addsub", "padicdyn.series", "MultiSeries.__rsub__", "span"),
    ("series.compose", "padicdyn.series", "MultiSeries.compose", "span"),
    ("series.compose_diagonal", "padicdyn.series", "SeriesTuple.compose_diagonal", "span"),
    ("series.invert", "padicdyn.series", "SeriesTuple.invert", "span"),
    ("series.inverse", "padicdyn.series", "MultiSeries.inverse", "span"),
    ("series.gauss_norm", "padicdyn.series", "gauss_norm", "span"),
    ("linearize.order_by_order", "padicdyn.linearize", "linearize_order_by_order", "span"),
    ("linearize.newton", "padicdyn.linearize", "linearize_newton", "span"),
    ("linearize.solve_homological", "padicdyn.linearize", "solve_homological", "span"),
    ("linearize.check_norm_bound", "padicdyn.linearize", "check_norm_bound", "span"),
    ("linearize.denominator_primes", "padicdyn.linearize", "denominator_primes_of", "span"),
    ("linearize.normalize", "padicdyn.linearize", "normalize_fixed_locus", "span"),
    ("linearize.matrix_inverse", "padicdyn.linearize", "_series_matrix_inverse", "span"),
    ("eisenstein.build", "padicdyn.eisenstein", "AlgebraicSeriesSpec.build", "span"),
    ("eisenstein.coefficients", "padicdyn.eisenstein", "coefficients_up_to", "span"),
    ("eisenstein.evaluate", "padicdyn.eisenstein", "XPolynomial.evaluate", "span"),
    ("eisenstein.denominator_support", "padicdyn.eisenstein", "denominator_support", "span"),
    ("arith.factorize", "padicdyn.arith", "factorize", "span"),
    ("arith.pollard_rho", "padicdyn.arith", "_pollard_rho", "count"),
    ("arith.valuation", "padicdyn.arith", "int_valuation", "span"),
    ("arith.is_prime", "padicdyn.arith", "is_prime", "span"),
    ("padic.new", "padicdyn.padic", "PAdic.__init__", "count"),
] + [
    ("padic.arith", "padicdyn.padic", f"PAdic.{op}", "span")
    for op in ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__truediv__", "__rtruediv__", "__pow__")
] + [
    ("padic.log", "padicdyn.padic", "padic_log", "span"),
    ("ratlinalg.kernel_basis", "padicdyn.ratlinalg", "kernel_basis", "span"),
    ("ratlinalg.rref", "padicdyn.ratlinalg", "rref", "span"),
    ("ratlinalg.inverse", "padicdyn.ratlinalg", "inverse", "span"),
    ("ratlinalg.det", "padicdyn.ratlinalg", "det", "span"),
    ("orbit.iterate", "padicdyn.orbit", "iterate_in_neighbourhood", "span"),
    ("orbit.vanishing", "padicdyn.orbit", "vanishing_exponents", "span"),
    ("orbit.relation_probe", "padicdyn.orbit", "relation_probe", "span"),
    ("orbit.closure", "padicdyn.orbit", "closure_dimension_estimate", "span"),
    ("orbit.union_compare", "padicdyn.orbit", "union_closure_compare", "span"),
    ("dynamics.relation_lattice", "padicdyn.dynamics", "relation_lattice", "span"),
    ("dynamics.eigen", "padicdyn.dynamics", "rational_eigenvalues", "span"),
]

# Every per-layer metric the traced run reports, in BENCHMARK.json order.
_PER_LAYER_NAMES = [
    "series.mul.calls", "series.mul.self_s", "series.mul.pairs", "series.mul.max_bits",
    "series.addsub.calls", "series.addsub.self_s",
    "series.compose.calls", "series.compose.self_s",
    "series.compose_diagonal.calls", "series.compose_diagonal.self_s",
    "series.invert.calls", "series.invert.self_s", "series.invert.total_s",
    "series.inverse.calls", "series.inverse.self_s",
    "series.gauss_norm.calls", "series.gauss_norm.self_s",
    "linearize.order_by_order.calls", "linearize.order_by_order.total_s", "linearize.order_by_order.self_s",
    "linearize.newton.calls", "linearize.newton.total_s", "linearize.newton.self_s",
    "linearize.newton.windows", "linearize.newton.solves",
    "linearize.solve_homological.calls", "linearize.solve_homological.self_s",
    "linearize.check_norm_bound.calls", "linearize.check_norm_bound.self_s",
    "linearize.denominator_primes.calls", "linearize.denominator_primes.self_s",
    "linearize.denominator_primes.total_s",
    "linearize.normalize.calls", "linearize.normalize.self_s",
    "linearize.matrix_inverse.calls", "linearize.matrix_inverse.total_s",
    "linearize.h.terms", "linearize.h.max_bits",
    "eisenstein.build.calls", "eisenstein.build.self_s",
    "eisenstein.coefficients.calls", "eisenstein.coefficients.total_s", "eisenstein.coefficients.self_s",
    "eisenstein.evaluate.calls", "eisenstein.evaluate.self_s",
    "eisenstein.denominator_support.calls", "eisenstein.denominator_support.self_s",
    "eisenstein.phi.terms", "eisenstein.phi.max_bits",
    "arith.factorize.calls", "arith.factorize.self_s", "arith.factorize.distinct_inputs",
    "arith.factorize.rho_inputs", "arith.factorize.max_bits",
    "arith.valuation.calls", "arith.valuation.self_s",
    "arith.is_prime.calls", "arith.is_prime.self_s",
    "padic.new.calls", "padic.arith.calls", "padic.arith.self_s", "padic.log.calls", "padic.log.self_s",
    "ratlinalg.kernel_basis.calls", "ratlinalg.kernel_basis.self_s",
    "ratlinalg.rref.calls", "ratlinalg.rref.self_s",
    "ratlinalg.inverse.calls", "ratlinalg.inverse.self_s",
    "ratlinalg.det.calls", "ratlinalg.det.self_s",
    "orbit.iterate.calls", "orbit.iterate.self_s", "orbit.iterate.points",
    "orbit.vanishing.calls", "orbit.vanishing.self_s",
    "orbit.relation_probe.calls", "orbit.relation_probe.total_s", "orbit.relation_probe.self_s",
    "orbit.relation_probe.cells",
    "orbit.closure.total_s", "orbit.union_compare.total_s",
    "dynamics.relation_lattice.calls", "dynamics.relation_lattice.self_s",
    "dynamics.eigen.calls", "dynamics.eigen.self_s",
    "part1.p50_ms", "part1.p99_ms",
    "trace.overhead_ratio", "trace.unattributed_s",
]
PER_LAYER = {
    name: "s" if name.endswith("_s") else "ms" if name.endswith("_ms") else "ratio" if name.endswith("_ratio") else "count"
    for name in _PER_LAYER_NAMES
}


def _resolve(module: str, path: str):
    """The function a target names, or None when it no longer exists."""
    owner = sys.modules.get(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    raw = vars(owner).get(parts[-1])
    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    return func if callable(func) else None


def max_bits(coeffs) -> int:
    """Peak height, in bits, of rational coefficients."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs), default=0)


def _coefficients(s):
    """Coefficients of a series, unsorted; reads the layer map when present
    because sorting through ``terms()`` on every product would dominate."""
    layers = getattr(s, "_layers", None)
    if isinstance(layers, dict):
        return (c for lay in layers.values() for c in lay.values())
    return (c for _, c in s.terms())


class Tracer:
    """Spans, calls and counts of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = ["op"]
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[list] = []  # [span index, name id, start, child time]
        self.depth: list[int] = [0]
        self.calls: list[int] = [0]
        self.self_s: list[float] = [0.0]
        self.total_s: list[float] = [0.0]
        self.op = -1
        self.pair_calls: dict = defaultdict(int)  # (name id, parent name id) -> calls
        self.counts: dict = defaultdict(int)
        self.factorize_inputs: dict = {}  # n -> used Pollard rho
        self.rho_seen = 0
        self.restore: list = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            for lst, zero in ((self.depth, 0), (self.calls, 0), (self.self_s, 0.0), (self.total_s, 0.0)):
                lst.append(zero)
        return self.names.index(name)

    def open(self, nid: int) -> None:
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.depth[nid] += 1
        self.calls[nid] += 1
        start = perf_counter()
        self.span_start.append(start)
        self.stack.append([len(self.span_start) - 1, nid, start, 0.0])

    def close(self) -> None:
        end = perf_counter()
        idx, nid, start, child = self.stack.pop()
        self.span_end[idx] = end
        duration = end - start
        self.self_s[nid] += duration - child
        self.depth[nid] -= 1
        if self.depth[nid] == 0:
            self.total_s[nid] += duration
        if self.stack:
            self.stack[-1][3] += duration
            self.pair_calls[(nid, self.stack[-1][1])] += 1

    def begin_op(self, op: int) -> None:
        self.op = op
        self.open(0)

    def end_op(self) -> None:
        self.close()
        self.op = -1

    # -- installation ------------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every target at all its binding sites; return the missing ones."""
        missing = []
        for prefix, module, path, kind in TARGETS:
            func = _resolve(module, path)
            if func is None:
                missing.append(f"{module}:{path}")
                continue
            wrapper = self._wrapper(prefix, kind, func)
            self._rebind(func, wrapper)
        return missing

    def _rebind(self, func, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if not (name == "padicdyn" or name.startswith("padicdyn.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, key, wrapper)
                    self.restore.append((mod, key, value))
                elif isinstance(value, type) and value.__module__.startswith("padicdyn"):
                    for attr, raw in list(value.__dict__.items()):
                        inner = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                        if inner is func:
                            new = type(raw)(wrapper) if isinstance(raw, (classmethod, staticmethod)) else wrapper
                            setattr(value, attr, new)
                            self.restore.append((value, attr, raw))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self.restore):
            setattr(owner, key, value)
        self.restore.clear()

    def _wrapper(self, prefix: str, kind: str, func):
        if kind == "count":
            counts, key = self.counts, prefix + ".calls"

            def counted(*args, **kwargs):
                counts[key] += 1
                return func(*args, **kwargs)

            return counted
        nid = self._name_id(prefix)
        after = getattr(self, "_after_" + prefix.replace(".", "_"), None)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            open_(nid)
            try:
                out = func(*args, **kwargs)
            finally:
                close()
            if after is not None:
                after(args, out)
            return out

        return traced

    # -- counts read from arguments and outputs -----------------------------------

    def _after_series_mul(self, args, out) -> None:
        a, b = args[0], args[1]
        if not hasattr(b, "term_count"):
            return
        self.counts["series.mul.pairs"] += a.term_count() * b.term_count()
        bits = max(max_bits(_coefficients(a)), max_bits(_coefficients(b)))
        if bits > self.counts["series.mul.max_bits"]:
            self.counts["series.mul.max_bits"] = bits

    def _record_h(self, result) -> None:
        coeffs = [c for comp in result.h.components for _, c in comp.terms()]
        self.counts["linearize.h.terms"] += len(coeffs)
        self.counts["linearize.h.max_bits"] = max(self.counts["linearize.h.max_bits"], max_bits(coeffs))

    def _after_linearize_order_by_order(self, args, out) -> None:
        self._record_h(out)

    def _after_linearize_newton(self, args, out) -> None:
        result, trace = out
        self._record_h(result)
        self.counts["linearize.newton.windows"] += len(trace.iterations)

    def _after_eisenstein_coefficients(self, args, out) -> None:
        coeffs = [c for _, c in out.terms()]
        self.counts["eisenstein.phi.terms"] += len(coeffs)
        self.counts["eisenstein.phi.max_bits"] = max(self.counts["eisenstein.phi.max_bits"], max_bits(coeffs))

    def _after_arith_factorize(self, args, out) -> None:
        n = args[0]
        rho = self.counts["arith.pollard_rho.calls"]
        self.factorize_inputs[n] = self.factorize_inputs.get(n, False) or rho > self.rho_seen
        self.rho_seen = rho
        self.counts["arith.factorize.max_bits"] = max(self.counts["arith.factorize.max_bits"], n.bit_length())

    def _after_orbit_iterate(self, args, out) -> None:
        self.counts["orbit.iterate.points"] += len(out.points)

    def _after_orbit_relation_probe(self, args, out) -> None:
        self.counts["orbit.relation_probe.cells"] += len(args[0]) * len(out.monomials)

    # -- results -------------------------------------------------------------------

    def metrics(self) -> dict:
        out: dict = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
            out[f"{name}.total_s"] = self.total_s[nid]
        out.update(self.counts)
        ids = {name: nid for nid, name in enumerate(self.names)}
        if "linearize.solve_homological" in ids and "linearize.newton" in ids:
            key = (ids["linearize.solve_homological"], ids["linearize.newton"])
            out["linearize.newton.solves"] = self.pair_calls.get(key, 0)
        out["arith.factorize.distinct_inputs"] = len(self.factorize_inputs)
        out["arith.factorize.rho_inputs"] = sum(self.factorize_inputs.values())
        out["trace.unattributed_s"] = self.self_s[0]
        return out

    def write(self, path) -> None:
        """Spans as one JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": [["name", "i"], ["start", "d"], ["end", "d"], ["parent", "i"], ["op", "i"]],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op):
                arr.tofile(fh)
