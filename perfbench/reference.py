"""Reference traced run: independent-3d at degree 16, both linearizers.

From the root of a checkout:

    python3 perfbench/reference.py

Times each route once untraced and once traced, and prints the traced
totals of the layers that ROADMAP's cProfile baseline names, so the
tracer's attribution can be set beside it (README.md keeps one such run).
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from padicdyn import dynamics, linearize  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

DEGREE = 16
ROUTES = {
    "order-by-order": lambda f: linearize.linearize_order_by_order(f, DEGREE),
    "newton": lambda f: linearize.linearize_newton(f, DEGREE, dynamics.DiophantineParams(1, 0), prime=7),
}
LAYERS = [
    "linearize.order_by_order", "linearize.newton", "series.invert", "linearize.matrix_inverse",
    "linearize.denominator_primes", "linearize.solve_homological", "arith.factorize",
    "series.mul", "series.compose", "series.addsub",
]


def main() -> None:
    r, comps = workloads.CONJUGACY_MAPS["independent-3d"]
    for route, call in ROUTES.items():
        start = perf_counter()
        call(workloads.build_map(r, comps, DEGREE))
        untraced = perf_counter() - start
        tracer = Tracer()
        missing = tracer.install()
        f = workloads.build_map(r, comps, DEGREE)
        tracer.begin_op(0)
        call(f)
        tracer.end_op()
        tracer.uninstall()
        found = tracer.metrics()
        traced = found["op.total_s"]
        print(f"{route}: untraced {untraced:.2f} s, traced {traced:.2f} s (ratio {traced / untraced:.2f})")
        for name in LAYERS:
            if found.get(f"{name}.calls"):
                print(f"  {name:30s} calls {found[name + '.calls']:6d}  total {found[name + '.total_s']:7.2f} s"
                      f"  self {found[name + '.self_s']:7.2f} s")
        if missing:
            print("  missing trace targets: " + ", ".join(missing))


if __name__ == "__main__":
    main()
