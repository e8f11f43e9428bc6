"""Write BENCHMARK.json at the repository root from the benchmark's definitions.

From the root of a checkout:

    python3 perfbench/spec.py

The per-layer list comes from tracer.PER_LAYER, so the file and the traced
run cannot drift apart.  Bounds are shares of the parent commit's median.
"""

from __future__ import annotations

import json
from pathlib import Path

from tracer import PER_LAYER

RUN_SECONDS = 25

WORKLOADS = [
    ("conjugacy", "Nine maps linearized to degree 12 by order-by-order and by Newton: series products, "
                  "composition and inversion with coefficients of about 370 bits"),
    ("algebraic", "Algebraic series roots by Hensel lifting and pivot induction, 1 to 3 variables up to "
                  "degree 400: dense series products and series inverses, no composition"),
    ("orbit", "1000 random integral maps iterated p-adically, vanishing sums and exact relation probes: "
              "p-adic arithmetic, valuations and linear algebra, no series products"),
]

# (name, unit, bound)
END_TO_END = [
    ("wall_s", "s", 0.25),
    ("part1_s", "s", 0.25),
    ("part2_s", "s", 0.25),
    ("peak_rss_mib", "MiB", 0.1),
    ("setup_s", "s", 0.25),
]


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower", "bound": bound} for name, unit, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": "lower"} for name, unit in PER_LAYER.items()],
    }


if __name__ == "__main__":
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(json.dumps(spec(), indent=2) + "\n")
