"""Run one padicdyn benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload conjugacy --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured without tracing; with
``--trace 1`` two untraced passes are followed by one traced pass and the
metrics are the per-layer ones.  End-to-end timings are scaled to a
reference machine speed (calibrate.py); the raw ones are printed above the
result line.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
PINS = HERE / "digests.json"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def load_pins(workload: str, seed: int, size: str) -> dict:
    """Pinned digest prefixes for this workload and seed, or {} if none."""
    with open(PINS) as fh:
        return json.load(fh).get(size, {}).get(workload, {}).get(str(seed), {})


def measure_setup(workload: str, seed: int, size: str) -> tuple[float, float]:
    """Median over fresh processes of importing padicdyn and building the
    inputs: (scaled, raw) seconds."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), size],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT, check=True,
        )
        seconds, scale = map(float, done.stdout.split()[-2:])
        scaled.append(seconds * scale)
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


class Pass:
    """Outcome of one pass over a workload's operations."""

    def __init__(self) -> None:
        self.spans: list[tuple[float, float]] = []
        self.scaled: list[float] = []
        self.parts: list[int] = []
        self.digests: dict[str, str] = {}
        self.failures: list[tuple[str, list[str]]] = []

    @property
    def latencies(self) -> list[float]:
        return [end - start for start, end in self.spans]

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    def part(self, number: int) -> list[float]:
        """Scaled latencies of the operations in one half of the workload."""
        return [t for t, p in zip(self.scaled, self.parts) if p == number]


def run_pass(ops, pins: dict, reference: dict | None, probe: SpeedProbe, tracer=None) -> Pass:
    """Time every operation once.  Without a reference digest map this is
    the first pass, and each output also goes through its oracle."""
    result = Pass()
    for index, op in enumerate(ops):
        args = op.build()
        problems = []
        out = None
        probe.maybe_sample()
        if tracer is not None:
            tracer.begin_op(index)
        start = perf_counter()
        try:
            out = op.call(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            problems.append(f"raised {type(exc).__name__}: {exc}")
        finally:
            result.spans.append((start, perf_counter()))
            result.parts.append(op.part)
            if tracer is not None:
                tracer.end_op()
        if out is not None:
            try:
                if reference is None:
                    problems += op.check(out)
                digest = op.digest(out)
            except Exception as exc:  # a malformed output fails its operation
                problems.append(f"check raised {type(exc).__name__}: {exc}")
                digest = None
            result.digests[op.name] = digest
            if reference is not None and reference.get(op.name) != digest:
                problems.append("output differs from the first pass")
            pin = pins.get(op.name)
            if pin is not None and (digest is None or not digest.startswith(pin)):
                problems.append("digest differs from the pinned digest")
        if problems:
            result.failures.append((op.name, problems))
    probe.sample()
    result.scaled = [(end - start) * probe.scale(start, end) for start, end in result.spans]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("conjugacy", "algebraic", "orbit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced input sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "padicdyn" / "__init__.py").is_file():
        print(f"perfbench: no padicdyn sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import padicdyn

    if Path(padicdyn.__file__).resolve().parent != SRC / "padicdyn":
        print(f"perfbench: imported padicdyn from {padicdyn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    size = "quick" if args.quick else "full"
    setup_s, raw_setup_s = measure_setup(args.workload, args.seed, size)
    ops = workloads.make_ops(args.workload, args.seed, size)
    pins = load_pins(args.workload, args.seed, size)

    probe = SpeedProbe()
    started = perf_counter()
    passes = [run_pass(ops, pins, None, probe)]
    if args.trace:
        from tracer import PER_LAYER, Tracer

        # the first pass runs cold (the heap is still growing), so the
        # traced pass is compared with a second, warm untraced pass
        passes.append(run_pass(ops, pins, passes[0].digests, probe))
        tracer = Tracer()
        missing = tracer.install()
        traced = run_pass(ops, pins, passes[0].digests, probe, tracer)
        tracer.uninstall()
        passes.append(traced)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{size}.bin")
        found = tracer.metrics()
        found["trace.overhead_ratio"] = sum(traced.scaled) / sum(passes[1].scaled)
        part1 = passes[1].part(1)
        found["part1.p50_ms"] = 1000 * _percentile(part1, 0.50)
        found["part1.p99_ms"] = 1000 * _percentile(part1, 0.99)
        if missing:
            print("missing trace targets (reported as 0): " + ", ".join(missing))
        absent = [name for name in PER_LAYER if name not in found]
        if absent:
            print("per-layer metrics with no calls (reported as 0): " + ", ".join(absent))
        metrics = {name: {"value": found.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        while perf_counter() - started < args.seconds:
            passes.append(run_pass(ops, pins, passes[0].digests, probe))
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(sum(p.scaled) for p in passes), "unit": "s"},
            "part1_s": {"value": statistics.median(sum(p.part(1)) for p in passes), "unit": "s"},
            "part2_s": {"value": statistics.median(sum(p.part(2)) for p in passes), "unit": "s"},
            "peak_rss_mib": {"value": peak_kib / 1024, "unit": "MiB"},
        }
        print(f"passes: {len(passes)} of {len(ops)} operations; raw pass walls: "
              f"{', '.join(f'{p.wall:.3f}' for p in passes)} s; scaled: "
              f"{', '.join(f'{sum(p.scaled):.3f}' for p in passes)} s; raw setup {raw_setup_s:.4f} s; "
              f"calibration kernel median {1000 * statistics.median(probe.values):.2f} ms")

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    for number, p in enumerate(passes):
        for name, problems in p.failures:
            print(f"FAILED pass {number} {name}: {'; '.join(problems)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
