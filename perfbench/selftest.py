"""Self-test of the benchmark, at the reduced ("quick") input sizes.

From the root of a checkout:

    python3 perfbench/selftest.py

Checks that
  * every workload emits every end-to-end metric untraced and every
    per-layer metric traced, with all operations correct;
  * count metrics repeat exactly across two traced runs;
  * a corrupted pinned digest makes the operation fail;
  * without the library sources the benchmark exits non-zero and prints
    no result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 300


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0.5", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=TIMEOUT_S, cwd=cwd,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"benchmark exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []

    for workload in [w["name"] for w in spec["workloads"]]:
        plain = result_of(run_bench(workload, 0))
        if set(plain["metrics"]) != end_to_end or not plain["correct"]:
            errors.append(f"{workload}: untraced run is incorrect or its metrics are {sorted(plain['metrics'])}")
        first, second = (result_of(run_bench(workload, 1)) for _ in range(2))
        for res in (first, second):
            if set(res["metrics"]) != set(per_layer) or not res["correct"]:
                errors.append(f"{workload}: traced run is incorrect or misses per-layer metrics")
        for name, unit in per_layer.items():
            if unit == "count" and first["metrics"][name]["value"] != second["metrics"][name]["value"]:
                errors.append(f"{workload}: count {name} differs between two traced runs")

    sys.path.insert(0, str(ROOT / "src"))
    import run
    import workloads
    from calibrate import SpeedProbe

    for workload in ("conjugacy", "algebraic", "orbit"):
        pins = run.load_pins(workload, 0, "quick")
        if not pins:
            errors.append(f"{workload}: no pinned digests for the quick size")
            continue
        victim = sorted(pins)[0]
        corrupt = dict(pins)
        corrupt[victim] = ("0" if pins[victim][0] != "0" else "1") + pins[victim][1:]
        outcome = run.run_pass(workloads.make_ops(workload, 0, "quick"), corrupt, None, SpeedProbe())
        failed = [name for name, _ in outcome.failures]
        if failed != [victim]:
            errors.append(f"{workload}: corrupting the pin of {victim} failed {failed}")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = run_bench("orbit", 0, cwd=bare)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        errors.append("without library sources the benchmark did not fail cleanly")

    for line in errors:
        print("SELFTEST FAIL " + line)
    print("selftest: " + ("FAIL" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
