"""Regenerate perfbench/digests.json from the current library.

From the root of a checkout:

    python3 perfbench/pin.py

Runs one checked pass of every workload for every pinned seed, at both
input sizes, and records the first 16 hex digits of each pinned
operation's output digest.  Refuses to write anything if an operation
fails its oracle.  Only re-pin when the outputs are meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from calibrate import SpeedProbe  # noqa: E402
import workloads  # noqa: E402

SEEDS = {"full": range(16), "quick": range(4)}
PREFIX = 16


def main() -> int:
    pins: dict = {}
    bad = []
    for size, seeds in SEEDS.items():
        for workload in workloads.WORKLOADS:
            for seed in seeds:
                ops = workloads.make_ops(workload, seed, size)
                outcome = run.run_pass(ops, {}, None, SpeedProbe())
                bad += [(size, workload, seed, name, problems) for name, problems in outcome.failures]
                pins.setdefault(size, {}).setdefault(workload, {})[str(seed)] = {
                    op.name: outcome.digests[op.name][:PREFIX] for op in ops if op.pinned and op.name in outcome.digests
                }
                print(f"{size} {workload} seed {seed}: {outcome.wall:.2f}s", flush=True)
    if bad:
        for entry in bad:
            print("FAILED", *entry)
        return 1
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
