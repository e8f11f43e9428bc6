"""Set-up probe: time importing padicdyn and building one pass's inputs.

Run by run.py in a fresh process, several times per run:

    python3 perfbench/setup_probe.py <workload> <seed> <full|quick>

Prints the elapsed seconds, interpreter start-up excluded, and the
machine-speed scale factor measured right after (see calibrate.py).
"""

from time import perf_counter

started = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import padicdyn  # noqa: E402,F401
import workloads  # noqa: E402

for op in workloads.make_ops(sys.argv[1], int(sys.argv[2]), sys.argv[3]):
    op.build()
elapsed = perf_counter() - started

from calibrate import SpeedProbe  # noqa: E402

probe = SpeedProbe()
for _ in range(5):
    probe.sample()
print(elapsed, probe.scale(probe.times[0], probe.times[-1]))
