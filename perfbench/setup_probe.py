"""Time one fresh-process set-up: import gridxpand and load the inputs.

Run by ``run.py`` as ``python3 setup_probe.py <workload> <seed>``; prints
the seconds from before the import to the loaded inputs, scaled by the
speed readings taken just before and just after (see ``speed.py``).
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import speed  # noqa: E402

before = speed.kernel_seconds()
t0 = time.perf_counter()

import gridxpand  # noqa: E402
from workloads import load_inputs  # noqa: E402

load_inputs(gridxpand, HERE.parent, sys.argv[1], int(sys.argv[2]))
seconds = time.perf_counter() - t0
after = speed.kernel_seconds()
print(repr(seconds * speed.scale((before + after) / 2.0)))
