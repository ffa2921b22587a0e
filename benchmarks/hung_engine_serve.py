#!/usr/bin/env python
"""``python -m repro.cli serve`` on an engine that hangs.

Usage::

    PYTHONPATH=src python benchmarks/hung_engine_serve.py --port 8080 \\
        --hang-timeout 0.3 [other serve flags]

Every engine run sleeps :data:`HANG_SECONDS`, far past any run timeout,
so each batch times out and the worker abandons its wedged slot thread
for a fresh one.  A wedged engine must not keep the process alive:
after SIGTERM the server drains and the process exits 0 at once, with
the abandoned threads still asleep.  ``tests/test_serve.py`` and
``benchmarks/serving_smoke.py`` start the server through this script.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import serve_main  # noqa: E402
from repro.snn.engines.base import SimulationEngine  # noqa: E402

#: How long every engine run sleeps.
HANG_SECONDS = 120.0


def _hang(self, x, timesteps, per_step=False):
    time.sleep(HANG_SECONDS)
    raise RuntimeError(f"engine hung for {HANG_SECONDS:.0f} s")


if __name__ == "__main__":
    SimulationEngine.run = _hang
    sys.exit(serve_main(sys.argv[1:]))
