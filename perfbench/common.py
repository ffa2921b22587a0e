"""Shared pieces of the benchmark: the run outcome, statistics, environment."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"

#: Every workload runs the spiking network for this many timesteps.
TIMESTEPS = 8


@dataclass
class Outcome:
    """What one workload run measured.

    ``metrics`` holds the values the final result line reports (the
    end-to-end metrics untraced, the per-layer metrics traced);
    ``detail`` is printed beside them so a surprising value can be
    traced to its run: plan signatures, planner counters, sample counts.
    """

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def p50(values: List[float]) -> float:
    return float(np.percentile(values, 50))


def p99(values: List[float]) -> float:
    return float(np.percentile(values, 99))


def latency_summary(latencies_ms: List[float]) -> Dict[str, float]:
    """Median and p99 latency with the sample count behind them.

    The p99 is recorded but carries no bound: in a 10 s window on a
    2-core VM its run-to-run spread (30-55% of its median) exceeds any
    bound a regression gate could use.
    """
    tail = p99(latencies_ms)
    return {
        "samples": len(latencies_ms),
        "p50_ms": p50(latencies_ms),
        "p99_ms": tail,
        "beyond_p99": int(sum(v > tail for v in latencies_ms)),
    }


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of another live process."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def blas_threads() -> int:
    """OpenBLAS's thread count, read from the library numpy loaded (-1 if unknown)."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return -1


def environment(load_generator: Dict[str, object]) -> Dict[str, object]:
    """The machine and libraries a run measured on, plus its load generator."""
    blas = {}
    config = np.show_config(mode="dicts")
    if isinstance(config, dict):
        blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "load_generator": load_generator,
    }


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
