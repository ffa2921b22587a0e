"""The repository benchmark: spiking inference, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload frames --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

``frames``
    A converted VGG-11 (width 0.125) runs
    ``SpikingNetwork(engine="auto").forward_per_step`` at T=8 over 512
    synthetic CIFAR frames in batches of 256: one caller, closed loop.
    GEMM convolutions and the IF neuron step do the work.
``dvs``
    The DVS front-end CNN runs ``forward`` on batch-8 COO event streams
    (64x64x2, about 0.3% dense, T=8, ``engine="auto"``): one caller,
    closed loop.  The COO kernels and the planner's density crossover
    do the work.
``serve``
    ``python -m repro.cli serve`` with its defaults runs as a subprocess;
    one client process sends open-loop Poisson arrivals over two
    keep-alive connections.  HTTP/JSON, admission, the gather window and
    the worker thread hop dominate.

``--seed`` makes the inputs (frames, event streams, request samples and
arrival times); the program only sees the generated inputs.  Every
output is checked bit for bit against a reference and a mismatch counts
as a failed operation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: the timed window is split in an untraced and
a traced half, spans are recorded around calls into the program's public
functions and written to ``perfbench/out/`` when the run ends, and
``trace.overhead_pct`` is the traced half's median latency over the
untraced half's.  Layers a workload bypasses report 0.

``error_rate`` (failed / attempted) is printed with the other metrics
and carried by the result line's ``attempted`` and ``failed``; it is not
a result metric because it is 0 on a correct program.
``latency_p99_ms`` is printed with its sample count but is not a result
metric either: its run-to-run spread is wider than any usable bound.

Out of scope: ``repro.hw`` (the SIA accelerator model) and training
(``repro.tensor`` autograd, ``repro.optim``, ``repro.pipeline``), which
no open performance item targets; and ``repro.serve.pool``/``shm``,
since ``--serve-workers`` is off by default.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric with its unit, and a detail record (environment, plan signatures,
planner counters, sample counts).
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

from common import ROOT, environment, log  # noqa: E402

WORKLOADS = ("frames", "dvs", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as spec:
        return json.load(spec)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A SIGTERM unwinds like an exception, so server subprocesses drain.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no repro package under {ROOT / 'src'}; run from a repository checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    expected = load_spec()["per_layer" if args.trace else "end_to_end"]

    if args.workload == "serve":
        import serve_workload

        outcome = serve_workload.run(args.seed, args.seconds, bool(args.trace),
                                     PROCESS_START)
    else:
        import engine_workloads

        outcome = engine_workloads.run(args.workload, args.seed, args.seconds,
                                       bool(args.trace), PROCESS_START)

    missing = [m["name"] for m in expected if m["name"] not in outcome.metrics]
    if missing:
        log(f"workload {args.workload} did not measure {missing}")
        return 3
    metrics = {
        m["name"]: {"value": float(outcome.metrics[m["name"]]), "unit": m["unit"]}
        for m in expected
    }
    error_rate = outcome.failed / max(outcome.attempted, 1)
    for name, metric in metrics.items():
        print(f"{name:<28} {metric['value']:>14.4f} {metric['unit']}")
    latency = outcome.detail["latency"]
    print(f"{'latency_p99_ms':<28} {latency['p99_ms']:>14.4f} ms (no bound; "
          f"{latency['beyond_p99']} of {latency['samples']} samples beyond it)")
    print(f"{'error_rate':<28} {error_rate:>14.4f} failed/attempted "
          f"({outcome.failed}/{outcome.attempted})")
    load = outcome.detail.pop("load_generator")
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(load), **outcome.detail}
    print("detail " + json.dumps(detail, default=str))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
