"""Run ``repro.cli serve`` with spans around the serving layers.

Usage::

    python perfbench/serve_launcher.py SPANS.json [serve arguments...]

Wraps the public functions a request passes through, then calls
``repro.cli.serve_main`` unchanged.  The spans are written to
``SPANS.json`` once the server has drained on SIGTERM, so the client
measuring the server stays in its own process.

Spans, keyed by the ``rid`` field the benchmark client adds to each
request body (the server ignores unknown fields), or by a batch id:

``serve.decode``
    ``decode_infer_request`` (key: rid).
``batcher.wait``
    From ``MicroBatcher.submit`` to the ``EngineWorker.submit`` that
    carries the request (key: rid, ``batch``: batch id).  The batcher
    dispatches its queue in order, so a batch of n rows carries the n
    oldest requests not yet dispatched.
``worker.run``
    From ``EngineWorker.submit`` until its future completes (key: batch).
``engine.run``
    ``SimulationEngine.run`` inside the worker, child of ``worker.run``,
    with the run's profile rows summed by layer kind.
"""

from __future__ import annotations

import collections
import functools
import itertools
import re
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tracing import Tracer, instrument_engine_runs  # noqa: E402

_RID = re.compile(rb'"rid":\s*(-?\d+)')


def instrument(tracer: Tracer) -> None:
    from repro.serve import app
    from repro.serve.batcher import MicroBatcher
    from repro.snn.engines.service import EngineWorker

    rid_of_array = {}       # id(request array) -> rid, from decode to submit
    queued = collections.deque()  # (rid, submitted at), in dispatch order
    batch_ids = itertools.count(1)
    context = {}            # id(stacked batch) -> (batch id, worker span id)

    decode = app.decode_infer_request

    @functools.wraps(decode)
    def traced_decode(body, *args, **kwargs):
        start = time.perf_counter()
        result = decode(body, *args, **kwargs)
        end = time.perf_counter()
        found = _RID.search(body)
        rid = int(found.group(1)) if found else None
        tracer.add("serve.decode", start, end, key=rid)
        rid_of_array[id(result[0])] = rid
        return result

    app.decode_infer_request = traced_decode

    submit = MicroBatcher.submit

    @functools.wraps(submit)
    def traced_submit(self, batch, *args, **kwargs):
        rid = rid_of_array.pop(id(batch), None)
        submitted = time.perf_counter()
        future = submit(self, batch, *args, **kwargs)  # raises when refused
        queued.append((rid, submitted))
        return future

    MicroBatcher.submit = traced_submit

    worker_submit = EngineWorker.submit

    @functools.wraps(worker_submit)
    def traced_worker_submit(self, x, timesteps, per_step=False):
        started = time.perf_counter()
        batch = next(batch_ids)
        rows = int(x.shape[0])
        for _ in range(min(rows, len(queued))):
            rid, submitted = queued.popleft()
            tracer.add("batcher.wait", submitted, started, key=rid, batch=batch)
        span_id = tracer.reserve()
        context[id(x)] = (batch, span_id)
        future = worker_submit(self, x, timesteps, per_step)
        future.add_done_callback(
            lambda _: tracer.add("worker.run", started, time.perf_counter(),
                                 key=batch, span_id=span_id, rows=rows)
        )
        return future

    EngineWorker.submit = traced_worker_submit

    instrument_engine_runs(
        tracer, context_of=lambda x: context.pop(id(x), (None, None))
    )


def main() -> int:
    spans_path, serve_args = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    instrument(tracer)
    from repro.cli import serve_main

    try:
        return serve_main(serve_args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
