"""The machine-readable contracts of the ``BENCH_*.json`` artifacts.

CI uploads the artifacts and downstream tooling (plus successive PRs
tracking the perf trajectory) parse them, so each shape is asserted in
two places from this single definition: inside the benchmark that
writes the record, and by ``check_bench_schema.py`` as a standalone CI
step over the emitted file — schema drift fails the job instead of
being discovered broken later.  ``compare_bench.py`` reads the same
record shapes when gating the current run against ``history/``.

Two artifact kinds exist, distinguished by ``record["benchmark"]``:
``engines_wall_clock`` (``BENCH_engines.json``, the engine-speedup
story) and ``serving_load`` (``BENCH_serving.json``, the serving
layer's throughput, tail latency and failure semantics).
:func:`assert_bench_schema` dispatches on the kind.
"""

TOP_LEVEL_KEYS = (
    "benchmark",
    "scenario",
    "engines",
    "batched_speedup_vs_dense",
    "auto_vs_best_fixed",
    "batch16_wall_clock_ms",
    "dvs",
    "python",
    "machine",
)

SCENARIO_KEYS = ("model", "width", "timesteps", "batch", "input")

ENGINE_NAMES = {"dense", "batched", "event-batched", "auto"}

DVS_SCENARIO_KEYS = ("model", "timesteps", "batch", "input", "input_density")

DVS_ENGINE_NAMES = {"batched", "event-batched", "auto"}

DVS_KEYS = (
    "scenario",
    "engines",
    "event_batched_speedup_vs_batched",
    "auto_vs_best_fixed",
    "logits_bitwise_vs_batched",
)

PROFILE_ROW_KEYS = (
    "name",
    "kind",
    "backend",
    "source",
    "wall_clock_ms",
    "density",
    "synaptic_ops",
)

#: A synapse row's kernel, or a neuron row's step (``sites``/``dense`` on
#: ``event-batched``, ``-`` on engines without a per-layer choice).
PROFILE_BACKENDS = ("gemm", "event-batched", "sites", "dense", "-")

#: The gate of the density rule a profile row names ("" on neuron rows
#: and fixed-backend engines).
PROFILE_SOURCES = ("", "constant", "density", "pregate", "rows", "linear")


def assert_engines_schema(record: dict) -> None:
    """Raise AssertionError where ``record`` violates the contract."""
    for key in TOP_LEVEL_KEYS:
        assert key in record, f"missing top-level key {key!r}"
    assert record["benchmark"] == "engines_wall_clock"
    scenario = record["scenario"]
    for key in SCENARIO_KEYS:
        assert key in scenario, f"missing scenario key {key!r}"
    engines = record["engines"]
    assert set(engines) >= ENGINE_NAMES
    for name, entry in engines.items():
        for key in ("wall_clock_ms", "synaptic_ops", "overall_spike_rate"):
            assert isinstance(entry[key], (int, float)), f"{name}.{key}"
        assert isinstance(entry["prediction"], int), f"{name}.prediction"
        assert isinstance(
            entry["logits_max_abs_diff_vs_dense"], (int, float)
        ), f"{name}.logits_max_abs_diff_vs_dense"
    profile = engines["auto"]["profile"]
    assert isinstance(profile, list) and profile, "auto profile missing"
    for row in profile:
        for key in PROFILE_ROW_KEYS:
            assert key in row, f"profile row missing {key!r}"
        assert row["backend"] in PROFILE_BACKENDS, row["backend"]
        assert row["source"] in PROFILE_SOURCES, row["source"]
        assert 0.0 <= row["density"] <= 1.0
    assert isinstance(record["auto_vs_best_fixed"], (int, float))
    dvs = record["dvs"]
    for key in DVS_KEYS:
        assert key in dvs, f"missing dvs key {key!r}"
    for key in DVS_SCENARIO_KEYS:
        assert key in dvs["scenario"], f"missing dvs scenario key {key!r}"
    assert 0.0 < dvs["scenario"]["input_density"] < 0.05, (
        "the DVS scenario must sit in the <5% density regime"
    )
    assert set(dvs["engines"]) >= DVS_ENGINE_NAMES
    for name, entry in dvs["engines"].items():
        for key in ("wall_clock_ms", "synaptic_ops"):
            assert isinstance(entry[key], (int, float)), f"dvs {name}.{key}"
    assert isinstance(dvs["event_batched_speedup_vs_batched"], (int, float))
    assert isinstance(dvs["auto_vs_best_fixed"], (int, float))
    assert dvs["logits_bitwise_vs_batched"] is True


# ----------------------------------------------------------------------
# BENCH_serving.json: the serving-load contract
# ----------------------------------------------------------------------
SERVING_TOP_LEVEL_KEYS = (
    "benchmark",
    "scenario",
    "throughput",
    "latency_ms",
    "robustness",
    "http",
    "counters",
    "python",
    "machine",
)

SERVING_SCENARIO_KEYS = (
    "model",
    "input_shape",
    "timesteps",
    "engine",
    "max_batch",
    "serial_requests",
    "concurrency",
    "concurrent_requests",
)

SERVING_THROUGHPUT_KEYS = (
    "sequential_rps",
    "concurrent_rps",
    "batching_throughput_gain",
)

SERVING_OVERLOAD_KEYS = (
    "attempted",
    "ok",
    "shed",
    "deadline_rejected",
    "unhandled",
)

SERVING_BREAKER_KEYS = ("trips", "recoveries", "worker_restarts", "recovered")


def assert_serving_schema(record: dict) -> None:
    """Raise AssertionError where ``record`` violates the contract."""
    for key in SERVING_TOP_LEVEL_KEYS:
        assert key in record, f"missing top-level key {key!r}"
    assert record["benchmark"] == "serving_load"
    scenario = record["scenario"]
    for key in SERVING_SCENARIO_KEYS:
        assert key in scenario, f"missing scenario key {key!r}"
    throughput = record["throughput"]
    for key in SERVING_THROUGHPUT_KEYS:
        value = throughput.get(key)
        assert isinstance(value, (int, float)) and value > 0, f"throughput.{key}"
    latency = record["latency_ms"]
    for key in ("p50", "p99"):
        assert isinstance(latency.get(key), (int, float)), f"latency_ms.{key}"
    assert latency["p99"] >= latency["p50"] >= 0.0
    robustness = record["robustness"]
    overload = robustness["overload"]
    for key in SERVING_OVERLOAD_KEYS:
        assert isinstance(overload.get(key), int), f"overload.{key}"
    assert overload["unhandled"] == 0, (
        "overload produced answers outside {200, 429, 504}"
    )
    assert overload["ok"] >= 1
    assert overload["shed"] + overload["deadline_rejected"] >= 1, (
        "a 2x overload run must shed or deadline-reject some load"
    )
    breaker = robustness["breaker"]
    for key in SERVING_BREAKER_KEYS:
        assert key in breaker, f"breaker.{key}"
    assert breaker["trips"] >= 1, "the hung-worker phase must trip the breaker"
    assert breaker["recoveries"] >= 1, "the breaker must recover via a probe"
    assert breaker["worker_restarts"] >= 1, "the wedged slot must be rebuilt"
    assert breaker["recovered"] is True
    assert robustness["bit_identical_serial_responses"] is True
    assert robustness["degraded_prefix_consistent"] is True
    drain = robustness["drain"]
    assert drain["flushed"] is True and drain["inflight_completed"] is True
    rps = record["http"].get("single_worker_rps")
    assert isinstance(rps, (int, float)) and rps > 0, "http.single_worker_rps"
    assert isinstance(record["counters"], dict)


# ----------------------------------------------------------------------
# Kind dispatch
# ----------------------------------------------------------------------
BENCH_KINDS = {
    "engines_wall_clock": assert_engines_schema,
    "serving_load": assert_serving_schema,
}


def assert_bench_schema(record: dict) -> None:
    """Validate any ``BENCH_*.json`` record by its ``benchmark`` kind."""
    kind = record.get("benchmark")
    assert kind in BENCH_KINDS, (
        f"unknown benchmark kind {kind!r}; expected one of {sorted(BENCH_KINDS)}"
    )
    BENCH_KINDS[kind](record)
