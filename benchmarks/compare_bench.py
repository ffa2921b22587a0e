#!/usr/bin/env python
"""Gate a freshly emitted ``BENCH_*.json`` against committed history.

Usage::

    python benchmarks/compare_bench.py BENCH_engines.json [history_dir]
    python benchmarks/compare_bench.py BENCH_serving.json [history_dir]

Each PR that moves performance commits a dated record under
``benchmarks/history/``; this script compares the fresh artifact
against the newest record *of the same kind* (``<date>-<label>-
engines.json`` vs ``...-serving.json``) and exits nonzero when a
tracked metric regresses beyond the noise band, so a perf regression
fails CI instead of silently eroding the story.

On top of the newest-snapshot gate, a **trend view** fits a
least-squares slope to each tracked metric over the last
``TREND_WINDOW`` history snapshots plus the fresh run: a sequence of
individually-within-noise drifts that compounds into a sustained
slide (adverse slope beyond ``TREND_SLOPE_LIMIT`` per snapshot *and*
the fresh value adverse vs the window's start) also fails the gate —
the one-baseline comparison cannot see it by construction.  A record
that carries a ``"rebaseline"`` reason (``record_history.py
--rebaseline``) starts the trend afresh: the window never reaches past
the newest such record, because a benchmark whose measurement was
deliberately changed cannot slide against figures of the old one.

For *wall clock* only ratio metrics are compared — speedups,
auto-vs-best-fixed, the serving layer's batching throughput gain —
never absolute milliseconds or req/s: ratios of measurements taken on
the same box in the same run are stable across machines whose absolute
speeds differ.  Absolute ``synaptic_ops`` counts ARE gated, though:
op billing is deterministic (same model, same seeds), so a count that
moves means either the billing accounting or the benchmark scenario
changed — both of which must be deliberate and re-snapshotted, never
silent.  The same applies to the record's shape: when a perf PR grows
``BENCH_engines.json`` (new sections, new scenarios) without
committing a fresh dated record under ``benchmarks/history/``, the
gate fails with a reminder to run ``record_history.py`` — history that
no longer matches what the benchmark emits gates nothing.  Pure stdlib
on purpose: it runs before/without the test environment.
"""

import json
import re
import sys
from pathlib import Path

# Shared-CI-box timing jitter: a tracked ratio may wobble by this
# factor run to run without any code change; beyond it is a regression.
NOISE_BAND = 1.30

# Hard floors/ceilings that hold regardless of what history says —
# the acceptance criteria the benchmarks themselves assert.
MIN_BATCHED_SPEEDUP = 3.0
MIN_DVS_EVENT_SPEEDUP = 1.0
MAX_AUTO_RATIO = 1.1
# Coalescing must clearly beat serial dispatch for the batching layer
# to justify existing; measured ~4.3x at the batcher on a 2-core box,
# so 1.5 is a conservative floor well outside timing noise.
MIN_BATCHING_GAIN = 1.5
# The N-replica process pool must at least double single-worker
# throughput — but only on runners with enough cores for process
# parallelism to exist (the record's own gate_eligible flag).
MIN_POOL_SCALING_GAIN = 2.0

# Trend gate: how many committed snapshots (newest-first) the slope is
# fitted over, and the adverse normalized slope (fraction of the
# window mean, per snapshot) beyond which a sustained drift fails.
TREND_WINDOW = 5
TREND_SLOPE_LIMIT = 0.08
TREND_MIN_POINTS = 3

# Absolute synaptic_ops drift allowed vs history.  Billing is
# deterministic, but summation-order differences between BLAS builds
# can flip a membrane sitting within an ulp of threshold and ripple a
# handful of spikes downstream.
OPS_TOLERANCE = 0.02

SNAPSHOT_REMINDER = (
    "if this change is intentional, rerun the benchmark with "
    "`REPRO_BENCH_DIR=.`, snapshot its record with `python "
    "benchmarks/record_history.py <label> BENCH_<kind>.json` and commit "
    "the dated file under benchmarks/history/ in the same PR"
)


def _engines_metrics(record):
    """The tracked (name, value, higher_is_better) triples."""
    metrics = [
        ("batched_speedup_vs_dense", record["batched_speedup_vs_dense"], True),
        ("auto_vs_best_fixed", record["auto_vs_best_fixed"], False),
        (
            "dvs.event_batched_speedup_vs_batched",
            record["dvs"]["event_batched_speedup_vs_batched"],
            True,
        ),
        ("dvs.auto_vs_best_fixed", record["dvs"]["auto_vs_best_fixed"], False),
    ]
    return metrics


def _engines_floors(record):
    """(name, value, bound, ok) rows for the history-free hard bounds."""
    rows = []
    for name, value, higher in _engines_metrics(record):
        if name == "batched_speedup_vs_dense":
            rows.append((name, value, MIN_BATCHED_SPEEDUP, value >= MIN_BATCHED_SPEEDUP))
        elif name == "dvs.event_batched_speedup_vs_batched":
            rows.append((name, value, MIN_DVS_EVENT_SPEEDUP, value > MIN_DVS_EVENT_SPEEDUP))
        else:
            rows.append((name, value, MAX_AUTO_RATIO, value <= MAX_AUTO_RATIO))
    return rows


def _engines_ops(record):
    """Absolute synaptic-op counts for the *fixed* engines.

    Fixed backends bill deterministically (same model, same seeds), so
    these are gated near-exactly.  ``auto`` is skipped: it is the
    event-batched engine under another name, gated through that row.
    """
    rows = []
    for name, entry in sorted(record["engines"].items()):
        if name == "auto":
            continue
        rows.append((f"engines.{name}.synaptic_ops", int(entry["synaptic_ops"])))
    for name, entry in sorted(record["dvs"]["engines"].items()):
        if name == "auto":
            continue
        rows.append(
            (f"dvs.engines.{name}.synaptic_ops", int(entry["synaptic_ops"]))
        )
    return rows


def _serving_ops(record):
    return []  # the serving record carries no op counts


def _serving_metrics(record):
    gain = record["throughput"]["batching_throughput_gain"]
    metrics = [("throughput.batching_throughput_gain", gain, True)]
    pool = record.get("pool")
    if pool is not None:  # records predating the process pool lack it
        metrics.append(
            ("pool.pool_scaling_gain", pool["pool_scaling_gain"], True)
        )
    return metrics


def _serving_floors(record):
    gain = record["throughput"]["batching_throughput_gain"]
    rows = [
        (
            "throughput.batching_throughput_gain",
            gain,
            MIN_BATCHING_GAIN,
            gain >= MIN_BATCHING_GAIN,
        )
    ]
    pool = record.get("pool")
    if pool is not None and pool.get("gate_eligible"):
        # The 2x floor only means something with >=4 cores; smaller
        # runners record the gain (and the trend view tracks it) but
        # cannot be held to a parallel-speedup bound.
        rows.append(
            (
                "pool.pool_scaling_gain",
                pool["pool_scaling_gain"],
                MIN_POOL_SCALING_GAIN,
                pool["pool_scaling_gain"] >= MIN_POOL_SCALING_GAIN,
            )
        )
    return rows


#: record["benchmark"] -> (metrics fn, floors fn, ops fn, history suffix)
KINDS = {
    "engines_wall_clock": (_engines_metrics, _engines_floors, _engines_ops, "engines"),
    "serving_load": (_serving_metrics, _serving_floors, _serving_ops, "serving"),
}


def _natural_key(path):
    """Sort key treating digit runs numerically, so same-day labels
    order ``pr9 < pr10`` instead of the lexical ``pr10 < pr8``."""
    return tuple(
        (1, int(part)) if part.isdigit() else (0, part)
        for part in re.split(r"(\d+)", path.name)
    )


def history_records(history_dir, suffix):
    """Same-kind history records, oldest first (natural order)."""
    return sorted(history_dir.glob(f"*-{suffix}.json"), key=_natural_key)


def latest_history(history_dir, suffix):
    records = history_records(history_dir, suffix)
    return records[-1] if records else None


def load_history_window(history_dir, suffix, window=TREND_WINDOW):
    """The last ``window`` same-kind history records, oldest first,
    none older than the newest record marked ``rebaseline``."""
    loaded = []
    for path in history_records(history_dir, suffix):
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            print(f"  (skipping unreadable history record {path.name})")
            continue
        if record.get("rebaseline"):
            print(f"  (trend restarts at {path.name}: {record['rebaseline']})")
            loaded = []
        loaded.append((path.name, record))
    return loaded[-window:]


def _slope(values):
    """Least-squares slope of ``values`` against their index."""
    n = len(values)
    mean_x = (n - 1) / 2.0
    mean_y = sum(values) / n
    covariance = sum(
        (i - mean_x) * (v - mean_y) for i, v in enumerate(values)
    )
    variance = sum((i - mean_x) ** 2 for i in range(n))
    return covariance / variance


def trend_check(current, history, metrics_fn):
    """Failure strings for metrics sliding adversely across snapshots.

    ``history`` is the (name, record) window oldest-first; the fresh
    record is appended as the final point.  A metric needs at least
    TREND_MIN_POINTS points (old records may predate it) and fails
    only on a *sustained* adverse drift: normalized slope beyond
    TREND_SLOPE_LIMIT per snapshot AND the fresh value adverse vs the
    window's first — a single noisy dip cannot trip it, and neither
    can a slide that has already recovered.
    """
    failures = []
    series = {}
    for _, record in history:
        try:
            for name, value, _higher in metrics_fn(record):
                series.setdefault(name, []).append(value)
        except (KeyError, TypeError):
            continue  # a record shape from before this metric existed
    rows = []
    for name, value, higher in metrics_fn(current):
        points = series.get(name, []) + [value]
        if len(points) < TREND_MIN_POINTS:
            rows.append((name, points, None, "n/a (too few points)"))
            continue
        mean = sum(points) / len(points)
        if mean == 0:
            continue
        normalized_slope = _slope(points) / abs(mean)
        adverse_slope = -normalized_slope if higher else normalized_slope
        endpoint_adverse = (
            points[-1] < points[0] if higher else points[-1] > points[0]
        )
        sliding = adverse_slope > TREND_SLOPE_LIMIT and endpoint_adverse
        status = "REGRESSING" if sliding else "ok"
        rows.append((name, points, normalized_slope, status))
        if sliding:
            failures.append(
                f"{name} is sliding {abs(normalized_slope):.1%}/snapshot "
                f"across the last {len(points)} runs "
                f"({points[0]:.3f} -> {points[-1]:.3f}); individually "
                f"within noise, collectively a regression"
            )
    for name, points, slope, status in rows:
        arrow = " -> ".join(f"{p:.3f}" for p in points)
        slope_text = "" if slope is None else f" (slope {slope:+.1%}/snapshot)"
        print(f"  {name}: {arrow}{slope_text} {status}")
    return failures


def compare(current, baseline, metrics_fn):
    """Return a list of failure strings comparing current vs baseline."""
    failures = []
    base = {name: value for name, value, _ in metrics_fn(baseline)}
    for name, value, higher in metrics_fn(current):
        reference = base.get(name)
        if reference is None:
            continue
        if higher:
            bound = reference / NOISE_BAND
            ok = value >= bound
            direction = ">="
        else:
            bound = reference * NOISE_BAND
            ok = value <= bound
            direction = "<="
        status = "ok" if ok else "REGRESSION"
        print(
            f"  {name}: {value:.3f} (history {reference:.3f}, "
            f"need {direction} {bound:.3f}) {status}"
        )
        if not ok:
            failures.append(
                f"{name} regressed: {value:.3f} vs history {reference:.3f} "
                f"(noise band {NOISE_BAND}x)"
            )
    return failures


def compare_ops(current, baseline, ops_fn):
    """Gate absolute op counts: deterministic, so near-exact equality."""
    failures = []
    base = dict(ops_fn(baseline))
    for name, value in ops_fn(current):
        reference = base.get(name)
        if reference is None:
            continue
        if reference == 0:
            ok = value == 0
        else:
            ok = abs(value - reference) <= OPS_TOLERANCE * reference
        status = "ok" if ok else "DRIFT"
        print(
            f"  {name}: {value} (history {reference}, "
            f"tolerance {OPS_TOLERANCE:.0%}) {status}"
        )
        if not ok:
            failures.append(
                f"{name} moved: {value} vs history {reference} (beyond "
                f"{OPS_TOLERANCE:.0%}) — billing or scenario changed; "
                f"{SNAPSHOT_REMINDER}"
            )
    return failures


def stale_history(current, baseline, metrics_fn, ops_fn):
    """A failure string when the fresh record tracks things history lacks.

    A perf PR that grows the benchmark (new sections, new scenarios,
    new engines) makes the committed history stale: the
    new metrics would silently escape the regression gate on every
    future run.  Detect it from the tracked names themselves — anything
    the fresh record gates that the newest history record does not know
    about means ``record_history.py`` was not re-run.
    """
    current_names = {name for name, *_ in metrics_fn(current)}
    current_names.update(name for name, _ in ops_fn(current))
    base_names = {name for name, *_ in metrics_fn(baseline)}
    base_names.update(name for name, _ in ops_fn(baseline))
    new = sorted(current_names - base_names)
    if new:
        return (
            f"history record predates tracked metrics {new}; "
            f"{SNAPSHOT_REMINDER}"
        )
    return None


def main(argv):
    if len(argv) not in (2, 3):
        print(
            "usage: compare_bench.py <BENCH_*.json> [history_dir]",
            file=sys.stderr,
        )
        return 2
    current_path = Path(argv[1])
    history_dir = (
        Path(argv[2])
        if len(argv) == 3
        else Path(__file__).resolve().parent / "history"
    )
    if not current_path.exists():
        print(f"compare failed: {current_path} does not exist", file=sys.stderr)
        return 1
    current = json.loads(current_path.read_text())
    kind = current.get("benchmark")
    if kind not in KINDS:
        print(
            f"compare failed: unknown benchmark kind {kind!r} in "
            f"{current_path}",
            file=sys.stderr,
        )
        return 1
    metrics_fn, floors_fn, ops_fn, suffix = KINDS[kind]

    failures = []
    print(f"hard bounds on {current_path}:")
    for name, value, bound, ok in floors_fn(current):
        print(f"  {name}: {value:.3f} (bound {bound}) {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{name}={value:.3f} violates hard bound {bound}")

    baseline_path = latest_history(history_dir, suffix)
    if baseline_path is None:
        print(f"no {suffix} history in {history_dir}; hard bounds only")
    else:
        baseline = json.loads(baseline_path.read_text())
        print(f"vs {baseline_path.name}:")
        stale = stale_history(current, baseline, metrics_fn, ops_fn)
        if stale is not None:
            print(f"  STALE HISTORY: {stale}")
            failures.append(stale)
        failures.extend(compare(current, baseline, metrics_fn))
        failures.extend(compare_ops(current, baseline, ops_fn))
        window = load_history_window(history_dir, suffix)
        print(f"trend over last {len(window)} snapshot(s) + this run:")
        failures.extend(trend_check(current, window, metrics_fn))

    if failures:
        for failure in failures:
            print(f"perf gate: {failure}", file=sys.stderr)
        return 1
    print("perf gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
