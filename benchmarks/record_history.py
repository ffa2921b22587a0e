"""Snapshot a ``BENCH_*.json`` artifact into ``benchmarks/history/``.

Usage::

    REPRO_BENCH_DIR=. PYTHONPATH=src python -m pytest -q benchmarks/test_serving.py
    python benchmarks/record_history.py [label] [bench_path] [--rebaseline REASON]

The benchmarks write their ``BENCH_*.json`` into ``$REPRO_BENCH_DIR``
(a plain test run keeps them in a temp directory); ``bench_path``
defaults to ``BENCH_engines.json`` there (the repo root when the
variable is unset).  ``--rebaseline`` stamps the reason into the
record, and the trend view of ``compare_bench.py`` then starts at it:
use it when a change deliberately alters what a benchmark measures.

History records are the *committed* baselines the perf trend gate
(``compare_bench.py``) measures new runs against, so taking one is a
deliberate step — typically once per PR after the benchmark has run —
never a side effect of the benchmark itself (the gate picks the
lexically newest record; auto-snapshotting every run would make it
compare each record against itself).

The snapshot is validated against the schema first and written
atomically and durably (temp file + fsync + rename), named
``<date>-<label>-<kind>.json`` — ``engines`` for the wall-clock
artifact, ``serving`` for the serving-load one — so records of each
kind sort chronologically and the gate can glob per kind.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from pathlib import Path

from bench_schema import assert_bench_schema

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.utils.io import atomic_write_json  # noqa: E402

#: record["benchmark"] -> history filename suffix
KIND_SUFFIXES = {"engines_wall_clock": "engines", "serving_load": "serving"}


def record(
    label: str = "manual",
    bench_path: Path | None = None,
    rebaseline: str | None = None,
    history: Path | None = None,
) -> Path:
    root = Path(__file__).resolve().parent.parent
    if bench_path is None:
        bench_dir = os.environ.get("REPRO_BENCH_DIR")
        bench_path = (Path(bench_dir) if bench_dir else root) / "BENCH_engines.json"
    payload = json.loads(bench_path.read_text())
    assert_bench_schema(payload)
    if rebaseline:
        payload["rebaseline"] = rebaseline
    suffix = KIND_SUFFIXES[payload["benchmark"]]
    history = history or Path(__file__).resolve().parent / "history"
    history.mkdir(parents=True, exist_ok=True)
    stamp = datetime.date.today().isoformat()
    out = history / f"{stamp}-{label}-{suffix}.json"
    atomic_write_json(out, payload, fsync=True)
    return out


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="record_history.py")
    parser.add_argument("label", nargs="?", default="manual")
    parser.add_argument("bench_path", nargs="?", type=Path, default=None)
    parser.add_argument(
        "--rebaseline",
        metavar="REASON",
        help="why this record restarts the trend (the measurement changed)",
    )
    args = parser.parse_args(argv)
    try:
        out = record(args.label, args.bench_path, args.rebaseline)
    except FileNotFoundError as error:
        print(f"no benchmark record to snapshot: {error}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, AssertionError) as error:
        print(f"refusing to snapshot an invalid record: {error}", file=sys.stderr)
        return 1
    print(f"recorded {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
