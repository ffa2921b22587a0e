"""The perf gate's history handling: trend restarts and snapshots.

``benchmarks/compare_bench.py`` fits a trend over the newest history
records; a record marked ``rebaseline`` (``record_history.py
--rebaseline``) must cut that window, or a deliberate change to what a
benchmark measures reads as a slide against figures of the old one.
"""

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import compare_bench  # noqa: E402
import record_history  # noqa: E402


def serving_record(gain, rebaseline=None):
    record = {
        "benchmark": "serving_load",
        "throughput": {"batching_throughput_gain": gain},
    }
    if rebaseline:
        record["rebaseline"] = rebaseline
    return record


def write_history(history, records):
    history.mkdir()
    for label, record in records:
        (history / f"2026-01-01-{label}-serving.json").write_text(
            json.dumps(record)
        )


def gate(tmp_path, history, fresh):
    current = tmp_path / "BENCH_serving.json"
    current.write_text(json.dumps(fresh))
    return compare_bench.main(["compare_bench.py", str(current), str(history)])


OLD_MEASUREMENT = [
    ("pr1", serving_record(5.1)),
    ("pr2", serving_record(5.6)),
]


def test_unmarked_step_down_reads_as_a_slide(tmp_path):
    history = tmp_path / "history"
    write_history(history, OLD_MEASUREMENT + [("pr3", serving_record(4.3))])
    assert gate(tmp_path, history, serving_record(4.2)) == 1


def test_rebaseline_record_restarts_the_trend(tmp_path, capsys):
    history = tmp_path / "history"
    write_history(
        history,
        OLD_MEASUREMENT
        + [("pr3", serving_record(4.3, rebaseline="gain measured at the batcher"))],
    )
    window = compare_bench.load_history_window(history, "serving")
    assert [name for name, _ in window] == ["2026-01-01-pr3-serving.json"]
    assert gate(tmp_path, history, serving_record(4.2)) == 0
    assert "trend restarts at 2026-01-01-pr3-serving.json" in capsys.readouterr().out


def test_rebaseline_keeps_the_point_to_point_compare(tmp_path):
    history = tmp_path / "history"
    write_history(
        history,
        OLD_MEASUREMENT + [("pr3", serving_record(4.3, rebaseline="new measure"))],
    )
    # 4.3 / 1.3 = 3.31: a batching gain below it still fails.
    assert gate(tmp_path, history, serving_record(3.2)) == 1


def test_trend_resumes_after_the_rebaseline(tmp_path):
    history = tmp_path / "history"
    write_history(
        history,
        OLD_MEASUREMENT
        + [
            ("pr3", serving_record(4.3, rebaseline="new measure")),
            ("pr4", serving_record(3.7)),
            ("pr5", serving_record(3.2)),
        ],
    )
    assert len(compare_bench.load_history_window(history, "serving")) == 3
    # Each step is inside the 1.3x band; together they slide.
    assert gate(tmp_path, history, serving_record(2.8)) == 1


def test_records_that_carry_the_retired_pool_section_still_load(tmp_path):
    history = tmp_path / "history"
    old = serving_record(4.3)
    old["pool"] = {"pool_scaling_gain": 0.63, "gate_eligible": False}
    write_history(history, [("pr1", old), ("pr2", old)])
    assert gate(tmp_path, history, serving_record(4.2)) == 0


def _valid_serving_record():
    root = BENCHMARKS / "history"
    newest = compare_bench.latest_history(root, "serving")
    payload = json.loads(newest.read_text())
    payload.pop("rebaseline", None)
    return payload


def test_record_history_stamps_the_rebaseline_reason(tmp_path):
    bench = tmp_path / "BENCH_serving.json"
    bench.write_text(json.dumps(_valid_serving_record()))
    out = record_history.record(
        "t1", bench, rebaseline="gain measured at the batcher", history=tmp_path / "h"
    )
    assert out.name.endswith("-t1-serving.json")
    assert json.loads(out.read_text())["rebaseline"] == "gain measured at the batcher"
    plain = record_history.record("t2", bench, history=tmp_path / "h")
    assert "rebaseline" not in json.loads(plain.read_text())


def test_record_history_reads_the_bench_dir_by_default(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    with pytest.raises(FileNotFoundError) as missing:
        record_history.record("t", history=tmp_path / "h")
    assert str(tmp_path / "BENCH_engines.json") in str(missing.value)
