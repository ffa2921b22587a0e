"""Resumable campaign runner: determinism, atomic records, resume."""

import json
import time

import pytest

from repro.eval.campaign import (
    CAMPAIGN_FORMAT,
    POINT_FORMAT,
    CampaignRunner,
    CampaignSpec,
    point_id,
    point_seed,
)
from repro.eval.supervisor import ShardExecutionError, ShardPolicy, fork_available


def square_fn(params, seed):
    """A deterministic toy point: result depends on params and seed only."""
    return {"value": params["a"] * 100 + params["b"], "seed_lo": seed % 1000}


def spec3x2(seed=7):
    return CampaignSpec(name="toy", grid={"a": [1, 2, 3], "b": [0, 5]}, seed=seed)


class TestSpec:
    def test_points_expand_in_stable_grid_order(self):
        points = spec3x2().points()
        assert len(points) == 6
        assert [p.params for p in points[:3]] == [
            {"a": 1, "b": 0}, {"a": 1, "b": 5}, {"a": 2, "b": 0},
        ]
        # Expansion is deterministic: same spec, same ids, same order.
        assert [p.id for p in points] == [p.id for p in spec3x2().points()]

    def test_point_ids_are_unique_and_filesystem_safe(self):
        points = spec3x2().points()
        ids = [p.id for p in points]
        assert len(set(ids)) == len(ids)
        for pid in ids:
            assert "/" not in pid and "\0" not in pid

    def test_seeds_are_order_independent_and_seed_scoped(self):
        a = {p.id: p.seed for p in spec3x2(seed=7).points()}
        b = {p.id: p.seed for p in spec3x2(seed=7).points()}
        assert a == b
        # Different campaign seed -> every point reseeded.
        c = {p.id: p.seed for p in spec3x2(seed=8).points()}
        assert all(a[k] != c[k] for k in a)
        # A point's seed is a pure function of (campaign seed, id) — a
        # reordered or filtered grid cannot change it.
        pid = point_id({"a": 2, "b": 5})
        assert a[pid] == point_seed(7, pid)

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(name="", grid={"a": [1]})
        with pytest.raises(ValueError):
            CampaignSpec(name="x", grid={})
        with pytest.raises(ValueError):
            CampaignSpec(name="x", grid={"a": []})

    def test_payload_roundtrip(self):
        spec = spec3x2()
        clone = CampaignSpec.from_payload(spec.to_payload())
        assert [p.id for p in clone.points()] == [p.id for p in spec.points()]
        with pytest.raises(ValueError):
            CampaignSpec.from_payload({"format": "other/v1"})


class TestRunner:
    def test_full_run_writes_manifest_and_records(self, tmp_path):
        runner = CampaignRunner(spec3x2(), square_fn, tmp_path / "c")
        result = runner.run()
        assert result.complete
        assert result.executed == 6
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert manifest["format"] == CAMPAIGN_FORMAT
        assert len(manifest["points"]) == 6
        for pid in manifest["points"]:
            record = json.loads((tmp_path / "c" / "points" / f"{pid}.json").read_text())
            assert record["format"] == POINT_FORMAT
            assert record["id"] == pid
            assert record["result"]["value"] == (
                record["params"]["a"] * 100 + record["params"]["b"]
            )
        # results() follows grid order.
        assert [r["value"] for r in result.results()] == [
            100, 105, 200, 205, 300, 305,
        ]

    def test_kill_and_resume_matches_uninterrupted(self, tmp_path):
        # Uninterrupted reference run.
        ref = CampaignRunner(spec3x2(), square_fn, tmp_path / "ref")
        ref.run()

        # "Killed" run: stop after 2 points, then resume to completion.
        killed = CampaignRunner(spec3x2(), square_fn, tmp_path / "killed")
        partial = killed.run(max_points=2)
        assert not partial.complete
        assert partial.executed == 2
        assert len(partial.missing) == 4

        executed_calls = []

        def counting_fn(params, seed):
            executed_calls.append(dict(params))
            return square_fn(params, seed)

        resumed = CampaignRunner(spec3x2(), counting_fn, tmp_path / "killed").run()
        assert resumed.complete
        # Only the missing points re-ran.
        assert len(executed_calls) == 4
        assert resumed.executed == 4

        # Byte-identical records, point for point.
        for pid in [p.id for p in spec3x2().points()]:
            a = (tmp_path / "ref" / "points" / f"{pid}.json").read_bytes()
            b = (tmp_path / "killed" / "points" / f"{pid}.json").read_bytes()
            assert a == b
        ref_manifest = (tmp_path / "ref" / "manifest.json").read_bytes()
        killed_manifest = (tmp_path / "killed" / "manifest.json").read_bytes()
        assert ref_manifest == killed_manifest

    def test_corrupt_and_mismatched_records_rerun(self, tmp_path, caplog):
        out = tmp_path / "c"
        runner = CampaignRunner(spec3x2(), square_fn, out)
        runner.run()
        points = spec3x2().points()
        # Truncate one record (simulating a non-atomic crash) and give
        # another a stale schema tag.
        (out / "points" / f"{points[0].id}.json").write_text('{"trunc')
        bad = json.loads((out / "points" / f"{points[1].id}.json").read_text())
        bad["format"] = "repro-campaign-point/v0"
        (out / "points" / f"{points[1].id}.json").write_text(json.dumps(bad))

        result = CampaignRunner(spec3x2(), square_fn, out).run()
        assert result.complete
        assert result.executed == 2  # exactly the two damaged points
        healed = json.loads((out / "points" / f"{points[0].id}.json").read_text())
        assert healed["format"] == POINT_FORMAT

    def test_manifest_mismatch_refuses_to_mix(self, tmp_path):
        out = tmp_path / "c"
        CampaignRunner(spec3x2(seed=7), square_fn, out).run(max_points=1)
        other = CampaignSpec(name="toy", grid={"a": [1, 2, 3], "b": [0, 5]}, seed=9)
        with pytest.raises(RuntimeError, match="different campaign"):
            CampaignRunner(other, square_fn, out).run()

    def test_point_failures_are_supervised(self, tmp_path):
        attempts = {}

        def flaky(params, seed):
            key = (params["a"], params["b"])
            attempts[key] = attempts.get(key, 0) + 1
            if params["a"] == 2 and attempts[key] == 1:
                raise RuntimeError("transient point failure")
            return square_fn(params, seed)

        result = CampaignRunner(
            spec3x2(), flaky, tmp_path / "c",
            policy=ShardPolicy(retries=1, backoff=0.0),
        ).run()
        assert result.complete
        assert len(result.failures) == 2  # a=2 failed once per b value
        assert all(f.kind == "exception" for f in result.failures)

    def test_records_carry_supervision_trail(self, tmp_path):
        """Retried points surface their failed-attempt count in the
        persisted record; clean points record 0/"" (so clean runs stay
        byte-identical regardless of substrate)."""
        attempts = {}

        def flaky(params, seed):
            key = (params["a"], params["b"])
            attempts[key] = attempts.get(key, 0) + 1
            if params["a"] == 2 and attempts[key] == 1:
                raise RuntimeError("transient point failure")
            return square_fn(params, seed)

        out = tmp_path / "c"
        result = CampaignRunner(
            spec3x2(), flaky, out,
            policy=ShardPolicy(retries=1, backoff=0.0),
        ).run()
        assert result.complete
        for point in spec3x2().points():
            payload = json.loads((out / "points" / f"{point.id}.json").read_text())
            expected = 1 if point.params["a"] == 2 else 0
            assert payload["shard_failures"] == expected
            assert payload["degraded_shard_mode"] == ""
        # The in-memory records match what resumers will read from disk.
        for pid, payload in result.records.items():
            on_disk = json.loads((out / "points" / f"{pid}.json").read_text())
            assert payload == on_disk

    def test_unrecoverable_point_raises_with_failures(self, tmp_path):
        def doomed(params, seed):
            raise ValueError("never works")

        with pytest.raises(ShardExecutionError) as excinfo:
            CampaignRunner(
                CampaignSpec(name="d", grid={"a": [1]}),
                doomed,
                tmp_path / "c",
                policy=ShardPolicy(retries=0, backoff=0.0),
            ).run()
        assert all("never works" in f.error for f in excinfo.value.failures)

    def test_parallel_modes_match_serial(self, tmp_path):
        serial = CampaignRunner(spec3x2(), square_fn, tmp_path / "s")
        serial.run()
        forked = CampaignRunner(spec3x2(), square_fn, tmp_path / "f", workers=3)
        forked.run()
        for pid in [p.id for p in spec3x2().points()]:
            a = (tmp_path / "s" / "points" / f"{pid}.json").read_bytes()
            b = (tmp_path / "f" / "points" / f"{pid}.json").read_bytes()
            assert a == b

    @pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
    def test_workers_bound_points_in_flight(self, tmp_path):
        """``workers=2`` runs 2 points at a time: never more, and not 1."""

        def timed(params, seed):
            start = time.monotonic()
            time.sleep(0.3)
            return {"start": start, "end": time.monotonic()}

        result = CampaignRunner(spec3x2(), timed, tmp_path / "c", workers=2).run()
        spans = [(r["start"], r["end"]) for r in result.results()]
        assert len(spans) == 6
        in_flight = max(
            sum(1 for lo, hi in spans if lo <= t < hi) for t, _ in spans
        )
        assert in_flight == 2

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CampaignRunner(spec3x2(), square_fn, tmp_path, workers=0)
