"""Resumable parameter-grid campaigns over the supervised substrate.

The hardware-model extension experiments (weight/threshold fault
sweeps, DSE grids, quantisation levels, T sweeps, model x engine
matrices) are all the same shape: a deterministic function
evaluated over a cartesian parameter grid, one JSON record per point.
This module makes that shape a first-class, failure-tolerant workload:

* **Deterministic points.**  :class:`CampaignSpec` expands its grid in
  a stable order and derives every point's RNG seed from
  ``sha256(campaign seed, point id)`` — a point's result depends only
  on its own parameters, never on execution order, so partial runs,
  parallel shards and resumed campaigns reproduce bit-identical
  records.
* **Atomic records.**  Each completed point is written to
  ``<out_dir>/points/<id>.json`` via temp-file + ``os.replace`` with
  fsync (:func:`repro.utils.io.atomic_write_json`), under a
  ``manifest.json`` describing the full grid.  A process killed
  mid-write can truncate nothing — and a machine crash cannot leave a
  zero-length record, because data and rename are flushed before the
  write reports success.  At worst the point is simply missing and
  re-runs.  Records carry the supervision trail too:
  ``shard_failures`` counts the failed attempts behind the point's
  eventual success and ``degraded_shard_mode`` names the substrate the
  fork→serial chain had to finish on (0/"" for clean points).
* **Resume.**  Re-invoking a killed campaign loads the manifest,
  verifies it matches the spec, and completes only the missing points
  — records that are corrupt, truncated or schema-mismatched are
  discarded (one warning) and re-run.  The merged result equals an
  uninterrupted run.
* **Supervised execution.**  With ``workers > 1``, points run as
  forked waves of at most ``workers`` processes under
  :func:`repro.eval.supervisor.run_supervised`, with per-point
  exception capture, per-wave deadlines, bounded retry/backoff and the
  fork→serial degradation chain; ``workers == 1`` (or a platform
  without ``fork``) runs them serially.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.eval.supervisor import ShardFailure, ShardPolicy, run_supervised
from repro.utils.io import atomic_write_json

logger = logging.getLogger(__name__)

#: On-disk format tags (manifest and per-point records).
CAMPAIGN_FORMAT = "repro-campaign/v1"
POINT_FORMAT = "repro-campaign-point/v1"


def point_id(params: Mapping) -> str:
    """Stable, filesystem-safe identifier for one grid point.

    Human-readable for small grids (``rate=0.001,trial=0``) with a
    short content hash appended, so ids stay unique even when two
    parameter values collapse to the same sanitised text.
    """
    text = ",".join(f"{k}={params[k]}" for k in sorted(params))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]
    safe = "".join(c if (c.isalnum() or c in ".=,+-") else "_" for c in text)
    return f"{safe[:80]}-{digest}"


def point_seed(campaign_seed: int, pid: str) -> int:
    """The point's own RNG seed: a stable 64-bit digest, order-free."""
    digest = hashlib.sha256(f"{campaign_seed}:{pid}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class CampaignPoint:
    """One expanded grid point: parameters plus its derived seed."""

    id: str
    params: Mapping
    seed: int


@dataclass
class CampaignSpec:
    """A named parameter grid with a base seed.

    ``grid`` maps axis name to the sequence of values it sweeps; points
    are the cartesian product, expanded with the *last* axis varying
    fastest (``itertools.product`` order), which is stable across runs
    because dict insertion order is part of the spec.
    """

    name: str
    grid: Dict[str, Sequence]
    seed: int = 0
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if not self.grid:
            raise ValueError("campaign grid must have at least one axis")
        for axis, values in self.grid.items():
            if not list(values):
                raise ValueError(f"grid axis {axis!r} has no values")

    def points(self) -> List[CampaignPoint]:
        axes = list(self.grid)
        combos = itertools.product(*(self.grid[a] for a in axes))
        points = []
        for combo in combos:
            params = dict(zip(axes, combo))
            pid = point_id(params)
            points.append(
                CampaignPoint(id=pid, params=params, seed=point_seed(self.seed, pid))
            )
        return points

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        return {
            "format": CAMPAIGN_FORMAT,
            "name": self.name,
            "seed": int(self.seed),
            "grid": {axis: list(values) for axis, values in self.grid.items()},
            "metadata": dict(self.metadata),
            "points": [p.id for p in self.points()],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CampaignSpec":
        if payload.get("format") != CAMPAIGN_FORMAT:
            raise ValueError(
                f"not a campaign manifest (format {payload.get('format')!r}, "
                f"expected {CAMPAIGN_FORMAT!r})"
            )
        return cls(
            name=str(payload["name"]),
            grid={axis: list(vals) for axis, vals in payload["grid"].items()},
            seed=int(payload["seed"]),
            metadata=dict(payload.get("metadata", {})),
        )


@dataclass
class CampaignResult:
    """The merged state of a campaign directory after a run."""

    spec: CampaignSpec
    out_dir: Path
    records: Dict[str, dict]               # point id -> record payload
    failures: List[ShardFailure] = field(default_factory=list)
    executed: int = 0                      # points run by *this* invocation

    @property
    def complete(self) -> bool:
        return all(p.id in self.records for p in self.spec.points())

    @property
    def missing(self) -> List[str]:
        return [p.id for p in self.spec.points() if p.id not in self.records]

    def results(self) -> List[dict]:
        """Per-point ``result`` payloads in grid order (completed only)."""
        return [
            self.records[p.id]["result"]
            for p in self.spec.points()
            if p.id in self.records
        ]


class CampaignRunner:
    """Drive a :class:`CampaignSpec` to completion, resumably.

    Parameters
    ----------
    spec:
        The parameter grid.
    point_fn:
        ``point_fn(params, seed) -> dict`` evaluates one point; the
        returned dict must be JSON-serialisable and deterministic given
        ``(params, seed)`` — that is the whole resume contract.
    out_dir:
        Campaign directory: ``manifest.json`` plus one
        ``points/<id>.json`` per completed point.
    policy:
        Per-point retry/timeout/backoff knobs
        (:class:`repro.eval.supervisor.ShardPolicy`).
    workers:
        Most points in flight at once: 1 runs them serially, more runs
        forked waves of at most ``workers`` points.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        point_fn: Callable[[Mapping, int], dict],
        out_dir: Union[str, Path],
        policy: Optional[ShardPolicy] = None,
        workers: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.spec = spec
        self.point_fn = point_fn
        self.out_dir = Path(out_dir)
        self.policy = policy
        self.workers = int(workers)

    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.out_dir / "manifest.json"

    @property
    def points_dir(self) -> Path:
        return self.out_dir / "points"

    def _record_path(self, pid: str) -> Path:
        return self.points_dir / f"{pid}.json"

    def _write_manifest(self) -> None:
        payload = self.spec.to_payload()
        if self.manifest_path.exists():
            try:
                existing = json.loads(self.manifest_path.read_text())
            except (OSError, json.JSONDecodeError) as error:
                raise RuntimeError(
                    f"{self.manifest_path} exists but is unreadable "
                    f"({error}); refusing to resume into a directory whose "
                    f"provenance is unknown — pick a fresh out_dir"
                ) from None
            if existing != payload:
                raise RuntimeError(
                    f"{self.manifest_path} describes a different campaign "
                    f"(name/grid/seed mismatch); refusing to mix results — "
                    f"pick a fresh out_dir"
                )
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        # fsync: the manifest is the resume contract — a machine crash
        # must not leave a zero-length manifest over completed points.
        atomic_write_json(self.manifest_path, payload, fsync=True)

    # ------------------------------------------------------------------
    def _load_record(self, point: CampaignPoint) -> Optional[dict]:
        """A point's persisted record, or None when it must (re-)run.

        A record that is missing, unparsable (killed mid-write on a
        filesystem without atomic rename), schema-mismatched or from a
        different campaign/seed is treated as absent — one warning, and
        the point re-runs; the eventual rewrite atomically replaces the
        bad file.
        """
        path = self._record_path(point.id)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as error:
            logger.warning(
                "campaign %s: discarding unusable point record %s (%s); "
                "the point will re-run",
                self.spec.name,
                path.name,
                error,
            )
            return None
        if (
            payload.get("format") != POINT_FORMAT
            or payload.get("campaign") != self.spec.name
            or payload.get("id") != point.id
            or payload.get("seed") != point.seed
            or "result" not in payload
        ):
            logger.warning(
                "campaign %s: point record %s does not match the manifest "
                "(stale schema or foreign campaign); the point will re-run",
                self.spec.name,
                path.name,
            )
            return None
        return payload

    def completed_records(self) -> Dict[str, dict]:
        """All valid persisted records, keyed by point id."""
        records = {}
        for point in self.spec.points():
            payload = self._load_record(point)
            if payload is not None:
                records[point.id] = payload
        return records

    # ------------------------------------------------------------------
    def _execute_point(self, point: CampaignPoint) -> dict:
        """Evaluate one point and persist its record atomically.

        Runs inside the supervised substrate — possibly in a fork child,
        where the atomic write still lands the record on disk even if
        the parent dies before collecting the result.
        """
        result = self.point_fn(point.params, point.seed)
        payload = {
            "format": POINT_FORMAT,
            "campaign": self.spec.name,
            "id": point.id,
            "params": dict(point.params),
            "seed": point.seed,
            "result": result,
            # Supervision trail, re-annotated by the parent after the
            # wave when this point actually failed attempts (the child
            # executing the point cannot see its own earlier failures).
            # Written as 0/"" here so clean serial, parallel and resumed
            # runs stay byte-identical record for record.
            "shard_failures": 0,
            "degraded_shard_mode": "",
        }
        self.points_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_json(self._record_path(point.id), payload, fsync=True)
        return payload

    def _annotate_failures(
        self,
        records: Dict[str, dict],
        pending: Sequence[CampaignPoint],
        failures: Sequence[ShardFailure],
        degraded_mode: str,
    ) -> None:
        """Fold the wave's supervision trail into the affected records.

        A point that needed retries (or rode the degradation chain)
        still writes its record from whichever attempt succeeded; only
        the parent sees the full :class:`ShardFailure` list, so it
        rewrites those records — atomically, like the original write —
        with the failed-attempt count and the substrate the chain
        degraded to.  Clean points keep their single first write.
        """
        counts: Dict[str, int] = {}
        for failure in failures:
            pid = pending[failure.index].id
            counts[pid] = counts.get(pid, 0) + 1
        for pid, count in counts.items():
            payload = records.get(pid)
            if payload is None:
                continue  # point exhausted every substrate; no record
            annotated = dict(payload)
            annotated["shard_failures"] = count
            annotated["degraded_shard_mode"] = degraded_mode
            atomic_write_json(self._record_path(pid), annotated, fsync=True)
            records[pid] = annotated

    def run(self, max_points: Optional[int] = None) -> CampaignResult:
        """Complete the campaign's missing points; return merged state.

        ``max_points`` bounds how many missing points this invocation
        executes — the hook the kill/resume tests and the CI smoke job
        use to simulate an interrupted campaign deterministically.
        """
        self._write_manifest()
        done = self.completed_records()
        pending = [p for p in self.spec.points() if p.id not in done]
        if max_points is not None:
            pending = pending[: max(int(max_points), 0)]
        failures: List[ShardFailure] = []
        if pending:
            outcome = run_supervised(
                count=len(pending),
                serial_fn=lambda i: self._execute_point(pending[i]),
                policy=self.policy,
                workers=self.workers,
                label=f"campaign[{self.spec.name}]",
            )
            failures = outcome.failures
            # Re-read from disk: fork children persisted their records
            # independently of the pickled return values, and the files
            # are the ground truth a resume would see.
            done = self.completed_records()
            if failures:
                self._annotate_failures(
                    done, pending, failures, outcome.degraded_mode
                )
        return CampaignResult(
            spec=self.spec,
            out_dir=self.out_dir,
            records=done,
            failures=failures,
            executed=len(pending),
        )
