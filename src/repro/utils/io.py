"""Crash-safe file writes shared across the repo.

Every JSON artefact a process may be killed while writing — benchmark
records (``BENCH_engines.json`` / ``BENCH_serving.json`` and the dated
files under ``benchmarks/history/``), campaign manifests and per-point
results (``repro.eval.campaign``) — goes through
:func:`atomic_write_text`: the payload lands in a same-directory temp
file first and is moved into place with ``os.replace``, which POSIX
guarantees is atomic.  A reader therefore sees either the previous
complete document or the new complete document, never a truncated one,
and a process killed mid-write leaves at worst an orphaned
``*.tmp.<pid>`` file that the next successful write of the same path
does not trip over.

Atomic rename protects against a killed *process*; it does not protect
against a killed *machine*.  On a power cut the page cache dies with
the kernel, and a rename that was only in memory can leave the file
zero-length or pointing at unwritten blocks (filesystem-dependent).
``fsync=True`` closes that window: the temp file's data is fsynced
before the rename and the containing directory is fsynced after it, so
once the call returns the record survives a crash of the whole box.
Durability costs a couple of disk round-trips per write, so it is opt-in
— the resumable-campaign records and benchmark history snapshots (the
artefacts whose entire point is surviving a kill) pass it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Union


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry (the rename itself) to stable storage.

    Platforms without directory fds (or filesystems that refuse to
    fsync them) degrade to the plain atomic-rename guarantee instead of
    failing the write — durability is best-effort hardening, never a
    reason to lose the record we just produced.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: Union[str, Path], text: str, fsync: bool = False
) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file carries the writer's pid so two processes racing on
    the same path never clobber each other's in-flight temp; whichever
    ``os.replace`` lands last wins with a complete document.  On any
    write error the temp file is removed, leaving ``path`` untouched.

    With ``fsync=True`` the temp file is flushed to disk before the
    rename and the parent directory after it, so the completed record
    survives not just a killed process but a crashed machine (see the
    module docstring for when to pay for that).
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if fsync:
            _fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_json(
    path: Union[str, Path], payload: Any, indent: int = 2, fsync: bool = False
) -> Path:
    """Serialise ``payload`` and write it atomically as one document."""
    return atomic_write_text(path, json.dumps(payload, indent=indent) + "\n", fsync=fsync)
