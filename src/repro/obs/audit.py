"""The durable query audit log: what the service *did*, on disk.

The metrics registry and event log answer operational questions while
the process is up; the audit log answers the offline ones — "which
queries ran against which LSN, with what plan cost, and where did the
time go?" — after the process is gone.  Every acknowledged publish and
update appends one JSON line recording the query fingerprint, route
mode, the LSN barrier the request was served at, the optimizer's cost
estimate against the actual row count, and the per-phase latency
breakdown from the request's trace.

Design points, shared with :class:`~repro.replica.durable.DurableMutationLog`:

* **JSONL in rotated files** — ``audit-0000000001.jsonl`` and onward in
  one directory; when the active file grows past ``max_bytes`` a new
  file starts, and the oldest beyond ``max_files`` are pruned.  JSON
  lines (not a binary frame) because the audit log's consumer is a
  human with ``grep``/``jq`` as often as a program.
* **Explicit fsync policy** — ``"always"`` fsyncs every record (the
  audit entry survives power loss with the acknowledgement),
  ``"off"`` flushes to the OS only.  The default is ``"off"``: audit
  completeness across *process* death, without taxing the write path.
* **Audit before acknowledge** — unlike the in-memory
  :class:`~repro.obs.events.EventLog` (which drops-and-counts),
  :meth:`AuditLog.record` **raises** on I/O failure.  The service calls
  it before returning the result, so "every acknowledged request is in
  the audit log" is an invariant, not a best effort.
* **Torn tails tolerated on read** — :meth:`entries` skips a final line
  cut short by a crash; everything before it replays.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

#: Allowed fsync policies, mirroring the durable mutation log.
FSYNC_POLICIES = ("always", "off")

DEFAULT_MAX_BYTES = 1 << 20
#: Rotated files kept before the oldest is pruned; 0 keeps everything.
DEFAULT_MAX_FILES = 8

_FILE_PREFIX = "audit-"
_FILE_SUFFIX = ".jsonl"


class AuditError(RuntimeError):
    """The audit log could not honour a record or read."""


def _file_name(sequence: int) -> str:
    return f"{_FILE_PREFIX}{sequence:010d}{_FILE_SUFFIX}"


def _file_sequence(path: Path) -> Optional[int]:
    name = path.name
    if not (name.startswith(_FILE_PREFIX) and name.endswith(_FILE_SUFFIX)):
        return None
    digits = name[len(_FILE_PREFIX) : -len(_FILE_SUFFIX)]
    if not digits.isdigit():
        return None
    return int(digits)


@dataclass(frozen=True)
class AuditStats:
    """The log's on-disk shape, for service stats and the admin surface."""

    directory: str
    files: int
    active_file: str
    active_bytes: int
    records: int
    rotations: int
    pruned_files: int
    fsync: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "directory": self.directory,
            "files": self.files,
            "active_file": self.active_file,
            "active_bytes": self.active_bytes,
            "records": self.records,
            "rotations": self.rotations,
            "pruned_files": self.pruned_files,
            "fsync": self.fsync,
        }


class AuditLog:
    """A durable, size-rotated JSONL log of acknowledged requests."""

    def __init__(
        self,
        directory: "os.PathLike[str] | str",
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_files: int = DEFAULT_MAX_FILES,
        fsync: str = "off",
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise AuditError(
                f"unknown fsync policy {fsync!r} "
                f"(one of {', '.join(FSYNC_POLICIES)})"
            )
        if max_bytes < 1:
            raise AuditError(f"max_bytes must be >= 1, got {max_bytes}")
        if max_files < 0:
            raise AuditError(f"max_files must be >= 0, got {max_files}")
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        self.max_files = max_files
        self.fsync = fsync
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._records = 0
        self._rotations = 0
        self._pruned = 0
        self._closed = False
        existing = self._files()
        if existing:
            sequence = _file_sequence(existing[-1])
            assert sequence is not None
            self._sequence = sequence
        else:
            self._sequence = 1
        self._path = self.directory / _file_name(self._sequence)
        self._handle = self._path.open("ab")

    def _files(self) -> List[Path]:
        """The log's files on disk, oldest first."""
        found = [
            path
            for path in self.directory.iterdir()
            if path.is_file() and _file_sequence(path) is not None
        ]
        found.sort(key=lambda path: _file_sequence(path) or 0)
        return found

    def _rotate_locked(self) -> None:
        handle = self._handle
        assert handle is not None
        handle.flush()
        if self.fsync == "always":
            os.fsync(handle.fileno())
        handle.close()
        self._sequence += 1
        self._rotations += 1
        self._path = self.directory / _file_name(self._sequence)
        self._handle = self._path.open("ab")
        if self.max_files:
            files = self._files()
            while len(files) > self.max_files:
                files.pop(0).unlink()
                self._pruned += 1

    def record(self, entry: Dict[str, Any]) -> None:
        """Append one audit entry; **raises** :class:`AuditError` on failure.

        The caller acknowledges the request only after this returns, so a
        full disk or closed log surfaces to the client instead of quietly
        losing the audit trail.
        """
        try:
            line = json.dumps(entry, default=repr, separators=(",", ":"))
        except Exception as error:
            raise AuditError(f"audit entry not serializable: {error}") from error
        payload = line.encode("utf-8") + b"\n"
        with self._lock:
            if self._closed:
                raise AuditError("audit log is closed")
            handle = self._handle
            try:
                handle.write(payload)
                handle.flush()
                if self.fsync == "always":
                    os.fsync(handle.fileno())
            except OSError as error:
                raise AuditError(f"audit append failed: {error}") from error
            self._records += 1
            if handle.tell() >= self.max_bytes:
                self._rotate_locked()

    def entries(self) -> Iterator[Dict[str, Any]]:
        """Replay every retained entry, oldest first.

        A torn final line (crash mid-append under ``fsync="off"``) is
        skipped; a torn line in the *middle* of a file means external
        corruption and raises.
        """
        with self._lock:
            if not self._closed and self._handle is not None:
                self._handle.flush()
            files = self._files()
        for path in files:
            with path.open("rb") as handle:
                raw = handle.read()
            lines = raw.split(b"\n")
            trailing = lines.pop() if lines else b""
            for position, line in enumerate(lines):
                if not line:
                    continue
                try:
                    yield json.loads(line.decode("utf-8"))
                except Exception as error:
                    raise AuditError(
                        f"corrupt audit record in {path.name} "
                        f"(line {position + 1}): {error}"
                    ) from error
            if trailing:
                # No newline terminator: a torn tail, tolerated only on
                # the newest file — elsewhere it is corruption.
                if path != files[-1]:
                    raise AuditError(
                        f"corrupt audit record in {path.name}: torn line "
                        "in a rotated file"
                    )

    def stats(self) -> AuditStats:
        with self._lock:
            try:
                active_bytes = self._path.stat().st_size
            except OSError:
                active_bytes = 0
            return AuditStats(
                directory=str(self.directory),
                files=len(self._files()),
                active_file=self._path.name,
                active_bytes=active_bytes,
                records=self._records,
                rotations=self._rotations,
                pruned_files=self._pruned,
                fsync=self.fsync,
            )

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handle = self._handle
            self._handle = None
            if handle is not None:
                try:
                    handle.flush()
                    os.fsync(handle.fileno())
                finally:
                    handle.close()

    def __enter__(self) -> "AuditLog":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
