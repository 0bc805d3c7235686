"""The durable mutation log: append-only segment files plus an index.

The in-memory :class:`~repro.replica.changeset.MutationLog` gives the
write path LSNs, catch-up replay and a read-your-writes barrier — and
loses all of it the moment the process exits.  This module spools the
same log to disk in the XMLtapes idiom (append-only tape files with an
index over them):

* **Segments** — change sets are appended to numbered segment files
  (``<base-lsn>.seg``).  Each record is ``header(lsn, length, crc32)``
  followed by the pickled :class:`~repro.replica.changeset.ChangeSet`;
  when a segment grows past ``segment_max_bytes`` it is *sealed* (its
  index is persisted as a ``.idx`` sidecar) and a new segment starts.
  The configurable ``fsync`` policy trades durability for append
  latency: ``"always"`` fsyncs every record (survives power loss),
  ``"off"`` flushes to the OS only (survives process death).

* **Recovery** — reopening a log directory loads the sealed segments via
  their sidecar indexes (falling back to a scan when a sidecar is
  missing or stale) and scans the unsealed tail segment record by
  record, validating each CRC.  A torn tail record — the half-written
  footprint of a crash mid-append — is **truncated, not fatal**: the
  record was never acknowledged, so the log recovers the longest intact
  prefix and continues assigning LSNs from there.  Corruption anywhere
  *before* the tail is a real storage fault and raises
  :class:`~repro.errors.StorageError`.

* **Segment-granular compaction** — :meth:`compact` drops whole sealed
  segment files, never individual entries, and only below the
  *checkpoint* watermark: until :meth:`write_checkpoint` has persisted a
  snapshot of the stored state, every entry is still needed to rebuild
  that state from the configuration's base data on restart, so
  compaction is a guarded no-op.  After a checkpoint, restart recovery
  is ``restore snapshot + replay the remaining tail``.

The class is a drop-in :class:`MutationLog`: the connection pool, the
publishing service and the rebalancer use the same
``append``/``entries_since``/``compact`` contract against either.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Dict, List, Optional, Tuple

from ..errors import StorageError
from .changeset import ChangeSet, LogEntry, MutationLog

SEGMENT_SUFFIX = ".seg"
INDEX_SUFFIX = ".idx"
CHECKPOINT_NAME = "checkpoint.snap"

#: Record header: LSN, payload length, CRC32 of the payload.
_HEADER = struct.Struct("<QII")

#: Allowed fsync policies: ``"always"`` fsyncs per append, ``"off"``
#: flushes to the OS page cache only.
FSYNC_POLICIES = ("always", "off")

DEFAULT_SEGMENT_MAX_BYTES = 1 << 20


@dataclass
class _Segment:
    """One on-disk segment file and its in-memory index."""

    path: Path
    base_lsn: int
    last_lsn: int
    size: int
    #: ``(lsn, offset)`` per record, offsets pointing at the header.
    index: List[Tuple[int, int]] = field(default_factory=list)


@dataclass(frozen=True)
class DurableLogStats:
    """A snapshot of the log's on-disk footprint."""

    segments: int
    entries: int
    size_bytes: int
    lsn: int
    floor: int
    checkpoint_lsn: int
    truncated_records: int
    fsync: str


def _segment_name(base_lsn: int) -> str:
    return f"{base_lsn:020d}{SEGMENT_SUFFIX}"


class DurableMutationLog(MutationLog):
    """An LSN-stamped mutation log spooled to append-only segment files.

    Same thread-safe contract as :class:`MutationLog`; additionally owns
    a directory of segment files, recovers from it on construction, and
    persists/loads state checkpoints (:meth:`write_checkpoint`,
    :meth:`load_checkpoint`).  Call :meth:`close` to release the active
    segment's file handle — reopening the directory recovers everything
    that was flushed.
    """

    def __init__(
        self,
        directory: "os.PathLike[str] | str",
        fsync: str = "always",
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
    ) -> None:
        super().__init__()
        if fsync not in FSYNC_POLICIES:
            raise StorageError(
                f"unknown fsync policy {fsync!r} "
                f"(one of {', '.join(FSYNC_POLICIES)})"
            )
        if segment_max_bytes < 1:
            raise StorageError(
                f"segment_max_bytes must be >= 1, got {segment_max_bytes}"
            )
        self.directory = Path(directory)
        self.fsync = fsync
        self.segment_max_bytes = segment_max_bytes
        self.directory.mkdir(parents=True, exist_ok=True)
        self._sealed: List[_Segment] = []
        self._active: Optional[_Segment] = None
        self._handle: Optional[BinaryIO] = None
        #: In-memory entries of the active (unsealed) segment, so the hot
        #: ``entries_since`` path — a pool clone already at the head —
        #: touches no disk.
        self._tail: List[LogEntry] = []
        self._checkpoint_lsn = 0
        self._truncated = 0
        self._closed = False
        self._recover()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        checkpoint = self._read_checkpoint_header()
        self._checkpoint_lsn = checkpoint
        paths = sorted(self.directory.glob(f"*{SEGMENT_SUFFIX}"))
        segments: List[_Segment] = []
        for position, path in enumerate(paths):
            final = position == len(paths) - 1
            segment = self._load_segment(path, truncate_tail=final)
            if segment is not None:
                segments.append(segment)
        # An emptied-out tail segment (every record torn) carries no
        # entries; drop the file so the base-LSN bookkeeping below only
        # sees populated segments.
        self._sealed = segments
        if segments:
            self._floor = segments[0].base_lsn - 1
            self._lsn = segments[-1].last_lsn
            expected = segments[0].base_lsn
            for segment in segments:
                if segment.base_lsn != expected:
                    raise StorageError(
                        f"mutation log {self.directory} has a gap: expected "
                        f"segment at LSN {expected}, found {segment.path.name}"
                    )
                expected = segment.last_lsn + 1
            if self._floor > checkpoint:
                raise StorageError(
                    f"mutation log {self.directory} starts at LSN "
                    f"{self._floor + 1} but the last checkpoint covers only "
                    f"LSN {checkpoint}: entries needed for recovery are gone"
                )
        else:
            self._floor = checkpoint
            self._lsn = checkpoint

    def _read_checkpoint_header(self) -> int:
        path = self.directory / CHECKPOINT_NAME
        if not path.exists():
            return 0
        try:
            with path.open("rb") as handle:
                payload = handle.read()
            header, body = payload[: _HEADER.size], payload[_HEADER.size :]
            lsn, length, crc = _HEADER.unpack(header)
            if len(body) != length or zlib.crc32(body) != crc:
                raise ValueError("checksum mismatch")
            return lsn
        except Exception as error:
            raise StorageError(
                f"mutation-log checkpoint {path} is unreadable: {error}"
            ) from error

    def _load_segment(
        self, path: Path, truncate_tail: bool
    ) -> Optional[_Segment]:
        sidecar = path.with_suffix(INDEX_SUFFIX)
        if sidecar.exists():
            segment = self._load_sidecar(path, sidecar)
            if segment is not None:
                return segment
        return self._scan_segment(path, truncate_tail)

    def _load_sidecar(self, path: Path, sidecar: Path) -> Optional[_Segment]:
        """A sealed segment's persisted index, if it still matches the file."""
        try:
            with sidecar.open("rb") as handle:
                meta = pickle.load(handle)
            segment = _Segment(
                path=path,
                base_lsn=int(meta["base_lsn"]),
                last_lsn=int(meta["last_lsn"]),
                size=int(meta["size"]),
                index=[(int(lsn), int(offset)) for lsn, offset in meta["index"]],
            )
        except Exception:
            return None
        if path.stat().st_size != segment.size or not segment.index:
            return None  # stale sidecar: fall back to scanning the file
        return segment

    def _scan_segment(
        self, path: Path, truncate_tail: bool
    ) -> Optional[_Segment]:
        """Rebuild a segment's index record by record, validating CRCs.

        A bad record in the *final* segment is a torn tail: the file is
        truncated at the last intact record and recovery continues.  A
        bad record anywhere else lost acknowledged history and raises.
        """
        index: List[Tuple[int, int]] = []
        base_lsn = last_lsn = 0
        offset = 0
        torn: Optional[str] = None
        with path.open("rb") as handle:
            while True:
                header = handle.read(_HEADER.size)
                if not header:
                    break
                if len(header) < _HEADER.size:
                    torn = "short header"
                    break
                lsn, length, crc = _HEADER.unpack(header)
                payload = handle.read(length)
                if len(payload) < length:
                    torn = "short payload"
                    break
                if zlib.crc32(payload) != crc:
                    torn = "checksum mismatch"
                    break
                if index and lsn != last_lsn + 1:
                    torn = f"LSN discontinuity ({last_lsn} -> {lsn})"
                    break
                if not index:
                    base_lsn = lsn
                index.append((lsn, offset))
                last_lsn = lsn
                offset += _HEADER.size + length
        if torn is not None:
            if not truncate_tail:
                raise StorageError(
                    f"mutation-log segment {path} is corrupt before the tail "
                    f"({torn} at offset {offset}): acknowledged history is lost"
                )
            with path.open("r+b") as handle:
                handle.truncate(offset)
                handle.flush()
                os.fsync(handle.fileno())
            self._truncated += 1
        if not index:
            path.unlink()
            sidecar = path.with_suffix(INDEX_SUFFIX)
            if sidecar.exists():
                sidecar.unlink()
            return None
        return _Segment(
            path=path,
            base_lsn=base_lsn,
            last_lsn=last_lsn,
            size=offset,
            index=index,
        )

    # ------------------------------------------------------------------
    # The MutationLog contract
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return sum(len(seg.index) for seg in self._sealed) + len(self._tail)

    def append(self, changeset: ChangeSet) -> int:
        """Persist *changeset* and return its LSN (flushed per policy)."""
        payload = pickle.dumps(changeset, protocol=4)
        with self._lock:
            self._require_open()
            lsn = self._lsn + 1
            if self._active is None:
                self._open_segment(lsn)
            handle = self._handle
            handle.write(_HEADER.pack(lsn, len(payload), zlib.crc32(payload)))
            handle.write(payload)
            handle.flush()
            if self.fsync == "always":
                os.fsync(handle.fileno())
            active = self._active
            active.index.append((lsn, active.size))
            active.size += _HEADER.size + len(payload)
            active.last_lsn = lsn
            self._lsn = lsn
            self._tail.append(LogEntry(lsn, changeset))
            if active.size >= self.segment_max_bytes:
                self._seal_active()
            return lsn

    def entries_since(self, lsn: int) -> Tuple[LogEntry, ...]:
        with self._lock:
            if lsn < self._floor:
                raise StorageError(
                    f"mutation log was compacted through LSN {self._floor}; "
                    f"a reader at LSN {lsn} can no longer catch up"
                )
            entries: List[LogEntry] = []
            for segment in self._sealed:
                if segment.last_lsn <= lsn:
                    continue
                entries.extend(self._read_segment(segment, lsn))
            entries.extend(entry for entry in self._tail if entry.lsn > lsn)
            return tuple(entries)

    def compact(self, through_lsn: int) -> int:
        """Drop sealed segments fully below the checkpoint and *through_lsn*.

        Compaction is segment-granular (whole files, never spans) and
        checkpoint-gated: entries above the last persisted checkpoint are
        the only way to rebuild state on restart, so without a checkpoint
        this is a no-op.  Returns how many entries were dropped; the floor
        advances to the last dropped segment's final LSN.
        """
        with self._lock:
            limit = min(through_lsn, self._checkpoint_lsn, self._lsn)
            dropped = 0
            while self._sealed and self._sealed[0].last_lsn <= limit:
                segment = self._sealed.pop(0)
                dropped += len(segment.index)
                self._floor = segment.last_lsn
                segment.path.unlink(missing_ok=True)
                segment.path.with_suffix(INDEX_SUFFIX).unlink(missing_ok=True)
            return dropped

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    @property
    def checkpoint_lsn(self) -> int:
        """The LSN the last persisted state snapshot covers (0 when none)."""
        with self._lock:
            return self._checkpoint_lsn

    def write_checkpoint(self, backend: Any) -> int:
        """Snapshot *backend*'s tables at the current head; returns its LSN.

        The caller must hold writes still (the publishing service does
        this under its write lock): the snapshot claims to contain every
        entry up to ``lsn``, so a write landing mid-dump would be both in
        the snapshot and replayed.  The snapshot is written to a
        temporary file, fsynced and atomically renamed, after which
        :meth:`compact` may drop the segments it covers.
        """
        with self._lock:
            self._require_open()
            lsn = self._lsn
        tables: Dict[str, Dict[str, Any]] = {}
        for name in backend.table_names:
            rows = [tuple(row) for row in backend.rows(name)]
            tables[name] = {
                "rows": rows,
                "arity": len(rows[0]) if rows else None,
            }
        body = pickle.dumps({"lsn": lsn, "tables": tables}, protocol=4)
        blob = _HEADER.pack(lsn, len(body), zlib.crc32(body)) + body
        path = self.directory / CHECKPOINT_NAME
        staging = path.with_suffix(".tmp")
        with staging.open("wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, path)
        with self._lock:
            self._checkpoint_lsn = max(self._checkpoint_lsn, lsn)
        return lsn

    def load_checkpoint(self) -> Optional[Tuple[int, Dict[str, Dict[str, Any]]]]:
        """The persisted ``(lsn, tables)`` snapshot, or ``None``."""
        path = self.directory / CHECKPOINT_NAME
        if not path.exists():
            return None
        with path.open("rb") as handle:
            payload = handle.read()
        body = payload[_HEADER.size :]
        lsn, length, crc = _HEADER.unpack(payload[: _HEADER.size])
        if len(body) != length or zlib.crc32(body) != crc:
            raise StorageError(
                f"mutation-log checkpoint {path} failed its checksum"
            )
        data = pickle.loads(body)
        return int(data["lsn"]), data["tables"]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise StorageError("DurableMutationLog has been closed")

    def _open_segment(self, base_lsn: int) -> None:
        path = self.directory / _segment_name(base_lsn)
        if path.exists():
            raise StorageError(f"mutation-log segment {path} already exists")
        self._handle = path.open("ab")
        self._active = _Segment(
            path=path, base_lsn=base_lsn, last_lsn=base_lsn - 1, size=0
        )
        self._tail = []

    def _seal_active(self) -> None:
        """Close the active segment and persist its index sidecar."""
        active, handle = self._active, self._handle
        self._active, self._handle = None, None
        if handle is not None:
            handle.flush()
            os.fsync(handle.fileno())
            handle.close()
        if active is None or not active.index:
            return
        sidecar = active.path.with_suffix(INDEX_SUFFIX)
        meta = {
            "base_lsn": active.base_lsn,
            "last_lsn": active.last_lsn,
            "size": active.size,
            "index": active.index,
        }
        with sidecar.open("wb") as out:
            pickle.dump(meta, out, protocol=4)
            out.flush()
            os.fsync(out.fileno())
        self._sealed.append(active)
        self._tail = []

    def _read_segment(self, segment: _Segment, after_lsn: int) -> List[LogEntry]:
        """Deserialize a sealed segment's records with ``lsn > after_lsn``."""
        start = 0
        while start < len(segment.index) and segment.index[start][0] <= after_lsn:
            start += 1
        if start >= len(segment.index):
            return []
        entries: List[LogEntry] = []
        with segment.path.open("rb") as handle:
            handle.seek(segment.index[start][1])
            for lsn, _offset in segment.index[start:]:
                header = handle.read(_HEADER.size)
                got_lsn, length, crc = _HEADER.unpack(header)
                payload = handle.read(length)
                if got_lsn != lsn or zlib.crc32(payload) != crc:
                    raise StorageError(
                        f"mutation-log segment {segment.path} failed its "
                        f"checksum at LSN {lsn}"
                    )
                entries.append(LogEntry(lsn, pickle.loads(payload)))
        return entries

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> DurableLogStats:
        with self._lock:
            segments = len(self._sealed) + (1 if self._active else 0)
            entries = sum(len(seg.index) for seg in self._sealed) + len(self._tail)
            size = sum(seg.size for seg in self._sealed)
            if self._active is not None:
                size += self._active.size
            return DurableLogStats(
                segments=segments,
                entries=entries,
                size_bytes=size,
                lsn=self._lsn,
                floor=self._floor,
                checkpoint_lsn=self._checkpoint_lsn,
                truncated_records=self._truncated,
                fsync=self.fsync,
            )

    @property
    def segment_count(self) -> int:
        with self._lock:
            return len(self._sealed) + (1 if self._active else 0)

    @property
    def truncated_records(self) -> int:
        """Torn tail records truncated during recovery (lifetime count)."""
        with self._lock:
            return self._truncated

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> None:
        """Seal the active segment and release the file handle; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._seal_active()


def restore_snapshot(backend: Any, tables: Dict[str, Dict[str, Any]]) -> int:
    """Load a :meth:`DurableMutationLog.load_checkpoint` dump into *backend*.

    Tables the (configuration-rebuilt) backend already declares are
    cleared and reloaded; tables it does not know are created when the
    snapshot recorded their arity.  Returns the number of rows restored.
    """
    restored = 0
    for name, spec in tables.items():
        rows = spec["rows"]
        if not backend.has_table(name):
            if spec.get("arity") is None:
                continue  # empty table nobody declared: nothing to restore
            backend.create_table(name, spec["arity"])
        else:
            backend.clear_table(name)
        if rows:
            backend.insert_many(name, rows)
            restored += len(rows)
    return restored
