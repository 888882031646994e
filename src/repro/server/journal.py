"""Write-ahead journal + snapshot: provider durability across crashes.

A :class:`~repro.server.provider.ServiceProvider` that survives a
crash-stop failure must bring back everything its security argument
rests on: the nonce database (single-use freshness — the replay
defense), session cookie grants and evictions, transaction settlement
with the evidence digest and final response (exactly-once confirms),
and the per-account monotonic counter (anti-rollback).  This module is
the persistence layer for that state, on the simulated
:class:`~repro.os.disk.UntrustedDisk`:

* **Records** are appended as the provider mutates state — one
  canonically encoded message per mutation, length-prefixed in a single
  WAL file, each carrying the provider's post-operation DRBG states so
  a restore resumes the *exact* randomness stream (future nonces and
  cookies mint bit-identically to an uncrashed run).
* **Snapshots** bound replay time: every ``snapshot_every`` appends the
  provider's full captured state replaces the snapshot file and the WAL
  truncates.  Restore = load snapshot, replay the WAL tail.

Completed disk writes are durable, but an append interrupted by a crash
may leave a *torn tail*: a truncated final frame that
:meth:`ProviderJournal.read_records` tolerates (the interrupted record's
operation never became durable).  The chaos harness exercises this
explicitly via :meth:`ProviderJournal.tear_tail`, which models a crash
landing mid-append.  Beyond that one loss, what a crash destroys is
*memory* — and, deliberately, the RPC layer's request-dedup/response
cache, which is exactly the loss the journaled ``final_response``
compensates for.
"""

from __future__ import annotations

import struct
from typing import List, Optional

from repro.os.disk import UntrustedDisk

#: WAL framing: u32 record length, record bytes.
_LEN = struct.Struct(">I")
#: Upper bound on a plausible record length.  A frame header above this
#: is not a crash artifact (torn appends only ever *shorten* the file) —
#: it is mid-log corruption, and restore must refuse rather than skip.
_MAX_RECORD = 1 << 26
#: Timestamp encoding: the wire format (`repro.net.messages`) has no
#: float tag, so virtual times travel as exact big-endian float64.
_F64 = struct.Struct(">d")


class JournalError(RuntimeError):
    """Corrupt or unreadable journal state."""


def pack_time(value: Optional[float]) -> bytes:
    """Encode a virtual timestamp (``None`` -> empty, exact otherwise)."""
    if value is None:
        return b""
    return _F64.pack(value)


def unpack_time(raw: bytes) -> Optional[float]:
    """Inverse of :func:`pack_time`: empty bytes decode to ``None``."""
    if not raw:
        return None
    return _F64.unpack(raw)[0]


class ProviderJournal:
    """One provider's durable WAL + snapshot pair on a simulated disk.

    The journal is storage-only: it knows how to persist opaque record
    and snapshot blobs, not what they mean.  The provider owns the
    record vocabulary (see ``repro.server.provider.RECORD_KINDS``).
    """

    def __init__(
        self,
        disk: UntrustedDisk,
        host: str,
        snapshot_every: int = 256,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1: {snapshot_every}")
        self.disk = disk
        self.host = host
        self.wal_path = f"journal/{host}.wal"
        self.snapshot_path = f"journal/{host}.snap"
        self.snapshot_every = snapshot_every
        self._since_snapshot = 0
        self.appends = 0
        self.snapshots = 0
        #: Torn trailing records tolerated by :meth:`read_records` — a
        #: crash mid-append loses the record being written, nothing else.
        self.torn_tails = 0
        #: Reusable frame buffer for :meth:`append` — grown to the
        #: largest record seen, never shrunk, so steady-state appends
        #: allocate nothing beyond the disk's own extend.
        self._frame = bytearray()

    # -- write side ---------------------------------------------------------
    def append(self, record: bytes) -> None:
        """Durably append one encoded record to the WAL.

        The length prefix and record are assembled in a preallocated
        buffer instead of ``pack(...) + record`` concatenation — one
        framed append used to cost two fresh allocations and three
        copies of the record; now the only copy is the disk's.
        """
        frame = self._frame
        needed = _LEN.size + len(record)
        if len(frame) < needed:
            frame.extend(bytes(needed - len(frame)))
        _LEN.pack_into(frame, 0, len(record))
        frame[_LEN.size:needed] = record
        self.disk.append_file(self.wal_path, memoryview(frame)[:needed])
        self.appends += 1
        self._since_snapshot += 1

    @property
    def snapshot_due(self) -> bool:
        return self._since_snapshot >= self.snapshot_every

    def write_snapshot(self, state: bytes) -> None:
        """Replace the snapshot and truncate the WAL it supersedes."""
        self.disk.write_file(self.snapshot_path, state)
        self.disk.write_file(self.wal_path, b"")
        self.snapshots += 1
        self._since_snapshot = 0

    def tear_tail(self, fraction: float = 0.5) -> int:
        """Truncate the WAL inside its final frame (torn-write fault).

        Models a crash that lands mid-append: the last complete frame is
        re-cut at ``fraction`` of its framed length, leaving a partial
        length prefix or a short record body — exactly the shape
        :meth:`read_records` tolerates as a torn tail.  Returns the
        number of bytes torn off (0 when the WAL holds no complete
        frame, in which case nothing changes).
        """
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"tear fraction must be in [0, 1): {fraction}")
        raw = self.disk.read_file(self.wal_path) or b""
        last_start = None
        last_len = 0
        offset = 0
        while offset + _LEN.size <= len(raw):
            (length,) = _LEN.unpack_from(raw, offset)
            if length > _MAX_RECORD or offset + _LEN.size + length > len(raw):
                break
            last_start = offset
            last_len = _LEN.size + length
            offset += _LEN.size + length
        if last_start is None:
            return 0
        keep = last_start + int(last_len * fraction)
        self.disk.write_file(self.wal_path, raw[:keep])
        return len(raw) - keep

    def repair_tail(self) -> int:
        """Truncate a torn tail at the last complete frame boundary.

        Recovery-time counterpart of :meth:`read_records`' tolerance:
        tolerating the partial frame on *read* is not enough, because
        the restarted shard keeps appending — and a new frame written
        after leftover partial bytes would corrupt the framing of
        everything that follows.  Called on restore, before any new
        append.  Returns the number of bytes discarded."""
        raw = self.disk.read_file(self.wal_path) or b""
        offset = 0
        while offset + _LEN.size <= len(raw):
            (length,) = _LEN.unpack_from(raw, offset)
            if length > _MAX_RECORD:
                raise JournalError(
                    f"corrupt WAL record length {length} at offset "
                    f"{offset} in {self.wal_path}"
                )
            if offset + _LEN.size + length > len(raw):
                break
            offset += _LEN.size + length
        torn = len(raw) - offset
        if torn:
            self.torn_tails += 1
            self.disk.write_file(self.wal_path, raw[:offset])
        return torn

    # -- read side ----------------------------------------------------------
    def read_snapshot(self) -> Optional[bytes]:
        return self.disk.read_file(self.snapshot_path)

    def read_records(self) -> List[bytes]:
        """Every WAL record appended since the last snapshot, in order.

        A crash that lands mid-append leaves a truncated *final* frame —
        the one loss a WAL is allowed: the interrupted record's
        operation never became durable, so restore stops at the last
        complete record instead of refusing to bring the shard back
        (counted in ``stats()['torn_tails']``).  An implausible frame
        length is *not* a crash artifact (torn appends only shorten the
        file) — that is mid-log corruption and still raises
        :class:`JournalError`.
        """
        raw = self.disk.read_file(self.wal_path) or b""
        records: List[bytes] = []
        offset = 0
        while offset < len(raw):
            if offset + _LEN.size > len(raw):
                self.torn_tails += 1
                break
            (length,) = _LEN.unpack_from(raw, offset)
            if length > _MAX_RECORD:
                raise JournalError(
                    f"corrupt WAL record length {length} at offset "
                    f"{offset} in {self.wal_path}"
                )
            offset += _LEN.size
            if offset + length > len(raw):
                self.torn_tails += 1
                break
            records.append(raw[offset : offset + length])
            offset += length
        return records

    def stats(self) -> dict:
        return {
            "appends": self.appends,
            "snapshots": self.snapshots,
            "wal_bytes": self.disk.file_size(self.wal_path) or 0,
            "torn_tails": self.torn_tails,
        }
