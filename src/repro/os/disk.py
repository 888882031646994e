"""The untrusted disk.

The paper stores the sealed credential blob and the AIK certificate on
the client's ordinary filesystem — safe *because* their confidentiality
and usefulness do not depend on the disk: the sealed blob only opens
under the genuine PAL's PCR state, and everything else is public.  What
the disk cannot provide is integrity or availability: resident malware
can read, corrupt, or delete any file.  This module models exactly that
contract, and `repro.core.client` persists/restores client state
through it so the corruption tests exercise the real recovery paths.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional


class UntrustedDisk:
    """A flat file store with malware-grade (non-)guarantees.

    Files are stored as ``bytearray`` so :meth:`append_file` is
    amortized O(record) — with immutable ``bytes`` a write-ahead
    journal's append sequence would be quadratic in the log size.
    """

    def __init__(self) -> None:
        self._files: Dict[str, bytearray] = {}
        self.reads = 0
        self.writes = 0

    # -- the honest owner's interface ---------------------------------------
    def write_file(self, path: str, data: bytes) -> None:
        self.writes += 1
        self._files[path] = bytearray(data)

    def append_file(self, path: str, data: bytes) -> None:
        """Append to a file (created empty if absent).  Exists so a
        write-ahead journal costs one append per record instead of
        rewriting the whole file.  Accepts any bytes-like object
        (``memoryview`` included), so framed writers can hand over a
        reused encode buffer without an intermediate copy."""
        self.writes += 1
        buffer = self._files.get(path)
        if buffer is None:
            buffer = self._files[path] = bytearray()
        buffer.extend(data)

    def read_file(self, path: str) -> Optional[bytes]:
        self.reads += 1
        data = self._files.get(path)
        return None if data is None else bytes(data)

    def file_size(self, path: str) -> Optional[int]:
        """Length of a stored file without copying it out (``None`` if
        absent) — bookkeeping like WAL-size stats stays O(1)."""
        data = self._files.get(path)
        return None if data is None else len(data)

    def exists(self, path: str) -> bool:
        return path in self._files

    def list_files(self) -> List[str]:
        return sorted(self._files)

    # -- the adversary's interface (same privileges, explicit names) --------
    def malware_read(self, path: str) -> Optional[bytes]:
        """Malware reads anything — confidentiality is not a disk property."""
        data = self._files.get(path)
        return None if data is None else bytes(data)

    def malware_corrupt(self, path: str, flip_byte: int = 0) -> bool:
        """Flip one byte of a stored file; True if the file existed."""
        data = self._files.get(path)
        if data is None or not data:
            return False
        data[flip_byte % len(data)] ^= 0xFF
        return True

    def malware_delete(self, path: str) -> bool:
        return self._files.pop(path, None) is not None

    def __iter__(self) -> Iterator[str]:
        return iter(self.list_files())
