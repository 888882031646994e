"""SHA-1 entry points.

TPM v1.2 is built around SHA-1 (PCRs are 20-byte SHA-1 digests, the
extend operation is ``PCR := SHA1(PCR || measurement)``).  The digest is
``hashlib``'s, reached through :data:`repro.crypto.backend.BACKEND` so
every call site in ``tpm/``, ``drtm/`` and ``net/`` goes through the
one backend; ``tests/test_crypto_hashes.py`` checks it against the FIPS
180-4 known answers.
"""

from __future__ import annotations

from repro.crypto import backend as _backend

SHA1_DIGEST_SIZE = 20


def sha1(data: bytes) -> bytes:
    """One-shot SHA-1 digest of ``data``."""
    return _backend.BACKEND.sha1(data)


def new_sha1(data: bytes = b""):
    """Incremental SHA-1 context (``update`` / ``digest`` / ``copy``)."""
    return _backend.BACKEND.new_sha1(data)
