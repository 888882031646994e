"""SHA-256 entry points.

Used by the higher layers of the reproduction (secure channel MACs,
transaction canonical digests) where the paper's implementation would
have used an OpenSSL SHA-256.  The digest is ``hashlib``'s, reached
through :data:`repro.crypto.backend.BACKEND`; ``tests/test_crypto_hashes.py``
checks it against the FIPS 180-4 known answers.
"""

from __future__ import annotations

from repro.crypto import backend as _backend

SHA256_DIGEST_SIZE = 32


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256 digest of ``data``."""
    return _backend.BACKEND.sha256(data)


def new_sha256(data: bytes = b""):
    """Incremental SHA-256 context (``update`` / ``digest`` / ``copy``)."""
    return _backend.BACKEND.new_sha256(data)
