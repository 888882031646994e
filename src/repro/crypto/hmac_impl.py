"""HMAC (RFC 2104) entry points.

TPM 1.2 uses HMAC-SHA1 for command authorization sessions; the secure
channel in `repro.net` uses HMAC-SHA256 record MACs and the DRBG is
HMAC-SHA256.  Both entry points compute with the standard library's
``hmac`` through :data:`repro.crypto.backend.BACKEND`.  MAC checks
compare with :func:`hmac.compare_digest`.
"""

from __future__ import annotations

from repro.crypto import backend as _backend


def hmac_sha1(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA1, the TPM 1.2 authorization MAC."""
    return _backend.BACKEND.hmac_sha1(key, message)


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256, used by the secure channel and the DRBG."""
    return _backend.BACKEND.hmac_sha256(key, message)
