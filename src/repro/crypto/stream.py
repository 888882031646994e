"""Authenticated symmetric encryption for sealed blobs.

Real TPM 1.2 sealing encrypts under the SRK with OAEP; blobs larger than
one RSA block use a symmetric layer.  Our substitution keeps the same
*interface contract* — confidentiality plus integrity, bound to a secret
key — using an HMAC-SHA256 counter keystream with encrypt-then-MAC.
DESIGN.md records this substitution; none of the paper's claims depend on
the particular symmetric cipher.
"""

from __future__ import annotations

import hmac
import struct

from repro.crypto.hmac_impl import hmac_sha256

_MAC_SIZE = 32
_NONCE_SIZE = 16


class AuthenticationError(ValueError):
    """Raised when a sealed box fails its integrity check."""


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """HMAC-SHA256 in counter mode: KS_i = HMAC(key, nonce || i)."""
    blocks = []
    for counter in range((length + 31) // 32):
        blocks.append(hmac_sha256(key, nonce + struct.pack(">Q", counter)))
    return b"".join(blocks)[:length]


def _xor(data: bytes, keystream: bytes) -> bytes:
    """``data`` XOR an equally long ``keystream``, as one big-integer XOR."""
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
    return mixed.to_bytes(len(data), "big")


def _derive(key: bytes, label: bytes) -> bytes:
    return hmac_sha256(key, b"derive:" + label)


def seal_box(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """Encrypt-then-MAC ``plaintext`` under ``key``.

    ``nonce`` must be unique per (key, message); callers draw it from the
    TPM's DRBG.  Layout: nonce || ciphertext || mac.
    """
    if len(nonce) != _NONCE_SIZE:
        raise ValueError(f"nonce must be {_NONCE_SIZE} bytes, got {len(nonce)}")
    enc_key = _derive(key, b"enc")
    mac_key = _derive(key, b"mac")
    ciphertext = _xor(plaintext, _keystream(enc_key, nonce, len(plaintext)))
    mac = hmac_sha256(mac_key, nonce + ciphertext)
    return nonce + ciphertext + mac


def open_box(key: bytes, box: bytes) -> bytes:
    """Verify and decrypt a box produced by :func:`seal_box`."""
    if len(box) < _NONCE_SIZE + _MAC_SIZE:
        raise AuthenticationError("sealed box too short")
    nonce = box[:_NONCE_SIZE]
    ciphertext = box[_NONCE_SIZE:-_MAC_SIZE]
    mac = box[-_MAC_SIZE:]
    enc_key = _derive(key, b"enc")
    mac_key = _derive(key, b"mac")
    expected_mac = hmac_sha256(mac_key, nonce + ciphertext)
    if not hmac.compare_digest(mac, expected_mac):
        raise AuthenticationError("sealed box MAC mismatch")
    return _xor(ciphertext, _keystream(enc_key, nonce, len(ciphertext)))
