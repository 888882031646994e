"""PKCS#1 v1.5 signatures and encryption (RFC 3447 / RSASSA- and
RSAES-PKCS1-v1_5).

TPM 1.2 signs quotes with RSASSA-PKCS1-v1_5 over SHA-1; the Privacy CA
and the setup-phase key certification in `repro.core` use the same
scheme.  Encryption padding is used for the small asymmetric layer of
sealed blobs.

All modular arithmetic flows through ``RsaPublicKey.raw_verify`` /
``RsaKeyPair.raw_sign``, which dispatch to the counted RSA entry
points of :mod:`repro.crypto.backend`.
:func:`pkcs1_verify_many` amortizes the per-call setup when a verifier
checks a whole ``tx.confirm_batch`` leg under one public key.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.crypto.sha1 import SHA1_DIGEST_SIZE, sha1
from repro.crypto.sha256 import SHA256_DIGEST_SIZE, sha256


class SignatureError(ValueError):
    """Raised when a signature or padding check fails."""


# DigestInfo prefixes from RFC 3447 section 9.2.
_DIGEST_INFO_PREFIX = {
    "sha1": bytes.fromhex("3021300906052b0e03021a05000414"),
    "sha256": bytes.fromhex("3031300d060960864801650304020105000420"),
}

_HASHERS = {"sha1": sha1, "sha256": sha256}
_DIGEST_SIZES = {"sha1": SHA1_DIGEST_SIZE, "sha256": SHA256_DIGEST_SIZE}


def _encode_digest_info(message: bytes, hash_name: str, prehashed: bool) -> bytes:
    if hash_name not in _DIGEST_INFO_PREFIX:
        raise ValueError(f"unsupported hash {hash_name!r}")
    if prehashed:
        digest = message
        if len(digest) != _DIGEST_SIZES[hash_name]:
            raise ValueError(
                f"prehashed digest has wrong length for {hash_name}: {len(digest)}"
            )
    else:
        digest = _HASHERS[hash_name](message)
    return _DIGEST_INFO_PREFIX[hash_name] + digest


def _emsa_pkcs1_encode(
    message: bytes, em_len: int, hash_name: str, prehashed: bool
) -> bytes:
    t = _encode_digest_info(message, hash_name, prehashed)
    if em_len < len(t) + 11:
        raise SignatureError("intended encoded message length too short")
    padding = b"\xff" * (em_len - len(t) - 3)
    return b"\x00\x01" + padding + b"\x00" + t


def pkcs1_sign(
    key: RsaKeyPair,
    message: bytes,
    hash_name: str = "sha1",
    prehashed: bool = False,
) -> bytes:
    """RSASSA-PKCS1-v1_5 signature of ``message``."""
    em = _emsa_pkcs1_encode(message, key.byte_length, hash_name, prehashed)
    signature_int = key.raw_sign(int.from_bytes(em, "big"))
    return signature_int.to_bytes(key.byte_length, "big")


def pkcs1_verify(
    public: RsaPublicKey,
    message: bytes,
    signature: bytes,
    hash_name: str = "sha1",
    prehashed: bool = False,
) -> bool:
    """Verify an RSASSA-PKCS1-v1_5 signature; returns True/False."""
    if len(signature) != public.byte_length:
        return False
    try:
        em_int = public.raw_verify(int.from_bytes(signature, "big"))
        expected = _emsa_pkcs1_encode(
            message, public.byte_length, hash_name, prehashed
        )
    except (ValueError, SignatureError):
        return False
    # Integer compare: em_int == big-endian(expected) iff the encoded
    # messages match, without materializing em_int back to bytes.
    return em_int == int.from_bytes(expected, "big")


def pkcs1_verify_many(
    public: RsaPublicKey,
    items: Iterable[Tuple[bytes, bytes]],
    hash_name: str = "sha1",
    prehashed: bool = False,
) -> List[bool]:
    """Verify many ``(message, signature)`` pairs under one public key.

    One-pass helper for ``tx.confirm_batch`` legs: the key's byte
    length and the padding prefix are resolved once and each pair gets
    exactly the verdict :func:`pkcs1_verify` would give it (the loop is
    total — a malformed pair yields ``False``, never an exception).
    """
    k = public.byte_length
    verdicts: List[bool] = []
    for message, signature in items:
        if len(signature) != k:
            verdicts.append(False)
            continue
        try:
            em_int = public.raw_verify(int.from_bytes(signature, "big"))
            expected = _emsa_pkcs1_encode(message, k, hash_name, prehashed)
        except (ValueError, SignatureError):
            verdicts.append(False)
            continue
        verdicts.append(em_int == int.from_bytes(expected, "big"))
    return verdicts


def pkcs1_encrypt(public: RsaPublicKey, message: bytes, drbg: HmacDrbg) -> bytes:
    """RSAES-PKCS1-v1_5 encryption of a short ``message``."""
    k = public.byte_length
    if len(message) > k - 11:
        raise ValueError(f"message too long for {k}-byte modulus: {len(message)}")
    padding = bytearray()
    while len(padding) < k - len(message) - 3:
        byte = drbg.generate(1)
        if byte != b"\x00":
            padding += byte
    em = b"\x00\x02" + bytes(padding) + b"\x00" + message
    ciphertext_int = public.raw_encrypt(int.from_bytes(em, "big"))
    return ciphertext_int.to_bytes(k, "big")


def pkcs1_decrypt(key: RsaKeyPair, ciphertext: bytes) -> bytes:
    """RSAES-PKCS1-v1_5 decryption; raises :class:`SignatureError` on
    malformed padding."""
    k = key.byte_length
    if len(ciphertext) != k:
        raise SignatureError("ciphertext length mismatch")
    em_int = key.raw_decrypt(int.from_bytes(ciphertext, "big"))
    em = em_int.to_bytes(k, "big")
    if not em.startswith(b"\x00\x02"):
        raise SignatureError("bad encryption padding header")
    try:
        separator = em.index(b"\x00", 2)
    except ValueError as exc:
        raise SignatureError("missing padding separator") from exc
    if separator < 10:
        raise SignatureError("padding string too short")
    return em[separator + 1 :]
