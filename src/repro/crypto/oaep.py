"""RSAES-OAEP (RFC 3447 §7.1) with MGF1-SHA1.

TPM v1.2 encrypts to the EK with OAEP (label "TCPA"), not PKCS#1 v1.5;
the AIK activation path (`repro.tpm.device._cmd_activate_identity` /
`repro.tpm.ca`) uses this implementation.  Verified by roundtrip and
negative tests in ``tests/test_crypto_oaep.py``.

The modular operations ride ``raw_encrypt``/``raw_decrypt`` and hence
the :mod:`repro.crypto.backend` RSA arms; OAEP output is bit-identical
across ``pure``/``accel`` (seed bytes come from the caller's DRBG,
whose stream no arm may alter).
"""

from __future__ import annotations

from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.crypto.sha1 import SHA1_DIGEST_SIZE, sha1


class OaepError(ValueError):
    """Decryption/decoding failure (deliberately unspecific)."""


#: TPM 1.2's OAEP label ("pSecret" in the spec is the ASCII bytes TCPA).
TPM_OAEP_LABEL = b"TCPA"


def mgf1(seed: bytes, length: int) -> bytes:
    """MGF1 mask generation with SHA-1."""
    output = b""
    counter = 0
    while len(output) < length:
        output += sha1(seed + counter.to_bytes(4, "big"))
        counter += 1
    return output[:length]


def _xor(left: bytes, right: bytes) -> bytes:
    return bytes(a ^ b for a, b in zip(left, right))


def oaep_encrypt(
    public: RsaPublicKey,
    message: bytes,
    drbg: HmacDrbg,
    label: bytes = TPM_OAEP_LABEL,
) -> bytes:
    """RSAES-OAEP-ENCRYPT with a DRBG-sourced seed."""
    k = public.byte_length
    h_len = SHA1_DIGEST_SIZE
    if len(message) > k - 2 * h_len - 2:
        raise ValueError(
            f"message too long for {k}-byte modulus under OAEP: {len(message)}"
        )
    l_hash = sha1(label)
    padding = b"\x00" * (k - len(message) - 2 * h_len - 2)
    data_block = l_hash + padding + b"\x01" + message
    seed = drbg.generate(h_len)
    masked_db = _xor(data_block, mgf1(seed, k - h_len - 1))
    masked_seed = _xor(seed, mgf1(masked_db, h_len))
    encoded = b"\x00" + masked_seed + masked_db
    ciphertext_int = public.raw_encrypt(int.from_bytes(encoded, "big"))
    return ciphertext_int.to_bytes(k, "big")


def oaep_decrypt(
    key: RsaKeyPair, ciphertext: bytes, label: bytes = TPM_OAEP_LABEL
) -> bytes:
    """RSAES-OAEP-DECRYPT; raises :class:`OaepError` on any defect.

    All failure modes raise the same exception with the same message —
    the Manger-attack countermeasure a real implementation needs.
    """
    k = key.byte_length
    h_len = SHA1_DIGEST_SIZE
    if len(ciphertext) != k or k < 2 * h_len + 2:
        raise OaepError("decryption error")
    encoded_int = key.raw_decrypt(int.from_bytes(ciphertext, "big"))
    encoded = encoded_int.to_bytes(k, "big")
    first_byte, masked_seed, masked_db = (
        encoded[0],
        encoded[1 : 1 + h_len],
        encoded[1 + h_len :],
    )
    seed = _xor(masked_seed, mgf1(masked_db, h_len))
    data_block = _xor(masked_db, mgf1(seed, k - h_len - 1))
    l_hash = data_block[:h_len]
    rest = data_block[h_len:]
    separator = rest.find(b"\x01")
    # Constant-shape failure evaluation (no early returns on which
    # check failed).
    failed = (
        first_byte != 0
        or l_hash != sha1(label)
        or separator < 0
        or any(rest[:separator])
    )
    if failed:
        raise OaepError("decryption error")
    return rest[separator + 1 :]
