"""Cryptographic substrate (system S2).

A v1.2 TPM is, internally, SHA-1 + HMAC + RSA.  The primitives come
from the standard library — ``hashlib``, ``hmac`` and three-argument
``pow`` — through one backend, :mod:`repro.crypto.backend`, whose
counted RSA entry points record the work each experiment does.  What
is written here from scratch is everything built on top of them:

* :mod:`repro.crypto.sha1`, :mod:`repro.crypto.sha256`,
  :mod:`repro.crypto.hmac_impl` — the hash and HMAC entry points every
  layer calls.
* :mod:`repro.crypto.drbg` — HMAC-DRBG (NIST SP 800-90A shape) providing
  deterministic randomness for key generation and nonces.
* :mod:`repro.crypto.primes` — Miller–Rabin probable-prime generation.
* :mod:`repro.crypto.rsa` — RSA key generation and raw modular exponent
  operations (CRT on the private side, :mod:`repro.crypto.modexp`).
* :mod:`repro.crypto.pkcs1` — PKCS#1 v1.5 signatures and encryption
  (the signature scheme TPM 1.2 quotes actually use).
* :mod:`repro.crypto.oaep` — RSAES-OAEP with MGF1-SHA1 (what the TPM
  uses for EK encryption, e.g. AIK activation blobs).
* :mod:`repro.crypto.stream` — an HMAC-counter keystream cipher with
  encrypt-then-MAC, used for the symmetric layer of sealed blobs.

Performance note: RSA keygen (the Miller–Rabin prime search in Python)
is slow for large moduli, so components default to 1024-bit keys (the
TPM 1.2 era default) and the test suite uses smaller keys where
identity, not strength, is being tested.
"""

from repro.crypto.drbg import HmacDrbg
from repro.crypto.hmac_impl import hmac_sha1, hmac_sha256
from repro.crypto.oaep import OaepError, oaep_decrypt, oaep_encrypt
from repro.crypto.pkcs1 import (
    SignatureError,
    pkcs1_decrypt,
    pkcs1_encrypt,
    pkcs1_sign,
    pkcs1_verify,
)
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_rsa_keypair
from repro.crypto.sha1 import sha1
from repro.crypto.sha256 import sha256
from repro.crypto.stream import AuthenticationError, open_box, seal_box

__all__ = [
    "sha1",
    "sha256",
    "hmac_sha1",
    "hmac_sha256",
    "HmacDrbg",
    "generate_prime",
    "is_probable_prime",
    "RsaKeyPair",
    "RsaPublicKey",
    "generate_rsa_keypair",
    "pkcs1_sign",
    "pkcs1_verify",
    "pkcs1_encrypt",
    "pkcs1_decrypt",
    "SignatureError",
    "oaep_encrypt",
    "oaep_decrypt",
    "OaepError",
    "seal_box",
    "open_box",
    "AuthenticationError",
]
