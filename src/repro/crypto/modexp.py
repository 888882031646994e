"""Modular exponentiation for the RSA backend arms.

Every RSA operation in the reproduction — TPM quote signatures, AIK
certification, the sealed signing key, OAEP to the EK, Miller–Rabin
witnesses during key generation — reduces to ``base^exp mod n``.  Two
interchangeable ways compute it:

``modexp_binary``
    Schoolbook right-to-left square-and-multiply, the textbook
    pseudocode.  The ``pure`` backend arm's reference implementation,
    analogous to the hand-rolled FIPS hash arms.

``pow``
    CPython's built-in three-argument ``pow`` — a C implementation of
    windowed exponentiation.  At the 512–2048-bit operand sizes used
    here it beats any Python-level loop, so the ``accel`` arm
    dispatches to it; the ``rsax`` microbench cell records the
    pure-vs-accel comparison per run.

Both are bit-identical by construction and differentially fuzzed
against each other in ``tests/test_crypto_backend.py``; the choice is
wall-clock only (DESIGN.md "determinism contract").

:class:`CrtContext` carries the precomputed Chinese-Remainder data for
one private key (d_p, d_q, q_inv) so repeated signing by the same key
— every TPM quote, every sealed-key confirmation — skips per-call
attribute traversal and recombines with Garner's formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


def modexp_binary(base: int, exp: int, mod: int) -> int:
    """Schoolbook right-to-left binary square-and-multiply.

    The reference arm: exactly the pseudocode result of repeated
    squaring, bit-identical to ``pow(base, exp, mod)`` for every
    non-negative exponent.
    """
    if mod <= 0:
        raise ValueError(f"modulus must be positive: {mod}")
    if exp < 0:
        raise ValueError(f"negative exponent unsupported: {exp}")
    result = 1 % mod
    base %= mod
    while exp:
        if exp & 1:
            result = result * base % mod
        base = base * base % mod
        exp >>= 1
    return result


@dataclass(frozen=True)
class CrtContext:
    """Precomputed CRT data for one RSA private key.

    ``sign`` recombines with Garner's formula — identical arithmetic to
    :meth:`repro.crypto.rsa.RsaKeyPair.raw_decrypt`, with the modexp
    strategy injected so every backend arm shares one recombination
    path (bit-identical by construction).
    """

    n: int
    p: int
    q: int
    d_p: int
    d_q: int
    q_inv: int

    @classmethod
    def from_key(cls, key) -> "CrtContext":
        return cls(n=key.n, p=key.p, q=key.q, d_p=key.d_p, d_q=key.d_q,
                   q_inv=key.q_inv)

    def sign(self, c: int, modexp: Callable[[int, int, int], int] = pow) -> int:
        if not 0 <= c < self.n:
            raise ValueError("ciphertext representative out of range")
        m1 = modexp(c, self.d_p, self.p)
        m2 = modexp(c, self.d_q, self.q)
        h = (self.q_inv * (m1 - m2)) % self.p
        return m2 + h * self.q
