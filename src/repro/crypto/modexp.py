"""Precomputed CRT data for RSA private-key operations.

Every RSA private operation in the reproduction — TPM quote
signatures, AIK certification, the sealed signing key, OAEP
decryption to the EK — is ``c^d mod n``.  :class:`CrtContext` carries
the Chinese-Remainder data for one private key (d_p, d_q, q_inv) so
repeated signing by the same key skips per-call attribute traversal:
two half-size exponentiations with CPython's built-in three-argument
``pow``, recombined with Garner's formula.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CrtContext:
    """Precomputed CRT data for one RSA private key.

    ``sign`` recombines with Garner's formula — identical arithmetic to
    :meth:`repro.crypto.rsa.RsaKeyPair.raw_decrypt`.
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

    def sign(self, c: int) -> int:
        if not 0 <= c < self.n:
            raise ValueError("ciphertext representative out of range")
        m1 = pow(c, self.d_p, self.p)
        m2 = pow(c, self.d_q, self.q)
        h = (self.q_inv * (m1 - m2)) % self.p
        return m2 + h * self.q
