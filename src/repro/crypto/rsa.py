"""RSA key generation and raw modular operations.

The TPM 1.2 key hierarchy (EK, SRK, AIKs, storage and signing keys) is
RSA; quotes are RSA-PKCS#1 v1.5 signatures.  Keys default to 1024 bits —
the era-accurate TPM default — but all sizes >= 512 are accepted so tests
can use fast small keys when only structural identity matters.

Private operations use the Chinese Remainder Theorem, as real TPM
firmware does.

The raw modular operations dispatch through the counted RSA entry
points of :mod:`repro.crypto.backend` (``rsa_verify`` for the public
op, ``rsa_sign_crt`` for the private op), so every signature, quote
and sealed blob in the system is counted in :func:`rsa_op_counts
<repro.crypto.backend.rsa_op_counts>`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict

from repro.crypto import backend as _backend
from repro.crypto.drbg import HmacDrbg
from repro.crypto.primes import generate_safe_exponent_prime

DEFAULT_PUBLIC_EXPONENT = 65537
DEFAULT_KEY_BITS = 1024


def _modinv(a: int, m: int) -> int:
    """Modular inverse by extended Euclid; raises if gcd(a, m) != 1."""
    g, x = _extended_gcd(a, m)
    if g != 1:
        raise ValueError("modular inverse does not exist")
    return x % m


def _extended_gcd(a: int, b: int) -> tuple:
    old_r, r = a, b
    old_s, s = 1, 0
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
    return old_r, old_s


@dataclass(frozen=True)
class RsaPublicKey:
    """Public half: modulus n and exponent e."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def raw_encrypt(self, m: int) -> int:
        """c = m^e mod n (no padding — callers use pkcs1)."""
        if not 0 <= m < self.n:
            raise ValueError("message representative out of range")
        return _backend.rsa_verify(self, m)

    raw_verify = raw_encrypt  # verification is the same public-key operation

    def fingerprint(self) -> bytes:
        """SHA-1 over the serialized public key; used as a key identity."""
        from repro.crypto.sha1 import sha1

        return sha1(self.to_bytes())

    def to_bytes(self) -> bytes:
        """Length-prefixed big-endian serialization of (n, e)."""
        n_bytes = self.n.to_bytes(self.byte_length, "big")
        e_bytes = self.e.to_bytes((self.e.bit_length() + 7) // 8 or 1, "big")
        return (
            len(n_bytes).to_bytes(4, "big")
            + n_bytes
            + len(e_bytes).to_bytes(4, "big")
            + e_bytes
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "RsaPublicKey":
        """Strict inverse of :meth:`to_bytes`.

        Every declared length is validated against the buffer and every
        byte must be consumed: a truncated ``n``/``e`` slice or trailing
        garbage raises instead of silently yielding a *different* key
        with a *different* fingerprint — a parsing bug that would turn
        a corrupted enrollment message into a wrong identity rather
        than a loud error.
        """
        if len(data) < 4:
            raise ValueError("malformed public key serialization: "
                             "truncated n length prefix")
        n_len = int.from_bytes(data[:4], "big")
        offset = 4 + n_len
        if n_len == 0 or len(data) < offset:
            raise ValueError("malformed public key serialization: "
                             f"declared n length {n_len} exceeds buffer")
        n = int.from_bytes(data[4:offset], "big")
        if len(data) < offset + 4:
            raise ValueError("malformed public key serialization: "
                             "truncated e length prefix")
        e_len = int.from_bytes(data[offset : offset + 4], "big")
        end = offset + 4 + e_len
        if e_len == 0 or len(data) < end:
            raise ValueError("malformed public key serialization: "
                             f"declared e length {e_len} exceeds buffer")
        e = int.from_bytes(data[offset + 4 : end], "big")
        if len(data) != end:
            raise ValueError("malformed public key serialization: "
                             f"{len(data) - end} unconsumed trailing bytes")
        if n <= 0 or e <= 0:
            raise ValueError("malformed public key serialization")
        return cls(n=n, e=e)


@dataclass(frozen=True)
class RsaKeyPair:
    """Full key pair with CRT parameters."""

    public: RsaPublicKey
    d: int
    p: int
    q: int
    d_p: int
    d_q: int
    q_inv: int

    @property
    def n(self) -> int:
        return self.public.n

    @property
    def byte_length(self) -> int:
        return self.public.byte_length

    def raw_decrypt(self, c: int) -> int:
        """m = c^d mod n via CRT (≈4x faster than the naive exponent).

        Dispatches through the backend's ``rsa_sign_crt`` entry point,
        which recombines with Garner's formula over a cached per-key
        CRT context (range check included there)."""
        return _backend.rsa_sign_crt(self, c)

    raw_sign = raw_decrypt  # signing is the same private-key operation


#: Keygen replay cache.  HMAC-DRBG output is a pure function of its
#: (key, value) state, so identical entry state + parameters yield the
#: identical keypair and leave the generator in the identical exit
#: state.  Every re-seeded world (each experiment repetition, each
#: test) replays its prime search from here instead of re-running ~20 s
#: of pure-Python arithmetic; results are bit-identical either way.
#:
#: The cache is **bounded**: entries are LRU-evicted past
#: :data:`KEYGEN_CACHE_LIMIT`, so a long pytest session or a pooled
#: worker that churns through many distinct seeds cannot grow it
#: without limit.  Eviction only costs a future re-generation — never
#: correctness.
_KEYGEN_CACHE: "OrderedDict" = OrderedDict()

#: Generous relative to any single run: the full experiment matrix
#: touches a few dozen distinct (bits, e, entry-state) tuples.
KEYGEN_CACHE_LIMIT = 128

_KEYGEN_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def keygen_cache_stats() -> Dict[str, int]:
    """Hits / misses / evictions since process start (or last clear).

    Deliberate test-facing inspection API: the program never reads it;
    tests use it to see that keygen memoization hits, misses and evicts
    as designed."""
    return dict(_KEYGEN_CACHE_STATS, entries=len(_KEYGEN_CACHE))


def clear_keygen_cache() -> None:
    """Drop every cached keypair and reset the counters.

    Test fixtures use this to get cold-cache behaviour deterministically
    instead of depending on what earlier tests happened to generate.
    """
    _KEYGEN_CACHE.clear()
    for counter in _KEYGEN_CACHE_STATS:
        _KEYGEN_CACHE_STATS[counter] = 0


def generate_rsa_keypair(
    bits: int,
    drbg: HmacDrbg,
    e: int = DEFAULT_PUBLIC_EXPONENT,
) -> RsaKeyPair:
    """Generate an RSA key pair of (approximately) ``bits`` modulus bits."""
    if bits < 512:
        raise ValueError(f"refusing RSA keys under 512 bits (got {bits})")
    entry_key, entry_value, entry_count = drbg.snapshot()
    cache_key = (bits, e, entry_key, entry_value)
    cached = _KEYGEN_CACHE.get(cache_key)
    if cached is not None:
        _KEYGEN_CACHE.move_to_end(cache_key)
        _KEYGEN_CACHE_STATS["hits"] += 1
        keypair, exit_key, exit_value, consumed = cached
        drbg.restore((exit_key, exit_value, entry_count + consumed))
        return keypair
    _KEYGEN_CACHE_STATS["misses"] += 1
    keypair = _generate_rsa_keypair(bits, drbg, e)
    exit_key, exit_value, exit_count = drbg.snapshot()
    _KEYGEN_CACHE[cache_key] = (
        keypair, exit_key, exit_value, exit_count - entry_count,
    )
    while len(_KEYGEN_CACHE) > KEYGEN_CACHE_LIMIT:
        _KEYGEN_CACHE.popitem(last=False)
        _KEYGEN_CACHE_STATS["evictions"] += 1
    return keypair


def _generate_rsa_keypair(bits: int, drbg: HmacDrbg, e: int) -> RsaKeyPair:
    half = bits // 2
    while True:
        p = generate_safe_exponent_prime(half, drbg, e)
        q = generate_safe_exponent_prime(bits - half, drbg, e)
        if p == q:
            continue
        n = p * q
        if n.bit_length() < bits - 1:
            continue
        phi = (p - 1) * (q - 1)
        d = _modinv(e, phi)
        return RsaKeyPair(
            public=RsaPublicKey(n=n, e=e),
            d=d,
            p=p,
            q=q,
            d_p=d % (p - 1),
            d_q=d % (q - 1),
            q_inv=_modinv(q, p),
        )
