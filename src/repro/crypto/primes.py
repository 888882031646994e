"""Probable-prime generation for RSA key material.

Miller–Rabin with a deterministic small-prime sieve in front.  Randomness
comes from an :class:`~repro.crypto.drbg.HmacDrbg` so that key generation
is reproducible under a fixed experiment seed.

The witness exponentiation — the dominant keygen cost — dispatches
through :func:`repro.crypto.backend.rsa_modexp`, so the backend arms
(``pure`` schoolbook / ``accel``) apply to prime search
exactly as they do to signing and verification.  The sieve itself runs
as a single ``gcd`` against a precomputed primorial: one C-level call
that makes the *identical* accept/reject decision the per-prime trial
division loop made, at a fraction of the interpreter cost.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.crypto import backend as _backend
from repro.crypto.drbg import HmacDrbg

# Primes below 1000, used to cheaply reject most composites before
# running Miller-Rabin rounds.
_SMALL_PRIMES = [2, 3]
for _candidate in range(5, 1000, 2):
    if all(_candidate % p for p in _SMALL_PRIMES):
        _SMALL_PRIMES.append(_candidate)

_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_LARGEST_SMALL_PRIME = _SMALL_PRIMES[-1]

#: Product of every sieve prime.  ``gcd(candidate, _PRIMORIAL) > 1``
#: iff some sieve prime divides the candidate — the same predicate the
#: trial-division loop computes, in one bignum gcd.
_PRIMORIAL = math.prod(_SMALL_PRIMES)


def _miller_rabin_round(candidate: int, base: int) -> bool:
    """One Miller–Rabin witness test; True means 'probably prime'."""
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = _backend.rsa_modexp(base, d, candidate)
    if x in (1, candidate - 1):
        return True
    for _ in range(r - 1):
        x = x * x % candidate
        if x == candidate - 1:
            return True
    return False


def is_probable_prime(
    candidate: int, rounds: int = 32, drbg: Optional[HmacDrbg] = None
) -> bool:
    """Miller–Rabin primality test.

    With ``drbg`` given, witnesses are drawn from it (reproducible);
    otherwise the first ``rounds`` small primes are used as witnesses,
    which is deterministic and adequate for the sizes used here.
    """
    if candidate < 2:
        return False
    if candidate <= _LARGEST_SMALL_PRIME:
        return candidate in _SMALL_PRIME_SET
    if math.gcd(candidate, _PRIMORIAL) != 1:
        # Shares a factor with some sieve prime; being above the sieve
        # range, the candidate is a proper multiple — composite.  Same
        # verdict as trial division by each small prime, one gcd.
        return False
    for round_index in range(rounds):
        if drbg is not None:
            base = 2 + drbg.generate_below(candidate - 3)
        else:
            base = _SMALL_PRIMES[round_index % len(_SMALL_PRIMES)]
        if not _miller_rabin_round(candidate, base):
            return False
    return True


def generate_prime(bits: int, drbg: HmacDrbg, rounds: int = 16) -> int:
    """Generate a probable prime of exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError(f"refusing to generate tiny {bits}-bit primes")
    while True:
        candidate = drbg.generate_int(bits) | 1
        if is_probable_prime(candidate, rounds=rounds, drbg=drbg):
            return candidate


def generate_safe_exponent_prime(bits: int, drbg: HmacDrbg, e: int) -> int:
    """Generate a prime p with gcd(p - 1, e) == 1, as RSA keygen needs."""
    while True:
        candidate = generate_prime(bits, drbg)
        if _gcd(candidate - 1, e) == 1:
            return candidate


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
