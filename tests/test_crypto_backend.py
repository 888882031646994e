"""The RSA entry points of the one crypto backend.

Private-key operations are checked against plain ``pow(m, d, n)`` —
the definition of RSA, with no CRT — at 512, 768 and 1024 bits, and
across more distinct keys than the per-key CRT context cache holds, so
an evicted key is rebuilt and still signs correctly.  The op counters
the bench runner records per cell are checked per entry point.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.crypto import backend as module
from repro.crypto.backend import (
    CRT_CONTEXT_LIMIT,
    AccelBackend,
    rsa_op_counts,
    set_backend,
)
from repro.crypto.drbg import HmacDrbg
from repro.crypto.primes import generate_safe_exponent_prime
from repro.crypto.rsa import (
    RsaKeyPair,
    RsaPublicKey,
    _modinv,
    generate_rsa_keypair,
)

KEY_BITS = (512, 768, 1024)


def _keypair(bits):
    return generate_rsa_keypair(bits, HmacDrbg(b"rsa-kat:%d" % bits))


def _keypair_from_primes(p, q, e=65537):
    d = _modinv(e, (p - 1) * (q - 1))
    return RsaKeyPair(
        public=RsaPublicKey(n=p * q, e=e), d=d, p=p, q=q,
        d_p=d % (p - 1), d_q=d % (q - 1), q_inv=_modinv(q, p),
    )


class TestRsaAgainstPow:
    @pytest.mark.parametrize("bits", KEY_BITS)
    def test_crt_sign_and_verify_match_pow(self, bits):
        key = _keypair(bits)
        rng = random.Random(bits)
        inputs = [0, 1, key.n - 1] + [rng.randrange(key.n) for _ in range(5)]
        for c in inputs:
            assert key.raw_sign(c) == pow(c, key.d, key.n)
            assert key.public.raw_verify(c) == pow(c, key.public.e, key.n)
            assert module.rsa_modexp(c, key.d, key.n) == pow(c, key.d, key.n)

    def test_crt_cache_evicts_and_rebuilds(self):
        """More keys than the cache holds, all through one backend: the
        oldest contexts are evicted, the cache never outgrows its bound,
        and an evicted key signs correctly on its next use."""
        drbg = HmacDrbg(b"crt-eviction")
        primes = []
        while len(primes) * (len(primes) - 1) // 2 <= CRT_CONTEXT_LIMIT:
            prime = generate_safe_exponent_prime(256, drbg, 65537)
            if prime not in primes:
                primes.append(prime)
        keys = [
            _keypair_from_primes(p, q)
            for p, q in combinations(primes, 2)
        ][: CRT_CONTEXT_LIMIT + 1]
        backend = AccelBackend()
        c = 0xC0FFEE
        for key in keys:
            assert backend.rsa_sign_crt(key, c) == pow(c, key.d, key.n)
        cache = backend._crt_contexts._entries
        assert len(cache) == CRT_CONTEXT_LIMIT
        first = keys[0]
        assert (first.p, first.q, first.d_p, first.d_q, first.q_inv) not in cache
        assert backend.rsa_sign_crt(first, c) == pow(c, first.d, first.n)

    def test_sign_rejects_out_of_range(self):
        key = _keypair(512)
        with pytest.raises(ValueError):
            key.raw_sign(key.n)
        with pytest.raises(ValueError):
            key.raw_sign(-1)


class TestOpCounters:
    def test_each_entry_point_counts_its_own_op(self):
        key = _keypair(512)
        calls = [
            ("modexp", lambda: module.rsa_modexp(2, 3, 5)),
            ("sign_crt", lambda: module.rsa_sign_crt(key, 123)),
            ("verify", lambda: module.rsa_verify(key.public, 123)),
        ]
        for op, call in calls:
            before = rsa_op_counts()
            call()
            call()
            after = rsa_op_counts()
            assert {
                name: after[name] - before[name] for name in after
            } == {name: 2 if name == op else 0 for name in after}


class TestSetBackend:
    def test_accepts_only_accel(self):
        assert set_backend("accel") is None
        for name in ("pure", "openssl3", ""):
            with pytest.raises(ValueError, match=repr(name)):
                set_backend(name)
