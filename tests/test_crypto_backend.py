"""Differential fuzz: the ``pure`` and ``accel`` crypto backends must
agree bit-for-bit — the accelerated arm exists so that wall-clock, and
only wall-clock, changes (DESIGN.md "determinism contract")."""

from __future__ import annotations

import random

import pytest

from repro.crypto.backend import (
    AccelBackend,
    PureBackend,
    backend_name,
    get_backend,
    resolve_backend_name,
    rsa_op_counts,
    set_backend,
    use_backend,
)
from repro.crypto.drbg import HmacDrbg

PURE = PureBackend()
ACCEL = AccelBackend()

#: Both RSA arms, for differential fuzz.
RSA_ARMS = [("pure", PURE), ("accel", ACCEL)]

BLOCK = 64  # SHA-1 and SHA-256 share a 64-byte block

#: Every message length from empty through three full blocks — covers
#: the padding boundary (55/56), exact blocks and every straddle.
ALL_LENGTHS = range(0, 3 * BLOCK + 1)

#: Key lengths around the HMAC block boundary (keys longer than one
#: block are pre-hashed — a different code path in both arms).
KEY_LENGTHS = (0, 1, 20, 63, 64, 65, 128, 200)


def _material(length: int, salt: int = 0) -> bytes:
    rng = random.Random(0xC0FFEE + salt + 1_000_003 * length)
    return bytes(rng.getrandbits(8) for _ in range(length))


class TestDifferentialHashes:
    def test_sha1_all_lengths_to_three_blocks(self):
        for length in ALL_LENGTHS:
            message = _material(length)
            assert PURE.sha1(message) == ACCEL.sha1(message), length

    def test_sha256_all_lengths_to_three_blocks(self):
        for length in ALL_LENGTHS:
            message = _material(length, salt=1)
            assert PURE.sha256(message) == ACCEL.sha256(message), length

    def test_incremental_contexts_agree_across_splits(self):
        message = _material(3 * BLOCK, salt=2)
        for split in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, len(message)):
            for attr in ("new_sha1", "new_sha256"):
                pure_ctx = getattr(PURE, attr)(message[:split])
                accel_ctx = getattr(ACCEL, attr)(message[:split])
                pure_ctx.update(message[split:])
                accel_ctx.update(message[split:])
                assert pure_ctx.digest() == accel_ctx.digest()
                assert pure_ctx.hexdigest() == accel_ctx.hexdigest()


class TestDifferentialHmac:
    @pytest.mark.parametrize("key_length", KEY_LENGTHS)
    def test_hmac_sha1(self, key_length):
        key = _material(key_length, salt=3)
        for msg_length in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK):
            message = _material(msg_length, salt=4)
            assert PURE.hmac_sha1(key, message) == ACCEL.hmac_sha1(
                key, message
            )

    @pytest.mark.parametrize("key_length", KEY_LENGTHS)
    def test_hmac_sha256(self, key_length):
        key = _material(key_length, salt=5)
        for msg_length in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK):
            message = _material(msg_length, salt=6)
            assert PURE.hmac_sha256(key, message) == ACCEL.hmac_sha256(
                key, message
            )


class TestDifferentialDrbg:
    """The DRBG is the system's randomness root: stream equality here is
    what guarantees whole-experiment bit-identity across backends."""

    @pytest.mark.parametrize(
        "seed,personalization",
        [
            (b"seed-a", b""),
            (b"seed-b", b"tpm:0"),
            (b"\x00" * 32, b"provider-nonces"),
        ],
    )
    def test_ten_kilobyte_streams_identical(self, seed, personalization):
        with use_backend("pure"):
            pure_stream = HmacDrbg(seed, personalization).generate(10_000)
        with use_backend("accel"):
            accel_stream = HmacDrbg(seed, personalization).generate(10_000)
        assert pure_stream == accel_stream

    def test_chunked_generation_identical(self):
        # State updates between generate() calls must track too, not
        # just the raw keystream.
        chunks = (1, 31, 32, 33, 500)
        with use_backend("pure"):
            drbg = HmacDrbg(b"chunks")
            pure_parts = [drbg.generate(n) for n in chunks]
            pure_fork = drbg.fork(b"child").generate(64)
        with use_backend("accel"):
            drbg = HmacDrbg(b"chunks")
            accel_parts = [drbg.generate(n) for n in chunks]
            accel_fork = drbg.fork(b"child").generate(64)
        assert pure_parts == accel_parts
        assert pure_fork == accel_fork

    def test_generate_below_identical(self):
        with use_backend("pure"):
            pure_values = [
                HmacDrbg(b"gb").generate_below(bound)
                for bound in (2, 10, 1 << 31)
            ]
        with use_backend("accel"):
            accel_values = [
                HmacDrbg(b"gb").generate_below(bound)
                for bound in (2, 10, 1 << 31)
            ]
        assert pure_values == accel_values


class TestDifferentialRsa:
    """Both RSA arms (and the schoolbook reference) must agree
    bit-for-bit on modexp, CRT signing and verification — including on
    garbage inputs like corrupted signature bytes, where every arm must
    return the *same wrong* number."""

    KEY_BITS = (512, 768, 1024)

    @staticmethod
    def _keypair(bits):
        from repro.crypto.rsa import generate_rsa_keypair

        return generate_rsa_keypair(bits, HmacDrbg(b"rsa-diff:%d" % bits))

    def test_modexp_fuzz_all_arms_and_strategies(self):
        from repro.crypto.modexp import modexp_binary

        rng = random.Random(0xA11CE)
        for trial in range(300):
            bits = rng.choice((8, 16, 64, 256, 1025))
            mod = rng.getrandbits(bits) | 1
            if mod < 3:
                mod = 3
            base = rng.getrandbits(bits + 7)
            exp = rng.getrandbits(rng.choice((0, 1, 16, 64, 256)))
            expected = pow(base, exp, mod)
            assert modexp_binary(base, exp, mod) == expected, trial
            for name, arm in RSA_ARMS:
                assert arm.rsa_modexp(base, exp, mod) == expected, (
                    name, trial,
                )

    def test_modexp_even_modulus_and_edge_cases(self):
        from repro.crypto.modexp import modexp_binary

        cases = [(5, 3, 4), (2, 10, 6), (7, 0, 1), (0, 0, 7), (10, 1, 1)]
        for base, exp, mod in cases:
            expected = pow(base, exp, mod)
            assert modexp_binary(base, exp, mod) == expected
            for name, arm in RSA_ARMS:
                assert arm.rsa_modexp(base, exp, mod) == expected, name

    def test_modexp_rejects_bad_operands(self):
        from repro.crypto.modexp import modexp_binary

        with pytest.raises(ValueError):
            modexp_binary(2, 3, 0)
        with pytest.raises(ValueError):
            modexp_binary(2, -1, 5)

    @pytest.mark.parametrize("bits", KEY_BITS)
    def test_sign_crt_and_verify_agree_across_arms(self, bits):
        key = self._keypair(bits)
        rng = random.Random(bits)
        for _ in range(5):
            c = rng.randrange(0, key.n)
            reference_sig = pow(c, key.d, key.n)
            reference_rec = pow(c, key.public.e, key.n)
            for name, arm in RSA_ARMS:
                assert arm.rsa_sign_crt(key, c) == reference_sig, name
                assert arm.rsa_verify(key.public, c) == reference_rec, name

    def test_sign_crt_rejects_out_of_range(self):
        key = self._keypair(512)
        for name, arm in RSA_ARMS:
            with pytest.raises(ValueError):
                arm.rsa_sign_crt(key, key.n)
            with pytest.raises(ValueError):
                arm.rsa_sign_crt(key, -1)

    def test_corrupted_signatures_rejected_identically(self):
        from repro.crypto.pkcs1 import pkcs1_sign, pkcs1_verify

        key = self._keypair(512)
        message = b"transfer $100 to account 42"
        signature = pkcs1_sign(key, message)
        corruptions = [
            signature[:-1] + bytes([signature[-1] ^ 0x01]),
            bytes([signature[0] ^ 0x80]) + signature[1:],
            signature[:10] + bytes([signature[10] ^ 0xFF]) + signature[11:],
            signature[:-1],          # truncated
            signature + b"\x00",     # extended
            b"\x00" * len(signature),
        ]
        for name, _arm in RSA_ARMS:
            with use_backend(name):
                assert pkcs1_verify(key.public, message, signature), name
                for corrupted in corruptions:
                    assert not pkcs1_verify(
                        key.public, message, corrupted
                    ), name

    def test_pkcs1_verify_many_matches_singles(self):
        from repro.crypto.pkcs1 import (
            pkcs1_sign,
            pkcs1_verify,
            pkcs1_verify_many,
        )

        key = self._keypair(512)
        items = []
        for index in range(4):
            message = b"batch item %d" % index
            signature = pkcs1_sign(key, message)
            if index == 2:
                signature = signature[:-1] + bytes(
                    [signature[-1] ^ 0x01]
                )
            items.append((message, signature))
        items.append((b"short sig", b"\x01\x02"))
        expected = [
            pkcs1_verify(key.public, m, s) for m, s in items
        ]
        assert expected == [True, True, False, True, False]
        for name, _arm in RSA_ARMS:
            with use_backend(name):
                assert pkcs1_verify_many(key.public, items) == expected

    def test_oaep_roundtrip_identical_across_arms(self):
        from repro.crypto.oaep import oaep_decrypt, oaep_encrypt

        key = self._keypair(1024)
        blobs = {}
        for name, _arm in RSA_ARMS:
            with use_backend(name):
                ciphertext = oaep_encrypt(
                    key.public, b"sealed secret", HmacDrbg(b"oaep-seed")
                )
                assert oaep_decrypt(key, ciphertext) == b"sealed secret"
                blobs[name] = ciphertext
        assert len(set(blobs.values())) == 1, blobs.keys()

    def test_op_counters_track_entry_points(self):
        from repro.crypto import backend as module

        key = self._keypair(512)
        before = rsa_op_counts()
        module.rsa_modexp(2, 3, 5)
        module.rsa_sign_crt(key, 123)
        module.rsa_verify(key.public, 123)
        module.rsa_verify(key.public, 456)
        after = rsa_op_counts()
        assert after["modexp"] - before["modexp"] == 1
        assert after["sign_crt"] - before["sign_crt"] == 1
        assert after["verify"] - before["verify"] == 2


class TestEagerValidation:
    def test_resolve_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="openssl3"):
            resolve_backend_name("openssl3")

    def test_resolve_rejects_bad_env(self, monkeypatch):
        from repro.crypto import backend as module

        monkeypatch.setenv(module.ENV_VAR, "bogus")
        with pytest.raises(ValueError, match="bogus"):
            resolve_backend_name(None)

    def test_resolve_accepts_known_names(self, monkeypatch):
        from repro.crypto import backend as module

        assert resolve_backend_name("pure") == "pure"
        assert resolve_backend_name("accel") == "accel"
        monkeypatch.delenv(module.ENV_VAR, raising=False)
        assert resolve_backend_name(None) == "accel"


class TestBackendSelection:
    @pytest.fixture(autouse=True)
    def _pin_accel(self):
        """Run each selection test from a known 'accel' state and put
        the process backend back afterwards (the suite may run under
        REPRO_CRYPTO_BACKEND=pure — the CI reference leg)."""
        previous = set_backend("accel")
        yield
        set_backend(previous)

    def test_default_resolution_without_env(self, monkeypatch):
        from repro.crypto import backend as module

        monkeypatch.delenv(module.ENV_VAR, raising=False)
        set_backend(None)  # None re-resolves the default
        assert backend_name() == "accel"

    def test_set_backend_returns_previous(self):
        assert set_backend("pure") == "accel"
        try:
            assert backend_name() == "pure"
            assert get_backend().name == "pure"
        finally:
            assert set_backend("accel") == "pure"

    def test_use_backend_restores_on_exit(self):
        with use_backend("pure"):
            assert backend_name() == "pure"
            with use_backend("accel"):
                assert backend_name() == "accel"
            assert backend_name() == "pure"
        assert backend_name() == "accel"

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_backend("pure"):
                raise RuntimeError("boom")
        assert backend_name() == "accel"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            set_backend("openssl3")

    def test_env_var_resolution(self, monkeypatch):
        from repro.crypto import backend as module

        monkeypatch.setenv(module.ENV_VAR, "pure")
        previous = set_backend(None)  # None re-reads the environment
        try:
            assert backend_name() == "pure"
        finally:
            set_backend(previous)

    def test_env_var_invalid_rejected(self, monkeypatch):
        from repro.crypto import backend as module

        monkeypatch.setenv(module.ENV_VAR, "bogus")
        with pytest.raises(ValueError):
            set_backend(None)
        assert backend_name() == "accel"

    def test_simulator_default_leaves_backend_alone(self):
        from repro.sim import Simulator

        with use_backend("pure"):
            Simulator(seed=1)
            assert backend_name() == "pure"
