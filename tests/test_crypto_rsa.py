"""RSA, PKCS#1, primes, and the sealing stream cipher."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (
    AuthenticationError,
    HmacDrbg,
    SignatureError,
    generate_prime,
    generate_rsa_keypair,
    is_probable_prime,
    open_box,
    pkcs1_decrypt,
    pkcs1_encrypt,
    pkcs1_sign,
    pkcs1_verify,
    seal_box,
    sha1,
)
from repro.crypto.rsa import RsaPublicKey


@pytest.fixture(scope="module")
def keypair():
    return generate_rsa_keypair(512, HmacDrbg(b"test-rsa"))


@pytest.fixture(scope="module")
def other_keypair():
    return generate_rsa_keypair(512, HmacDrbg(b"other-rsa"))


class TestPrimes:
    def test_known_primes(self):
        for p in (2, 3, 5, 7, 97, 7919, 104729):
            assert is_probable_prime(p)

    def test_known_composites(self):
        for c in (0, 1, 4, 100, 561, 7917, 104730):
            assert not is_probable_prime(c)

    def test_carmichael_numbers_rejected(self):
        # Classic Fermat-test foolers; Miller-Rabin must catch them.
        for c in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_probable_prime(c)

    def test_generated_prime_has_exact_bits(self):
        drbg = HmacDrbg(b"primes")
        for bits in (64, 128, 256):
            p = generate_prime(bits, drbg)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_tiny_primes_refused(self):
        with pytest.raises(ValueError):
            generate_prime(4, HmacDrbg(b"x"))


class TestRsaKeys:
    def test_keygen_deterministic(self):
        a = generate_rsa_keypair(512, HmacDrbg(b"det"))
        b = generate_rsa_keypair(512, HmacDrbg(b"det"))
        assert a.public == b.public and a.d == b.d

    def test_keygen_cache_replays_exact_state(self):
        """A cache hit returns the identical keypair AND leaves the DRBG
        in the identical state, so downstream draws are unaffected."""
        from repro.crypto.rsa import _KEYGEN_CACHE

        _KEYGEN_CACHE.clear()
        cold_drbg = HmacDrbg(b"cache-replay")
        cold = generate_rsa_keypair(512, cold_drbg)
        cold_after = cold_drbg.generate(32)

        warm_drbg = HmacDrbg(b"cache-replay")
        warm = generate_rsa_keypair(512, warm_drbg)
        assert warm is cold  # served from the cache, not regenerated
        assert warm_drbg.generate(32) == cold_after
        assert warm_drbg.bytes_generated == cold_drbg.bytes_generated

    def test_roundtrip_raw(self, keypair):
        message = 123456789
        assert keypair.raw_decrypt(keypair.public.raw_encrypt(message)) == message

    def test_crt_matches_plain_exponentiation(self, keypair):
        c = 2**200 + 12345
        assert keypair.raw_decrypt(c) == pow(c, keypair.d, keypair.n)

    def test_public_key_serialization_roundtrip(self, keypair):
        data = keypair.public.to_bytes()
        restored = RsaPublicKey.from_bytes(data)
        assert restored == keypair.public

    def test_fingerprint_is_stable_and_distinct(self, keypair, other_keypair):
        assert keypair.public.fingerprint() == keypair.public.fingerprint()
        assert keypair.public.fingerprint() != other_keypair.public.fingerprint()

    def test_out_of_range_rejected(self, keypair):
        with pytest.raises(ValueError):
            keypair.public.raw_encrypt(keypair.n)
        with pytest.raises(ValueError):
            keypair.raw_decrypt(-1)

    def test_small_keys_refused(self):
        with pytest.raises(ValueError):
            generate_rsa_keypair(256, HmacDrbg(b"small"))


class TestMalformedSerialization:
    """`from_bytes` must reject every malformed buffer loudly — a
    truncated slice or trailing garbage silently parsing into a
    *different* key means a corrupted enrollment yields a wrong
    identity instead of an error."""

    def test_truncated_n_length_prefix(self):
        for data in (b"", b"\x00", b"\x00\x00\x04"):
            with pytest.raises(ValueError, match="malformed"):
                RsaPublicKey.from_bytes(data)

    def test_declared_n_exceeds_buffer(self, keypair):
        data = keypair.public.to_bytes()
        inflated = (len(data)).to_bytes(4, "big") + data[4:]
        with pytest.raises(ValueError, match="exceeds buffer"):
            RsaPublicKey.from_bytes(inflated)

    def test_truncated_n_slice(self, keypair):
        data = keypair.public.to_bytes()
        with pytest.raises(ValueError, match="malformed"):
            RsaPublicKey.from_bytes(data[: 4 + 10])

    def test_missing_e_length_prefix(self, keypair):
        n_len = int.from_bytes(keypair.public.to_bytes()[:4], "big")
        with pytest.raises(ValueError, match="malformed"):
            RsaPublicKey.from_bytes(keypair.public.to_bytes()[: 4 + n_len])

    def test_truncated_e_slice(self, keypair):
        data = keypair.public.to_bytes()
        with pytest.raises(ValueError, match="malformed"):
            RsaPublicKey.from_bytes(data[:-1])

    def test_trailing_garbage_rejected(self, keypair):
        data = keypair.public.to_bytes()
        with pytest.raises(ValueError, match="trailing"):
            RsaPublicKey.from_bytes(data + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            RsaPublicKey.from_bytes(data + data)

    def test_zero_length_fields_rejected(self):
        zero_n = (0).to_bytes(4, "big") + (1).to_bytes(4, "big") + b"\x03"
        with pytest.raises(ValueError, match="malformed"):
            RsaPublicKey.from_bytes(zero_n)
        zero_e = (1).to_bytes(4, "big") + b"\x05" + (0).to_bytes(4, "big")
        with pytest.raises(ValueError, match="malformed"):
            RsaPublicKey.from_bytes(zero_e)

    def test_zero_valued_key_material_rejected(self):
        data = (
            (1).to_bytes(4, "big") + b"\x00"
            + (1).to_bytes(4, "big") + b"\x03"
        )
        with pytest.raises(ValueError, match="malformed"):
            RsaPublicKey.from_bytes(data)

    @given(st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_never_parse_silently_wrong(self, data):
        """Any buffer either parses to a key that re-serializes into a
        buffer from_bytes accepts, or raises ValueError — never a
        silent wrong parse."""
        try:
            key = RsaPublicKey.from_bytes(data)
        except ValueError:
            return
        assert RsaPublicKey.from_bytes(key.to_bytes()) == key


class TestKeygenCacheBound:
    @pytest.fixture(autouse=True)
    def clean_cache(self, clean_keygen_cache):
        """Cold cache per test; restored by the shared conftest fixture."""

    def test_stats_shape_and_counting(self):
        from repro.crypto.rsa import keygen_cache_stats

        stats = keygen_cache_stats()
        assert stats == {"hits": 0, "misses": 0, "evictions": 0,
                         "entries": 0}
        generate_rsa_keypair(512, HmacDrbg(b"stats-a"))
        generate_rsa_keypair(512, HmacDrbg(b"stats-a"))
        generate_rsa_keypair(512, HmacDrbg(b"stats-b"))
        stats = keygen_cache_stats()
        assert stats["misses"] == 2
        assert stats["hits"] == 1
        assert stats["entries"] == 2
        assert stats["evictions"] == 0

    def test_cache_bounded_with_eviction(self, monkeypatch):
        from repro.crypto import rsa as module

        monkeypatch.setattr(module, "KEYGEN_CACHE_LIMIT", 3)
        for index in range(5):
            generate_rsa_keypair(
                512, HmacDrbg(b"evict:%d" % index)
            )
        stats = module.keygen_cache_stats()
        assert stats["entries"] == 3
        assert stats["evictions"] == 2
        # Oldest entries evicted: seed 0 regenerates (miss), the newest
        # replays (hit).
        generate_rsa_keypair(512, HmacDrbg(b"evict:4"))
        assert module.keygen_cache_stats()["hits"] == 1
        generate_rsa_keypair(512, HmacDrbg(b"evict:0"))
        assert module.keygen_cache_stats()["misses"] == 6

    def test_lru_order_hit_refreshes(self, monkeypatch):
        from repro.crypto import rsa as module

        monkeypatch.setattr(module, "KEYGEN_CACHE_LIMIT", 2)
        generate_rsa_keypair(512, HmacDrbg(b"lru:a"))
        generate_rsa_keypair(512, HmacDrbg(b"lru:b"))
        generate_rsa_keypair(512, HmacDrbg(b"lru:a"))  # refresh a
        generate_rsa_keypair(512, HmacDrbg(b"lru:c"))  # evicts b
        before = module.keygen_cache_stats()["misses"]
        generate_rsa_keypair(512, HmacDrbg(b"lru:a"))  # still cached
        assert module.keygen_cache_stats()["misses"] == before

    def test_clear_resets_everything(self):
        from repro.crypto.rsa import clear_keygen_cache, keygen_cache_stats

        generate_rsa_keypair(512, HmacDrbg(b"clear-me"))
        assert keygen_cache_stats()["entries"] == 1
        clear_keygen_cache()
        assert keygen_cache_stats() == {
            "hits": 0, "misses": 0, "evictions": 0, "entries": 0,
        }

    def test_evicted_entry_regenerates_identically(self, monkeypatch):
        from repro.crypto import rsa as module

        monkeypatch.setattr(module, "KEYGEN_CACHE_LIMIT", 1)
        first = generate_rsa_keypair(512, HmacDrbg(b"regen"))
        generate_rsa_keypair(512, HmacDrbg(b"displacer"))
        again = generate_rsa_keypair(512, HmacDrbg(b"regen"))
        assert again is not first  # regenerated, not replayed
        assert again == first      # but bit-identical


class TestPkcs1Signatures:
    def test_sign_verify_roundtrip(self, keypair):
        signature = pkcs1_sign(keypair, b"message")
        assert pkcs1_verify(keypair.public, b"message", signature)

    def test_tampered_message_fails(self, keypair):
        signature = pkcs1_sign(keypair, b"message")
        assert not pkcs1_verify(keypair.public, b"messagE", signature)

    def test_tampered_signature_fails(self, keypair):
        signature = bytearray(pkcs1_sign(keypair, b"message"))
        signature[10] ^= 0xFF
        assert not pkcs1_verify(keypair.public, b"message", bytes(signature))

    def test_wrong_key_fails(self, keypair, other_keypair):
        signature = pkcs1_sign(keypair, b"message")
        assert not pkcs1_verify(other_keypair.public, b"message", signature)

    def test_wrong_length_signature_fails(self, keypair):
        assert not pkcs1_verify(keypair.public, b"m", b"\x00" * 63)

    def test_prehashed_mode(self, keypair):
        digest = sha1(b"payload")
        signature = pkcs1_sign(keypair, digest, prehashed=True)
        assert pkcs1_verify(keypair.public, digest, signature, prehashed=True)
        # And it equals signing the message in non-prehashed mode.
        assert signature == pkcs1_sign(keypair, b"payload")

    def test_sha256_mode(self, keypair):
        signature = pkcs1_sign(keypair, b"m", hash_name="sha256")
        assert pkcs1_verify(keypair.public, b"m", signature, hash_name="sha256")
        assert not pkcs1_verify(keypair.public, b"m", signature, hash_name="sha1")

    def test_prehashed_wrong_length_rejected(self, keypair):
        with pytest.raises(ValueError):
            pkcs1_sign(keypair, b"tooshort", prehashed=True)

    @given(st.binary(min_size=1, max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_property_roundtrip(self, message):
        kp = generate_rsa_keypair(512, HmacDrbg(b"prop-key"))
        signature = pkcs1_sign(kp, message)
        assert pkcs1_verify(kp.public, message, signature)
        assert not pkcs1_verify(kp.public, message + b"x", signature)

    def test_corrupted_signatures_rejected(self, keypair):
        message = b"transfer $100 to account 42"
        signature = pkcs1_sign(keypair, message)
        corruptions = [
            signature[:-1] + bytes([signature[-1] ^ 0x01]),
            bytes([signature[0] ^ 0x80]) + signature[1:],
            signature[:10] + bytes([signature[10] ^ 0xFF]) + signature[11:],
            signature[:-1],          # truncated
            signature + b"\x00",     # extended
            b"\x00" * len(signature),
        ]
        assert pkcs1_verify(keypair.public, message, signature)
        for corrupted in corruptions:
            assert not pkcs1_verify(keypair.public, message, corrupted)

    def test_verify_many_matches_singles(self, keypair):
        from repro.crypto.pkcs1 import pkcs1_verify_many

        items = []
        for index in range(4):
            message = b"batch item %d" % index
            signature = pkcs1_sign(keypair, message)
            if index == 2:
                signature = signature[:-1] + bytes([signature[-1] ^ 0x01])
            items.append((message, signature))
        items.append((b"short sig", b"\x01\x02"))
        expected = [pkcs1_verify(keypair.public, m, s) for m, s in items]
        assert expected == [True, True, False, True, False]
        assert pkcs1_verify_many(keypair.public, items) == expected


class TestPkcs1Encryption:
    def test_roundtrip(self, keypair):
        drbg = HmacDrbg(b"enc")
        ciphertext = pkcs1_encrypt(keypair.public, b"secret", drbg)
        assert pkcs1_decrypt(keypair, ciphertext) == b"secret"

    def test_too_long_rejected(self, keypair):
        limit = keypair.byte_length - 11
        with pytest.raises(ValueError):
            pkcs1_encrypt(keypair.public, b"x" * (limit + 1), HmacDrbg(b"e"))

    def test_wrong_key_decryption_fails(self, keypair, other_keypair):
        ciphertext = pkcs1_encrypt(keypair.public, b"secret", HmacDrbg(b"e"))
        with pytest.raises(SignatureError):
            pkcs1_decrypt(other_keypair, ciphertext)

    def test_truncated_ciphertext_rejected(self, keypair):
        ciphertext = pkcs1_encrypt(keypair.public, b"secret", HmacDrbg(b"e"))
        with pytest.raises(SignatureError):
            pkcs1_decrypt(keypair, ciphertext[:-1])


class TestSealBox:
    def test_roundtrip(self):
        box = seal_box(b"K" * 32, b"payload", b"N" * 16)
        assert open_box(b"K" * 32, box) == b"payload"

    def test_wrong_key_fails(self):
        box = seal_box(b"K" * 32, b"payload", b"N" * 16)
        with pytest.raises(AuthenticationError):
            open_box(b"L" * 32, box)

    def test_tamper_detected_everywhere(self):
        box = bytearray(seal_box(b"K" * 32, b"payload-abcdef", b"N" * 16))
        for position in (0, 16, len(box) - 1):
            tampered = bytearray(box)
            tampered[position] ^= 0x01
            with pytest.raises(AuthenticationError):
                open_box(b"K" * 32, bytes(tampered))

    def test_too_short_rejected(self):
        with pytest.raises(AuthenticationError):
            open_box(b"K" * 32, b"short")

    def test_bad_nonce_length_rejected(self):
        with pytest.raises(ValueError):
            seal_box(b"K" * 32, b"p", b"short-nonce")

    def test_integer_xor_matches_per_byte_reference(self):
        """The keystream XOR is one big-integer XOR; a per-byte XOR is the
        reference, across lengths off the 32-byte block grid, the empty
        plaintext and leading zero bytes."""
        from repro.crypto.hmac_impl import hmac_sha256
        from repro.crypto.stream import _derive, _keystream

        key, nonce = b"key-material-000" * 2, bytes(range(16))
        enc_key, mac_key = _derive(key, b"enc"), _derive(key, b"mac")
        for length in range(131):
            for plaintext in (
                bytes((7 * i + length) % 256 for i in range(length)),
                b"\x00" * length,
                b"\xff" * length,
            ):
                stream = _keystream(enc_key, nonce, length)
                ciphertext = bytes(p ^ k for p, k in zip(plaintext, stream))
                reference = (
                    nonce + ciphertext + hmac_sha256(mac_key, nonce + ciphertext)
                )
                assert seal_box(key, plaintext, nonce) == reference
                assert open_box(key, reference) == plaintext

    @given(st.binary(max_size=1024), st.binary(min_size=16, max_size=16))
    def test_property_roundtrip(self, payload, nonce):
        box = seal_box(b"key-material-000" * 2, payload, nonce)
        assert open_box(b"key-material-000" * 2, box) == payload
