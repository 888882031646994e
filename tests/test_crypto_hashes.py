"""The hash, HMAC and DRBG entry points.

The values are checked against published known answers typed in below:
FIPS 180-4's SHA-1 and SHA-256 examples ("abc", the 448-bit message
and one million "a"), RFC 2202's HMAC-SHA-1 cases and RFC 4231's
HMAC-SHA-256 cases, keys longer than a block included.  The
comparisons with ``hashlib`` / ``hmac`` check the wiring of each entry
point (the right hash behind the right name, bytes-like input accepted)
over lengths around the block and padding boundaries.
"""

from __future__ import annotations

import hashlib
import hmac as std_hmac

import pytest
from hypothesis import given, strategies as st

from repro.crypto import HmacDrbg, hmac_sha1, hmac_sha256, sha1, sha256
from repro.crypto.sha1 import new_sha1
from repro.crypto.sha256 import new_sha256

KNOWN_VECTORS = [
    b"",
    b"abc",
    b"The quick brown fox jumps over the lazy dog",
    b"a" * 55,   # padding boundary: one byte short of needing a new block
    b"a" * 56,   # forces the length into a second block
    b"a" * 64,   # exactly one block
    b"a" * 65,
    bytes(range(256)) * 5,
]


#: FIPS 180-4 example messages (NIST's SHA examples document): "abc",
#: the two-block 448-bit message and one million repetitions of "a".
_ABC = b"abc"
_448_BIT = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
_MILLION_A = b"a" * 1_000_000

FIPS_SHA1 = {
    _ABC: "a9993e364706816aba3e25717850c26c9cd0d89d",
    _448_BIT: "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
    _MILLION_A: "34aa973cd4c4daa4f61eeb2bdbad27316534016f",
}

FIPS_SHA256 = {
    _ABC: "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
    _448_BIT: (
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    ),
    _MILLION_A: (
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    ),
}

_RFC_KEY_25 = bytes(range(1, 26))

#: RFC 2202 section 3: (key, data, HMAC-SHA-1).  Cases 6 and 7 use an
#: 80-byte key, longer than SHA-1's 64-byte block, so it is hashed
#: first.
RFC2202_HMAC_SHA1 = [
    (b"\x0b" * 20, b"Hi There",
     "b617318655057264e28bc0b6fb378c8ef146be00"),
    (b"Jefe", b"what do ya want for nothing?",
     "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "125d7342b9ac11cd91a39af48aa17b4f63f175d3"),
    (_RFC_KEY_25, b"\xcd" * 50,
     "4c9007f4026250c6bc8414f9bf50c86c2d7235da"),
    (b"\x0c" * 20, b"Test With Truncation",
     "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04"),
    (b"\xaa" * 80, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "aa4ae5e15272d00e95705637ce8a3b55ed402112"),
    (b"\xaa" * 80,
     b"Test Using Larger Than Block-Size Key and Larger Than One "
     b"Block-Size Data",
     "e8e99d0f45237d786d6bbaa7965c7808bbff1a91"),
]

#: RFC 4231 section 4: (key, data, HMAC-SHA-256).  Case 5's published
#: output is truncated to 128 bits, so it is a prefix; cases 6 and 7
#: use a 131-byte key, longer than SHA-256's 64-byte block.
RFC4231_HMAC_SHA256 = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (_RFC_KEY_25, b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    (b"\x0c" * 20, b"Test With Truncation",
     "a3b6167473100ee06e0c796c2955552b"),
    (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    (b"\xaa" * 131,
     b"This is a test using a larger than block-size key and a larger "
     b"than block-size data. The key needs to be hashed before being "
     b"used by the HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
]


def _pieces(message: bytes, size: int):
    return [message[i : i + size] for i in range(0, len(message), size)]


class TestFipsKnownAnswers:
    @pytest.mark.parametrize(
        "message", list(FIPS_SHA1), ids=["abc", "448", "million"]
    )
    def test_sha1(self, message):
        assert sha1(message).hex() == FIPS_SHA1[message]

    @pytest.mark.parametrize(
        "message", list(FIPS_SHA256), ids=["abc", "448", "million"]
    )
    def test_sha256(self, message):
        assert sha256(message).hex() == FIPS_SHA256[message]

    @pytest.mark.parametrize("size", [1, 3, 63, 64, 65, 1000])
    def test_contexts_fed_in_pieces_equal_the_oneshot(self, size):
        """Pieces that straddle the 64-byte block in every phase;
        single bytes only where the message is short."""
        for new, oneshot, answers in (
            (new_sha1, sha1, FIPS_SHA1),
            (new_sha256, sha256, FIPS_SHA256),
        ):
            for message, expected in answers.items():
                if size < 63 and len(message) > 4096:
                    continue
                ctx = new()
                for piece in _pieces(message, size):
                    ctx.update(piece)
                assert ctx.digest() == oneshot(message)
                assert ctx.hexdigest() == expected


class TestRfcHmacKnownAnswers:
    @pytest.mark.parametrize(
        "key,data,expected", RFC2202_HMAC_SHA1,
        ids=[f"case{n}" for n in range(1, 8)],
    )
    def test_rfc2202_hmac_sha1(self, key, data, expected):
        assert hmac_sha1(key, data).hex() == expected

    @pytest.mark.parametrize(
        "key,data,expected", RFC4231_HMAC_SHA256,
        ids=[f"case{n}" for n in range(1, 8)],
    )
    def test_rfc4231_hmac_sha256(self, key, data, expected):
        assert hmac_sha256(key, data).hex().startswith(expected)


class TestSha1:
    @pytest.mark.parametrize("message", KNOWN_VECTORS)
    def test_matches_hashlib(self, message):
        assert sha1(message) == hashlib.sha1(message).digest()

    def test_incremental_equals_oneshot(self):
        ctx = new_sha1()
        ctx.update(b"hello ")
        ctx.update(b"world")
        assert ctx.digest() == sha1(b"hello world")

    def test_digest_is_idempotent(self):
        ctx = new_sha1(b"data")
        assert ctx.digest() == ctx.digest()
        ctx.update(b"more")
        assert ctx.digest() == sha1(b"datamore")

    def test_copy_is_independent(self):
        ctx = new_sha1(b"shared prefix ")
        clone = ctx.copy()
        ctx.update(b"left")
        clone.update(b"right")
        assert ctx.digest() == sha1(b"shared prefix left")
        assert clone.digest() == sha1(b"shared prefix right")

    def test_rejects_str(self):
        with pytest.raises(TypeError):
            new_sha1().update("not bytes")  # type: ignore[arg-type]

    @pytest.mark.slow
    @given(st.binary(max_size=2048))
    def test_property_matches_hashlib(self, message):
        assert sha1(message) == hashlib.sha1(message).digest()

    @given(st.binary(max_size=300), st.integers(min_value=0, max_value=300))
    def test_property_split_invariance(self, message, split):
        split = min(split, len(message))
        ctx = new_sha1(message[:split])
        ctx.update(message[split:])
        assert ctx.digest() == sha1(message)


class TestSha256:
    @pytest.mark.parametrize("message", KNOWN_VECTORS)
    def test_matches_hashlib(self, message):
        assert sha256(message) == hashlib.sha256(message).digest()

    def test_hexdigest(self):
        assert new_sha256(b"abc").hexdigest() == FIPS_SHA256[b"abc"]

    @pytest.mark.slow
    @given(st.binary(max_size=2048))
    def test_property_matches_hashlib(self, message):
        assert sha256(message) == hashlib.sha256(message).digest()

    @given(st.binary(max_size=300), st.integers(min_value=0, max_value=300))
    def test_property_split_invariance(self, message, split):
        split = min(split, len(message))
        ctx = new_sha256(message[:split])
        ctx.update(message[split:])
        assert ctx.digest() == sha256(message)


class TestHmac:
    @pytest.mark.parametrize("key", [b"", b"k", b"k" * 64, b"k" * 65, b"k" * 200])
    @pytest.mark.parametrize("message", [b"", b"msg", b"m" * 500])
    def test_sha1_matches_stdlib(self, key, message):
        expected = std_hmac.new(key, message, hashlib.sha1).digest()
        assert hmac_sha1(key, message) == expected

    @given(st.binary(max_size=128), st.binary(max_size=512))
    def test_sha256_matches_stdlib(self, key, message):
        expected = std_hmac.new(key, message, hashlib.sha256).digest()
        assert hmac_sha256(key, message) == expected


class TestHmacDrbg:
    def test_deterministic(self):
        a = HmacDrbg(b"seed").generate(64)
        b = HmacDrbg(b"seed").generate(64)
        assert a == b

    def test_seed_sensitivity(self):
        assert HmacDrbg(b"seed1").generate(32) != HmacDrbg(b"seed2").generate(32)

    def test_personalization_separates(self):
        assert (
            HmacDrbg(b"s", personalization=b"a").generate(32)
            != HmacDrbg(b"s", personalization=b"b").generate(32)
        )

    def test_stream_continuity(self):
        whole = HmacDrbg(b"s").generate(64)
        drbg = HmacDrbg(b"s")
        parts = drbg.generate(16) + drbg.generate(48)
        # Chunked output differs from one-shot (state updates between
        # calls) but both are deterministic.
        drbg2 = HmacDrbg(b"s")
        assert parts == drbg2.generate(16) + drbg2.generate(48)
        assert len(whole) == 64

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            HmacDrbg(b"")

    def test_generate_int_width(self):
        drbg = HmacDrbg(b"s")
        for bits in (8, 64, 512, 1024):
            value = drbg.generate_int(bits)
            assert value.bit_length() == bits

    @pytest.mark.slow
    def test_generate_below_uniform_range(self):
        drbg = HmacDrbg(b"s")
        values = [drbg.generate_below(10) for _ in range(500)]
        assert set(values) == set(range(10))

    def test_fork_independent(self):
        parent = HmacDrbg(b"s")
        child = parent.fork(b"child")
        assert child.generate(16) != parent.generate(16)

    @pytest.mark.slow
    @given(st.integers(min_value=1, max_value=10_000))
    def test_generate_below_in_range(self, bound):
        drbg = HmacDrbg(b"prop")
        assert 0 <= drbg.generate_below(bound) < bound
