"""The verification memo: a bounded LRU over pure signature checks.

The contract under test: a cached verdict is bit-identical to a cold
verify (same :class:`VerificationResult`, same trace shape), tampered
evidence can never alias a cached entry, and the store stays bounded.
"""

from __future__ import annotations

import pytest

from repro.core.confirmation_pal import confirmation_digest
from repro.crypto import HmacDrbg, generate_rsa_keypair, pkcs1_sign, sha1
from repro.server.policy import VerifierPolicy
from repro.server.verifier import (
    AttestationVerifier,
    VerificationCache,
    VerificationFailure,
)
from repro.tpm.ca import AikCertificate

PAL_MEASUREMENT = sha1(b"the published PAL")


@pytest.fixture(scope="module")
def ca_key():
    return generate_rsa_keypair(512, HmacDrbg(b"memo-ca"))


@pytest.fixture(scope="module")
def aik_key():
    return generate_rsa_keypair(512, HmacDrbg(b"memo-aik"))


@pytest.fixture(scope="module")
def signing_key():
    return generate_rsa_keypair(512, HmacDrbg(b"memo-signing"))


def _policy(ca_key) -> VerifierPolicy:
    policy = VerifierPolicy()
    policy.approve_pal(PAL_MEASUREMENT)
    policy.trust_ca(ca_key.public)
    return policy


def _certificate(ca_key, aik_key, platform_class="pc") -> AikCertificate:
    body = aik_key.public.to_bytes() + platform_class.encode("utf-8")
    return AikCertificate(
        aik_public=aik_key.public,
        platform_class=platform_class,
        signature=pkcs1_sign(ca_key, body),
    )


class TestCertificateMemo:
    def test_hit_is_bit_identical_to_cold_verify(self, ca_key, aik_key):
        cache = VerificationCache()
        warm = AttestationVerifier(_policy(ca_key), cache=cache)
        cold = AttestationVerifier(_policy(ca_key), cache=None)
        certificate = _certificate(ca_key, aik_key)
        cold_result = cold.verify_aik_certificate(certificate)
        first = warm.verify_aik_certificate(certificate)
        assert cache.stats() == {
            "hits": 0, "misses": 1, "evictions": 0, "entries": 1,
        }
        second = warm.verify_aik_certificate(certificate)
        assert cache.stats()["hits"] == 1
        assert first == cold_result
        assert second == cold_result

    def test_tampered_certificate_never_aliases_the_cached_entry(
        self, ca_key, aik_key
    ):
        cache = VerificationCache()
        verifier = AttestationVerifier(_policy(ca_key), cache=cache)
        genuine = _certificate(ca_key, aik_key)
        assert verifier.verify_aik_certificate(genuine).ok
        assert verifier.verify_aik_certificate(genuine).ok  # warm
        hits_before = cache.hits
        misses_before = cache.misses
        flipped = bytes([genuine.signature[0] ^ 1]) + genuine.signature[1:]
        tampered = AikCertificate(
            aik_public=genuine.aik_public,
            platform_class=genuine.platform_class,
            signature=flipped,
        )
        result = verifier.verify_aik_certificate(tampered)
        assert not result.ok
        assert result.failure is VerificationFailure.BAD_CA_SIGNATURE
        assert cache.hits == hits_before  # no alias onto the genuine entry
        assert cache.misses == misses_before + 1

    def test_tampered_body_also_misses(self, ca_key, aik_key):
        cache = VerificationCache()
        verifier = AttestationVerifier(_policy(ca_key), cache=cache)
        genuine = _certificate(ca_key, aik_key)
        assert verifier.verify_aik_certificate(genuine).ok
        reclassed = AikCertificate(
            aik_public=genuine.aik_public,
            platform_class=genuine.platform_class + "-evil",
            signature=genuine.signature,
        )
        result = verifier.verify_aik_certificate(reclassed)
        assert not result.ok
        assert cache.hits == 0


class TestSignedConfirmationMemo:
    TEXT = b"transfer 123 to carol"
    NONCE = b"m" * 20

    def test_repeat_evidence_hits_and_matches(self, ca_key, signing_key):
        cache = VerificationCache()
        warm = AttestationVerifier(_policy(ca_key), cache=cache)
        cold = AttestationVerifier(_policy(ca_key), cache=None)
        digest = confirmation_digest(self.TEXT, self.NONCE, b"accept")
        signature = pkcs1_sign(signing_key, digest, prehashed=True)

        def verify(verifier):
            return verifier.verify_signed_confirmation(
                signing_key.public, signature, self.TEXT, self.NONCE, b"accept"
            )

        cold_result = verify(cold)
        assert verify(warm) == cold_result
        assert verify(warm) == cold_result
        assert cache.hits == 1 and cache.misses == 1

    def test_forged_signature_rejected_with_genuine_entry_cached(
        self, ca_key, signing_key
    ):
        cache = VerificationCache()
        verifier = AttestationVerifier(_policy(ca_key), cache=cache)
        digest = confirmation_digest(self.TEXT, self.NONCE, b"accept")
        genuine = pkcs1_sign(signing_key, digest, prehashed=True)
        assert verifier.verify_signed_confirmation(
            signing_key.public, genuine, self.TEXT, self.NONCE, b"accept"
        ).ok
        attacker = generate_rsa_keypair(512, HmacDrbg(b"memo-attacker"))
        forged = pkcs1_sign(attacker, digest, prehashed=True)
        result = verifier.verify_signed_confirmation(
            signing_key.public, forged, self.TEXT, self.NONCE, b"accept"
        )
        assert result.failure is VerificationFailure.BAD_SIGNATURE
        assert cache.hits == 0


class TestBounds:
    def test_lru_eviction_keeps_capacity(self, ca_key, signing_key):
        cache = VerificationCache(capacity=2)
        verifier = AttestationVerifier(_policy(ca_key), cache=cache)
        signatures = []
        for index in range(3):
            digest = confirmation_digest(
                b"tx %d" % index, b"n" * 20, b"accept"
            )
            signatures.append(
                (digest, pkcs1_sign(signing_key, digest, prehashed=True))
            )
            assert verifier.verify_signed_confirmation(
                signing_key.public, signatures[-1][1],
                b"tx %d" % index, b"n" * 20, b"accept",
            ).ok
        assert len(cache) == 2
        assert cache.evictions == 1
        # The evicted (oldest) entry re-verifies from scratch — still ok.
        misses_before = cache.misses
        assert verifier.verify_signed_confirmation(
            signing_key.public, signatures[0][1], b"tx 0", b"n" * 20, b"accept"
        ).ok
        assert cache.misses == misses_before + 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            VerificationCache(capacity=0)


class TestCacheDeterminism:
    def test_verdicts_identical_cache_on_and_off(
        self, ca_key, aik_key, signing_key
    ):
        """The memo must be invisible in the verdicts: repeated checks
        with the cache enabled return exactly what a cold run returns."""

        def run(with_cache):
            verifier = AttestationVerifier(
                _policy(ca_key),
                cache=VerificationCache() if with_cache else None,
            )
            certificate = _certificate(ca_key, aik_key)
            digest = confirmation_digest(b"t", b"n" * 20, b"accept")
            signature = pkcs1_sign(signing_key, digest, prehashed=True)
            verdicts = []
            for _ in range(3):
                verdicts.append(verifier.verify_aik_certificate(certificate))
                verdicts.append(
                    verifier.verify_signed_confirmation(
                        signing_key.public, signature, b"t", b"n" * 20,
                        b"accept",
                    )
                )
            return verdicts

        assert run(True) == run(False)
