"""The attestation verifier: the provider-side security decision.

Three verdicts, each a full cryptographic check against the policy:

* :meth:`AttestationVerifier.verify_aik_certificate` — the AIK chains
  to a trusted Privacy CA.
* :meth:`AttestationVerifier.verify_setup` — the setup quote was signed
  by that AIK under a genuine-PAL PCR 17, with PCR 18 binding exactly
  the presented public key and the expected setup nonce.
* :meth:`AttestationVerifier.verify_confirmation` (one transaction)
  and :meth:`AttestationVerifier.verify_confirm_batch` (one evidence
  blob for a whole batch) — confirmation evidence: either an AIK quote
  whose PCR 17 is an approved PAL value and whose PCR 18 equals exactly
  one extend of the expected confirmation digest, or a signature by the
  setup-registered key over that digest.

Every rejection carries a reason code; the security-matrix experiment
(T4) asserts on reasons, not just on booleans, so a check that silently
stopped running would be caught.
"""

from __future__ import annotations

import enum
import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.protocol import EVIDENCE_QUOTE, EVIDENCE_SIGNED
from repro.crypto.pkcs1 import pkcs1_verify
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.sha1 import sha1
from repro.core.confirmation_pal import confirmation_digest
from repro.server.policy import VerifierPolicy
from repro.sim.tracing import traced
from repro.tpm.ca import AikCertificate
from repro.tpm.constants import PCR_DRTM_CODE, PCR_DRTM_DATA
from repro.tpm.quote import QuoteBundle, verify_quote


class VerificationFailure(enum.Enum):
    """Why evidence was rejected."""

    NONE = "ok"
    BAD_CA_SIGNATURE = "aik certificate not signed by a trusted CA"
    BAD_CERTIFY_SIGNATURE = "certify-info signature invalid"
    CERTIFY_WRONG_KEY = "certify-info names a different key"
    CERTIFY_WRONG_PCRS = "key was not certified under a genuine PAL state"
    CERTIFY_WRONG_NONCE = "certify-info nonce mismatch"
    BAD_QUOTE_SIGNATURE = "quote signature invalid"
    QUOTE_WRONG_PCR17 = "quoted PCR 17 is not an approved PAL"
    QUOTE_WRONG_PCR18 = "quoted PCR 18 does not bind this confirmation"
    QUOTE_WRONG_NONCE = "quote external data mismatch"
    BAD_SIGNATURE = "confirmation signature invalid"
    NO_REGISTERED_KEY = "no setup-registered key for this account"
    MALFORMED = "evidence malformed"


@dataclass
class VerificationResult:
    ok: bool
    failure: VerificationFailure
    detail: str = ""

    @classmethod
    def success(cls) -> "VerificationResult":
        return cls(ok=True, failure=VerificationFailure.NONE)

    @classmethod
    def reject(cls, failure: VerificationFailure, detail: str = ""):
        return cls(ok=False, failure=failure, detail=detail)


_CACHE_MISS = object()


class VerificationCache:
    """Bounded LRU memo over the verifier's RSA signature checks.

    Pure-Python RSA verification dominates provider wall-clock, and the
    *same* signatures recur: every session re-presents the enrolled AIK
    certificate, and retransmitted/replayed confirms re-verify identical
    evidence.  Those checks are pure functions of ``(public key, message,
    signature)``, so memoizing the boolean verdict is sound — a cached
    hit is bit-identical to a cold verify by construction.  Policy checks
    (PCR whitelists, nonce freshness, counter monotonicity) are *never*
    cached: they depend on mutable verifier state and always re-run.

    Keys embed the public key's ``(n, e)`` directly plus a SHA-256 (via
    ``hashlib`` — this is engineering machinery, not modeled protocol
    crypto) of the message/signature material, so a tampered certificate
    or flipped signature byte can never alias a cached entry.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Tuple):
        """Cached verdict for ``key``, or the module's miss sentinel."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return _CACHE_MISS
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def store(self, key: Tuple, verdict: bool) -> bool:
        self._entries[key] = verdict
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return verdict

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
        }


def _blob_digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class AttestationVerifier:
    """Stateless evidence checks against one policy.

    ``tracer`` (optional) records one span per verification — providers
    pass their simulator's tracer so server-side evidence checking shows
    up in session traces next to network and TPM time.

    ``cache`` (optional) is a :class:`VerificationCache` memoizing the
    raw signature checks (certificate / quote / PKCS#1) — the fast path
    for repeated evidence.  ``None`` disables memoization entirely; the
    verdict for any given evidence is identical either way.
    """

    def __init__(
        self,
        policy: VerifierPolicy,
        tracer=None,
        cache: Optional[VerificationCache] = None,
    ) -> None:
        self.policy = policy
        self.tracer = tracer
        self.cache = cache
        #: One-pass batch verifications served / members they covered.
        self.batch_legs = 0
        self.batch_members = 0

    # -- memoized signature primitives ---------------------------------
    def _cert_signature_ok(
        self, certificate: AikCertificate, ca_key: RsaPublicKey
    ) -> bool:
        """``certificate.verify(ca_key)``, memoized per (cert, CA)."""
        if self.cache is None:
            return certificate.verify(ca_key)
        key = (
            b"aik-cert",
            ca_key.n,
            ca_key.e,
            _blob_digest(certificate.signed_body() + certificate.signature),
        )
        verdict = self.cache.lookup(key)
        if verdict is not _CACHE_MISS:
            return verdict
        return self.cache.store(key, certificate.verify(ca_key))

    def _quote_signature_ok(
        self, aik_public: RsaPublicKey, quote: QuoteBundle
    ) -> bool:
        """``verify_quote``, memoized per (AIK, serialized bundle)."""
        if self.cache is None:
            return verify_quote(aik_public, quote)
        key = (
            b"quote",
            aik_public.n,
            aik_public.e,
            _blob_digest(quote.to_bytes()),
        )
        verdict = self.cache.lookup(key)
        if verdict is not _CACHE_MISS:
            return verdict
        return self.cache.store(key, verify_quote(aik_public, quote))

    def _pkcs1_ok(
        self, public_key: RsaPublicKey, digest: bytes, signature: bytes
    ) -> bool:
        """Prehashed ``pkcs1_verify``, memoized per (key, digest, sig)."""
        if self.cache is None:
            return pkcs1_verify(public_key, digest, signature, prehashed=True)
        key = (
            b"pkcs1",
            public_key.n,
            public_key.e,
            digest,
            _blob_digest(signature),
        )
        verdict = self.cache.lookup(key)
        if verdict is not _CACHE_MISS:
            return verdict
        return self.cache.store(
            key, pkcs1_verify(public_key, digest, signature, prehashed=True)
        )

    # ------------------------------------------------------------------
    @traced("verify.aik_certificate")
    def verify_aik_certificate(
        self, certificate: AikCertificate
    ) -> VerificationResult:
        for ca_key in self.policy.ca_public_keys:
            if self._cert_signature_ok(certificate, ca_key):
                return VerificationResult.success()
        return VerificationResult.reject(VerificationFailure.BAD_CA_SIGNATURE)

    # ------------------------------------------------------------------
    @traced("verify.setup")
    def verify_setup(
        self,
        aik_public: RsaPublicKey,
        presented_public_key: RsaPublicKey,
        quote: QuoteBundle,
        expected_nonce: bytes,
    ) -> VerificationResult:
        """Validate the setup phase's key-certification quote.

        A genuine setup session exhibits: PCR 17 = an approved PAL
        value, PCR 18 = exactly one extend of SHA1(public key), and
        external data = SHA1(setup nonce).
        """
        if not self._quote_signature_ok(aik_public, quote):
            return VerificationResult.reject(
                VerificationFailure.BAD_CERTIFY_SIGNATURE
            )
        if quote.external_data != sha1(expected_nonce):
            return VerificationResult.reject(VerificationFailure.CERTIFY_WRONG_NONCE)
        try:
            reported_17 = quote.reported_value(PCR_DRTM_CODE)
            reported_18 = quote.reported_value(PCR_DRTM_DATA)
        except KeyError as exc:
            return VerificationResult.reject(
                VerificationFailure.MALFORMED, detail=str(exc)
            )
        if not self.policy.pcr17_is_approved(reported_17):
            return VerificationResult.reject(VerificationFailure.CERTIFY_WRONG_PCRS)
        expected_18 = self.policy.expected_pcr18_after_digest(
            sha1(presented_public_key.to_bytes())
        )
        if reported_18 != expected_18:
            return VerificationResult.reject(VerificationFailure.CERTIFY_WRONG_KEY)
        return VerificationResult.success()

    # ------------------------------------------------------------------
    # Confirmation evidence.  The quote leg and the signed leg exist
    # once; the per-transaction entry points and the one-pass batch
    # entry point call them and never each other, so every traced call
    # is exactly one verification.
    # ------------------------------------------------------------------
    @traced("verify.quote_confirmation")
    def verify_quote_confirmation(
        self,
        aik_public: RsaPublicKey,
        quote: QuoteBundle,
        text: bytes,
        nonce: bytes,
        decision: bytes,
        counter: int = -1,
    ) -> VerificationResult:
        """Quote-variant evidence for one confirmation."""
        return self._quote_leg(aik_public, quote, text, nonce, decision, counter)

    @traced("verify.signed_confirmation")
    def verify_signed_confirmation(
        self,
        registered_key: Optional[RsaPublicKey],
        signature: bytes,
        text: bytes,
        nonce: bytes,
        decision: bytes,
        counter: int = -1,
    ) -> VerificationResult:
        """Signed-variant evidence for one confirmation."""
        return self._signed_leg(
            registered_key, signature, text, nonce, decision, counter
        )

    @traced("verify.confirm_batch")
    def verify_confirm_batch(
        self,
        *,
        evidence_type: str,
        text: bytes,
        nonce: bytes,
        decision: bytes,
        counter: int = -1,
        members: int = 1,
        aik_certificate: Optional[AikCertificate] = None,
        quote_bytes: Optional[bytes] = None,
        registered_key: Optional[RsaPublicKey] = None,
        signature: Optional[bytes] = None,
    ) -> VerificationResult:
        """One-pass evidence check for a ``tx.confirm_batch`` leg.

        A batch presents ONE evidence blob binding the whole rendered
        batch text, so the cert / quote / PKCS#1 checks collapse into a
        single call: the AIK certificate re-check and the signature
        check both ride the :class:`VerificationCache` (steady-state
        batches hit the cache for the cert and pay exactly one RSA
        verify for the evidence), and the policy checks (PCR
        whitelists, nonce binding) run fresh every time — they are
        never memoized.

        Verdicts and reason codes are identical to routing the batch
        through the single-transaction path against the batch text;
        ``tests/test_server_verifier.py`` pins that parity.
        """
        self.batch_legs += 1
        self.batch_members += members
        return self._check_evidence(
            self._quote_leg, self._signed_leg, True,
            evidence_type=evidence_type, text=text, nonce=nonce,
            decision=decision, counter=counter,
            aik_certificate=aik_certificate, quote_bytes=quote_bytes,
            registered_key=registered_key, signature=signature,
        )

    def verify_confirmation(self, **evidence) -> VerificationResult:
        """A single transaction's confirm evidence, from the wire fields
        :meth:`verify_confirm_batch` takes (less ``members``): the
        structural checks, then the traced per-transaction leg."""
        return self._check_evidence(
            self.verify_quote_confirmation, self.verify_signed_confirmation,
            False, **evidence,
        )

    def _check_evidence(
        self, quote_leg, signed_leg, recheck_ca: bool, *, evidence_type,
        text, nonce, decision, counter=-1, aik_certificate=None,
        quote_bytes=None, registered_key=None, signature=None,
    ) -> VerificationResult:
        if evidence_type == EVIDENCE_QUOTE:
            if aik_certificate is None:
                return VerificationResult.reject(
                    VerificationFailure.BAD_CA_SIGNATURE, "no enrolled AIK"
                )
            # Memoized CA re-check: enrollment verified this certificate
            # already, so this is a cache hit unless the policy's CA set
            # changed — in which case a stale AIK must stop passing.
            if recheck_ca and self.policy.ca_public_keys and not any(
                self._cert_signature_ok(aik_certificate, ca_key)
                for ca_key in self.policy.ca_public_keys
            ):
                return VerificationResult.reject(
                    VerificationFailure.BAD_CA_SIGNATURE
                )
            if not isinstance(quote_bytes, bytes):
                return VerificationResult.reject(VerificationFailure.MALFORMED)
            try:
                quote = QuoteBundle.from_bytes(quote_bytes)
            except Exception as exc:
                return VerificationResult.reject(
                    VerificationFailure.MALFORMED, str(exc)
                )
            return quote_leg(
                aik_certificate.aik_public, quote, text, nonce, decision,
                counter,
            )
        if evidence_type == EVIDENCE_SIGNED:
            if not isinstance(signature, bytes):
                return VerificationResult.reject(VerificationFailure.MALFORMED)
            return signed_leg(
                registered_key, signature, text, nonce, decision, counter
            )
        return VerificationResult.reject(
            VerificationFailure.MALFORMED, f"evidence type {evidence_type!r}"
        )

    def _quote_leg(
        self, aik_public: RsaPublicKey, quote: QuoteBundle, text: bytes,
        nonce: bytes, decision: bytes, counter: int,
    ) -> VerificationResult:
        if not self._quote_signature_ok(aik_public, quote):
            return VerificationResult.reject(VerificationFailure.BAD_QUOTE_SIGNATURE)
        if quote.external_data != sha1(nonce):
            return VerificationResult.reject(VerificationFailure.QUOTE_WRONG_NONCE)
        try:
            reported_17 = quote.reported_value(PCR_DRTM_CODE)
            reported_18 = quote.reported_value(PCR_DRTM_DATA)
        except KeyError as exc:
            return VerificationResult.reject(
                VerificationFailure.MALFORMED, detail=str(exc)
            )
        if not self.policy.pcr17_is_approved(reported_17):
            return VerificationResult.reject(VerificationFailure.QUOTE_WRONG_PCR17)
        digest = confirmation_digest(text, nonce, decision, counter)
        if reported_18 != self.policy.expected_pcr18_after_digest(digest):
            return VerificationResult.reject(VerificationFailure.QUOTE_WRONG_PCR18)
        return VerificationResult.success()

    def _signed_leg(
        self, registered_key: Optional[RsaPublicKey], signature: bytes,
        text: bytes, nonce: bytes, decision: bytes, counter: int,
    ) -> VerificationResult:
        if registered_key is None:
            return VerificationResult.reject(VerificationFailure.NO_REGISTERED_KEY)
        digest = confirmation_digest(text, nonce, decision, counter)
        if not self._pkcs1_ok(registered_key, digest, signature):
            return VerificationResult.reject(VerificationFailure.BAD_SIGNATURE)
        return VerificationResult.success()
