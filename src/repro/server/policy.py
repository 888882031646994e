"""Verifier trust anchors.

What a service provider must be configured with, out of band:

* the Privacy CA public key(s) it trusts to certify AIKs;
* the whitelist of **known-good PAL measurements** — the published
  SHA-1 of the ConfirmationPal's SLB.  From a measurement the policy
  derives the PCR values a genuine session exhibits (PCR 17 after
  launch, PCR 18 at its post-reset value for setup, or after exactly
  one extend of the confirmation digest for the quote variant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.crypto.rsa import RsaPublicKey
from repro.crypto.sha1 import sha1
from repro.drtm.sealing import pcr17_after_launch

PCR18_POST_RESET = b"\x00" * 20


@dataclass
class VerifierPolicy:
    """Trust anchors and freshness limits for one provider."""

    ca_public_keys: List[RsaPublicKey] = field(default_factory=list)
    approved_pal_measurements: List[bytes] = field(default_factory=list)
    nonce_lifetime_seconds: float = 300.0
    # Defense toggles for the ablation experiment (A1).  All on by
    # default; each toggle re-admits exactly one attack class.
    check_pal_measurement: bool = True
    check_nonce_freshness: bool = True
    #: Anti-rollback extension: require a strictly increasing TPM
    #: monotonic counter value in every confirmation (off by default —
    #: the base protocol from the paper does not use it).
    require_monotonic_counter: bool = False

    def trust_ca(self, public_key: RsaPublicKey) -> None:
        self.ca_public_keys.append(public_key)

    def approve_pal(self, slb_measurement: bytes) -> None:
        """Whitelist a published PAL SLB hash."""
        if len(slb_measurement) != 20:
            raise ValueError("PAL measurement must be a SHA-1 digest")
        self.approved_pal_measurements.append(slb_measurement)

    # -- derived expectations ------------------------------------------------
    def expected_pcr17_values(self) -> List[bytes]:
        """PCR 17 during a genuine session, per approved PAL."""
        return [pcr17_after_launch(m) for m in self.approved_pal_measurements]

    def expected_pcr18_after_digest(self, confirmation_digest: bytes) -> bytes:
        """PCR 18 after the quote-variant PAL extends D exactly once."""
        return sha1(PCR18_POST_RESET + confirmation_digest)

    def pcr17_is_approved(self, reported: bytes) -> bool:
        if not self.check_pal_measurement:
            return True
        return reported in self.expected_pcr17_values()
