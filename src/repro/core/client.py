"""Client-side orchestration of the trusted path.

:class:`TrustedPathClient` drives the full lifecycle on one platform:

1. **AIK enrollment** (once per platform): mint an AIK, prove TPM
   residency to the Privacy CA, obtain the certificate.
2. **Provider enrollment**: register/login, present the AIK cert.
3. **Setup phase** (once per provider, `signed` variant only): launch
   the PAL in setup mode, forward the certification evidence, store the
   sealed signing credential on the (untrusted) disk.
4. **Confirmation**: request the transaction, launch the PAL with the
   provider's challenge, submit the evidence.

All network traffic goes through the Browser — i.e. through the
malware-hookable OS layers — because that is the deployment the paper
describes: only the PAL session itself is trusted.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.confirmation_pal import Decision
from repro.core.errors import (
    ConfirmationRejected,
    ProtocolError,
    SessionSuppressed,
    SetupError,
    TrustedPathError,
)
from repro.core.protocol import (
    EVIDENCE_QUOTE,
    EVIDENCE_SIGNED,
    build_confirmation_submission,
    build_setup_completion,
    build_transaction_request,
    parse_challenge,
)
from repro.core.setup import SetupPal
from repro.core.transaction import Transaction
from repro.crypto.rsa import RsaPublicKey
from repro.drtm.session import SessionRecord
from repro.drtm.slb import SecureLoaderBlock
from repro.hardware.machine import Machine
from repro.net.messages import Message, encode_message
from repro.net.rpc import RpcEndpoint, RpcError
from repro.os.browser import Browser
from repro.os.kernel import UntrustedOS
from repro.sim.kernel import Simulator
from repro.tpm.ca import (
    AikCertificate,
    PrivacyCa,
    decrypt_certificate,
    serialize_certificate,
)


@dataclass
class ProviderCredential:
    """Per-provider `signed`-variant state from one setup phase.

    The sealed blob lives on the untrusted disk by design: it is
    useless without the genuine-PAL PCR state.
    """

    sealed_credential: bytes
    signing_public: RsaPublicKey


@dataclass
class ClientCredentials:
    """Long-lived client-side trusted-path state."""

    aik_handle: int
    aik_public: RsaPublicKey
    aik_certificate: AikCertificate
    #: SRK-wrapped AIK private blob: reloadable after a reboot (AIK
    #: slots are volatile; the blob is safe on the untrusted disk).
    aik_wrapped: bytes = b""
    #: host -> credential registered with that provider.
    providers: Dict[str, ProviderCredential] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.providers is None:
            self.providers = {}

    # Convenience accessors: the most recently completed setup (what a
    # single-provider deployment means by "the credential").
    @property
    def sealed_credential(self) -> Optional[bytes]:
        if not self.providers:
            return None
        return next(reversed(self.providers.values())).sealed_credential

    @property
    def signing_public(self) -> Optional[RsaPublicKey]:
        if not self.providers:
            return None
        return next(reversed(self.providers.values())).signing_public


@dataclass
class ConfirmOutcome:
    """Everything observable about one confirmation attempt."""

    decision: bytes
    server_response: Optional[Message]
    session: Optional[SessionRecord]

    @property
    def executed(self) -> bool:
        return bool(
            self.server_response and self.server_response.get("status") == "executed"
        )


class TrustedPathClient:
    """One user's trusted-path stack on one machine."""

    def __init__(
        self,
        simulator: Simulator,
        machine: Machine,
        os_instance: UntrustedOS,
        browser: Browser,
    ) -> None:
        self.simulator = simulator
        self.machine = machine
        self.os = os_instance
        self.browser = browser
        self.pal = SetupPal()
        self.credentials: Optional[ClientCredentials] = None
        # Anti-rollback extension (off by default, matching the paper's
        # base protocol): call enable_monotonic_counter() to turn on.
        self.counter_id: Optional[int] = None
        # -- recovery accounting (see confirm_transaction) -----------------
        self.rechallenges = 0
        self.confirm_resubmits = 0

    # ------------------------------------------------------------------
    def published_pal_measurement(self) -> bytes:
        """The SLB hash providers whitelist (what the paper publishes)."""
        return SecureLoaderBlock.package(self.pal).measurement()

    # ------------------------------------------------------------------
    # Phase 1: AIK enrollment with the Privacy CA
    # ------------------------------------------------------------------
    def enroll_with_ca(self, ca: PrivacyCa) -> ClientCredentials:
        chipset = self.machine.chipset
        aik_handle, aik_public, aik_wrapped = chipset.tpm_command_as_os(
            "make_identity"
        )
        ek_public = chipset.tpm_command_as_os("read_pubek")
        response = ca.enroll(aik_public, ek_public)
        session_key = chipset.tpm_command_as_os(
            "activate_identity",
            aik_handle=aik_handle,
            encrypted_blob=response.encrypted_activation,
        )
        certificate = decrypt_certificate(
            session_key, response.encrypted_certificate
        )
        self.credentials = ClientCredentials(
            aik_handle=aik_handle,
            aik_public=aik_public,
            aik_certificate=certificate,
            aik_wrapped=aik_wrapped,
        )
        return self.credentials

    def reattach_after_reboot(self) -> None:
        """Reload the AIK into the freshly started TPM.

        After a platform reboot every volatile key slot is empty; the
        AIK returns via its SRK-wrapped blob.  Sealed credentials need
        nothing — they live on disk and only open inside the PAL.
        """
        if self.credentials is None or not self.credentials.aik_wrapped:
            raise TrustedPathError("no AIK blob to reload")
        handle = self.machine.chipset.tpm_command_as_os(
            "load_key2",
            parent_handle=self.machine.tpm.SRK_HANDLE,
            wrapped_blob=self.credentials.aik_wrapped,
        )
        self.credentials.aik_handle = handle

    # ------------------------------------------------------------------
    # Phase 2: provider enrollment
    # ------------------------------------------------------------------
    def register_and_login(
        self,
        endpoint: RpcEndpoint,
        account: str,
        password: str,
        **extra: object,
    ) -> None:
        request: Message = {"account": account, "password": password}
        request.update(extra)  # type: ignore[arg-type]
        self.browser.call(endpoint, "register", request)
        self.browser.call(
            endpoint, "login", {"account": account, "password": password}
        )
        self.account = account

    def enroll_aik(self, endpoint: RpcEndpoint) -> None:
        if self.credentials is None:
            raise TrustedPathError("run enroll_with_ca first")
        self.browser.call(
            endpoint,
            "tp.enroll_aik",
            {"aik_certificate":
                 serialize_certificate(self.credentials.aik_certificate)},
        )

    # ------------------------------------------------------------------
    # Phase 3: setup (signed variant)
    # ------------------------------------------------------------------
    def run_setup_phase(self, endpoint: RpcEndpoint) -> SessionRecord:
        if self.credentials is None:
            raise SetupError("no AIK credentials")
        begin = self.browser.call(endpoint, "tp.setup_begin", {})
        nonce = begin["nonce"]
        inputs = {
            "phase": b"setup",
            "nonce": nonce,
            "aik_handle": struct.pack(">I", self.credentials.aik_handle),
        }
        record = self.os.invoke_flicker(self.pal, inputs)
        if record is None:
            raise SessionSuppressed("setup session suppressed")
        if record.aborted:
            raise SetupError(f"setup PAL aborted: {record.abort_reason}")
        completion = build_setup_completion(record.outputs, nonce)
        try:
            self.browser.call(endpoint, "tp.setup_complete", completion)
        except RpcError as exc:
            raise SetupError(f"provider rejected setup: {exc}") from exc
        self.credentials.providers[endpoint.host] = ProviderCredential(
            sealed_credential=record.outputs["sealed_credential"],
            signing_public=RsaPublicKey.from_bytes(record.outputs["public_key"]),
        )
        return record

    # ------------------------------------------------------------------
    # Anti-rollback extension
    # ------------------------------------------------------------------
    COUNTER_ID = 0x1001

    def enable_monotonic_counter(self) -> None:
        """Create (if needed) the TPM monotonic counter and include its
        strictly increasing value in every future confirmation digest."""
        from repro.tpm.constants import TpmError

        try:
            self.machine.chipset.tpm_command_as_os(
                "create_counter", counter_id=self.COUNTER_ID
            )
        except TpmError:
            pass  # already exists (e.g. re-enabled after a state reload)
        self.counter_id = self.COUNTER_ID

    # ------------------------------------------------------------------
    # State persistence on the untrusted disk
    # ------------------------------------------------------------------
    STATE_PATH = "trusted-path/client-state"

    def save_state(self, disk) -> None:
        """Persist long-lived credentials to the (untrusted) disk.

        Everything stored is either public (AIK certificate, public
        keys) or useless off the genuine PAL's PCR state (the sealed
        blobs) — the paper's reason the scheme needs no trusted storage.
        Integrity, however, is NOT assumed: load re-validates.
        """
        if self.credentials is None:
            raise TrustedPathError("nothing to save")
        providers: Message = {}
        for host, credential in self.credentials.providers.items():
            providers[host] = [
                credential.sealed_credential,
                credential.signing_public.to_bytes(),
            ]
        state = {
            "aik_handle": self.credentials.aik_handle,
            "aik_public": self.credentials.aik_public.to_bytes(),
            "aik_wrapped": self.credentials.aik_wrapped,
            "aik_certificate": serialize_certificate(
                self.credentials.aik_certificate
            ),
            "providers": encode_message(providers),
        }
        disk.write_file(self.STATE_PATH, encode_message(state))

    def load_state(self, disk) -> ClientCredentials:
        """Restore credentials from disk, validating what can be.

        Raises :class:`TrustedPathError` on a missing or corrupt file —
        the recovery path is re-enrollment, never silent acceptance.
        """
        from repro.net.messages import MessageError, decode_message
        from repro.tpm.ca import deserialize_certificate

        raw = disk.read_file(self.STATE_PATH)
        if raw is None:
            raise TrustedPathError("no saved client state on disk")
        try:
            state = decode_message(raw)
            aik_public = RsaPublicKey.from_bytes(state["aik_public"])
            certificate = deserialize_certificate(state["aik_certificate"])
            providers_raw = decode_message(state["providers"])
            providers = {
                host: ProviderCredential(
                    sealed_credential=blob_and_key[0],
                    signing_public=RsaPublicKey.from_bytes(blob_and_key[1]),
                )
                for host, blob_and_key in providers_raw.items()
            }
        except (MessageError, KeyError, ValueError, IndexError) as exc:
            raise TrustedPathError(f"client state corrupt: {exc}") from exc
        if certificate.aik_public != aik_public:
            raise TrustedPathError("client state corrupt: AIK mismatch")
        self.credentials = ClientCredentials(
            aik_handle=int(state["aik_handle"]),
            aik_public=aik_public,
            aik_certificate=certificate,
            aik_wrapped=state.get("aik_wrapped", b""),
            providers=providers,
        )
        return self.credentials

    # ------------------------------------------------------------------
    # Phase 4: confirmation
    # ------------------------------------------------------------------
    #: How many fresh challenges confirm_transaction will chase before
    #: giving up, and how many times it resubmits evidence whose fate
    #: the transport lost track of.
    MAX_RECHALLENGES = 2
    MAX_RESUBMITS = 2

    def confirm_transaction(
        self,
        endpoint: RpcEndpoint,
        transaction: Transaction,
        mode: str = EVIDENCE_SIGNED,
    ) -> ConfirmOutcome:
        """The per-transaction flow: request → PAL session → submit.

        Two failures are recovered rather than surfaced:

        * **Expired challenge** — the provider answers ``tx.confirm``
          with a re-challenge hint; the client fetches a fresh nonce via
          ``tx.rechallenge`` and runs a *new* PAL session against it
          (the old evidence is bound to the dead nonce).
        * **Transport gave up** — the confirm's fate is unknown (it may
          have executed).  The client resubmits the *same* evidence;
          the provider's idempotent confirm replays the settled outcome
          and can never execute the transaction twice.
        """
        credential = self._confirm_credential(endpoint, mode)
        # 1. Ask the provider; receive the authoritative challenge.
        response = self.browser.call(
            endpoint, "tx.request", build_transaction_request(transaction)
        )
        return self._confirm_challenge(
            endpoint, "tx.confirm", response, mode, credential
        )

    # ------------------------------------------------------------------
    # Batch confirmation (extension)
    # ------------------------------------------------------------------
    def confirm_batch(
        self,
        endpoint: RpcEndpoint,
        transactions,
        mode: str = EVIDENCE_SIGNED,
    ) -> ConfirmOutcome:
        """Confirm several transactions in ONE PAL session.

        The provider renders all of them into one challenge text; the
        human reads the whole batch and gives one verdict; the evidence
        digest covers the entire rendering — so the session cost
        amortizes across the batch (experiment E3).  Recovery is the
        same as :meth:`confirm_transaction`'s.
        """
        credential = self._confirm_credential(endpoint, mode)
        encoded = [
            encode_message(build_transaction_request(transaction))
            for transaction in transactions
        ]
        response = self.browser.call(
            endpoint, "tx.request_batch", {"transactions": encoded}
        )
        return self._confirm_challenge(
            endpoint, "tx.confirm_batch", response, mode, credential
        )

    def _confirm_credential(
        self, endpoint: RpcEndpoint, mode: str
    ) -> Optional[ProviderCredential]:
        """Check that ``mode`` can confirm at ``endpoint``; returns the
        provider's sealed credential (None in quote mode)."""
        if self.credentials is None:
            raise TrustedPathError("no AIK credentials")
        if mode not in (EVIDENCE_SIGNED, EVIDENCE_QUOTE):
            raise ProtocolError(f"unknown evidence mode {mode!r}")
        credential = self.credentials.providers.get(endpoint.host)
        if mode == EVIDENCE_SIGNED and credential is None:
            raise SetupError(
                f"signed mode requires a completed setup phase at {endpoint.host}"
            )
        return credential

    def _confirm_challenge(
        self,
        endpoint: RpcEndpoint,
        method: str,
        response: Message,
        mode: str,
        credential: Optional[ProviderCredential],
    ) -> ConfirmOutcome:
        """PAL session → submit, with the resubmit and rechallenge
        recovery loops, for one issued challenge."""
        challenge = parse_challenge(response)
        rechallenges = 0
        while True:
            # 2. Launch the PAL with the provider's text and nonce.
            inputs: Dict[str, bytes] = {
                "phase": b"confirm",
                "text": challenge["text"],
                "nonce": challenge["nonce"],
                "mode": mode.encode("ascii"),
            }
            if mode == EVIDENCE_QUOTE:
                inputs["aik_handle"] = struct.pack(
                    ">I", self.credentials.aik_handle
                )
            else:
                inputs["credential"] = credential.sealed_credential
            if self.counter_id is not None:
                inputs["counter_id"] = struct.pack(">I", self.counter_id)
            record = self.os.invoke_flicker(self.pal, inputs)
            if record is None:
                raise SessionSuppressed("confirmation session suppressed")
            if record.aborted:
                raise TrustedPathError(f"PAL aborted: {record.abort_reason}")

            decision = record.outputs.get("decision", Decision.TIMEOUT)
            if decision == Decision.TIMEOUT:
                # No human answered: nothing to submit; the provider's
                # challenge will expire server-side.
                return ConfirmOutcome(
                    decision=decision, server_response=None, session=record
                )

            # 3. Submit the evidence.
            submission = build_confirmation_submission(
                tx_id=challenge["tx_id"],
                decision=decision,
                evidence_type=mode,
                evidence=record.outputs,
            )
            resubmits = 0
            while True:
                try:
                    final = self.browser.call(endpoint, method, submission)
                    return ConfirmOutcome(
                        decision=decision, server_response=final, session=record
                    )
                except RpcError as exc:
                    if exc.transport and resubmits < self.MAX_RESUBMITS:
                        resubmits += 1
                        self.confirm_resubmits += 1
                        continue
                    if (
                        exc.rechallenge_required
                        and rechallenges < self.MAX_RECHALLENGES
                    ):
                        rechallenges += 1
                        self.rechallenges += 1
                        refreshed = self.browser.call(
                            endpoint,
                            "tx.rechallenge",
                            {"tx_id": challenge["tx_id"]},
                        )
                        challenge = parse_challenge(refreshed)
                        break  # fresh PAL session against the new nonce
                    raise ConfirmationRejected(str(exc)) from exc
