"""The TPM device: command dispatch, latency accounting, state.

``execute(locality, command, **args)`` is the single entry point; the
chipset (`repro.hardware.chipset`) calls it with a locality proven by a
CPU-minted token.  Every command charges virtual time according to the
vendor timing profile before it runs — the device is strictly serial,
like the real LPC-attached part.

Supported command set (the subset the paper's system exercises):

====================  =====================================================
startup               TPM_Startup(ST_CLEAR)
extend                TPM_Extend
pcr_read              TPM_PCRRead
pcr_reset             TPM_PCR_Reset (locality-gated, DRTM)
get_random            TPM_GetRandom
quote                 TPM_Quote with an identity key
seal / unseal         TPM_Seal / TPM_Unseal under the SRK, PCR-bound
create_wrap_key       TPM_CreateWrapKey (child of the SRK)
load_key2             TPM_LoadKey2
sign                  TPM_Sign (PKCS#1 v1.5 over a SHA-1 digest)
certify_key           TPM_CertifyKey (AIK signs a key + PCR binding)
make_identity         TPM_MakeIdentity (new AIK)
activate_identity     TPM_ActivateIdentity (EK-decrypt a CA blob)
read_pubek            TPM_ReadPubek
flush_context         TPM_FlushContext
nv_define/read/write  TPM_NV_* (simplified auth)
create_counter / increment_counter / read_counter
====================  =====================================================
"""

from __future__ import annotations

import random
import struct
from typing import Any, Dict, Optional, Tuple

from repro.crypto.drbg import HmacDrbg
from repro.crypto.pkcs1 import pkcs1_sign
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.sha1 import sha1
from repro.crypto.stream import AuthenticationError, open_box, seal_box
from repro.sim.clock import VirtualClock
from repro.tpm.constants import (
    SHA1_SIZE,
    TpmError,
    TpmResult,
)
from repro.tpm.authsessions import AuthBlock, OiapManager, param_digest
from repro.tpm.keys import KeyUsage, TpmKey, unwrap_key, wrap_key
from repro.tpm.nvram import NvStorage
from repro.tpm.pcr import PcrBank
from repro.tpm.quote import QuoteBundle
from repro.tpm.structures import (
    CertifyInfo,
    PcrComposite,
    PcrSelection,
    QuoteInfo,
    SealedBlob,
)
from repro.tpm.timing import TimingProfile

# Era-accurate TPMs held 2048-bit EKs and 1024/2048-bit working keys.
# Pure-Python RSA keygen at those sizes costs real seconds per machine,
# so the emulator defaults to 512-bit keys: identical structure and
# protocol behaviour, irrelevant cryptographic strength (the adversary in
# the model does not factor moduli), and latency comes from the timing
# profile, not from Python's bignum speed.  Experiments that want real
# sizes pass key_bits=1024.
DEFAULT_KEY_BITS = 512


class TpmDevice:
    """A discrete v1.2 TPM attached to one machine."""

    def __init__(
        self,
        clock: VirtualClock,
        profile: TimingProfile,
        seed: int,
        key_bits: int = DEFAULT_KEY_BITS,
    ) -> None:
        self.clock = clock
        self.profile = profile
        self.key_bits = key_bits
        self._drbg = HmacDrbg(
            seed.to_bytes(8, "big"), personalization=b"tpm-device"
        )
        self._timing_rng = random.Random(seed ^ 0x7A7A7A7A)
        self.pcrs = PcrBank()
        self._started = False
        self.commands_executed: Dict[str, int] = {}
        #: Optional fault-injection hook (see `repro.sim.faults`): called
        #: with the command name after latency is charged; may raise a
        #: transient TpmError.  None costs nothing on the hot path.
        self.fault_hook = None

        # Persistent hierarchy: EK and SRK are created at manufacture.
        self._ek = TpmKey.generate(KeyUsage.ENDORSEMENT, self._drbg, key_bits)
        self._srk = TpmKey.generate(KeyUsage.STORAGE, self._drbg, key_bits)
        self._loaded: Dict[int, TpmKey] = {}
        self._next_handle = 0x0100_0000
        self.SRK_HANDLE = 0x4000_0000
        self._loaded[self.SRK_HANDLE] = self._srk
        self.nv = NvStorage()
        self.oiap = OiapManager(self._drbg.fork(b"oiap"))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def execute(self, locality: int, command: str, **arguments: Any) -> Any:
        """Run ``command`` at ``locality``, charging its latency first."""
        handler = getattr(self, f"_cmd_{command}", None)
        if handler is None:
            raise TpmError(TpmResult.BAD_PARAMETER, f"unknown command {command!r}")
        if not self._started and command != "startup":
            raise TpmError(
                TpmResult.INVALID_POSTINIT, f"{command} before TPM_Startup"
            )
        self.clock.advance(self.profile.latency_for(command, self._timing_rng))
        self.commands_executed[command] = self.commands_executed.get(command, 0) + 1
        if self.fault_hook is not None:
            # The command charged its bus/compute time but failed before
            # returning a result — exactly how transient faults present.
            self.fault_hook(command)
        return handler(locality, **arguments)

    def startup(self) -> None:
        """Platform-reset hook used by Machine.power_on (locality 0)."""
        self.execute(0, "startup")

    # ------------------------------------------------------------------
    # PCR commands
    # ------------------------------------------------------------------
    def _cmd_startup(self, locality: int) -> None:
        """TPM_Startup(ST_CLEAR): PCRs reset, volatile key slots flushed.

        NV storage and monotonic counters persist — that is what the
        'non-volatile' in NV means — while every loaded key except the
        persistent SRK is gone, exactly like a real power cycle.
        """
        self.pcrs.startup_clear()
        self._loaded = {self.SRK_HANDLE: self._srk}
        self._started = True

    def _cmd_extend(self, locality: int, pcr_index: int, measurement: bytes) -> bytes:
        return self.pcrs.extend(pcr_index, measurement, locality)

    def _cmd_pcr_read(self, locality: int, pcr_index: int) -> bytes:
        return self.pcrs.read(pcr_index)

    def _cmd_pcr_reset(self, locality: int, pcr_index: int) -> None:
        self.pcrs.reset_dynamic(pcr_index, locality)

    def _cmd_get_random(self, locality: int, num_bytes: int) -> bytes:
        if not 0 < num_bytes <= 4096:
            raise TpmError(
                TpmResult.BAD_PARAMETER, f"get_random of {num_bytes} bytes"
            )
        return self._drbg.generate(num_bytes)

    # ------------------------------------------------------------------
    # Quote
    # ------------------------------------------------------------------
    def _cmd_quote(
        self,
        locality: int,
        key_handle: int,
        selection: PcrSelection,
        external_data: bytes,
    ) -> QuoteBundle:
        key = self._require_loaded(key_handle)
        if key.usage is not KeyUsage.IDENTITY:
            raise TpmError(
                TpmResult.BAD_PARAMETER, "quote requires an identity key (AIK)"
            )
        if len(external_data) != SHA1_SIZE:
            raise TpmError(
                TpmResult.BAD_PARAMETER, "external data must be a 20-byte digest"
            )
        composite = PcrComposite.from_bank(selection, self.pcrs.values())
        quote_info = QuoteInfo(
            composite_digest=composite.digest(), external_data=external_data
        )
        signature = pkcs1_sign(key.keypair, quote_info.to_bytes())
        return QuoteBundle(
            selection=selection,
            pcr_values=composite.values,
            external_data=external_data,
            signature=signature,
            signer_fingerprint=key.fingerprint(),
        )

    # ------------------------------------------------------------------
    # Seal / unseal
    # ------------------------------------------------------------------
    def _cmd_seal(
        self, locality: int, data: bytes, selection: PcrSelection
    ) -> SealedBlob:
        """Seal ``data`` to the *current* values of the selected PCRs."""
        composite = PcrComposite.from_bank(selection, self.pcrs.values())
        digest_at_release = composite.digest()
        plaintext = (
            struct.pack(">I", len(digest_at_release))
            + digest_at_release
            + data
        )
        assert self._srk.wrap_secret is not None
        ciphertext = seal_box(
            self._srk.wrap_secret, plaintext, self._drbg.generate(16)
        )
        return SealedBlob(
            selection=selection,
            pcr_info_digest=digest_at_release,
            ciphertext=ciphertext,
            parent_key_fingerprint=self._srk.fingerprint(),
        )

    def _cmd_unseal(self, locality: int, blob: SealedBlob) -> bytes:
        """Release sealed data iff current PCR state matches the blob's."""
        if blob.parent_key_fingerprint != self._srk.fingerprint():
            raise TpmError(
                TpmResult.KEY_NOT_FOUND, "sealed blob belongs to another TPM"
            )
        assert self._srk.wrap_secret is not None
        try:
            plaintext = open_box(self._srk.wrap_secret, blob.ciphertext)
        except AuthenticationError as exc:
            raise TpmError(TpmResult.BAD_PARAMETER, f"corrupt blob: {exc}") from exc
        (digest_len,) = struct.unpack(">I", plaintext[:4])
        digest_at_release = plaintext[4 : 4 + digest_len]
        data = plaintext[4 + digest_len :]
        current = PcrComposite.from_bank(blob.selection, self.pcrs.values())
        if current.digest() != digest_at_release:
            raise TpmError(
                TpmResult.WRONG_PCR_VALUE,
                "current PCR state does not satisfy the seal policy",
            )
        return data

    # ------------------------------------------------------------------
    # Key management
    # ------------------------------------------------------------------
    def _cmd_create_wrap_key(
        self,
        locality: int,
        parent_handle: int,
        usage: KeyUsage,
        usage_auth: Optional[bytes] = None,
    ) -> Tuple[RsaPublicKey, bytes]:
        """Generate a child key; return (public half, wrapped private).

        ``usage_auth`` (20 bytes) makes the key require an OIAP proof on
        every private-key use; None/well-known means no authorization.
        """
        parent = self._require_loaded(parent_handle)
        if parent.usage not in (KeyUsage.STORAGE, KeyUsage.ENDORSEMENT):
            raise TpmError(
                TpmResult.BAD_PARAMETER, "parent must be a storage key"
            )
        if usage is KeyUsage.ENDORSEMENT:
            raise TpmError(TpmResult.BAD_PARAMETER, "cannot create EKs")
        if usage_auth is not None and len(usage_auth) != 20:
            raise TpmError(
                TpmResult.BAD_PARAMETER, "usage auth must be a 20-byte secret"
            )
        child = TpmKey.generate(usage, self._drbg, self.key_bits)
        child.usage_auth = usage_auth
        wrapped = wrap_key(parent, child, self._drbg.generate(16))
        return child.public, wrapped

    def _cmd_load_key2(
        self, locality: int, parent_handle: int, wrapped_blob: bytes
    ) -> int:
        parent = self._require_loaded(parent_handle)
        try:
            key = unwrap_key(parent, wrapped_blob)
        except (AuthenticationError, ValueError) as exc:
            raise TpmError(
                TpmResult.BAD_PARAMETER, f"cannot unwrap key blob: {exc}"
            ) from exc
        handle = self._next_handle
        self._next_handle += 1
        self._loaded[handle] = key
        return handle

    def _cmd_sign(
        self,
        locality: int,
        key_handle: int,
        digest: bytes,
        auth: Optional[AuthBlock] = None,
    ) -> bytes:
        key = self._require_loaded(key_handle)
        if key.usage is not KeyUsage.SIGNING:
            raise TpmError(TpmResult.BAD_PARAMETER, "sign requires a signing key")
        if len(digest) != SHA1_SIZE:
            raise TpmError(
                TpmResult.BAD_PARAMETER, "sign expects a 20-byte SHA-1 digest"
            )
        # Keys created with a usage secret demand an OIAP proof.
        self.oiap.validate(
            getattr(key, "usage_auth", None), param_digest("sign", digest), auth
        )
        return pkcs1_sign(key.keypair, digest, prehashed=True)

    # ------------------------------------------------------------------
    # Authorization sessions
    # ------------------------------------------------------------------
    def _cmd_oiap_open(self, locality: int) -> Tuple[int, bytes]:
        """TPM_OIAP: open an authorization session."""
        session = self.oiap.open()
        return session.handle, session.nonce_even

    def _cmd_terminate_auth(self, locality: int, session_handle: int) -> None:
        self.oiap.terminate(session_handle)

    def _cmd_certify_key(
        self,
        locality: int,
        aik_handle: int,
        key_handle: int,
        selection: PcrSelection,
        external_data: bytes,
    ) -> Tuple[bytes, bytes]:
        """AIK-sign (key public digest, current PCR composite, nonce)."""
        aik = self._require_loaded(aik_handle)
        if aik.usage is not KeyUsage.IDENTITY:
            raise TpmError(TpmResult.BAD_PARAMETER, "certify requires an AIK")
        subject = self._require_loaded(key_handle)
        if len(external_data) != SHA1_SIZE:
            raise TpmError(
                TpmResult.BAD_PARAMETER, "external data must be 20 bytes"
            )
        composite = PcrComposite.from_bank(selection, self.pcrs.values())
        info = CertifyInfo(
            public_key_digest=sha1(subject.public.to_bytes()),
            composite_digest=composite.digest(),
            external_data=external_data,
        )
        encoded = info.to_bytes()
        return encoded, pkcs1_sign(aik.keypair, encoded)

    def _cmd_make_identity(self, locality: int) -> Tuple[int, RsaPublicKey, bytes]:
        """Create a new AIK; returns (handle, public half, wrapped blob).

        The wrapped blob (under the SRK) is what lets the platform
        reload its AIK after a reboot — AIK slots are volatile.
        """
        aik = TpmKey.generate(KeyUsage.IDENTITY, self._drbg, self.key_bits)
        handle = self._next_handle
        self._next_handle += 1
        self._loaded[handle] = aik
        wrapped = wrap_key(self._srk, aik, self._drbg.generate(16))
        return handle, aik.public, wrapped

    def _cmd_activate_identity(
        self, locality: int, aik_handle: int, encrypted_blob: bytes
    ) -> bytes:
        """Decrypt a Privacy-CA blob with the EK; releases the AIK cert
        session key only if the blob was bound to this exact AIK (the
        binding is OAEP's label, so a mismatch is indistinguishable
        from ciphertext tampering)."""
        from repro.crypto.oaep import oaep_decrypt
        from repro.tpm.ca import derive_activation_key

        aik = self._require_loaded(aik_handle)
        try:
            seed = oaep_decrypt(
                self._ek.keypair, encrypted_blob, label=aik.fingerprint()
            )
        except Exception as exc:
            raise TpmError(
                TpmResult.BAD_PARAMETER, f"EK decryption failed: {exc}"
            ) from exc
        return derive_activation_key(seed)

    def _cmd_read_pubek(self, locality: int) -> RsaPublicKey:
        return self._ek.public

    def _cmd_flush_context(self, locality: int, key_handle: int) -> None:
        if key_handle == self.SRK_HANDLE:
            raise TpmError(TpmResult.BAD_PARAMETER, "cannot flush the SRK")
        self._loaded.pop(key_handle, None)

    # ------------------------------------------------------------------
    # NV and counters
    # ------------------------------------------------------------------
    def _cmd_nv_define(
        self, locality: int, index: int, size: int, auth_value: Optional[bytes] = None
    ) -> None:
        self.nv.define(index, size, auth_value)

    def _cmd_nv_write(
        self, locality: int, index: int, data: bytes, auth: Optional[bytes] = None
    ) -> None:
        self.nv.write(index, data, auth)

    def _cmd_nv_read(
        self, locality: int, index: int, auth: Optional[bytes] = None
    ) -> bytes:
        return self.nv.read(index, auth)

    def _cmd_create_counter(self, locality: int, counter_id: int) -> None:
        self.nv.create_counter(counter_id)

    def _cmd_increment_counter(self, locality: int, counter_id: int) -> int:
        return self.nv.increment_counter(counter_id)

    def _cmd_read_counter(self, locality: int, counter_id: int) -> int:
        return self.nv.read_counter(counter_id)

    # ------------------------------------------------------------------
    def _require_loaded(self, handle: int) -> TpmKey:
        if handle not in self._loaded:
            raise TpmError(TpmResult.KEY_NOT_FOUND, f"no key at handle {handle:#x}")
        return self._loaded[handle]

    def __repr__(self) -> str:
        return (
            f"TpmDevice(vendor={self.profile.vendor!r}, "
            f"keys={len(self._loaded)}, started={self._started})"
        )
