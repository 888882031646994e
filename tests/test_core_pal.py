"""The ConfirmationPal and SetupPal, exercised through real sessions."""

from __future__ import annotations

import struct

import pytest

from repro.core import Decision, SetupPal
from repro.core.confirmation_pal import confirmation_digest
from repro.crypto import pkcs1_verify
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.sha1 import sha1
from repro.drtm.session import FlickerSession
from repro.hardware.keyboard import ScanCode
from repro.tpm.quote import QuoteBundle, verify_quote
from repro.tpm.structures import SealedBlob


@pytest.fixture
def aik(machine):
    handle, public, _wrapped = machine.chipset.tpm_command_as_os("make_identity")
    return handle, public


def _press(machine, *codes):
    def human(visible, max_wait):
        for code in codes:
            machine.keyboard.press_physical_key(code)
        return 0.5

    return human


def _confirm_inputs(nonce=b"n" * 20, text=b"=== TRANSACTION CONFIRMATION ===\npay",
                    mode=b"quote", aik_handle=None, credential=None):
    inputs = {"phase": b"confirm", "text": text, "nonce": nonce, "mode": mode}
    if aik_handle is not None:
        inputs["aik_handle"] = struct.pack(">I", aik_handle)
    if credential is not None:
        inputs["credential"] = credential
    return inputs


class TestDecisionHandling:
    def test_y_accepts(self, simulator, machine, aik):
        session = FlickerSession(
            simulator, machine, human=_press(machine, ScanCode.KEY_Y)
        )
        record = session.run(
            SetupPal(), _confirm_inputs(aik_handle=aik[0])
        )
        assert record.outputs["decision"] == Decision.ACCEPT

    def test_n_rejects(self, simulator, machine, aik):
        session = FlickerSession(
            simulator, machine, human=_press(machine, ScanCode.KEY_N)
        )
        record = session.run(SetupPal(), _confirm_inputs(aik_handle=aik[0]))
        assert record.outputs["decision"] == Decision.REJECT

    def test_esc_rejects(self, simulator, machine, aik):
        session = FlickerSession(
            simulator, machine, human=_press(machine, ScanCode.KEY_ESC)
        )
        record = session.run(SetupPal(), _confirm_inputs(aik_handle=aik[0]))
        assert record.outputs["decision"] == Decision.REJECT

    def test_fumbled_keys_ignored(self, simulator, machine, aik):
        session = FlickerSession(
            simulator, machine,
            human=_press(machine, ScanCode.KEY_1, ScanCode.KEY_2, ScanCode.KEY_Y),
        )
        record = session.run(SetupPal(), _confirm_inputs(aik_handle=aik[0]))
        assert record.outputs["decision"] == Decision.ACCEPT

    def test_absent_human_times_out_without_evidence(self, simulator, machine, aik):
        session = FlickerSession(simulator, machine)  # nobody present
        record = session.run(SetupPal(), _confirm_inputs(aik_handle=aik[0]))
        assert record.outputs["decision"] == Decision.TIMEOUT
        assert "quote" not in record.outputs
        assert "signature" not in record.outputs

    def test_transaction_text_displayed(self, simulator, machine, aik):
        shown = {}

        def human(visible, max_wait):
            shown["text"] = visible
            machine.keyboard.press_physical_key(ScanCode.KEY_Y)
            return 0.2

        session = FlickerSession(simulator, machine, human=human)
        text = b"=== TRANSACTION CONFIRMATION ===\npay bob 42.00"
        session.run(SetupPal(), _confirm_inputs(text=text, aik_handle=aik[0]))
        assert "pay bob 42.00" in shown["text"]
        assert "Y = confirm" in shown["text"]


class TestInputValidation:
    def test_bad_nonce_aborts(self, simulator, machine, aik):
        session = FlickerSession(simulator, machine)
        record = session.run(
            SetupPal(), _confirm_inputs(nonce=b"short", aik_handle=aik[0])
        )
        assert record.aborted

    def test_bad_mode_aborts(self, simulator, machine, aik):
        session = FlickerSession(simulator, machine)
        record = session.run(
            SetupPal(), _confirm_inputs(mode=b"hologram", aik_handle=aik[0])
        )
        assert record.aborted


class TestQuoteEvidence:
    def test_quote_binds_digest_and_nonce(self, simulator, machine, aik):
        handle, public = aik
        nonce = sha1(b"server nonce")
        text = b"=== TRANSACTION CONFIRMATION ===\npay carol 7.00"
        session = FlickerSession(
            simulator, machine, human=_press(machine, ScanCode.KEY_Y)
        )
        record = session.run(
            SetupPal(), _confirm_inputs(nonce=nonce, text=text, aik_handle=handle)
        )
        bundle = QuoteBundle.from_bytes(record.outputs["quote"])
        assert verify_quote(public, bundle)
        assert bundle.external_data == sha1(nonce)
        digest = confirmation_digest(text, nonce, Decision.ACCEPT)
        assert record.outputs["digest"] == digest
        assert bundle.reported_value(18) == sha1(b"\x00" * 20 + digest)

    def test_reject_decision_also_attested(self, simulator, machine, aik):
        handle, public = aik
        session = FlickerSession(
            simulator, machine, human=_press(machine, ScanCode.KEY_N)
        )
        record = session.run(SetupPal(), _confirm_inputs(aik_handle=handle))
        assert record.outputs["decision"] == Decision.REJECT
        assert verify_quote(public, QuoteBundle.from_bytes(record.outputs["quote"]))


class TestSetupThenSign:
    def test_full_setup_and_signed_confirmation(self, simulator, machine, aik):
        handle, aik_public = aik
        session = FlickerSession(
            simulator, machine, human=_press(machine, ScanCode.KEY_Y)
        )
        setup_nonce = sha1(b"setup nonce")
        setup_record = session.run(
            SetupPal(),
            {
                "phase": b"setup",
                "nonce": setup_nonce,
                "aik_handle": struct.pack(">I", handle),
            },
        )
        assert not setup_record.aborted, setup_record.abort_reason
        public = RsaPublicKey.from_bytes(setup_record.outputs["public_key"])
        quote = QuoteBundle.from_bytes(setup_record.outputs["quote"])
        assert verify_quote(aik_public, quote)
        # PCR 18 binds the public key.
        assert quote.reported_value(18) == sha1(
            b"\x00" * 20 + sha1(setup_record.outputs["public_key"])
        )

        # Now a signed confirmation with the sealed credential.
        nonce = sha1(b"tx nonce")
        text = b"=== TRANSACTION CONFIRMATION ===\norder 1 gpu"
        confirm_record = session.run(
            SetupPal(),
            _confirm_inputs(
                nonce=nonce, text=text, mode=b"signed",
                credential=setup_record.outputs["sealed_credential"],
            ),
        )
        assert not confirm_record.aborted, confirm_record.abort_reason
        digest = confirmation_digest(text, nonce, Decision.ACCEPT)
        assert pkcs1_verify(
            public, digest, confirm_record.outputs["signature"], prehashed=True
        )

    def test_setup_requires_no_human(self, simulator, machine, aik):
        session = FlickerSession(simulator, machine)  # nobody present
        record = session.run(
            SetupPal(),
            {
                "phase": b"setup",
                "nonce": sha1(b"n"),
                "aik_handle": struct.pack(">I", aik[0]),
            },
        )
        assert not record.aborted

    def test_sealed_credential_useless_to_other_pal(self, simulator, machine, aik):
        """A different PAL (different PCR 17) cannot unseal the credential."""
        from typing import Dict

        from repro.drtm.pal import Pal, PalServices
        from repro.tpm.constants import TpmError

        session = FlickerSession(simulator, machine)
        setup_record = session.run(
            SetupPal(),
            {
                "phase": b"setup",
                "nonce": sha1(b"n"),
                "aik_handle": struct.pack(">I", aik[0]),
            },
        )
        blob = SealedBlob.from_bytes(setup_record.outputs["sealed_credential"])
        outcome = {}

        class ThiefPal(Pal):
            name = "thief"

            def run(self, services: PalServices, inputs: Dict[str, bytes]):
                try:
                    services.tpm("unseal", blob=blob)
                    outcome["stolen"] = True
                except TpmError:
                    outcome["stolen"] = False
                return {}

        session.run(ThiefPal(), {})
        assert outcome == {"stolen": False}
