"""Experiment A1: defense ablation.

Each defense the design calls out is disabled in isolation, and the one
attack it exists to stop is re-run.  Expected shape: with the defense
on, the attack is prevented; with it off, the attack *actually
succeeds* (money reaches the mule, the credential leaves the TPM, or
PAL memory is corrupted) — demonstrating that no defense is redundant
and none is theater.

=========================  ===========================================
defense disabled            attack re-admitted
=========================  ===========================================
PAL measurement whitelist   PAL substitution (impostor quote accepted)
nonce freshness + single-   evidence replay (double execution)
use confirmation
session-end PCR 17 cap      credential exfiltration after the session
DEV (DMA protection)        device DMA into live PAL memory
=========================  ===========================================
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.adversary import AttackOutcome
from repro.bench.world import TrustedPathWorld, WorldConfig
from repro.core.errors import ConfirmationRejected
from repro.core.protocol import build_transaction_request
from repro.hardware.dma import DmaBlockedError
from repro.os.malware import EvidenceReplayer, PalSubstituter
from repro.tpm.constants import TpmError
from repro.tpm.structures import SealedBlob

MULE = "mule-account"


def _outcome(succeeded: bool) -> str:
    return AttackOutcome.SUCCEEDED.value if succeeded else AttackOutcome.PREVENTED.value


# ---------------------------------------------------------------------------
def run_pal_substitution(check_measurement: bool, seed: int = 301) -> bool:
    """Returns True iff the impostor's transaction executed."""
    world = TrustedPathWorld(WorldConfig(seed=seed)).ready()
    world.policy.check_pal_measurement = check_measurement
    world.os.install_malware(PalSubstituter())
    try:
        outcome = world.confirm(
            world.sample_transfer(amount_cents=66_000, to=MULE), mode="quote"
        )
        executed = outcome.executed
    except ConfirmationRejected:
        executed = False
    return executed and world.bank.total_stolen_by(MULE) > 0


# ---------------------------------------------------------------------------
def run_replay(replay_protection: bool, seed: int = 307) -> bool:
    """Returns True iff replaying a captured confirmation moved money twice."""
    world = TrustedPathWorld(WorldConfig(seed=seed)).ready()
    bank = world.bank
    bank.allow_reconfirmation = not replay_protection
    world.policy.check_nonce_freshness = replay_protection
    replayer = EvidenceReplayer()
    world.os.install_malware(replayer)
    outcome = world.confirm(world.sample_transfer(amount_cents=7_500, to="bob"))
    assert outcome.executed and replayer.captured
    balance_after_first = bank.balance_of("bob")
    try:
        replayer.replay(world.browser, bank.endpoint, "tx.confirm")
    except Exception:
        pass
    return bank.balance_of("bob") > balance_after_first


# ---------------------------------------------------------------------------
def run_credential_exfiltration(apply_cap: bool, seed: int = 311) -> bool:
    """Returns True iff the OS could unseal the credential after a
    legitimate session and use it to authorize a forged transfer."""
    world = TrustedPathWorld(WorldConfig(seed=seed))
    world.flicker.apply_cap = apply_cap
    world.ready()
    bank = world.bank
    outcome = world.confirm(world.sample_transfer(amount_cents=2_000, to="bob"))
    assert outcome.executed

    credential = world.client.credentials.sealed_credential
    try:
        private_blob = world.machine.chipset.tpm_command_as_os(
            "unseal", blob=SealedBlob.from_bytes(credential)
        )
    except TpmError:
        return False

    # The cap was missing: malware holds the raw signing key.  Finish the
    # theft end-to-end to prove it is a full compromise, not a curiosity.
    from repro.core.confirmation_pal import confirmation_digest
    from repro.crypto.pkcs1 import pkcs1_sign
    from repro.tpm.keys import deserialize_private

    key = deserialize_private(private_blob)
    forged = world.sample_transfer(amount_cents=120_000, to=MULE)
    response = world.browser.call(
        bank.endpoint, "tx.request", build_transaction_request(forged)
    )
    digest = confirmation_digest(response["text"], response["nonce"], b"accept")
    submission = {
        "tx_id": response["tx_id"],
        "decision": b"accept",
        "evidence": "signed",
        "signature": pkcs1_sign(key.keypair, digest, prehashed=True),
    }
    try:
        world.browser.call(bank.endpoint, "tx.confirm", submission)
    except Exception:
        return False
    return bank.total_stolen_by(MULE) > 0


# ---------------------------------------------------------------------------
def run_dma_attack(protect_dma: bool, seed: int = 313) -> bool:
    """Returns True iff a device DMA write landed in live PAL memory."""
    from repro.drtm.pal import Pal, PalServices

    world = TrustedPathWorld(WorldConfig(seed=seed))
    world.flicker.protect_dma = protect_dma
    landed = {"hit": False}
    machine = world.machine

    class VictimPal(Pal):
        name = "dma-victim"

        def run(self, services: PalServices, inputs):
            # Mid-session, a malicious NIC attempts to overwrite the SLB
            # (pre-programmed descriptor rings keep working while the OS
            # sleeps — DMA needs no CPU).
            region = next(
                r for r in machine.memory.regions() if r.name.startswith("slb:")
            )
            try:
                machine.chipset.dma.device_write(
                    "malicious-nic", region.base, b"\xcc" * 64
                )
                landed["hit"] = True
            except DmaBlockedError:
                landed["hit"] = False
            return {}

    record = world.flicker.run(VictimPal(), {})
    assert not record.aborted, record.abort_reason
    return landed["hit"]


# ---------------------------------------------------------------------------
def a1_defense_ablation(seed: int = 331) -> List[Dict]:
    """Rows: defense, attack, outcome with defense, outcome without."""
    cases = [
        (
            "PAL measurement whitelist",
            "pal-substitution",
            lambda on: run_pal_substitution(check_measurement=on, seed=seed),
        ),
        (
            "replay protection (nonce + single-use)",
            "evidence-replay",
            lambda on: run_replay(replay_protection=on, seed=seed + 2),
        ),
        (
            "session-end PCR17 cap",
            "credential-exfiltration",
            lambda on: run_credential_exfiltration(apply_cap=on, seed=seed + 4),
        ),
        (
            "DEV / DMA protection",
            "dma-into-PAL",
            lambda on: run_dma_attack(protect_dma=on, seed=seed + 6),
        ),
    ]
    rows = []
    for defense, attack, runner in cases:
        rows.append(
            {
                "defense": defense,
                "attack": attack,
                "with_defense": _outcome(runner(True)),
                "without_defense": _outcome(runner(False)),
            }
        )
    return rows
