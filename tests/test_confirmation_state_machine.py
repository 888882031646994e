"""The provider's one confirmation state machine, single and batch.

* **Golden bytes.**  A scripted single-transaction flow and a batch flow
  (request, rechallenge, settle in every outcome, sweep expiry, retire)
  on a journaled shard pin the WAL record vocabulary (via a migration
  tap), the snapshot ``core`` and the slice bytes.  These formats are
  priced by the simulation and hashed into every state digest, so they
  must not move when the state machine's code does.
* **Execute-time failures.**  A confirmed transaction whose business
  effect fails at execution time settles DENIED like any other denial:
  journaled, nonce consumed, replayable by its evidence.
* **A member id is not a challenge.**  Only the challenge id a client
  was issued can be confirmed or rechallenged.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import Transaction
from repro.core.confirmation_pal import confirmation_digest
from repro.core.protocol import build_transaction_request
from repro.crypto import HmacDrbg, generate_rsa_keypair, pkcs1_sign
from repro.net.messages import encode_message
from repro.net.network import LinkSpec, Network
from repro.net.rpc import RpcError
from repro.os.disk import UntrustedDisk
from repro.server.bank import BankServer
from repro.server.noncedb import NonceState
from repro.server.policy import VerifierPolicy
from repro.server.router import build_sharded_pool
from repro.sim import Simulator

CLIENT = "load-host"
ACCOUNT = "alice"

#: sha256 digests of the scripted flow's frozen formats.
GOLDEN = {
    "tap": "eb3342b556234a9cae42a00af68c8992ea18b0f8796c6638d9fb4febb42c7b18",
    "core_mid": (
        "d34577163b171c7b2ad2dbadca39ada7a3f8fe1e4b8f12186c7814b6eeae59a2"
    ),
    "slice_mid": (
        "69924da58163179a096a4e2299a490e20401cd2be118cbce3b6a8a9ee9c8ee90"
    ),
    "core_end": (
        "de25ca3a471870a59853c51ac5545abcdcd828eff7fa18b25f7d61fcd6906b0f"
    ),
}


def _build():
    simulator = Simulator(seed=4242)
    network = Network(simulator)
    network.attach(CLIENT, LinkSpec.lan())
    router = build_sharded_pool(
        simulator, network, "pool.sm", VerifierPolicy(),
        shard_count=1, provider_factory=BankServer, workers_per_shard=1,
        journal_disk=UntrustedDisk(), snapshot_every=4,
    )
    signing_key = generate_rsa_keypair(512, HmacDrbg(b"state-machine"))
    router.endpoint.call_sync(
        CLIENT, "register",
        {"account": ACCOUNT, "password": "pw", "opening_balance": 10_000},
    )
    cookie = router.endpoint.call_sync(
        CLIENT, "login", {"account": ACCOUNT, "password": "pw"}
    )["set_session"]
    router.shards[0].register_signing_key(ACCOUNT, signing_key.public)
    return simulator, router, signing_key, cookie


class _Flow:
    """RPC helpers for one account; errors come back as responses."""

    def __init__(self):
        self.simulator, self.router, self.key, self.cookie = _build()
        self.shard = self.router.shards[0]
        self.lifetime = self.shard.policy.nonce_lifetime_seconds

    def call(self, method, request):
        request = dict(request, session=self.cookie)
        try:
            return self.router.endpoint.call_sync(CLIENT, method, request)
        except RpcError as exc:
            return dict(exc.response) or {"error": str(exc)}

    def request(self, amount):
        tx = Transaction("transfer", ACCOUNT, {"to": "sink", "amount": amount})
        return self.call("tx.request", build_transaction_request(tx))

    def request_batch(self, *amounts):
        encoded = [
            encode_message(build_transaction_request(
                Transaction("transfer", ACCOUNT, {"to": "sink", "amount": a})
            ))
            for a in amounts
        ]
        return self.call("tx.request_batch", {"transactions": encoded})

    def evidence(self, challenge, decision=b"accept", forged=False):
        digest = confirmation_digest(
            challenge["text"], challenge["nonce"], decision
        )
        signature = (
            b"\x01" * 64 if forged
            else pkcs1_sign(self.key, digest, prehashed=True)
        )
        return {
            "tx_id": challenge["tx_id"], "decision": decision,
            "evidence": "signed", "signature": signature,
        }

    def confirm(self, challenge, method="tx.confirm", **kwargs):
        return self.call(method, self.evidence(challenge, **kwargs))

    def rechallenge(self, challenge):
        return self.call("tx.rechallenge", {"tx_id": challenge["tx_id"]})

    def advance(self, seconds):
        self.simulator.clock.advance(seconds)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenBytes:
    def test_frozen_formats(self):
        flow = _Flow()
        tap = flow.shard.start_migration_tap()
        batch = "tx.confirm_batch"

        # -- single: executed, rejected, denied.
        assert flow.confirm(flow.request(101))["status"] == "executed"
        rejected = flow.confirm(flow.request(102), decision=b"reject")
        assert rejected["status"] == "rejected_by_user"
        assert "denied" in flow.confirm(flow.request(103), forged=True)["error"]
        # -- single: stale PENDING rechallenged (expire + rechal).
        stale = flow.request(104)
        flow.advance(flow.lifetime + 1)
        fresh = flow.rechallenge(stale)
        assert flow.confirm(fresh)["status"] == "executed"
        # -- single: nonce expired at confirm, then rechallenged.
        late = flow.request(105)
        flow.advance(flow.lifetime + 1)
        assert flow.confirm(late).get("rechallenge") == 1
        assert flow.confirm(flow.rechallenge(late))["status"] == "executed"

        # -- batch: executed; stale PENDING rechallenged (bexpire +
        #    brechal); nonce expired at confirm, rechallenged, denied.
        assert flow.confirm(
            flow.request_batch(201, 202), batch
        )["status"] == "executed"
        stale = flow.request_batch(203)
        flow.advance(flow.lifetime + 1)
        assert flow.confirm(flow.rechallenge(stale), batch)["status"] == \
            "executed"
        late = flow.request_batch(204, 205)
        flow.advance(flow.lifetime + 1)
        assert flow.confirm(late, batch).get("rechallenge") == 1
        denied = flow.confirm(flow.rechallenge(late), batch, forged=True)
        assert denied["error"].startswith("batch denied:")
        rejected = flow.confirm(
            flow.request_batch(208), batch, decision=b"reject"
        )
        assert rejected["status"] == "rejected_by_user"

        # -- one sweep expires a batch and a single together.
        flow.request_batch(206, 207)
        pending = flow.request(106)
        flow.advance(flow.lifetime + 61)
        flow.request(107)
        assert flow.call("tx.status", {"tx_id": pending["tx_id"]})[
            "status"
        ] == "expired"
        core_mid = flow.shard.capture_state()["core"]
        slice_mid = encode_message(flow.shard.capture_slice([ACCOUNT]))

        # -- retention: the next sweep retires every settled record.
        flow.advance(flow.shard.settled_retention_seconds + 61)
        flow.request(108)
        records = b"".join(encode_message(record) for record in tap)

        observed = {
            "tap": _sha(records),
            "core_mid": _sha(core_mid),
            "slice_mid": _sha(slice_mid),
            "core_end": _sha(flow.shard.capture_state()["core"]),
        }
        assert observed == GOLDEN
        # And the journal rebuilds exactly that state.
        before = flow.shard.state_digest()
        flow.shard.crash()
        flow.shard.restart()
        assert flow.shard.state_digest() == before


class TestExecuteTimeFailure:
    """Two 60 %-of-balance transfers both pass request-time validation;
    the second cannot execute once the first has."""

    def _overdraw(self):
        flow = _Flow()
        first, second = flow.request(6_000), flow.request(6_000)
        assert flow.confirm(first)["status"] == "executed"
        payload = flow.evidence(second)
        denied = flow.call("tx.confirm", payload)
        return flow, second, payload, denied

    def test_settles_denied_and_survives_a_crash(self):
        flow, second, _payload, denied = self._overdraw()
        assert denied["error"] == (
            "confirmation denied: insufficient funds at execution time"
        )
        assert flow.shard.balance_of(ACCOUNT) == 4_000
        before = flow.shard.state_digest()
        flow.shard.crash()
        flow.shard.restart()
        assert flow.shard.state_digest() == before
        assert flow.shard.nonces.state_of(
            second["nonce"], flow.simulator.now
        ) is NonceState.CONSUMED

    def test_resubmitted_evidence_replays_the_denial(self):
        flow, _second, payload, denied = self._overdraw()
        duplicates = flow.shard.duplicate_confirms
        denials = dict(flow.shard.denials)
        assert flow.call("tx.confirm", payload) == denied
        assert flow.shard.duplicate_confirms == duplicates + 1
        assert flow.shard.denials == denials


class TestMemberIdIsNotAChallenge:
    @pytest.mark.parametrize("method", ["tx.confirm", "tx.rechallenge"])
    def test_member_id_is_unknown(self, method):
        flow = _Flow()
        challenge = flow.request_batch(301, 302)
        member_id = list(flow.shard.transactions)[-1]
        assert member_id != challenge["tx_id"]
        before = flow.shard.state_digest()
        response = flow.call(method, dict(
            flow.evidence(challenge), tx_id=member_id
        ))
        assert response["error"] == "unknown transaction"
        assert flow.shard.state_digest() == before
