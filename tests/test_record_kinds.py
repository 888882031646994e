"""One definition per journal record kind.

Every kind a provider journals has one entry in
``repro.server.provider.RECORD_KINDS``: how replay applies it, and whose
it is in a migration tail.  These tests hold the live path, crash
replay and the migration-tail filter to that one definition:

* a live mutation and its replay end in the same state: a signing key
  installed by the ``register_signing_key`` shortcut after
  ``tp.setup_begin`` spends the pending setup nonce live, as its
  ``skey`` record does in replay, so a restore is exact;
* a copy-window tail applies each account-owned and by-id record for an
  account in the moved range and skips it for one outside, never
  applies a source-only, marker or never-tailed record, and refuses a
  kind the table does not list before applying anything.
"""

from __future__ import annotations

import pytest

from repro.core.confirmation_pal import confirmation_digest
from repro.core.protocol import build_transaction_request
from repro.core.transaction import Transaction, account_of
from repro.crypto import HmacDrbg, generate_rsa_keypair, pkcs1_sign
from repro.net.messages import decode_message, encode_message
from repro.net.network import LinkSpec, Network
from repro.os.disk import UntrustedDisk
from repro.server.bank import BankServer
from repro.server.journal import JournalError
from repro.server.policy import VerifierPolicy
from repro.server.provider import RECORD_KINDS, TxStatus
from repro.server.router import build_sharded_pool
from repro.sim import Simulator
from repro.tpm.ca import AikCertificate, serialize_certificate

CLIENT = "load-host"
PLATFORM = "pc-client-v1.2"
#: The moved range, and the accounts that stay on the source.
MOVED = ("alice", "alice2")
STAYING = ("bob", "bob2")
#: The kinds a tail applies for the moved range: the ones that name an
#: account, and the ones that name an entry the new owner then holds.
TAILED = {
    "reg", "login", "cert", "sbegin", "skey", "txreq", "breq",
    "rechal", "brechal", "settle", "bsettle", "expire", "bexpire",
}


class _Pool:
    """A one-shard bank pool whose policy trusts one CA, with a signing
    key and an AIK certificate that CA issued."""

    def __init__(self, journal: bool):
        self.simulator = Simulator(seed=3030)
        self.network = Network(self.simulator)
        self.network.attach(CLIENT, LinkSpec.lan())
        self.policy = VerifierPolicy()
        ca = generate_rsa_keypair(512, HmacDrbg(b"record-kinds-ca"))
        self.policy.trust_ca(ca.public)
        self.router = build_sharded_pool(
            self.simulator, self.network, "pool.kinds", self.policy,
            shard_count=1, provider_factory=BankServer, workers_per_shard=1,
            journal_disk=UntrustedDisk() if journal else None,
        )
        self.shard = self.router.shards[0]
        self.key = generate_rsa_keypair(512, HmacDrbg(b"record-kinds-key"))
        self.certificate = serialize_certificate(AikCertificate(
            aik_public=self.key.public, platform_class=PLATFORM,
            signature=pkcs1_sign(
                ca, self.key.public.to_bytes() + PLATFORM.encode("utf-8")
            ),
        ))
        self.cookies = {}

    def call(self, method, request, account=None):
        if account is not None:
            request = dict(request, session=self.cookies[account])
        return self.router.endpoint.call_sync(CLIENT, method, request)

    def register(self, account):
        assert self.call(
            "register", {"account": account, "password": "pw"}
        ) == {"ok": 1}

    def login(self, account):
        self.cookies[account] = self.call(
            "login", {"account": account, "password": "pw"}
        )["set_session"]

    def set_up(self, account):
        """Enroll the AIK, begin a setup and install the signing key by
        the shortcut, leaving one ``cert``, ``sbegin`` and ``skey``."""
        assert self.call(
            "tp.enroll_aik", {"aik_certificate": self.certificate}, account
        ) == {"ok": 1}
        assert self.call("tp.setup_begin", {}, account)["ok"] == 1
        self.shard.register_signing_key(account, self.key.public)

    def request(self, account, *amounts):
        requests = [
            build_transaction_request(
                Transaction("transfer", account, {"to": "sink", "amount": a})
            )
            for a in amounts
        ]
        if len(requests) == 1:
            return self.call("tx.request", requests[0], account)
        return self.call("tx.request_batch", {
            "transactions": [encode_message(r) for r in requests],
        }, account)

    def confirm(self, account, challenge, batch):
        digest = confirmation_digest(
            challenge["text"], challenge["nonce"], b"accept"
        )
        return self.call("tx.confirm_batch" if batch else "tx.confirm", {
            "tx_id": challenge["tx_id"], "decision": b"accept",
            "evidence": "signed",
            "signature": pkcs1_sign(self.key, digest, prehashed=True),
        }, account)


class TestSharedAppliers:
    def test_shortcut_key_after_setup_begin_restores_exactly(self):
        """``register_signing_key`` after ``tp.setup_begin`` spends the
        pending setup nonce live, as replaying its ``skey`` record does,
        so a crash and restart lands on the pre-crash digest."""
        pool = _Pool(journal=True)
        shard = pool.shard
        pool.register("alice")
        pool.login("alice")
        pool.set_up("alice")
        live_nonce = shard.accounts["alice"].pending_setup_nonce
        digest = shard.state_digest()
        shard.crash()
        shard.restart()
        assert shard.journal_restores == 1
        assert shard.state_digest() == digest
        assert shard.accounts["alice"].pending_setup_nonce == live_nonce
        assert live_nonce is None


def _copy_window():
    """A copy-window tail holding every account-owned and by-id kind for
    an account in :data:`MOVED` and one in :data:`STAYING`, with a store
    sweep and a migration marker in it, and a destination that installed
    the slice of the moved accounts registered before the window.
    Returns (source, destination, tail)."""
    pool = _Pool(journal=False)
    source = pool.shard
    lifetime = pool.policy.nonce_lifetime_seconds
    for account in (MOVED[0], STAYING[0]):
        pool.register(account)
        pool.login(account)
    destination = BankServer(
        pool.simulator, pool.network, "dest.kinds", pool.policy
    )
    destination.install_slice(source.capture_slice([MOVED[0]]))

    tap = source.start_migration_tap()
    source.note_migration("mig_prepare", "scale_up-0")
    for account, new in (MOVED, STAYING):
        pool.register(new)
        pool.login(account)
        pool.set_up(account)
        pool.request(account, 101)
        pool.request(account, 201, 202)
    # The first request after the nonce lifetime sweeps the store:
    # member and batch expiries, then the sweep marker and a retire.
    pool.simulator.clock.advance(lifetime + 1)
    for account in (MOVED[0], STAYING[0]):
        single = pool.request(account, 102)
        batch = pool.request(account, 203, 204)
        assert pool.confirm(account, single, batch=False)["status"] == "executed"
        assert pool.confirm(account, batch, batch=True)["status"] == "executed"
    pool.simulator.clock.advance(lifetime + 1)
    for account in (MOVED[0], STAYING[0]):
        for challenge_id, challenge in list(source.challenges.items()):
            if challenge.account == account and (
                challenge.status is TxStatus.EXPIRED
            ):
                assert pool.call(
                    "tx.rechallenge", {"tx_id": challenge_id}, account
                )["ok"] == 1
    return source, destination, source.stop_migration_tap(tap)


def _owner(record, source) -> str:
    """The account a record concerns, read off the source's store."""
    kind = record["t"]
    if kind == "reg":
        return str(decode_message(record["req"])["account"])
    if kind == "txreq":
        return account_of(record["tx"])
    if "id" in record:
        for challenge in source.challenges.values():
            if record["id"] in (challenge.challenge_id, *challenge.tx_ids):
                return challenge.account
        raise AssertionError(f"no challenge holds {record['id']!r}")
    return str(record.get("a", ""))


class TestMigrationTailFilter:
    def test_each_kind_applies_only_for_the_moved_range(self):
        source, destination, tail = _copy_window()
        # Kinds the window writes no record of get a hand-made one that
        # names a moved account: its owner rule alone must skip it.
        present = {record["t"] for record in tail}
        assert TAILED <= present
        assert {"retire", "sweepmark", "mig_prepare"} <= present
        tail += [
            {"t": kind, "a": MOVED[0]}
            for kind in RECORD_KINDS if kind not in present
        ]
        expected = [
            record for record in tail
            if record["t"] in TAILED and _owner(record, source) in MOVED
        ]
        skipped = [
            record for record in tail
            if record["t"] in TAILED and _owner(record, source) in STAYING
        ]
        assert {r["t"] for r in expected} == TAILED
        assert {r["t"] for r in skipped} == TAILED
        assert len(expected) + len(skipped) + sum(
            record["t"] not in TAILED for record in tail
        ) == len(tail)

        journaled = destination.start_migration_tap()
        assert destination.apply_migration_records(tail, MOVED) == len(expected)
        (mig_tail,) = journaled
        assert mig_tail["t"] == "mig_tail"
        assert [decode_message(raw) for raw in mig_tail["rs"]] == expected
        assert set(destination.accounts) == set(MOVED)
        assert all(
            challenge.account in MOVED
            for challenge in destination.challenges.values()
        )

    @pytest.mark.parametrize("kind", ["no_such_kind", b"reg"])
    def test_unknown_kind_is_refused_before_anything_applies(self, kind):
        _source, destination, tail = _copy_window()
        digest = destination.state_digest()
        with pytest.raises(JournalError, match="unknown journal record kind"):
            destination.apply_migration_records(
                tail + [{"t": kind, "a": MOVED[0]}], MOVED
            )
        assert destination.state_digest() == digest
