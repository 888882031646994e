"""Settled challenges and accounts are encoded once, and that changes
no byte.

A settled challenge holds its snapshot elements (``Challenge.encoded``):
the first capture that encodes them, or the restore or slice install that
read them, keeps them, and any later transition drops them.  A restored
or installed member holds its own element until it thaws.  An account
holds its element (``AccountRecord.encoded``) from the decode or encode
that produced it until any field of it is written.  After every step of
a scripted flow — on a journaled provider, and on a pool through one
live migration — ``capture_state()`` and ``capture_slice()`` must equal
what the same provider captures with every entry thawed and every held
element dropped, i.e. what an encoder without the cache writes.

A bank's executed-transfer log is encoded once the same way: each
transfer at the first capture that needs it, a restored or absorbed
entry never.  After every step its ``capture_business_state()`` and
``capture_business_residual()`` must equal what an encoder of the
decoded log writes.
"""

from __future__ import annotations

import dataclasses

from repro.core import Transaction
from repro.core.confirmation_pal import confirmation_digest
from repro.core.protocol import build_transaction_request
from repro.crypto import HmacDrbg, generate_rsa_keypair, pkcs1_sign
from repro.net.messages import decode_message, encode_message
from repro.net.network import LinkSpec, Network
from repro.net.rpc import RpcError
from repro.os.disk import UntrustedDisk
from repro.server.bank import BankServer
from repro.server.policy import VerifierPolicy
from repro.server.provider import AccountRecord, ServiceProvider, TxStatus
from repro.server.rebalance import ShardPoolManager
from repro.server.router import build_sharded_pool
from repro.sim import Simulator
from tests.test_rebalance import _build, _enroll, _request, _transfer

CLIENT = "load-host"
ACCOUNT = "alice"
SETTLED = (TxStatus.EXECUTED, TxStatus.REJECTED_BY_USER, TxStatus.DENIED)


def _captures(provider) -> tuple:
    return (
        provider.capture_state(),
        encode_message(provider.capture_slice(list(provider.accounts))),
    )


def _uncached_business(bank: BankServer) -> tuple:
    """The business state and residual, encoded from the decoded log."""
    def balances(names):
        return [encode_message({"a": n, "v": bank.balances[n]}) for n in names]

    xf = [
        encode_message({"s": t.source, "d": t.destination, "v": t.amount_cents})
        for t in bank.executed_transfers
    ]
    external = sorted(set(bank.balances) - set(bank.accounts))
    return (
        encode_message({"bal": balances(sorted(bank.balances)), "xf": xf}),
        encode_message({"bal": balances(external), "xf": xf}),
    )


def assert_log_equivalent(bank: BankServer) -> None:
    cached = (
        encode_message(bank.capture_business_state()),
        encode_message(bank.capture_business_residual()),
    )
    assert cached == _uncached_business(bank)


def assert_cache_equivalent(provider) -> int:
    """Capture with the held elements, then with every entry thawed and
    every element dropped; the bytes must agree, and so must a bank's
    business captures.  Puts back every element (so later captures
    still take the held ones) and returns how many challenges held
    elements before the first capture."""
    if isinstance(provider, BankServer):
        assert_log_equivalent(provider)
    challenges = list(provider.challenges.values())
    entries = challenges + list(provider.transactions.values())
    records = list(provider.accounts.values())
    seeded = sum(c.encoded is not None for c in challenges)
    thawing = [entry.held for entry in entries]
    cached = _captures(provider)
    held = [c.encoded for c in challenges]
    accounts = [record.encoded for record in records]
    assert all(
        encoded is not None
        for challenge, encoded in zip(challenges, held)
        if challenge.status in SETTLED
    ), "a capture must leave every settled challenge holding its elements"
    assert None not in accounts, "a capture must leave every account held"
    for entry in entries:
        entry.thaw()
    for challenge in challenges:
        challenge.encoded = None
    for record in records:
        record.encoded = None
    fresh = _captures(provider)
    for entry, element in zip(entries, thawing):
        entry.held = element
    for challenge, encoded in zip(challenges, held):
        challenge.encoded = encoded
    for record, encoded in zip(records, accounts):
        record.encoded = encoded
    assert cached == fresh
    return seeded


class _Shard:
    """One journaled bank shard behind a one-shard pool, by default with
    the anti-rollback counter required (so a rollback is a denial path)."""

    def __init__(self, require_counter: bool = True):
        self.simulator = Simulator(seed=5151)
        network = Network(self.simulator)
        network.attach(CLIENT, LinkSpec.lan())
        self.router = build_sharded_pool(
            self.simulator, network, "pool.cache",
            VerifierPolicy(require_monotonic_counter=require_counter),
            shard_count=1, provider_factory=BankServer, workers_per_shard=1,
            journal_disk=UntrustedDisk(), snapshot_every=4,
        )
        self.shard = self.router.shards[0]
        self.key = generate_rsa_keypair(512, HmacDrbg(b"element-cache"))
        self.router.endpoint.call_sync(
            CLIENT, "register",
            {"account": ACCOUNT, "password": "pw", "opening_balance": 10**6},
        )
        self.cookie = self.router.endpoint.call_sync(
            CLIENT, "login", {"account": ACCOUNT, "password": "pw"}
        )["set_session"]
        self.shard.register_signing_key(ACCOUNT, self.key.public)
        self.counter = 0

    def call(self, method, request):
        request = dict(request, session=self.cookie)
        try:
            return self.router.endpoint.call_sync(CLIENT, method, request)
        except RpcError as exc:
            return dict(exc.response) or {"error": str(exc)}

    def request(self, *amounts):
        requests = [
            build_transaction_request(
                Transaction("transfer", ACCOUNT, {"to": "sink", "amount": a})
            )
            for a in amounts
        ]
        if len(requests) == 1:
            return self.call("tx.request", requests[0])
        return self.call("tx.request_batch", {
            "transactions": [encode_message(r) for r in requests],
        })

    def confirm(self, challenge, decision=b"accept", forged=False,
                counter=None):
        if counter is None:
            self.counter += 1
            counter = self.counter
        digest = confirmation_digest(
            challenge["text"], challenge["nonce"], decision, counter
        )
        signature = (
            b"\x01" * 64 if forged
            else pkcs1_sign(self.key, digest, prehashed=True)
        )
        batch = self.shard.challenges[challenge["tx_id"]].is_batch
        return self.call("tx.confirm_batch" if batch else "tx.confirm", {
            "tx_id": challenge["tx_id"], "decision": decision,
            "evidence": "signed", "signature": signature, "counter": counter,
        })

    def crash_and_restore(self) -> int:
        before = self.shard.state_digest()
        self.shard.crash()
        self.shard.restart()
        seeded = assert_cache_equivalent(self.shard)
        assert self.shard.state_digest() == before
        return seeded


class TestJournaledProvider:
    def test_every_step_captures_what_an_uncached_encoder_writes(self):
        flow = _Shard()
        shard = flow.shard

        def check():
            assert_cache_equivalent(shard)

        lifetime = shard.policy.nonce_lifetime_seconds

        # -- request (single, batch) and settle in every outcome.
        executed = flow.request(101)
        check()
        assert flow.confirm(executed)["status"] == "executed"
        check()
        assert flow.confirm(flow.request(102), decision=b"reject")[
            "status"] == "rejected_by_user"
        check()
        assert "denied" in flow.confirm(flow.request(103), forged=True)["error"]
        check()
        rollback = flow.confirm(flow.request(104), counter=1)
        assert "counter rollback" in rollback["error"]
        check()
        batch = flow.request(201, 202)
        check()
        assert flow.confirm(batch)["status"] == "executed"
        check()
        assert flow.confirm(flow.request(203, 204), decision=b"reject")[
            "status"] == "rejected_by_user"
        check()
        assert flow.confirm(flow.request(205, 206), forged=True)[
            "error"].startswith("batch denied:")
        check()

        # -- expire (sweep), rechallenge, settle.
        stale_single, stale_batch = flow.request(105), flow.request(207, 208)
        flow.simulator.clock.advance(lifetime + 61)
        flow.request(106)  # triggers the sweep
        assert shard.challenges[stale_batch["tx_id"]].status is TxStatus.EXPIRED
        check()
        for stale in (stale_single, stale_batch):
            fresh = flow.call("tx.rechallenge", {"tx_id": stale["tx_id"]})
            check()
            assert flow.confirm(fresh)["status"] == "executed"
            check()

        # -- crash and restore: the snapshot seeds settled elements.
        assert flow.crash_and_restore() > 0

        # -- allow_reconfirmation: re-execute a settled challenge, then
        #    deny it on a rolled-back counter (only _set_status moves it).
        shard.allow_reconfirmation = True
        shard.policy = dataclasses.replace(
            shard.policy, check_nonce_freshness=False
        )
        first = shard.challenges[executed["tx_id"]]
        settled = (first.settled_at, first.evidence_digest)
        flow.simulator.clock.advance(1.0)
        assert flow.confirm(executed)["status"] == "executed"
        assert (first.settled_at, first.evidence_digest) != settled
        check()
        assert "counter rollback" in flow.confirm(executed, counter=1)["error"]
        assert shard.challenges[executed["tx_id"]].status is TxStatus.DENIED
        check()
        flow.crash_and_restore()

        # -- retire: the retention sweep drops every settled challenge.
        flow.simulator.clock.advance(shard.settled_retention_seconds + 61)
        flow.request(107)
        assert all(
            c.status not in SETTLED for c in shard.challenges.values()
        )
        check()
        flow.crash_and_restore()

    def test_replayed_settle_appends_to_the_restored_log(self):
        """An EXECUTED ``settle`` in the WAL tail appends its transfer
        to the log the snapshot seeded, and captures stay exact."""
        flow = _Shard()
        shard = flow.shard

        def seeded_and_executed_in_tail() -> tuple:
            core = decode_message(
                decode_message(shard.journal.read_snapshot())["core"]
            )
            executed = any(
                record["t"] == "settle" and record["st"] == "executed"
                for record in map(decode_message, shard.journal.read_records())
            )
            return decode_message(core["biz"])["xf"], executed

        for amount in range(101, 121):
            assert flow.confirm(flow.request(amount))["status"] == "executed"
            assert_cache_equivalent(shard)
            seeded, executed = seeded_and_executed_in_tail()
            if seeded and executed:
                break
        assert seeded and executed
        flow.crash_and_restore()
        assert len(shard.executed_transfers) == len(seeded) + 1
        assert flow.confirm(flow.request(201, 202))["status"] == "executed"
        assert_cache_equivalent(shard)
        flow.crash_and_restore()

    def test_restore_seeds_every_settled_challenge(self):
        flow = _Shard()
        flow.confirm(flow.request(101))
        flow.confirm(flow.request(201, 202), decision=b"reject")
        flow.request(103)
        state = flow.shard.capture_state()
        flow.shard.restore_state(state)
        settled = [
            c for c in flow.shard.challenges.values() if c.status in SETTLED
        ]
        assert len(settled) == 2
        assert all(c.encoded is not None for c in settled)
        assert all(a.encoded is not None for a in flow.shard.accounts.values())
        assert flow.shard.capture_state() == state
        assert_cache_equivalent(flow.shard)

    def test_any_account_field_write_drops_its_element(self):
        flow = _Shard()
        element = flow.shard._encode_account(flow.shard.accounts[ACCOUNT])
        names = [
            f.name for f in dataclasses.fields(AccountRecord)
            if f.name != "encoded"
        ]
        assert names
        for name in names:
            record = ServiceProvider._decode_account(element)
            assert record.encoded is element
            setattr(record, name, getattr(record, name))
            assert record.encoded is None, name
            assert ServiceProvider._encode_account(record) == element
            assert record.encoded == element


class TestPoolMigration:
    def test_slice_out_and_in_capture_what_an_uncached_encoder_writes(self):
        simulator, router, key, make = _build(shard_count=2)
        names = [f"acct-{i:02d}" for i in range(12)]
        cookies = {name: _enroll(router, key, name) for name in names}

        def check_all():
            for shard in router.shards:
                assert_cache_equivalent(shard)

        for index, name in enumerate(names):
            assert _transfer(
                router, key, cookies[name], 100 + index, name
            )["status"] == "executed"
        for name in names[:6]:
            assert "error" not in _request(router, cookies[name], 7, name)
        check_all()

        manager = ShardPoolManager(simulator, router, make)
        assert manager.scale_up() == "pool.test!shard2"
        check_all()  # the copy window: slices captured, not yet flipped
        simulator.run(until=simulator.now + 5.0)
        assert not manager.busy and len(router.shards) == 3
        moved = {c.status for c in router.shards[2].challenges.values()}
        assert {TxStatus.EXECUTED, TxStatus.PENDING} <= moved
        check_all()

        for name in names[6:]:
            _transfer(router, key, cookies[name], 50, name)
        check_all()

        def restart_all():
            for shard in router.shards:
                before = shard.state_digest()
                shard.crash()
                shard.restart()
                assert shard.state_digest() == before

        restart_all()
        check_all()

        # -- drain: the residual's log lands on a survivor holding a
        #    log its restore seeded, and survives the survivor's crash.
        departing = router.shards[2]
        assert departing.executed_transfers
        transfers = sorted(
            (t.source, t.amount_cents)
            for shard in router.shards for t in shard.executed_transfers
        )
        assert manager.drain_shard(departing.host)
        simulator.run(until=simulator.now + 10.0)
        assert len(router.shards) == 2
        assert any(
            decode_message(raw)["t"] == "mig_res"
            for shard in router.shards
            for raw in shard.journal.read_records()
        )
        check_all()
        restart_all()
        check_all()
        assert sorted(
            (t.source, t.amount_cents)
            for shard in router.shards for t in shard.executed_transfers
        ) == transfers
