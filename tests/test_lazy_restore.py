"""A restore reads only the ids of the settled history it installs.

A journaled bank shard restores each member and each single
transaction's challenge from its snapshot element, read by id alone and
thawed on first read; each challenge's final response and the
executed-transfer log wait for their first read too.  Over a scripted
day with a crash and restore after every phase, on both counter-policy
arms, each restore must:

(a) rebuild the pre-crash ``state_digest()`` and ``capture_state()``
    (but the unjournaled duplicate-confirm counter);
(b) materialize to exactly what an eager decode of the same captured
    state gives — every member's transaction, status, detail and settle
    time; every challenge's account, ids, text, nonce, times, status,
    detail, evidence digest and final response; the bank's executed
    transfers;
(c) build no ``Transaction`` for a member the on-disk snapshot holds
    settled, and decode no ``xf`` element of the transfer log;
(d) decode a ``txs`` element or run ``account_of`` only for an entry
    its WAL tail reads, and none at all in a capture taken straight
    after, which thaws nothing.  Restoring the captured state in place,
    with no tail, decodes none and runs no ``account_of``.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace

import pytest

import repro.server.bank as bank_module
import repro.server.provider as provider_module
from repro.core import Transaction
from repro.net.messages import (
    Message,
    MessageError,
    decode_message,
    encode_message,
    read_field,
)
from repro.server.bank import Transfer
from repro.server.journal import unpack_time
from repro.server.provider import BY_ID, RECORD_KINDS, TxStatus
from tests.test_snapshot_element_cache import SETTLED, _Shard

#: Replayed record kinds that read the entry their ``id`` names.
_READS_ID = {kind for kind, entry in RECORD_KINDS.items() if entry.owner == BY_ID}


def _settlement(msg: Message) -> tuple:
    return TxStatus(str(msg["st"])), str(msg["dt"]), unpack_time(msg["sa"])


def eager_decode(state: Message) -> dict:
    """Everything (b) compares, decoded from captured state at once."""
    core = decode_message(state["core"])
    members = {msg["id"]: msg for msg in map(decode_message, core["txs"])}
    challenges = {}
    for msg in map(decode_message, core["batches"]):
        challenges[msg["id"]] = (str(msg["a"]), list(msg["ids"]), msg)
    batch_members = {
        tx_id for _, tx_ids, _ in challenges.values() for tx_id in tx_ids
    }
    for tx_id, msg in members.items():
        if tx_id not in batch_members:
            account = Transaction.from_canonical_bytes(msg["tx"]).account
            challenges[tx_id] = (account, [tx_id], msg)
    biz = decode_message(core["biz"])
    return {
        "transactions": {
            tx_id: (Transaction.from_canonical_bytes(msg["tx"]),)
            + _settlement(msg)
            for tx_id, msg in members.items()
        },
        "challenges": {
            challenge_id: (
                account, tx_ids, msg["ct"], msg["n"],
                unpack_time(msg["ia"]) or 0.0,
            ) + _settlement(msg) + (
                msg.get("dg"),
                decode_message(msg["fr"]) if "fr" in msg else None,
            )
            for challenge_id, (account, tx_ids, msg) in challenges.items()
        },
        "transfers": [
            Transfer(str(msg["s"]), str(msg["d"]), int(msg["v"]))
            for msg in map(decode_message, biz["xf"])
        ],
    }


def materialized(shard) -> dict:
    """What (b) compares, read from every entry of ``shard``."""
    return {
        "transactions": {
            tx_id: (m.transaction, m.status, m.detail, m.settled_at)
            for tx_id, m in shard.transactions.items()
        },
        "challenges": {
            challenge_id: (
                c.account, c.tx_ids, c.canonical_text, c.nonce, c.issued_at,
                c.status, c.detail, c.settled_at, c.evidence_digest,
                c.final_response,
            )
            for challenge_id, c in shard.challenges.items()
        },
        "transfers": shard.executed_transfers,
    }


def held_entries(shard) -> int:
    return sum(
        entry.held is not None
        for entries in (shard.transactions, shard.challenges)
        for entry in entries.values()
    )


@contextmanager
def counting_reads(monkeypatch, core: Message):
    """Collects the ids of the entries whose ``txs`` element the
    provider decodes, and of those whose transaction it runs
    ``account_of`` on, while the block runs."""
    ids = {}
    for encoded in core["txs"]:
        tx_id = read_field(encoded, "id")
        ids[encoded] = ids[read_field(encoded, "tx")] = tx_id
    reads = SimpleNamespace(decoded=set(), accounts=set())
    decode, account_of = provider_module.decode_message, provider_module.account_of

    def counting_decode(data):
        if data in ids:
            reads.decoded.add(ids[data])
        return decode(data)

    def counting_account_of(tx):
        reads.accounts.add(ids.get(tx))
        return account_of(tx)

    with monkeypatch.context() as patch:
        patch.setattr(provider_module, "decode_message", counting_decode)
        patch.setattr(provider_module, "account_of", counting_account_of)
        yield reads


def read_by_tail(tail, core: Message) -> set:
    """The ids of the entries replaying ``tail`` reads: the ones a
    record names, with a batch's members; every one after a ``retire``,
    which reads each challenge's settle time."""
    ids = {read_field(encoded, "id") for encoded in core["txs"]}
    if any(record["t"] == "retire" for record in tail):
        return ids
    members = {
        msg["id"]: msg["ids"] for msg in map(decode_message, core["batches"])
    }
    named = {record["id"] for record in tail if record["t"] in _READS_ID}
    return named | {
        tx_id for batch_id in named for tx_id in members.get(batch_id, ())
    }


def settled_in(state: Message) -> tuple:
    """The tx bytes of members settled in ``state``, and its ``xf``
    elements."""
    core = decode_message(state["core"])
    settled = set()
    for encoded in core["txs"]:
        msg = decode_message(encoded)
        if TxStatus(str(msg["st"])) in SETTLED:
            settled.add(msg["tx"])
    return settled, set(decode_message(core["biz"])["xf"])


def without_dc(state: Message) -> Message:
    stats = decode_message(state["stats"])
    del stats["dc"]
    return stats


class _LazyDay:
    """A :class:`_Shard` whose every restore is checked for (a)-(d)."""

    def __init__(self, require_counter: bool, monkeypatch):
        self.flow = _Shard(require_counter=require_counter)
        self.shard = self.flow.shard
        self.monkeypatch = monkeypatch
        self.restores = 0
        self.settled_held = 0
        self.transfers_held = 0
        self.executed_in_tail = 0
        self.held_after_restart = 0

    def crash_and_restore(self) -> None:
        shard = self.shard
        before = shard.capture_state()
        digest = shard.state_digest()
        snapshot = decode_message(shard.journal.read_snapshot())
        core = decode_message(snapshot["core"])
        tail = [decode_message(raw) for raw in shard.journal.read_records()]
        settled_tx, xf = settled_in(snapshot)

        built, decoded = [], []
        from_bytes = Transaction.from_canonical_bytes.__func__

        def counting_from_bytes(cls, data):
            built.append(data)
            return from_bytes(cls, data)

        def counting_decode(data):
            decoded.append(data)
            return decode_message(data)

        shard.crash()
        with self.monkeypatch.context() as patch, counting_reads(
            self.monkeypatch, core
        ) as reads:
            patch.setattr(
                Transaction, "from_canonical_bytes",
                classmethod(counting_from_bytes),
            )
            patch.setattr(bank_module, "decode_message", counting_decode)
            shard.restart()

        # (c) nothing settled in the snapshot was decoded by the restore.
        assert not settled_tx.intersection(built)
        assert not xf.intersection(decoded)
        # (d) only what the tail reads thawed.
        tail_reads = read_by_tail(tail, core)
        assert reads.decoded <= tail_reads
        assert reads.accounts <= tail_reads
        self.held_after_restart += held_entries(shard)
        # (a) the restore is exact; (d) a capture thaws nothing.  A
        # duplicate confirm changes no state and is not journaled, so
        # only its counter restarts from the snapshot.
        assert shard.state_digest() == digest
        held = held_entries(shard)
        with counting_reads(self.monkeypatch, core) as reads:
            after = shard.capture_state()
        assert not reads.decoded and not reads.accounts
        assert held_entries(shard) == held
        assert after["core"] == before["core"]
        assert without_dc(after) == without_dc(before)
        # (b) every lazy read equals the eager decode.
        eager = eager_decode(before)
        assert materialized(shard) == eager

        # (d) in place: no tail, so nothing decodes until read.
        restored = decode_message(after["core"])
        with counting_reads(self.monkeypatch, restored) as reads:
            shard.restore_state(after)
            assert shard.capture_state() == after
        assert not reads.decoded and not reads.accounts
        assert held_entries(shard) == (
            len(restored["txs"]) + len(shard.challenges)
            - len(restored["batches"])
        )
        assert materialized(shard) == eager

        self.restores += 1
        self.settled_held += len(settled_tx)
        self.transfers_held += len(xf)
        self.executed_in_tail += sum(
            record["t"] in ("settle", "bsettle")
            and record["st"] == TxStatus.EXECUTED.value
            for record in tail
        )


@pytest.mark.parametrize("require_counter", [True, False])
def test_restore_is_exact_and_decodes_no_settled_history(
    require_counter, monkeypatch
):
    day = _LazyDay(require_counter, monkeypatch)
    flow, shard = day.flow, day.shard
    lifetime = shard.policy.nonce_lifetime_seconds

    # -- single and batch requests, settled every way.
    executed = flow.request(101)
    executed_response = flow.confirm(executed)
    assert executed_response["status"] == "executed"
    day.crash_and_restore()
    assert flow.confirm(flow.request(102), decision=b"reject")[
        "status"] == "rejected_by_user"
    assert "denied" in flow.confirm(flow.request(103), forged=True)["error"]
    batch = flow.request(201, 202)
    assert flow.confirm(batch)["status"] == "executed"
    day.crash_and_restore()
    assert flow.confirm(flow.request(203, 204), decision=b"reject")[
        "status"] == "rejected_by_user"
    assert flow.confirm(flow.request(205, 206), forged=True)[
        "error"].startswith("batch denied:")
    if require_counter:
        rollback = flow.confirm(flow.request(104), counter=1)
        assert "counter rollback" in rollback["error"]
    pending = flow.request(105)
    day.crash_and_restore()

    # -- a duplicate confirm after a restore replays the stored outcome.
    duplicates = shard.duplicate_confirms
    assert flow.confirm(executed, counter=1) == executed_response
    assert shard.duplicate_confirms == duplicates + 1
    day.crash_and_restore()
    assert flow.confirm(pending)["status"] == "executed"
    day.crash_and_restore()

    # -- expire, rechallenge, settle across a restore.
    stale_single, stale_batch = flow.request(106), flow.request(207, 208)
    flow.simulator.clock.advance(lifetime + 61)
    flow.request(107)  # triggers the sweep
    assert shard.challenges[stale_batch["tx_id"]].status is TxStatus.EXPIRED
    day.crash_and_restore()
    for stale in (stale_single, stale_batch):
        fresh = flow.call("tx.rechallenge", {"tx_id": stale["tx_id"]})
        assert flow.confirm(fresh)["status"] == "executed"
    day.crash_and_restore()
    for amount in (108, 109, 110):
        assert flow.confirm(flow.request(amount))["status"] == "executed"
    day.crash_and_restore()

    assert day.restores == 8
    assert day.settled_held and day.transfers_held
    assert day.executed_in_tail
    assert day.held_after_restart


def _status_body(element: bytes) -> int:
    """Where the ``st`` value's body starts in a store element."""
    header = b"\x00\x00\x00\x02stS"
    return element.index(header) + len(header) + 4


def _unknown_status(element: bytes) -> bytes:
    at = _status_body(element)
    return element[:at] + b"X" + element[at + 1:]


def _status_not_utf8(element: bytes) -> bytes:
    at = _status_body(element)
    return element[:at] + b"\xff" + element[at + 1:]


def _restored_with_malformed(corrupt):
    """A shard restarted from a snapshot in which ``corrupt`` changed the
    element of one executed single transaction, beside a rejected
    single, an executed batch and a pending single.  Returns the flow,
    the victim's request response, the state captured before the
    change and the changed core written to disk."""
    flow = _Shard()
    shard = flow.shard
    victim = flow.request(101)
    assert flow.confirm(victim)["status"] == "executed"
    assert flow.confirm(flow.request(102), decision=b"reject")[
        "status"] == "rejected_by_user"
    assert flow.confirm(flow.request(201, 202))["status"] == "executed"
    flow.request(103)
    state = shard.capture_state()
    core = decode_message(state["core"])
    txs = [
        corrupt(encoded) if read_field(encoded, "id") == victim["tx_id"]
        else encoded
        for encoded in core["txs"]
    ]
    assert txs != core["txs"]
    on_disk = encode_message(dict(core, txs=txs))
    shard.journal.write_snapshot(encode_message(dict(state, core=on_disk)))
    shard.crash()
    shard.restart()
    return flow, victim, state, on_disk


def assert_unreadable(*entries) -> None:
    for entry in entries:
        for _ in range(2):
            with pytest.raises(MessageError):
                entry.status
            assert entry.held is not None


_CORRUPTIONS = pytest.mark.parametrize(
    "corrupt", [_unknown_status, _status_not_utf8],
    ids=["unknown-status", "status-not-utf8"],
)


@_CORRUPTIONS
def test_a_malformed_settled_element_fails_its_first_read_only(corrupt):
    """The restore reads the element's id only, so it succeeds; each of
    the entry's reads raises MessageError and leaves it unthawed, and
    every other entry reads what an eager decode gives."""
    flow, victim, state, on_disk = _restored_with_malformed(corrupt)
    shard = flow.shard
    assert shard.capture_state()["core"] == on_disk
    assert_unreadable(
        shard.challenges.pop(victim["tx_id"]),
        shard.transactions.pop(victim["tx_id"]),
    )
    eager = eager_decode(state)
    for entries in (eager["transactions"], eager["challenges"]):
        del entries[victim["tx_id"]]
    assert materialized(shard) == eager


@_CORRUPTIONS
def test_a_store_sweep_skips_a_malformed_element(corrupt):
    """A store sweep reads every challenge.  It leaves the one whose
    element is malformed held, counts it, expires and retires every
    other, and the request it rides on succeeds; a restore that replays
    the sweep skips it alike."""
    flow, victim, _state, _on_disk = _restored_with_malformed(corrupt)
    shard = flow.shard
    shard.settled_retention_seconds = 0.0
    # Keep the sweep in the WAL tail, so the restore below replays it.
    shard.journal.snapshot_every = 1_000
    flow.simulator.clock.advance(shard.policy.nonce_lifetime_seconds + 61)
    fresh = flow.request(104)  # triggers the sweep
    assert "nonce" in fresh
    # Once by the expiry pass and once by the retention pass.
    metrics = shard.simulator.metrics
    assert metrics.counters().get("provider.sweep_malformed") == 2
    tail = [decode_message(raw)["t"] for raw in shard.journal.read_records()]
    assert "expire" in tail and "retire" in tail
    survivors = {victim["tx_id"], fresh["tx_id"]}
    assert set(shard.challenges) == set(shard.transactions) == survivors
    assert_unreadable(
        shard.challenges[victim["tx_id"]], shard.transactions[victim["tx_id"]]
    )

    digest = shard.state_digest()
    shard.crash()
    shard.restart()
    assert shard.state_digest() == digest
    assert metrics.counters().get("provider.sweep_malformed") == 3
    assert set(shard.challenges) == set(shard.transactions) == survivors
    assert_unreadable(
        shard.challenges[victim["tx_id"]], shard.transactions[victim["tx_id"]]
    )
    assert flow.confirm(fresh)["status"] == "executed"


@pytest.mark.xfail(
    strict=True,
    reason="duplicate confirms and confirms of an already-expired "
    "challenge are not journaled, so a restore rolls their counters "
    "back to the snapshot",
)
def test_unjournaled_counters_survive_a_restore():
    flow = _Shard()
    shard = flow.shard
    executed = flow.request(101)
    response = flow.confirm(executed)
    stale = flow.request(102)
    flow.simulator.clock.advance(shard.policy.nonce_lifetime_seconds + 61)
    flow.request(103)  # triggers the sweep
    assert shard.challenges[stale["tx_id"]].status is TxStatus.EXPIRED
    counters = (shard.duplicate_confirms, shard.rechallenges_required)
    assert flow.confirm(executed, counter=1) == response
    assert flow.confirm(stale)["rechallenge"] == 1
    assert (shard.duplicate_confirms, shard.rechallenges_required) == (
        counters[0] + 1, counters[1] + 1
    )
    counters = (shard.duplicate_confirms, shard.rechallenges_required)
    shard.crash()
    shard.restart()
    assert (shard.duplicate_confirms, shard.rechallenges_required) == counters
