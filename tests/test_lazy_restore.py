"""A restore decodes settled history only when something reads it.

A journaled bank shard restores each settled member's transaction, each
challenge's final response and the executed-transfer log from the bytes
its snapshot holds, on first read.  Over a scripted day with a crash
and restore after every phase, on both counter-policy arms, each
restore must:

(a) rebuild the pre-crash ``state_digest()`` and ``capture_state()``
    (but the unjournaled duplicate-confirm counter);
(b) read back what an eager decode of the same captured state gives —
    every member's transaction, every challenge's account and final
    response, the bank's executed transfers;
(c) build no ``Transaction`` for a member the on-disk snapshot holds
    settled, and decode no ``xf`` element of the transfer log.
"""

from __future__ import annotations

import pytest

import repro.server.bank as bank_module
from repro.core import Transaction
from repro.net.messages import Message, decode_message
from repro.server.bank import Transfer
from repro.server.provider import TxStatus
from tests.test_snapshot_element_cache import SETTLED, _Shard


def eager_decode(state: Message) -> dict:
    """Everything (b) compares, decoded from captured state at once."""
    core = decode_message(state["core"])
    members = {}
    for encoded in core["txs"]:
        msg = decode_message(encoded)
        members[msg["id"]] = msg
    batch_members = set()
    challenges = {}
    for encoded in core["batches"]:
        msg = decode_message(encoded)
        batch_members.update(msg["ids"])
        challenges[msg["id"]] = (str(msg["a"]), msg)
    for tx_id, msg in members.items():
        if tx_id not in batch_members:
            account = Transaction.from_canonical_bytes(msg["tx"]).account
            challenges[tx_id] = (account, msg)
    biz = decode_message(core["biz"])
    return {
        "transactions": {
            tx_id: Transaction.from_canonical_bytes(msg["tx"])
            for tx_id, msg in members.items()
        },
        "challenges": {
            challenge_id: (
                account,
                decode_message(msg["fr"]) if "fr" in msg else None,
            )
            for challenge_id, (account, msg) in challenges.items()
        },
        "transfers": [
            Transfer(str(msg["s"]), str(msg["d"]), int(msg["v"]))
            for msg in map(decode_message, biz["xf"])
        ],
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
    """A :class:`_Shard` whose every restore is checked for (a)-(c)."""

    def __init__(self, require_counter: bool, monkeypatch):
        self.flow = _Shard(require_counter=require_counter)
        self.shard = self.flow.shard
        self.monkeypatch = monkeypatch
        self.restores = 0
        self.settled_held = 0
        self.transfers_held = 0
        self.executed_in_tail = 0

    def crash_and_restore(self) -> None:
        shard = self.shard
        before = shard.capture_state()
        digest = shard.state_digest()
        snapshot = decode_message(shard.journal.read_snapshot())
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
        with self.monkeypatch.context() as patch:
            patch.setattr(
                Transaction, "from_canonical_bytes",
                classmethod(counting_from_bytes),
            )
            patch.setattr(bank_module, "decode_message", counting_decode)
            shard.restart()

        # (c) nothing settled in the snapshot was decoded by the restore.
        assert not settled_tx.intersection(built)
        assert not xf.intersection(decoded)
        # (a) the restore is exact.  A duplicate confirm changes no state
        # and is not journaled, so only its counter restarts from the
        # snapshot.
        assert shard.state_digest() == digest
        after = shard.capture_state()
        assert after["core"] == before["core"]
        assert without_dc(after) == without_dc(before)
        # (b) every lazy read equals the eager decode.
        eager = eager_decode(before)
        assert {
            tx_id: member.transaction
            for tx_id, member in shard.transactions.items()
        } == eager["transactions"]
        assert {
            challenge_id: (challenge.account, challenge.final_response)
            for challenge_id, challenge in shard.challenges.items()
        } == eager["challenges"]
        assert shard.executed_transfers == eager["transfers"]

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
