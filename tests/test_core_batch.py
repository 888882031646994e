"""The batch-confirmation extension: one session, N transactions."""

from __future__ import annotations

import pytest

from repro.bench.world import TrustedPathWorld, WorldConfig
from repro.core.errors import ConfirmationRejected, ProtocolError
from repro.net.rpc import RpcError
from repro.server.provider import TxStatus


@pytest.fixture(scope="module")
def world() -> TrustedPathWorld:
    return TrustedPathWorld(WorldConfig(seed=9090)).ready()


def _batch(world, count, prefix="batch", amount=100):
    return [
        world.sample_transfer(amount_cents=amount + i, to=f"{prefix}-{i}")
        for i in range(count)
    ]


class TestBatchHappyPath:
    def test_all_members_execute(self, world):
        transactions = _batch(world, 4, prefix="bh")
        world.human.intend_batch(transactions)
        outcome = world.client.confirm_batch(world.bank.endpoint, transactions)
        assert outcome.executed
        for index in range(4):
            assert world.bank.balance_of(f"bh-{index}") == 100 + index

    def test_one_session_covers_the_batch(self, world):
        sessions_before = world.flicker.sessions_run
        transactions = _batch(world, 5, prefix="bs")
        world.human.intend_batch(transactions)
        world.client.confirm_batch(world.bank.endpoint, transactions)
        assert world.flicker.sessions_run == sessions_before + 1

    def test_quote_variant_batches_too(self, world):
        transactions = _batch(world, 2, prefix="bq")
        world.human.intend_batch(transactions)
        outcome = world.client.confirm_batch(
            world.bank.endpoint, transactions, mode="quote"
        )
        assert outcome.executed

    def test_pagination_reaches_the_human(self, world):
        """A 6-transaction batch spans multiple display pages; the
        attentive user still sees every line and accepts."""
        transactions = _batch(world, 6, prefix="bp")
        world.human.intend_batch(transactions)
        outcome = world.client.confirm_batch(world.bank.endpoint, transactions)
        assert outcome.executed
        # The session really produced multiple PAL frames.
        pal_frames = [o for o, _s in world.machine.display.frames if o == "pal"]
        assert len(pal_frames) >= 2


class TestBatchRejection:
    def test_unintended_member_rejects_whole_batch(self, world):
        transactions = _batch(world, 3, prefix="br")
        # The user intended only the first two: the third is malware's.
        world.human.intend_batch(transactions[:2])
        outcome = world.client.confirm_batch(world.bank.endpoint, transactions)
        assert outcome.decision == b"reject"
        for index in range(3):
            assert world.bank.balance_of(f"br-{index}") == 0

    def test_all_or_nothing_on_denial(self, world):
        """Forged evidence denies every member, none executes."""
        from repro.core.protocol import build_transaction_request
        from repro.net.messages import encode_message

        transactions = _batch(world, 3, prefix="bd")
        encoded = [
            encode_message(build_transaction_request(t)) for t in transactions
        ]
        response = world.browser.call(
            world.bank.endpoint, "tx.request_batch", {"transactions": encoded}
        )
        with pytest.raises(RpcError):
            world.browser.call(
                world.bank.endpoint, "tx.confirm_batch",
                {
                    "tx_id": response["tx_id"],
                    "decision": b"accept",
                    "evidence": "signed",
                    "signature": b"\x00" * 64,
                },
            )
        batch = world.bank.challenges[response["tx_id"]]
        assert batch.status is TxStatus.DENIED
        for tx_id in batch.tx_ids:
            assert world.bank.transactions[tx_id].status is TxStatus.DENIED

    def test_nonce_single_use_across_batch(self, world):
        """Parity with the single-transaction confirm: resubmitting the
        *same* evidence replays the stored outcome idempotently (never a
        second execution), while *different* evidence against the
        settled batch stays an error."""
        transactions = _batch(world, 2, prefix="bn", amount=50)
        world.human.intend_batch(transactions)
        outcome = world.client.confirm_batch(world.bank.endpoint, transactions)
        assert outcome.executed
        batch_id = list(world.bank.challenges.keys())[-1]
        balances = [world.bank.balance_of(f"bn-{i}") for i in range(2)]
        duplicates_before = world.bank.duplicate_confirms
        replayed = world.browser.call(
            world.bank.endpoint, "tx.confirm_batch",
            {
                "tx_id": batch_id,
                "decision": b"accept",
                "evidence": "signed",
                "signature": outcome.session.outputs["signature"],
            },
        )
        assert replayed["status"] == "executed"
        assert world.bank.duplicate_confirms == duplicates_before + 1
        # No member executed a second time.
        assert [world.bank.balance_of(f"bn-{i}") for i in range(2)] == balances
        # Different evidence stays a hard error — and never earns a
        # re-challenge: the consumed nonce is the replay defense.
        with pytest.raises(RpcError) as err:
            world.browser.call(
                world.bank.endpoint, "tx.confirm_batch",
                {
                    "tx_id": batch_id,
                    "decision": b"accept",
                    "evidence": "signed",
                    "signature": b"not-the-original-evidence",
                },
            )
        assert "already" in str(err.value)
        assert not err.value.rechallenge_required

    def test_overdrawing_batch_executes_no_member(self, world):
        """Each member passes request-time validation alone, but the
        second cannot execute after the first: the batch is denied as a
        whole and no money moves."""
        account = world.config.account
        balance = world.bank.balance_of(account)
        transactions = _batch(world, 2, prefix="bo", amount=balance * 6 // 10)
        world.human.intend_batch(transactions)
        with pytest.raises(
            ConfirmationRejected,
            match="batch denied: insufficient funds at execution time",
        ):
            world.client.confirm_batch(world.bank.endpoint, transactions)
        assert world.bank.balance_of(account) == balance
        assert [world.bank.balance_of(f"bo-{i}") for i in range(2)] == [0, 0]
        batch = list(world.bank.challenges.values())[-1]
        assert batch.status is TxStatus.DENIED
        for tx_id in batch.tx_ids:
            assert world.bank.transactions[tx_id].status is TxStatus.DENIED


class TestBatchRechallengeRecovery:
    """PR-2 recovery semantics now cover the batch path too."""

    def test_expired_nonce_recovers_via_rechallenge(self, world):
        """The batch challenge nonce ages out mid-session; the provider
        answers with the recoverable re-challenge hint; the client runs
        a fresh PAL session against the reissued nonce and every member
        still executes exactly once."""
        transactions = _batch(world, 3, prefix="brc", amount=70)
        world.human.intend_batch(transactions)
        nonces = world.bank.nonces
        original_issue = nonces.issue
        first_nonce = {}

        def expire_first_issue(tx_id, now):
            nonce = original_issue(tx_id, now)
            nonces._records[nonce].expires_at = now
            first_nonce["value"] = nonce
            nonces.issue = original_issue
            return nonce

        nonces.issue = expire_first_issue
        required_before = world.bank.rechallenges_required
        issued_before = world.bank.rechallenges_issued
        client_rechallenges_before = world.client.rechallenges
        outcome = world.client.confirm_batch(world.bank.endpoint, transactions)
        assert outcome.executed
        for index in range(3):
            assert world.bank.balance_of(f"brc-{index}") == 70 + index
        assert world.bank.rechallenges_required == required_before + 1
        assert world.bank.rechallenges_issued == issued_before + 1
        assert world.client.rechallenges == client_rechallenges_before + 1
        # The dead challenge was invalidated when the new one was minted.
        from repro.server.noncedb import NonceState

        assert (
            nonces.state_of(first_nonce["value"], now=world.simulator.now)
            is NonceState.UNKNOWN
        )


class TestBatchCounterExtension:
    """The monotonic-counter policy now gates the batch path too."""

    @pytest.fixture(scope="class")
    def counter_world(self) -> TrustedPathWorld:
        world = TrustedPathWorld(WorldConfig(seed=6161)).ready()
        world.policy.require_monotonic_counter = True
        world.client.enable_monotonic_counter()
        return world

    def test_batch_confirm_carries_an_increasing_counter(self, counter_world):
        world = counter_world
        transactions = [
            world.sample_transfer(amount_cents=100 + i, to=f"bc-{i}")
            for i in range(2)
        ]
        world.human.intend_batch(transactions)
        outcome = world.client.confirm_batch(world.bank.endpoint, transactions)
        assert outcome.executed
        record = world.bank.accounts[world.config.account]
        assert record.last_counter > 0
        assert int.from_bytes(
            outcome.session.outputs["counter"], "big"
        ) == record.last_counter

    def test_stale_counter_denied_before_any_crypto(self, counter_world):
        world = counter_world
        from repro.core.protocol import build_transaction_request
        from repro.net.messages import encode_message

        encoded = [
            encode_message(
                build_transaction_request(
                    world.sample_transfer(amount_cents=33, to="bc-stale")
                )
            )
        ]
        challenge = world.browser.call(
            world.bank.endpoint, "tx.request_batch", {"transactions": encoded}
        )
        record = world.bank.accounts[world.config.account]
        with pytest.raises(RpcError, match="rollback"):
            world.browser.call(
                world.bank.endpoint, "tx.confirm_batch",
                {
                    "tx_id": challenge["tx_id"],
                    "decision": b"accept",
                    "evidence": "signed",
                    "signature": b"\x09" * 64,
                    "counter": record.last_counter,  # does not advance
                },
            )
        batch = world.bank.challenges[challenge["tx_id"]]
        assert batch.status.value == "denied"


class TestBatchValidation:
    def test_unknown_evidence_mode_rejected(self, world):
        with pytest.raises(ProtocolError, match="unknown evidence mode"):
            world.client.confirm_batch(
                world.bank.endpoint, _batch(world, 1, prefix="bm"),
                mode="telepathy",
            )

    def test_empty_batch_rejected(self, world):
        with pytest.raises(RpcError):
            world.browser.call(
                world.bank.endpoint, "tx.request_batch", {"transactions": []}
            )

    def test_oversized_batch_rejected(self, world):
        from repro.core.protocol import build_transaction_request
        from repro.net.messages import encode_message

        encoded = [
            encode_message(
                build_transaction_request(world.sample_transfer(amount_cents=1))
            )
        ] * 17
        with pytest.raises(RpcError):
            world.browser.call(
                world.bank.endpoint, "tx.request_batch", {"transactions": encoded}
            )

    def test_invalid_member_rejects_request(self, world):
        from repro.core.protocol import build_transaction_request
        from repro.net.messages import encode_message
        from repro.core import Transaction

        bad = Transaction(
            "transfer", world.config.account, {"to": "x", "amount": -1}
        )
        encoded = [encode_message(build_transaction_request(bad))]
        with pytest.raises(RpcError):
            world.browser.call(
                world.bank.endpoint, "tx.request_batch", {"transactions": encoded}
            )
