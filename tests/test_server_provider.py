"""Providers: accounts, sessions, the transaction state machine, and the
bank/shop business rules — driven over the real RPC path."""

from __future__ import annotations

import pytest

from repro.bench.world import TrustedPathWorld, WorldConfig
from repro.core import Transaction
from repro.net.rpc import RpcError


@pytest.fixture(scope="module")
def world() -> TrustedPathWorld:
    built = TrustedPathWorld(
        WorldConfig(seed=808, with_bank=True, with_shop=True)
    ).ready()
    built.run_setup(provider=built.shop)  # setup is per-provider
    built.shop.add_product("gpu", stock=20, unit_price_cents=64900)
    built.shop.add_product("ticket", stock=5, unit_price_cents=8500)
    return built


class TestAccounts:
    def test_duplicate_register_rejected(self, world):
        with pytest.raises(RpcError):
            world.browser.call(
                world.bank.endpoint, "register",
                {"account": world.config.account, "password": "x"},
            )

    def test_bad_login_rejected(self, world):
        with pytest.raises(RpcError):
            world.browser.call(
                world.bank.endpoint, "login",
                {"account": world.config.account, "password": "wrong"},
            )

    def test_unauthenticated_request_rejected(self, world):
        # A raw endpoint call without the session cookie.
        with pytest.raises(RpcError):
            world.bank.endpoint.call_sync(
                "client-host", "tx.request",
                {"kind": "transfer", "account": world.config.account},
            )

    def test_opening_balance(self, world):
        assert world.bank.balance_of(world.config.account) > 0


class TestTransactionStateMachine:
    def test_happy_path_reaches_executed(self, world):
        tx = world.sample_transfer(amount_cents=111, to="dest-1")
        outcome = world.confirm(tx)
        assert outcome.executed
        status = world.browser.call(
            world.bank.endpoint, "tx.status",
            {"tx_id": outcome.server_response and _last_tx_id(world)},
        )
        assert status["status"] == "executed"

    def test_user_rejection_recorded(self, world):
        tx = world.sample_transfer(amount_cents=222, to="dest-2")
        # The user intends a DIFFERENT transaction: the screen won't match.
        world.human.intend(world.sample_transfer(amount_cents=999, to="elsewhere"))
        outcome = world.client.confirm_transaction(world.bank.endpoint, tx)
        assert outcome.decision == b"reject"
        assert outcome.server_response["status"] == "rejected_by_user"

    def test_double_confirm_never_double_executes(self, world):
        tx = world.sample_transfer(amount_cents=333, to="dest-3")
        world.human.intend(tx)
        balance_before = world.bank.balance_of(world.config.account)
        outcome = world.confirm(tx)
        assert outcome.executed
        balance_after = world.bank.balance_of(world.config.account)
        assert balance_after == balance_before - 333
        # Resubmitting the exact same evidence by hand is idempotent:
        # the stored outcome replays, the transaction does NOT run again.
        duplicates_before = world.bank.duplicate_confirms
        replayed = world.browser.call(
            world.bank.endpoint, "tx.confirm",
            {
                "tx_id": _last_tx_id(world),
                "decision": b"accept",
                "evidence": "signed",
                "signature": outcome.session.outputs["signature"],
            },
        )
        assert replayed["status"] == "executed"
        assert world.bank.duplicate_confirms == duplicates_before + 1
        assert world.bank.balance_of(world.config.account) == balance_after
        # DIFFERENT evidence against a settled transaction stays an error.
        with pytest.raises(RpcError) as err:
            world.browser.call(
                world.bank.endpoint, "tx.confirm",
                {
                    "tx_id": _last_tx_id(world),
                    "decision": b"accept",
                    "evidence": "signed",
                    "signature": b"not-the-same-evidence",
                },
            )
        assert "already" in str(err.value)

    def test_unknown_tx_id(self, world):
        with pytest.raises(RpcError):
            world.browser.call(
                world.bank.endpoint, "tx.confirm",
                {"tx_id": b"\x00" * 16, "decision": b"accept",
                 "evidence": "signed", "signature": b"x"},
            )

    def test_bad_decision_value(self, world):
        tx = world.sample_transfer(amount_cents=150, to="dest-4")
        from repro.core.protocol import build_transaction_request

        response = world.browser.call(
            world.bank.endpoint, "tx.request", build_transaction_request(tx)
        )
        with pytest.raises(RpcError):
            world.browser.call(
                world.bank.endpoint, "tx.confirm",
                {"tx_id": response["tx_id"], "decision": b"maybe",
                 "evidence": "signed", "signature": b"x"},
            )

    def test_pending_expires(self, world):
        from repro.core.protocol import build_transaction_request

        tx = world.sample_transfer(amount_cents=170, to="dest-5")
        response = world.browser.call(
            world.bank.endpoint, "tx.request", build_transaction_request(tx)
        )
        world.simulator.clock.advance(world.policy.nonce_lifetime_seconds + 1)
        status = world.browser.call(
            world.bank.endpoint, "tx.status", {"tx_id": response["tx_id"]}
        )
        assert status["status"] == "expired"

    def test_denial_reasons_counted(self, world):
        from repro.core.protocol import build_transaction_request

        tx = world.sample_transfer(amount_cents=180, to="dest-6")
        response = world.browser.call(
            world.bank.endpoint, "tx.request", build_transaction_request(tx)
        )
        before = dict(world.bank.denials)
        with pytest.raises(RpcError):
            world.browser.call(
                world.bank.endpoint, "tx.confirm",
                {"tx_id": response["tx_id"], "decision": b"accept",
                 "evidence": "signed", "signature": b"\x01" * 64},
            )
        assert sum(world.bank.denials.values()) == sum(before.values()) + 1


class TestRechallengeRecovery:
    def test_expired_nonce_recovers_via_rechallenge(self, world):
        """End-to-end: the challenge nonce ages out while the PAL runs,
        the provider answers with a recoverable re-challenge hint, the
        client opens a fresh PAL session against the reissued nonce, and
        the transaction still executes exactly once."""
        tx = world.sample_transfer(amount_cents=444, to="dest-rc")
        world.human.intend(tx)
        balance_before = world.bank.balance_of(world.config.account)
        nonces = world.bank.nonces
        original_issue = nonces.issue
        first_nonce = {}

        def expire_first_issue(tx_id, now):
            nonce = original_issue(tx_id, now)
            # The first challenge dies instantly; the reissued one is
            # normal.  Any nonzero PAL duration then lands the confirm
            # past expiry.
            nonces._records[nonce].expires_at = now
            first_nonce["value"] = nonce
            nonces.issue = original_issue
            return nonce

        nonces.issue = expire_first_issue
        required_before = world.bank.rechallenges_required
        issued_before = world.bank.rechallenges_issued
        client_rechallenges_before = world.client.rechallenges
        outcome = world.client.confirm_transaction(world.bank.endpoint, tx)
        assert outcome.executed
        assert world.bank.balance_of(world.config.account) == balance_before - 444
        assert world.bank.rechallenges_required == required_before + 1
        assert world.bank.rechallenges_issued == issued_before + 1
        assert world.client.rechallenges == client_rechallenges_before + 1
        # The dead challenge was invalidated when the new one was minted.
        from repro.server.noncedb import NonceState

        assert (
            nonces.state_of(first_nonce["value"], now=world.simulator.now)
            is NonceState.UNKNOWN
        )

    def test_consumed_nonce_stays_a_hard_deny(self, world):
        """Replay defense is untouched by the recovery path: a CONSUMED
        nonce never earns a re-challenge hint."""
        tx = world.sample_transfer(amount_cents=100, to="dest-hd")
        world.human.intend(tx)
        outcome = world.confirm(tx)
        assert outcome.executed
        tx_id = _last_tx_id(world)
        with pytest.raises(RpcError) as err:
            world.browser.call(
                world.bank.endpoint, "tx.confirm",
                {"tx_id": tx_id, "decision": b"reject",
                 "evidence": "signed", "signature": b"different"},
            )
        assert not err.value.rechallenge_required

    def test_rechallenge_rejected_for_settled_transaction(self, world):
        tx = world.sample_transfer(amount_cents=100, to="dest-st")
        world.human.intend(tx)
        outcome = world.confirm(tx)
        assert outcome.executed
        with pytest.raises(RpcError) as err:
            world.browser.call(
                world.bank.endpoint, "tx.rechallenge",
                {"tx_id": _last_tx_id(world)},
            )
        assert "already" in str(err.value)


class TestBankRules:
    def test_insufficient_funds_rejected_at_request(self, world):
        huge = Transaction(
            "transfer", world.config.account,
            {"to": "x", "amount": 10**12},
        )
        from repro.core.protocol import build_transaction_request

        with pytest.raises(RpcError) as err:
            world.browser.call(
                world.bank.endpoint, "tx.request", build_transaction_request(huge)
            )
        assert "insufficient" in str(err.value)

    def test_negative_amount_rejected(self, world):
        bad = Transaction(
            "transfer", world.config.account, {"to": "x", "amount": -5}
        )
        from repro.core.protocol import build_transaction_request

        with pytest.raises(RpcError):
            world.browser.call(
                world.bank.endpoint, "tx.request", build_transaction_request(bad)
            )

    def test_unsupported_kind_rejected(self, world):
        bad = Transaction("order", world.config.account, {"item": "gpu"})
        from repro.core.protocol import build_transaction_request

        with pytest.raises(RpcError):
            world.browser.call(
                world.bank.endpoint, "tx.request", build_transaction_request(bad)
            )

    def test_money_conserved(self, world):
        total_before = sum(world.bank.balances.values())
        tx = world.sample_transfer(amount_cents=440, to="dest-7")
        outcome = world.confirm(tx)
        assert outcome.executed
        assert sum(world.bank.balances.values()) == total_before

    def test_account_mismatch_rejected(self, world):
        from repro.core.protocol import build_transaction_request

        foreign = Transaction("transfer", "not-me", {"to": "x", "amount": 1})
        with pytest.raises(RpcError):
            world.browser.call(
                world.bank.endpoint, "tx.request", build_transaction_request(foreign)
            )


class TestShopRules:
    def _order(self, world, item="gpu", quantity=1):
        return Transaction(
            "order", world.config.account, {"item": item, "quantity": quantity}
        )

    def test_order_executes_and_decrements_stock(self, world):
        stock_before = world.shop.stock["gpu"]
        outcome = world.confirm(self._order(world), provider=world.shop)
        assert outcome.executed
        assert world.shop.stock["gpu"] == stock_before - 1

    def test_unknown_item_rejected(self, world):
        from repro.core.protocol import build_transaction_request

        with pytest.raises(RpcError):
            world.browser.call(
                world.shop.endpoint, "tx.request",
                build_transaction_request(self._order(world, item="unobtainium")),
            )

    def test_per_account_limit(self, world):
        from repro.core.protocol import build_transaction_request

        with pytest.raises(RpcError) as err:
            world.browser.call(
                world.shop.endpoint, "tx.request",
                build_transaction_request(self._order(world, quantity=99)),
            )
        assert "limit" in str(err.value)

    def test_stock_exhaustion(self, world):
        from repro.core.protocol import build_transaction_request

        with pytest.raises(RpcError):
            world.browser.call(
                world.shop.endpoint, "tx.request",
                build_transaction_request(self._order(world, item="ticket",
                                                      quantity=6)),
            )


class TestSessionOwnership:
    """A valid session must not reach into another account's
    transactions — regression tests for the missing ownership check on
    tx.confirm / tx.status / tx.rechallenge."""

    @pytest.fixture()
    def mallory(self, world):
        endpoint = world.bank.endpoint
        try:
            endpoint.call_sync(
                "client-host", "register",
                {"account": "mallory", "password": "mpw"},
            )
        except RpcError:
            pass  # registered by an earlier test in this module
        login = endpoint.call_sync(
            "client-host", "login", {"account": "mallory", "password": "mpw"}
        )
        return login["set_session"]

    def test_foreign_session_denied_on_every_tx_method(self, world, mallory):
        from repro.core.protocol import build_transaction_request
        from repro.server.noncedb import NonceState
        from repro.server.provider import DENIAL_NOT_OWNER

        tx = world.sample_transfer(amount_cents=260, to="dest-own")
        challenge = world.browser.call(
            world.bank.endpoint, "tx.request", build_transaction_request(tx)
        )
        denials_before = world.bank.denials.get(DENIAL_NOT_OWNER, 0)
        probes = (
            ("tx.status", {}),
            ("tx.rechallenge", {}),
            ("tx.confirm", {"decision": b"accept", "evidence": "signed",
                            "signature": b"\x07" * 64}),
        )
        for method, extra in probes:
            with pytest.raises(RpcError, match=DENIAL_NOT_OWNER):
                world.bank.endpoint.call_sync(
                    "client-host", method,
                    dict(extra, tx_id=challenge["tx_id"], session=mallory),
                )
        assert world.bank.denials[DENIAL_NOT_OWNER] == denials_before + 3
        # The probes did not perturb the victim's confirmation: still
        # PENDING, challenge nonce still live.
        status = world.browser.call(
            world.bank.endpoint, "tx.status", {"tx_id": challenge["tx_id"]}
        )
        assert status["status"] == "pending"
        assert (
            world.bank.nonces.state_of(
                challenge["nonce"], now=world.simulator.now
            )
            is NonceState.LIVE
        )

    def test_foreign_session_denied_on_batches(self, world, mallory):
        from repro.core.protocol import build_transaction_request
        from repro.net.messages import encode_message
        from repro.server.provider import DENIAL_NOT_OWNER

        encoded = [
            encode_message(
                build_transaction_request(
                    world.sample_transfer(amount_cents=10, to="dest-bo")
                )
            )
        ]
        challenge = world.browser.call(
            world.bank.endpoint, "tx.request_batch", {"transactions": encoded}
        )
        for method, extra in (
            ("tx.rechallenge", {}),
            ("tx.confirm_batch", {"decision": b"accept", "evidence": "signed",
                                  "signature": b"\x08" * 64}),
        ):
            with pytest.raises(RpcError, match=DENIAL_NOT_OWNER):
                world.bank.endpoint.call_sync(
                    "client-host", method,
                    dict(extra, tx_id=challenge["tx_id"], session=mallory),
                )
        assert world.bank.challenges[challenge["tx_id"]].status.value == "pending"


class TestSessionInvalidation:
    def test_relogin_invalidates_the_previous_cookie(self, world):
        endpoint = world.bank.endpoint
        endpoint.call_sync(
            "client-host", "register", {"account": "roamer", "password": "rpw"}
        )
        first = endpoint.call_sync(
            "client-host", "login", {"account": "roamer", "password": "rpw"}
        )["set_session"]
        invalidated_before = world.bank.cookies_invalidated
        cookie_count = len(world.bank._cookies)
        second = endpoint.call_sync(
            "client-host", "login", {"account": "roamer", "password": "rpw"}
        )["set_session"]
        assert second != first
        assert world.bank.cookies_invalidated == invalidated_before + 1
        assert len(world.bank._cookies) == cookie_count  # map did not grow
        request = {
            "kind": "transfer", "account": "roamer",
            "f.to": "x", "f.amount": 1,
        }
        with pytest.raises(RpcError, match="not logged in"):
            endpoint.call_sync(
                "client-host", "tx.request", dict(request, session=first)
            )
        fresh = endpoint.call_sync(
            "client-host", "tx.request", dict(request, session=second)
        )
        assert fresh["ok"] == 1


class TestBoundedStore:
    def test_settled_records_retire_after_retention(self, world):
        tx = world.sample_transfer(amount_cents=15, to="dest-ret")
        outcome = world.confirm(tx)
        assert outcome.executed
        tx_id = _last_tx_id(world)
        retired_before = world.bank.transactions_retired
        world.simulator.clock.advance(world.bank.settled_retention_seconds + 1)
        assert world.bank.retire_settled() >= 1
        assert tx_id not in world.bank.challenges
        assert tx_id not in world.bank.transactions
        assert world.bank.transactions_retired > retired_before
        with pytest.raises(RpcError, match="unknown"):
            world.browser.call(
                world.bank.endpoint, "tx.status", {"tx_id": tx_id}
            )

    def test_pending_records_survive_the_sweep(self, world):
        from repro.core.protocol import build_transaction_request

        tx = world.sample_transfer(amount_cents=25, to="dest-keep")
        challenge = world.browser.call(
            world.bank.endpoint, "tx.request", build_transaction_request(tx)
        )
        world.bank.retire_settled()
        assert challenge["tx_id"] in world.bank.challenges
        assert world.bank.transactions_peak >= len(world.bank.transactions)


def _last_tx_id(world) -> bytes:
    return list(world.bank.challenges)[-1]
