"""Transactions: canonical forms and the display binding."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core import Transaction
from repro.core.transaction import account_of
from repro.core.confirmation_pal import confirmation_digest

field_values = st.one_of(
    st.text(min_size=1, max_size=20).filter(lambda s: s.strip()),
    st.integers(min_value=0, max_value=10**9),
)
transactions = st.builds(
    Transaction,
    kind=st.sampled_from(["transfer", "order", "payment"]),
    account=st.text(min_size=1, max_size=12).filter(lambda s: s.strip()),
    fields=st.dictionaries(
        st.text(min_size=1, max_size=10).filter(lambda s: s.strip()),
        field_values,
        max_size=5,
    ),
)


class TestCanonicalForms:
    def test_digest_stable(self):
        tx = Transaction("transfer", "alice", {"to": "bob", "amount": 100})
        same = Transaction("transfer", "alice", {"amount": 100, "to": "bob"})
        assert tx.digest() == same.digest()

    def test_digest_sensitive_to_every_field(self):
        base = Transaction("transfer", "alice", {"to": "bob", "amount": 100})
        variants = [
            Transaction("order", "alice", {"to": "bob", "amount": 100}),
            Transaction("transfer", "mallory", {"to": "bob", "amount": 100}),
            Transaction("transfer", "alice", {"to": "mule", "amount": 100}),
            Transaction("transfer", "alice", {"to": "bob", "amount": 101}),
            Transaction("transfer", "alice", {"to": "bob", "amount": 100, "memo": "x"}),
        ]
        digests = {tx.digest() for tx in variants}
        assert base.digest() not in digests
        assert len(digests) == len(variants)

    def test_roundtrip(self):
        tx = Transaction("transfer", "alice", {"to": "bob", "amount": 100})
        assert Transaction.from_canonical_bytes(tx.canonical_bytes()) == tx

    def test_requires_kind_and_account(self):
        with pytest.raises(ValueError):
            Transaction("", "alice")
        with pytest.raises(ValueError):
            Transaction("transfer", "")

    def test_field_types_validated(self):
        with pytest.raises(ValueError):
            Transaction("transfer", "alice", {"amount": 1.5})  # type: ignore[dict-item]

    @given(transactions)
    def test_property_roundtrip(self, tx):
        assert Transaction.from_canonical_bytes(tx.canonical_bytes()) == tx

    @given(transactions)
    def test_property_account_of_is_the_decoded_account(self, tx):
        encoded = tx.canonical_bytes()
        assert account_of(encoded) == tx.account
        assert account_of(encoded) == (
            Transaction.from_canonical_bytes(encoded).account
        )

    @given(transactions, transactions)
    def test_property_digest_injective(self, a, b):
        if a != b:
            assert a.digest() != b.digest()
        else:
            assert a.digest() == b.digest()


class TestDisplayLines:
    def test_shows_all_fields(self):
        tx = Transaction("transfer", "alice", {"to": "bob", "amount": 12999})
        text = "\n".join(tx.display_lines())
        assert "transfer" in text and "alice" in text and "bob" in text

    def test_amount_rendered_as_decimal(self):
        tx = Transaction("transfer", "alice", {"amount": 12999})
        assert "129.99" in "\n".join(tx.display_lines())

    def test_banner_first(self):
        tx = Transaction("transfer", "alice", {})
        assert tx.display_lines()[0] == "=== TRANSACTION CONFIRMATION ==="

    def test_different_transactions_render_differently(self):
        a = Transaction("transfer", "alice", {"to": "bob", "amount": 100})
        b = Transaction("transfer", "alice", {"to": "mule", "amount": 100})
        assert a.display_lines() != b.display_lines()


class TestConfirmationDigest:
    def test_covers_all_inputs(self):
        base = confirmation_digest(b"text", b"n" * 20, b"accept")
        assert base != confirmation_digest(b"texT", b"n" * 20, b"accept")
        assert base != confirmation_digest(b"text", b"m" * 20, b"accept")
        assert base != confirmation_digest(b"text", b"n" * 20, b"reject")

    def test_length_framing_prevents_splicing(self):
        # (text="ab", nonce-prefix "c"...) must differ from (text="abc", ...)
        a = confirmation_digest(b"ab", b"c" * 20, b"accept")
        b = confirmation_digest(b"abc", b"c" * 20, b"accept")
        assert a != b

    @given(st.binary(max_size=100), st.binary(min_size=20, max_size=20),
           st.sampled_from([b"accept", b"reject"]))
    def test_property_deterministic(self, text, nonce, decision):
        assert confirmation_digest(text, nonce, decision) == confirmation_digest(
            text, nonce, decision
        )
