"""Canonical message encoding: roundtrips and canonicality."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.net.messages import MessageError, decode_message, encode_message

wire_values = st.recursive(
    st.one_of(
        st.binary(max_size=64),
        st.text(max_size=32),
        st.integers(min_value=-(2**63), max_value=2**63),
    ),
    lambda children: st.lists(children, max_size=4),
    max_leaves=10,
)
wire_messages = st.dictionaries(st.text(max_size=16), wire_values, max_size=8)


class TestEncoding:
    def test_roundtrip_basic(self):
        message = {"kind": "transfer", "amount": 12345, "nonce": b"\x01\x02"}
        assert decode_message(encode_message(message)) == message

    def test_roundtrip_nested_lists(self):
        message = {"items": ["a", 1, b"\x00", ["nested", 2]]}
        assert decode_message(encode_message(message)) == message

    def test_negative_and_zero_ints(self):
        message = {"a": -1, "b": 0, "c": -(2**40)}
        assert decode_message(encode_message(message)) == message

    def test_canonical_key_order(self):
        assert encode_message({"a": 1, "b": 2}) == encode_message({"b": 2, "a": 1})

    def test_empty_message(self):
        assert decode_message(encode_message({})) == {}

    def test_unicode_strings(self):
        message = {"text": "überweisung → 100€"}
        assert decode_message(encode_message(message)) == message

    def test_bool_rejected(self):
        with pytest.raises(MessageError):
            encode_message({"flag": True})

    def test_unsupported_type_rejected(self):
        with pytest.raises(MessageError):
            encode_message({"x": 1.5})

    def test_non_string_key_rejected(self):
        with pytest.raises(MessageError):
            encode_message({1: "x"})  # type: ignore[dict-item]

    def test_trailing_bytes_rejected(self):
        encoded = encode_message({"a": 1}) + b"extra"
        with pytest.raises(MessageError):
            decode_message(encoded)

    def test_truncation_rejected(self):
        encoded = encode_message({"a": b"payload"})
        for cut in (1, 5, len(encoded) - 1):
            with pytest.raises(MessageError):
                decode_message(encoded[:cut])

    def test_list_nesting_is_bounded(self):
        from repro.net.messages import MAX_LIST_DEPTH

        value = []
        for _ in range(MAX_LIST_DEPTH - 1):
            value = [value]
        assert decode_message(encode_message({"v": value})) == {"v": value}
        with pytest.raises(MessageError, match="nested"):
            decode_message(encode_message({"v": [value]}))

    def test_bytes_and_str_distinct(self):
        as_bytes = decode_message(encode_message({"v": b"abc"}))
        as_str = decode_message(encode_message({"v": "abc"}))
        assert as_bytes["v"] == b"abc" and as_str["v"] == "abc"
        assert type(as_bytes["v"]) is bytes and type(as_str["v"]) is str

    @given(wire_messages)
    def test_property_roundtrip(self, message):
        assert decode_message(encode_message(message)) == message

    @given(wire_messages)
    def test_property_encoding_is_injective_on_digest(self, message):
        # Canonical form: equal dicts encode equal, and decoding the
        # encoding re-encodes identically (fixed point).
        encoded = encode_message(message)
        assert encode_message(decode_message(encoded)) == encoded
