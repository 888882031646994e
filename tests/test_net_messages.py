"""Canonical message encoding: roundtrips and canonicality."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.messages import (
    MessageError,
    decode_message,
    encode_message,
    read_field,
)

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
#: Messages made mostly of framing — short keys, tiny values — so that a
#: random byte mutation usually lands on a key, a tag or a length.
framing_messages = st.dictionaries(
    st.text(alphabet="abc", max_size=2),
    st.recursive(
        st.one_of(
            st.integers(-300, 300), st.binary(max_size=2),
            st.text(alphabet="ab", max_size=2),
        ),
        lambda children: st.lists(children, max_size=3),
        max_leaves=4,
    ),
    min_size=1, max_size=5,
)


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

    def test_bool_rejected_inside_lists(self):
        with pytest.raises(MessageError):
            encode_message({"flags": [1, [False]]})

    def test_subclasses_encode_as_their_base(self):
        import enum

        class Code(enum.IntEnum):
            FIVE = 5

        class Text(str):
            pass

        class Blob(bytes):
            pass

        assert encode_message(
            {"a": Code.FIVE, "b": Text("x"), "c": Blob(b"y"), "d": (1, [2])}
        ) == encode_message({"a": 5, "b": "x", "c": b"y", "d": [1, [2]]})

    def test_int_width_is_bit_length_plus_sign(self):
        # Not minimal two's complement: -128 takes two bytes.
        assert encode_message({"x": -128}).endswith(b"I\x00\x00\x00\x02\xff\x80")
        assert encode_message({"x": 0}).endswith(b"I\x00\x00\x00\x01\x00")


def _frame(*fields: tuple) -> bytes:
    """A message frame from raw (key, tag, body) fields, in the order
    given — lets a test write what the encoder never would."""
    out = struct.pack(">I", len(fields))
    for key, tag, body in fields:
        out += struct.pack(">I", len(key)) + key + tag
        out += struct.pack(">I", len(body)) + body
    return out


class TestCanonicalDecode:
    """Only the encoder's own output decodes: every accepted frame is a
    fixed point of ``encode(decode(.))``."""

    def test_frame_helper_matches_encoder(self):
        assert _frame((b"a", b"I", b"\x01"), (b"b", b"S", b"x")) == (
            encode_message({"a": 1, "b": "x"})
        )

    @pytest.mark.parametrize(
        "frame",
        [
            _frame((b"b", b"I", b"\x01"), (b"a", b"I", b"\x02")),
            _frame((b"a", b"I", b"\x01"), (b"a", b"I", b"\x02")),
            _frame((b"a", b"I", b"\x00\x05")),
            _frame((b"a", b"I", b"")),
            _frame((b"a", b"L", b"I\x00\x00\x00\x02\xff\xff")),
        ],
        ids=["keys-descending", "key-repeated", "int-padded", "int-empty",
             "int-padded-in-list"],
    )
    def test_non_canonical_frames_rejected(self, frame):
        with pytest.raises(MessageError):
            decode_message(frame)

    def test_key_running_past_the_end_is_a_truncated_key(self):
        with pytest.raises(MessageError, match="truncated key$"):
            decode_message(struct.pack(">II", 1, 9) + b"ab")

    @settings(derandomize=True, max_examples=300)
    @given(st.binary(max_size=96))
    def test_property_arbitrary_bytes_decode_to_a_fixed_point(self, data):
        _assert_fixed_point_or_rejected(data)

    @settings(derandomize=True, max_examples=300)
    @given(framing_messages, st.data())
    def test_property_mutated_encodings_decode_to_a_fixed_point(
        self, message, data
    ):
        encoded = bytearray(encode_message(message))
        position = data.draw(st.integers(0, len(encoded) - 1))
        encoded[position] = data.draw(st.integers(0, 255))
        _assert_fixed_point_or_rejected(bytes(encoded))


def _assert_fixed_point_or_rejected(data: bytes) -> None:
    try:
        message = decode_message(data)
    except MessageError:
        return
    assert encode_message(message) == data


#: Examples per tier-1 ``read_field`` property; the slow variants run 20×.
READER_EXAMPLES = 75
#: Keys to read from a framing message: mostly ones it may hold.
framing_keys = st.one_of(
    st.text(alphabet="abc", max_size=2), st.text(max_size=4)
)


@st.composite
def damaged_frames(draw) -> bytes:
    """A truncated or bit-flipped encoding, or random bytes."""
    frame = encode_message(draw(st.one_of(framing_messages, wire_messages)))
    damage = draw(st.sampled_from(["truncate", "flip", "random"]))
    if damage == "truncate":
        return frame[:draw(st.integers(0, len(frame) - 1))]
    if damage == "flip":
        flipped = bytearray(frame)
        flipped[draw(st.integers(0, len(frame) - 1))] ^= 1 << draw(
            st.integers(0, 7)
        )
        return bytes(flipped)
    return draw(st.binary(max_size=96))


def _assert_reader_agrees(message, data) -> None:
    frame = encode_message(message)
    decoded = decode_message(frame)
    for key in decoded:
        assert read_field(frame, key) == decoded[key]
    absent = data.draw(st.text(max_size=16).filter(lambda k: k not in decoded))
    assert read_field(frame, absent) is None


def _assert_reader_total(frame: bytes, key: str) -> None:
    """A value or MessageError, nothing else; and the value
    :func:`decode_message` gives wherever it accepts the frame."""
    try:
        value = read_field(frame, key)
    except MessageError:
        value = MessageError  # equals no decoded value
    try:
        decoded = decode_message(frame)
    except MessageError:
        return
    assert value == decoded.get(key)


class TestReadField:
    """``read_field`` reads one value in place and decodes no other."""

    def test_reads_a_value_of_each_type_and_none_when_absent(self):
        frame = encode_message(
            {"b": b"\x00", "i": -7, "l": [1, [b"x"], "y"], "s": "é"}
        )
        assert [read_field(frame, k) for k in "bils"] == [
            b"\x00", -7, [1, [b"x"], "y"], "é"
        ]
        assert read_field(frame, "a") is None
        assert read_field(frame, "z") is None

    @pytest.mark.parametrize(
        "frame",
        [
            _frame((b"b", b"I", b"\x01"), (b"a", b"I", b"\x02")),
            _frame((b"a", b"I", b"\x01"), (b"a", b"I", b"\x02")),
            _frame((b"a", b"B", b"x" * 9)) + b"\x00",
            struct.pack(">II", 1, 9) + b"ab",
            _frame((b"a", b"I", b"\x01"))[:-1],
            b"\x00\x00",
        ],
        ids=["keys-descending", "key-repeated", "trailing-bytes",
             "truncated-key", "truncated-body", "truncated-header"],
    )
    def test_header_faults_up_to_the_key_raise(self, frame):
        with pytest.raises(MessageError):
            read_field(frame, "c")

    def test_a_fault_past_the_key_goes_unread(self):
        """What lies past the key's place is left to a full decode."""
        frame = _frame((b"a", b"I", b"\x01"), (b"b", b"I", b"\x00\x05"))
        with pytest.raises(MessageError):
            decode_message(frame)
        assert read_field(frame, "a") == 1
        assert read_field(frame, "ab") is None

    def test_the_read_value_is_decoded_strictly(self):
        frame = _frame((b"a", b"I", b"\x00\x05"))
        with pytest.raises(MessageError, match="non-canonical int"):
            read_field(frame, "a")

    @settings(derandomize=True, max_examples=READER_EXAMPLES)
    @given(wire_messages, st.data())
    def test_property_agrees_with_decode(self, message, data):
        _assert_reader_agrees(message, data)

    @settings(derandomize=True, max_examples=READER_EXAMPLES)
    @given(damaged_frames(), framing_keys)
    def test_property_damaged_bytes_give_a_value_or_message_error(
        self, frame, key
    ):
        _assert_reader_total(frame, key)

    @pytest.mark.slow
    @settings(derandomize=True, max_examples=20 * READER_EXAMPLES)
    @given(wire_messages, st.data())
    def test_property_agrees_with_decode_slow(self, message, data):
        _assert_reader_agrees(message, data)

    @pytest.mark.slow
    @settings(derandomize=True, max_examples=20 * READER_EXAMPLES)
    @given(damaged_frames(), framing_keys)
    def test_property_damaged_bytes_give_a_value_or_message_error_slow(
        self, frame, key
    ):
        _assert_reader_total(frame, key)
