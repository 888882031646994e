"""Canonical message encoding.

Protocol messages are dictionaries with string keys and byte/str/int
values.  The encoding is canonical (sorted keys, length-prefixed
fields) so that hashing a message is well-defined — the trusted-path
protocol signs hashes of these encodings, so two honest parties must
serialize identically.

Wire layout::

    u32 field_count
    repeat: u32 key_len, key, u8 type_tag, u32 value_len, value

Type tags: b'B' bytes, b'S' str (UTF-8), b'I' signed int (big-endian,
``(v.bit_length() + 8) // 8`` bytes), b'L' list of values (recursively
encoded, at most :data:`MAX_LIST_DEPTH` levels deep).

Decoding is total over untrusted bytes: any malformed input raises
:class:`MessageError` and nothing else.  It is also strict: a frame the
encoder would not have written — keys out of ascending order, a repeated
key, an int body of any other length — is malformed too, so every frame
that decodes re-encodes to the same bytes.  That fixed point is what
lets a holder of decoded bytes keep them instead of re-encoding.

Both directions work in one buffer: the encoder appends to a single
``bytearray`` (a list's length is patched in after its items), and the
decoder reads headers in place with ``unpack_from``, slicing only value
bodies.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List

Message = Dict[str, Any]

#: Deepest list nesting :func:`decode_message` accepts.  Protocol
#: messages nest a few levels at most; the bound keeps a hostile frame
#: from driving the recursive decoder into the interpreter's stack limit.
MAX_LIST_DEPTH = 32

_U32 = struct.Struct(">I")
#: A value header: type tag, body length.
_HEAD = struct.Struct(">BI")
_TAG_BYTES, _TAG_STR, _TAG_INT, _TAG_LIST = b"BSIL"


class MessageError(ValueError):
    """Malformed message encoding."""


def _wire_type(value: Any) -> type:
    """The wire type of a value whose exact type is not one; subclasses
    encode as their base.  bool is an int subclass but not a wire type."""
    if isinstance(value, bool):
        raise MessageError("booleans are not a wire type; use int 0/1")
    for kind in (bytes, str, int, list, tuple):
        if isinstance(value, kind):
            return kind
    raise MessageError(f"unsupported wire type {type(value).__name__}")


def _write_value(out: bytearray, value: Any) -> None:
    kind = type(value)
    if kind not in (bytes, str, int, list, tuple):
        kind = _wire_type(value)
    if kind is bytes:
        out += _HEAD.pack(_TAG_BYTES, len(value))
        out += value
    elif kind is str:
        raw = value.encode("utf-8")
        out += _HEAD.pack(_TAG_STR, len(raw))
        out += raw
    elif kind is int:
        length = (value.bit_length() + 8) // 8
        out += _HEAD.pack(_TAG_INT, length)
        out += value.to_bytes(length, "big", signed=True)
    else:
        start = len(out)
        out += _HEAD.pack(_TAG_LIST, 0)
        for item in value:
            _write_value(out, item)
        _HEAD.pack_into(out, start, _TAG_LIST, len(out) - start - 5)


def encode_message(message: Message) -> bytes:
    """Serialize ``message`` canonically (sorted keys)."""
    out = bytearray(_U32.pack(len(message)))
    for key in sorted(message):
        if not isinstance(key, str):
            raise MessageError(f"message keys must be str, got {type(key).__name__}")
        raw_key = key.encode("utf-8")
        out += _U32.pack(len(raw_key))
        out += raw_key
        _write_value(out, message[key])
    return bytes(out)


def _decode_str(body: bytes) -> str:
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError:
        raise MessageError("string value is not valid UTF-8") from None


def _decode_int(body: bytes) -> int:
    value = int.from_bytes(body, "big", signed=True)
    if len(body) != (value.bit_length() + 8) // 8:
        raise MessageError("non-canonical int encoding")
    return value


def _read_list(data: bytes, offset: int, end: int, depth: int) -> List[Any]:
    """The items of a list body spanning ``data[offset:end]``."""
    if depth > MAX_LIST_DEPTH:
        raise MessageError(f"lists nested deeper than {MAX_LIST_DEPTH}")
    items: List[Any] = []
    while offset < end:
        if offset + 5 > end:
            raise MessageError("truncated value header")
        tag, length = _HEAD.unpack_from(data, offset)
        start = offset + 5
        offset = start + length
        if offset > end:
            raise MessageError("truncated value body")
        if tag == _TAG_BYTES:
            items.append(data[start:offset])
        elif tag == _TAG_STR:
            items.append(_decode_str(data[start:offset]))
        elif tag == _TAG_INT:
            items.append(_decode_int(data[start:offset]))
        elif tag == _TAG_LIST:
            items.append(_read_list(data, start, offset, depth + 1))
        else:
            raise MessageError(f"unknown type tag {bytes([tag])!r}")
    return items


def decode_message(data: bytes) -> Message:
    """Parse bytes produced by :func:`encode_message`.

    Raises :class:`MessageError` on any malformed or non-canonical input.
    :func:`read_field` repeats this key walk; change the two together.
    """
    size = len(data)
    if size < 4:
        raise MessageError("truncated message header")
    (count,) = _U32.unpack_from(data)
    message: Message = {}
    offset = 4
    previous = None
    for _ in range(count):
        if offset + 4 > size:
            raise MessageError("truncated key header")
        (key_len,) = _U32.unpack_from(data, offset)
        start = offset + 4
        offset = start + key_len
        if offset > size:
            raise MessageError("truncated key")
        try:
            key = data[start:offset].decode("utf-8")
        except UnicodeDecodeError:
            raise MessageError("message key is not valid UTF-8") from None
        if previous is not None and key <= previous:
            raise MessageError(f"key {key!r} out of canonical order")
        previous = key
        if offset + 5 > size:
            raise MessageError("truncated value header")
        tag, length = _HEAD.unpack_from(data, offset)
        start = offset + 5
        offset = start + length
        if offset > size:
            raise MessageError("truncated value body")
        if tag == _TAG_BYTES:
            message[key] = data[start:offset]
        elif tag == _TAG_STR:
            message[key] = _decode_str(data[start:offset])
        elif tag == _TAG_INT:
            message[key] = _decode_int(data[start:offset])
        elif tag == _TAG_LIST:
            message[key] = _read_list(data, start, offset, 1)
        else:
            raise MessageError(f"unknown type tag {bytes([tag])!r}")
    if offset != size:
        raise MessageError(f"{size - offset} trailing bytes")
    return message


def read_field(data: bytes, key: str) -> Any:
    """``decode_message(data).get(key)``, decoding no other value.

    Walks the headers in place up to ``key``'s place in the canonical
    key order, with :func:`decode_message`'s bounds and key-order
    checks, and raises :class:`MessageError` where they fail.  What lies
    past that place, and the bodies of the values it skips, go unread:
    a caller that keeps ``data`` meets a fault there when it decodes the
    frame in full.

    The key walk repeats :func:`decode_message`'s line for line, and the
    two must change together: a shared per-key helper would put a call
    on every key of every decode.  The property tests in
    ``tests/test_net_messages.py`` check that the two agree.
    """
    size = len(data)
    if size < 4:
        raise MessageError("truncated message header")
    (count,) = _U32.unpack_from(data)
    offset = 4
    previous = None
    for _ in range(count):
        if offset + 4 > size:
            raise MessageError("truncated key header")
        (key_len,) = _U32.unpack_from(data, offset)
        start = offset + 4
        offset = start + key_len
        if offset > size:
            raise MessageError("truncated key")
        try:
            name = data[start:offset].decode("utf-8")
        except UnicodeDecodeError:
            raise MessageError("message key is not valid UTF-8") from None
        if previous is not None and name <= previous:
            raise MessageError(f"key {name!r} out of canonical order")
        previous = name
        if offset + 5 > size:
            raise MessageError("truncated value header")
        head = offset
        offset += 5 + _HEAD.unpack_from(data, head)[1]
        if offset > size:
            raise MessageError("truncated value body")
        if name >= key:
            if name != key:
                return None
            # One header-plus-body span is a one-item list body.
            (value,) = _read_list(data, head, offset, 0)
            return value
    if offset != size:
        raise MessageError(f"{size - offset} trailing bytes")
    return None
