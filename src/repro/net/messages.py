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
minimal), b'L' list of values (recursively encoded, at most
:data:`MAX_LIST_DEPTH` levels deep).

Decoding is total over untrusted bytes: any malformed input raises
:class:`MessageError` and nothing else.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple

Message = Dict[str, Any]

#: Deepest list nesting :func:`decode_message` accepts.  Protocol
#: messages nest a few levels at most; the bound keeps a hostile frame
#: from driving the recursive decoder into the interpreter's stack limit.
MAX_LIST_DEPTH = 32


class MessageError(ValueError):
    """Malformed message encoding."""


def _encode_value(value: Any) -> bytes:
    if isinstance(value, bool):
        # bool is an int subclass; reject to keep the wire format tight.
        raise MessageError("booleans are not a wire type; use int 0/1")
    if isinstance(value, bytes):
        return b"B" + struct.pack(">I", len(value)) + value
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + struct.pack(">I", len(raw)) + raw
    if isinstance(value, int):
        length = (value.bit_length() + 8) // 8 or 1
        raw = value.to_bytes(length, "big", signed=True)
        return b"I" + struct.pack(">I", len(raw)) + raw
    if isinstance(value, (list, tuple)):
        body = b"".join(_encode_value(item) for item in value)
        return b"L" + struct.pack(">I", len(body)) + body
    raise MessageError(f"unsupported wire type {type(value).__name__}")


def _decode_value(data: bytes, offset: int, depth: int = 0) -> Tuple[Any, int]:
    if offset + 5 > len(data):
        raise MessageError("truncated value header")
    tag = data[offset : offset + 1]
    (length,) = struct.unpack(">I", data[offset + 1 : offset + 5])
    start = offset + 5
    end = start + length
    if end > len(data):
        raise MessageError("truncated value body")
    body = data[start:end]
    if tag == b"B":
        return body, end
    if tag == b"S":
        try:
            return body.decode("utf-8"), end
        except UnicodeDecodeError:
            raise MessageError("string value is not valid UTF-8") from None
    if tag == b"I":
        return int.from_bytes(body, "big", signed=True), end
    if tag == b"L":
        if depth >= MAX_LIST_DEPTH:
            raise MessageError(f"lists nested deeper than {MAX_LIST_DEPTH}")
        items: List[Any] = []
        inner = 0
        while inner < len(body):
            item, inner = _decode_value(body, inner, depth + 1)
            items.append(item)
        return items, end
    raise MessageError(f"unknown type tag {tag!r}")


def encode_message(message: Message) -> bytes:
    """Serialize ``message`` canonically (sorted keys)."""
    parts = [struct.pack(">I", len(message))]
    for key in sorted(message):
        if not isinstance(key, str):
            raise MessageError(f"message keys must be str, got {type(key).__name__}")
        raw_key = key.encode("utf-8")
        parts.append(struct.pack(">I", len(raw_key)) + raw_key)
        parts.append(_encode_value(message[key]))
    return b"".join(parts)


def decode_message(data: bytes) -> Message:
    """Parse bytes produced by :func:`encode_message`.

    Raises :class:`MessageError` on any malformed input.
    """
    if len(data) < 4:
        raise MessageError("truncated message header")
    (count,) = struct.unpack(">I", data[:4])
    message: Message = {}
    offset = 4
    for _ in range(count):
        if offset + 4 > len(data):
            raise MessageError("truncated key header")
        (key_len,) = struct.unpack(">I", data[offset : offset + 4])
        try:
            key = data[offset + 4 : offset + 4 + key_len].decode("utf-8")
        except UnicodeDecodeError:
            raise MessageError("message key is not valid UTF-8") from None
        offset += 4 + key_len
        value, offset = _decode_value(data, offset)
        message[key] = value
    if offset != len(data):
        raise MessageError(f"{len(data) - offset} trailing bytes")
    return message
