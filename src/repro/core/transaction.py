"""Transactions and their canonical forms.

The protocol binds three representations of one transaction:

* :meth:`Transaction.canonical_bytes` — the server-authoritative wire
  encoding (sorted-key message encoding from `repro.net.messages`);
* :meth:`Transaction.display_lines` — the human-readable rendering the
  PAL puts on the screen; derived *deterministically* from the same
  fields, so what the human reads is what the digest covers;
* :meth:`Transaction.digest` — SHA-1 of the canonical bytes, the value
  confirmation evidence is computed over.

Anything not reflected in canonical bytes does not exist as far as the
protocol is concerned — the repository's tests enforce that the display
rendering is injective on the canonical fields it shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

from repro.crypto.sha1 import sha1
from repro.net.messages import encode_message, decode_message

FieldValue = Union[str, int]


@dataclass(frozen=True)
class Transaction:
    """One transaction a user asks a service provider to execute.

    ``kind`` is the provider-defined operation ("transfer", "order",
    ...); ``account`` identifies the requesting user; ``fields`` holds
    the operation parameters (amounts are integers in minor units —
    cents — so canonicalization never meets floating point).
    """

    kind: str
    account: str
    fields: Dict[str, FieldValue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind or not self.account:
            raise ValueError("transaction needs a kind and an account")
        for key, value in self.fields.items():
            if not isinstance(key, str) or not isinstance(value, (str, int)):
                raise ValueError(
                    f"field {key!r} must map str -> str|int, got {type(value).__name__}"
                )

    # -- canonical forms ----------------------------------------------------
    def canonical_bytes(self) -> bytes:
        message = {"kind": self.kind, "account": self.account}
        for key, value in self.fields.items():
            message[f"f.{key}"] = value
        return encode_message(message)

    def digest(self) -> bytes:
        return sha1(self.canonical_bytes())

    def display_lines(self) -> List[str]:
        """The rendering the ConfirmationPal shows the human."""
        lines = [
            "=== TRANSACTION CONFIRMATION ===",
            f"operation : {self.kind}",
            f"account   : {self.account}",
        ]
        for key in sorted(self.fields):
            value = self.fields[key]
            if key.startswith("amount"):
                rendered = _format_amount(value)
            else:
                rendered = str(value)
            lines.append(f"{key:<10}: {rendered}")
        return lines

    # -- wire ------------------------------------------------------------------
    @classmethod
    def from_canonical_bytes(cls, data: bytes) -> "Transaction":
        message = decode_message(data)
        fields = {
            key[2:]: value
            for key, value in message.items()
            if key.startswith("f.")
        }
        return cls(kind=message["kind"], account=message["account"], fields=fields)

    def __str__(self) -> str:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return f"{self.kind}({self.account}: {rendered})"


def account_of(canonical: bytes) -> str:
    """``Transaction.from_canonical_bytes(canonical).account`` without
    building the transaction."""
    return decode_message(canonical)["account"]


def _format_amount(value: FieldValue) -> str:
    """Render minor-unit integer amounts as a decimal string."""
    if isinstance(value, int):
        return f"{value // 100}.{value % 100:02d}"
    return str(value)
