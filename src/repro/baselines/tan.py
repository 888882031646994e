"""Indexed TAN lists (iTAN), the banking baseline of the paper's era.

The bank mails the user a numbered list of one-time codes; each
transaction asks for a specific index.  Two structural weaknesses the
experiments exercise:

1. the code does not bind the transaction *content*, so a
   man-in-the-browser can alter the transaction and let the user's own
   valid TAN authorize the altered version;
2. the code passes through the malicious OS, so it can be captured and
   used for a different (attacker-chosen) transaction in real time.

(The second-device SMS-TAN variant fixes some of this at the cost of —
precisely — a second device; the paper's point is confirmation on
*one* device.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.crypto.drbg import HmacDrbg


@dataclass
class TanList:
    """One user's printed TAN sheet."""

    codes: List[str]
    used_indices: Set[int] = field(default_factory=set)

    def code_at(self, index: int) -> str:
        return self.codes[index]


class TanScheme:
    """Provider-side iTAN issuance and verification."""

    LIST_LENGTH = 100
    CODE_DIGITS = 6

    def __init__(self, drbg: HmacDrbg) -> None:
        self._drbg = drbg
        self._lists: Dict[str, TanList] = {}
        # account -> (challenge index, transaction binding the provider
        # *believes* is being confirmed)
        self._pending: Dict[str, Tuple[int, bytes]] = {}
        self.accepted = 0
        self.rejected = 0

    def enroll(self, account: str) -> TanList:
        codes = [
            "".join(
                str(self._drbg.generate_below(10)) for _ in range(self.CODE_DIGITS)
            )
            for _ in range(self.LIST_LENGTH)
        ]
        tan_list = TanList(codes=codes)
        self._lists[account] = tan_list
        return tan_list

    def challenge(self, account: str, tx_digest: bytes) -> int:
        """Ask for a fresh index; returns the index to show the user."""
        tan_list = self._lists[account]
        while True:
            index = self._drbg.generate_below(self.LIST_LENGTH)
            if index not in tan_list.used_indices:
                break
        self._pending[account] = (index, tx_digest)
        return index

    def confirm(self, account: str, submitted_code: str, tx_digest: bytes) -> bool:
        """Check the submitted code.

        NOTE the structural flaw, faithfully reproduced: ``tx_digest``
        is whatever transaction the provider currently holds — if
        malware altered it after the user read their screen, the same
        TAN still verifies.  The scheme cannot notice, because the code
        never covered the content.
        """
        pending = self._pending.pop(account, None)
        tan_list = self._lists.get(account)
        if pending is None or tan_list is None:
            self.rejected += 1
            return False
        index, _challenged_digest = pending
        if index in tan_list.used_indices:
            self.rejected += 1
            return False
        if tan_list.code_at(index) != submitted_code:
            self.rejected += 1
            return False
        tan_list.used_indices.add(index)
        self.accepted += 1
        return True


@dataclass
class MobileTanMessage:
    """What the bank sends to the user's phone: content + code."""

    tx_digest: bytes
    display_text: str
    code: str


class MobileTanScheme:
    """SMS-TAN (mTAN): the *second-device* scheme the paper obviates.

    The bank sends the transaction summary and a fresh code to the
    user's phone; the user compares the summary with what they intended
    and types the code back.  Because the code is bound server-side to
    the *content* the phone displayed, a man-in-the-browser alteration
    is caught (the phone shows the mule), and a code captured on the PC
    only authorizes the transaction the user already approved.

    Its cost is exactly the paper's pitch: it requires a second,
    independent device and an out-of-band channel.  The trusted path
    achieves the same content binding on one device.

    Residual weakness (faithfully modeled): like the trusted path's
    alteration case, it is user-dependent — a careless user who does
    not read the SMS approves the altered content.
    """

    CODE_DIGITS = 6

    def __init__(self, drbg: HmacDrbg) -> None:
        self._drbg = drbg
        # account -> (code, tx_digest the code authorizes)
        self._pending: Dict[str, Tuple[str, bytes]] = {}
        self.accepted = 0
        self.rejected = 0

    def challenge(self, account: str, tx_digest: bytes,
                  display_text: str) -> MobileTanMessage:
        """Issue a code to the user's phone, bound to ``tx_digest``."""
        code = "".join(
            str(self._drbg.generate_below(10)) for _ in range(self.CODE_DIGITS)
        )
        self._pending[account] = (code, tx_digest)
        return MobileTanMessage(
            tx_digest=tx_digest, display_text=display_text, code=code
        )

    def confirm(self, account: str, submitted_code: str, tx_digest: bytes) -> bool:
        """Accept iff the code matches AND authorizes this exact content."""
        pending = self._pending.pop(account, None)
        if pending is None:
            self.rejected += 1
            return False
        code, bound_digest = pending
        if submitted_code != code or tx_digest != bound_digest:
            self.rejected += 1
            return False
        self.accepted += 1
        return True
