"""OIAP authorization sessions (TPM 1.2 command authorization).

Real v1.2 TPMs gate key usage behind an HMAC protocol: the caller opens
an Object-Independent Authorization Protocol session (TPM_OIAP), and
every authorized command carries
``HMAC(usage_secret, param_digest || nonce_even || nonce_odd || continue)``
with rolling nonces — so the usage secret never crosses the bus and
replaying an authorization is useless.

Flicker-style deployments typically create keys with the well-known
(all-zero) secret, which is why the rest of this repository can call
commands without an auth block; this module exists because the
substrate should implement the mechanism, not assume it away.  Keys
created with ``usage_auth=...`` require a live OIAP proof on ``sign``.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from typing import Dict, Optional

from repro.crypto.hmac_impl import hmac_sha1
from repro.crypto.sha1 import sha1
from repro.tpm.constants import TpmError, TpmResult

#: TPM 1.2's "well-known secret": 20 zero bytes, meaning "no auth".
WELL_KNOWN_SECRET = b"\x00" * 20


@dataclass
class OiapSession:
    """TPM-side state of one open OIAP session."""

    handle: int
    nonce_even: bytes
    active: bool = True


@dataclass(frozen=True)
class AuthBlock:
    """The authorization trailer a caller attaches to a command."""

    session_handle: int
    nonce_odd: bytes
    continue_session: int  # 0 or 1
    auth_hmac: bytes


def compute_auth_hmac(
    usage_secret: bytes,
    param_digest: bytes,
    nonce_even: bytes,
    nonce_odd: bytes,
    continue_session: int,
) -> bytes:
    """The 1.2 authorization HMAC (TPM spec part 1, §"Authorization")."""
    body = param_digest + nonce_even + nonce_odd + bytes([continue_session & 1])
    return hmac_sha1(usage_secret, body)


def param_digest(ordinal: str, *params: bytes) -> bytes:
    """SHA-1 over the command ordinal and its marshalled parameters."""
    blob = ordinal.encode("ascii") + b"\x00"
    for param in params:
        blob += len(param).to_bytes(4, "big") + param
    return sha1(blob)


class OiapManager:
    """The device's table of open authorization sessions."""

    MAX_SESSIONS = 8  # era parts held very few

    def __init__(self, drbg) -> None:
        self._drbg = drbg
        self._sessions: Dict[int, OiapSession] = {}
        self._next_handle = 0x0200_0000

    def open(self) -> OiapSession:
        live = sum(1 for s in self._sessions.values() if s.active)
        if live >= self.MAX_SESSIONS:
            raise TpmError(TpmResult.NO_SPACE, "no free authorization sessions")
        session = OiapSession(
            handle=self._next_handle, nonce_even=self._drbg.generate(20)
        )
        self._next_handle += 1
        self._sessions[session.handle] = session
        return session

    def terminate(self, handle: int) -> None:
        session = self._sessions.pop(handle, None)
        if session is not None:
            session.active = False

    def validate(
        self,
        usage_secret: Optional[bytes],
        digest: bytes,
        block: Optional[AuthBlock],
    ) -> None:
        """Check an authorization block against an entity's secret.

        Entities with the well-known secret (or None) need no block.
        Everything else needs a live session and a correct HMAC; the
        session's even nonce rolls afterwards, so each proof is single
        use unless continued.
        """
        secret = usage_secret or WELL_KNOWN_SECRET
        if secret == WELL_KNOWN_SECRET:
            return  # no authorization required
        if block is None:
            raise TpmError(
                TpmResult.AUTH_FAIL, "entity requires an authorization session"
            )
        session = self._sessions.get(block.session_handle)
        if session is None or not session.active:
            raise TpmError(TpmResult.AUTH_FAIL, "unknown or dead auth session")
        expected = compute_auth_hmac(
            secret, digest, session.nonce_even, block.nonce_odd,
            block.continue_session,
        )
        if not hmac.compare_digest(expected, block.auth_hmac):
            # Real parts also throttle here (dictionary-attack defense);
            # the session dies either way.
            self.terminate(session.handle)
            raise TpmError(TpmResult.AUTH_FAIL, "authorization HMAC mismatch")
        # Roll the even nonce; close the session unless continued.
        session.nonce_even = self._drbg.generate(20)
        if not block.continue_session:
            self.terminate(session.handle)

    def nonce_even(self, handle: int) -> bytes:
        session = self._sessions.get(handle)
        if session is None or not session.active:
            raise TpmError(TpmResult.AUTH_FAIL, "unknown or dead auth session")
        return session.nonce_even
