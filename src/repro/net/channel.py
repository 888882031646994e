"""Authenticated secure channel ("TLS-lite").

The paper's protocol runs inside TLS between the browser and the
service provider.  The channel reproduces TLS's relevant guarantees
with the repo's own primitives:

* **key transport** — the client encrypts a fresh session secret to the
  server's RSA public key (RSAES-PKCS1-v1_5, as TLS RSA key exchange
  did in the paper's era);
* **records** — payloads are encrypted with the HMAC-counter stream
  cipher and authenticated with HMAC-SHA256 over (direction, sequence
  number, ciphertext), so records cannot be forged, reordered or
  replayed within the connection.

Note the threat model: the *endpoint* (the client OS) is malicious, so
the channel protects against network adversaries only — exactly TLS's
role in the paper.  A man-in-the-browser sits above the channel; the
trusted path is what defeats it.
"""

from __future__ import annotations

import hmac
import struct
from dataclasses import dataclass
from typing import Tuple

from repro.crypto.drbg import HmacDrbg
from repro.crypto.hmac_impl import hmac_sha256
from repro.crypto.pkcs1 import pkcs1_decrypt, pkcs1_encrypt
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey


class ChannelError(RuntimeError):
    """Record authentication or handshake failure."""


@dataclass
class SecureChannel:
    """One endpoint's view of an established channel."""

    session_secret: bytes
    is_client: int  # 1 for the client side, 0 for the server side
    send_sequence: int = 0
    receive_sequence: int = 0

    def _keys(self, direction: int) -> Tuple[bytes, bytes]:
        enc = hmac_sha256(self.session_secret, b"enc%d" % direction)
        mac = hmac_sha256(self.session_secret, b"mac%d" % direction)
        return enc, mac

    def _keystream(self, key: bytes, sequence: int, length: int) -> bytes:
        blocks = []
        for counter in range((length + 31) // 32):
            blocks.append(
                hmac_sha256(key, struct.pack(">QQ", sequence, counter))
            )
        return b"".join(blocks)[:length]

    def wrap(self, plaintext: bytes) -> bytes:
        """Encrypt + MAC one record for sending."""
        direction = self.is_client
        enc_key, mac_key = self._keys(direction)
        ciphertext = bytes(
            p ^ k
            for p, k in zip(
                plaintext,
                self._keystream(enc_key, self.send_sequence, len(plaintext)),
            )
        )
        header = struct.pack(">BQ", direction, self.send_sequence)
        mac = hmac_sha256(mac_key, header + ciphertext)
        self.send_sequence += 1
        return header + ciphertext + mac

    def unwrap(self, record: bytes) -> bytes:
        """Verify + decrypt one received record."""
        if len(record) < 9 + 32:
            raise ChannelError("record too short")
        direction, sequence = struct.unpack(">BQ", record[:9])
        ciphertext = record[9:-32]
        mac = record[-32:]
        if direction == self.is_client:
            raise ChannelError("record direction is reflected (replay?)")
        if sequence != self.receive_sequence:
            raise ChannelError(
                f"record sequence {sequence} != expected {self.receive_sequence}"
            )
        enc_key, mac_key = self._keys(direction)
        expected = hmac_sha256(mac_key, record[:9] + ciphertext)
        if not hmac.compare_digest(mac, expected):
            raise ChannelError("record MAC mismatch")
        self.receive_sequence += 1
        return bytes(
            c ^ k
            for c, k in zip(
                ciphertext, self._keystream(enc_key, sequence, len(ciphertext))
            )
        )


def establish_channel(
    server_public: RsaPublicKey,
    server_private: RsaKeyPair,
    client_drbg: HmacDrbg,
) -> Tuple[SecureChannel, SecureChannel, bytes]:
    """Run the key-transport handshake.

    Returns (client_channel, server_channel, handshake_bytes).  The
    handshake bytes are what crossed the wire, so callers can charge
    network time for them.
    """
    session_secret = client_drbg.generate(32)
    handshake = pkcs1_encrypt(server_public, session_secret, client_drbg)
    recovered = pkcs1_decrypt(server_private, handshake)
    if recovered != session_secret:
        raise ChannelError("key transport failed")
    client = SecureChannel(session_secret=session_secret, is_client=1)
    server = SecureChannel(session_secret=session_secret, is_client=0)
    return client, server, handshake
