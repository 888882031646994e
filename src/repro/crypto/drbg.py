"""Deterministic random bit generator in the HMAC-DRBG (SP 800-90A) shape.

Every source of "hardware" randomness in the reproduction — the TPM's RNG,
key generation, server nonces — draws from an :class:`HmacDrbg` seeded
from the experiment's master seed, which is what makes whole-system runs
bit-reproducible.

The underlying HMAC-SHA256 is the standard library's, through
:mod:`repro.crypto.backend`.
"""

from __future__ import annotations

from repro.crypto.hmac_impl import hmac_sha256


class HmacDrbg:
    """HMAC-SHA256 DRBG.

    Follows the update/generate structure of SP 800-90A (without the
    reseed-counter bureaucracy, which adds nothing to the experiments).
    """

    def __init__(self, seed: bytes, personalization: bytes = b"") -> None:
        if not seed:
            raise ValueError("DRBG requires a non-empty seed")
        self._key = b"\x00" * 32
        self._value = b"\x01" * 32
        self._update(seed + personalization)
        self.bytes_generated = 0

    def _update(self, provided_data: bytes = b"") -> None:
        self._key = hmac_sha256(self._key, self._value + b"\x00" + provided_data)
        self._value = hmac_sha256(self._key, self._value)
        if provided_data:
            self._key = hmac_sha256(self._key, self._value + b"\x01" + provided_data)
            self._value = hmac_sha256(self._key, self._value)

    def generate(self, num_bytes: int) -> bytes:
        """Return ``num_bytes`` of deterministic pseudo-random output."""
        if num_bytes < 0:
            raise ValueError(f"cannot generate {num_bytes} bytes")
        output = b""
        while len(output) < num_bytes:
            self._value = hmac_sha256(self._key, self._value)
            output += self._value
        self._update()
        self.bytes_generated += num_bytes
        return output[:num_bytes]

    def generate_int(self, bits: int) -> int:
        """Return a uniformly random integer with exactly ``bits`` bits set
        in range (top bit forced to 1 so the width is exact)."""
        if bits < 2:
            raise ValueError("need at least 2 bits")
        num_bytes = (bits + 7) // 8
        raw = int.from_bytes(self.generate(num_bytes), "big")
        raw &= (1 << bits) - 1
        raw |= 1 << (bits - 1)
        return raw

    def generate_below(self, bound: int) -> int:
        """Return a uniform integer in [0, bound) by rejection sampling."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        bits = bound.bit_length()
        num_bytes = (bits + 7) // 8
        while True:
            candidate = int.from_bytes(self.generate(num_bytes), "big")
            candidate &= (1 << bits) - 1
            if candidate < bound:
                return candidate

    def snapshot(self) -> tuple:
        """The complete generator state; output is a pure function of it."""
        return (self._key, self._value, self.bytes_generated)

    def restore(self, state: tuple) -> None:
        """Reset to a state captured by :meth:`snapshot`."""
        self._key, self._value, self.bytes_generated = state

    def fork(self, label: bytes) -> "HmacDrbg":
        """Derive an independent child DRBG; used to give each simulated
        device its own stream without sharing state."""
        return HmacDrbg(self.generate(32), personalization=label)
