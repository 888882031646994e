"""Pluggable crypto backend: ``pure`` pseudocode vs ``accel``.

Every virtual-time number in the reproduction is paid for in real CPU:
all randomness flows through :class:`~repro.crypto.drbg.HmacDrbg` (three
HMAC-SHA256 calls per generate), every PCR extend and SLB measurement
through SHA-1 (a 256 KB SKINIT measurement is ~4096 compression rounds),
and every quote, key certification and sealed-key confirmation through
RSA (PKCS#1 v1.5 over 1024-bit keys, primes found by Miller–Rabin).
With hand-rolled reference implementations that cost is interpreter
time, not crypto time.

This module makes the primitive layer pluggable:

``pure``
    The repository's own reference implementations: FIPS-pseudocode
    hashes (:mod:`repro.crypto.sha1`, :mod:`repro.crypto.sha256`,
    :func:`repro.crypto.hmac_impl.hmac_digest`) and schoolbook
    square-and-multiply RSA (:func:`repro.crypto.modexp.modexp_binary`
    under the same CRT recombination).  The reference arm.

``accel``
    ``hashlib`` / ``hmac`` from the standard library for hashes, and
    CPython's built-in three-argument ``pow`` (a C windowed
    exponentiation) with cached per-key CRT contexts for RSA.
    Identical output by construction; the differential fuzz tests in
    ``tests/test_crypto_backend.py`` enforce bit-for-bit agreement
    across block boundaries, DRBG streams, and RSA
    modexp/sign/verify across key sizes.

The backend affects **wall-clock only**.  Virtual-time results are a
pure function of seed + schedule (see DESIGN.md "determinism
contract"); swapping backends can never change an emitted number, only
how fast it is computed.

Selection: ``accel`` by default, overridable with the
``REPRO_CRYPTO_BACKEND`` environment variable, programmatically with
:func:`set_backend`, or per-scope with :func:`use_backend`.  Callers
that want to fail fast on a bad name *before* starting work (argument
parsing, pool worker initializers) use :func:`resolve_backend_name`.

The module-level :func:`rsa_modexp` / :func:`rsa_sign_crt` /
:func:`rsa_verify` entry points dispatch RSA operations through the
active backend and count them (:func:`rsa_op_counts`), so the bench
runner can record per-cell RSA-op counters alongside wall time.
"""

from __future__ import annotations

import hashlib
import hmac as _std_hmac
import os
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

from repro.crypto.modexp import CrtContext, modexp_binary

DEFAULT_BACKEND = "accel"
ENV_VAR = "REPRO_CRYPTO_BACKEND"

BACKEND_NAMES = ("pure", "accel")

#: Per-key CRT context caches are bounded: the simulation's live key
#: population is tiny (EK/SRK/AIK/signing key per platform plus CA
#: keys), so this is a correctness backstop, not a tuning knob.
CRT_CONTEXT_LIMIT = 256


class _CrtContextCache:
    """Bounded per-key :class:`CrtContext` memo shared by the arms.

    Keyed on the full private-key CRT tuple, so two distinct keys can
    never alias; a context is a pure function of its key, so a cached
    hit is bit-identical to a cold build.
    """

    def __init__(self, limit: int = CRT_CONTEXT_LIMIT) -> None:
        self._limit = limit
        self._entries: Dict[Tuple[int, int, int, int, int], CrtContext] = {}

    def get(self, key) -> CrtContext:
        cache_key = (key.p, key.q, key.d_p, key.d_q, key.q_inv)
        ctx = self._entries.get(cache_key)
        if ctx is None:
            if len(self._entries) >= self._limit:
                self._entries.pop(next(iter(self._entries)))
            ctx = CrtContext.from_key(key)
            self._entries[cache_key] = ctx
        return ctx


class PureBackend:
    """The in-repo reference implementations (pseudocode arm)."""

    name = "pure"

    def __init__(self) -> None:
        # Imported lazily: this module must stay importable before (and
        # by) repro.crypto.sha1/sha256, which dispatch through us.
        from repro.crypto.hmac_impl import hmac_digest
        from repro.crypto.sha1 import Sha1
        from repro.crypto.sha256 import Sha256

        self._sha1_cls = Sha1
        self._sha256_cls = Sha256
        self._hmac_digest = hmac_digest
        self._crt_contexts = _CrtContextCache()

    def sha1(self, data: bytes) -> bytes:
        return self._sha1_cls(data).digest()

    def sha256(self, data: bytes) -> bytes:
        return self._sha256_cls(data).digest()

    def new_sha1(self, data: bytes = b""):
        return self._sha1_cls(data)

    def new_sha256(self, data: bytes = b""):
        return self._sha256_cls(data)

    def hmac_sha1(self, key: bytes, message: bytes) -> bytes:
        return self._hmac_digest(key, message, self._sha1_cls)

    def hmac_sha256(self, key: bytes, message: bytes) -> bytes:
        return self._hmac_digest(key, message, self._sha256_cls)

    # -- RSA: schoolbook square-and-multiply (the reference arm) -------
    def rsa_modexp(self, base: int, exp: int, mod: int) -> int:
        return modexp_binary(base, exp, mod)

    def rsa_sign_crt(self, key, c: int) -> int:
        return self._crt_contexts.get(key).sign(c, modexp_binary)

    def rsa_verify(self, public, m: int) -> int:
        return modexp_binary(m, public.e, public.n)


class AccelBackend:
    """``hashlib``/``hmac``/built-in ``pow`` — same functions, C speed.

    For RSA the C implementation behind three-argument ``pow`` *is* a
    windowed modular exponentiation; at the operand sizes used here it
    beats every Python-level strategy (including the Montgomery /
    fixed-window code in :mod:`repro.crypto.modexp`, which pays
    interpreter dispatch per multiplication — the ``rsax`` microbench
    cell records the comparison each run).  The accel arm therefore
    dispatches modexp to ``pow`` and spends its effort where Python
    overhead actually lives: precomputed, cached per-key CRT contexts
    for private operations.
    """

    name = "accel"

    def __init__(self) -> None:
        self._crt_contexts = _CrtContextCache()

    def sha1(self, data: bytes) -> bytes:
        return hashlib.sha1(bytes(data)).digest()

    def sha256(self, data: bytes) -> bytes:
        return hashlib.sha256(bytes(data)).digest()

    def new_sha1(self, data: bytes = b""):
        return hashlib.sha1(bytes(data))

    def new_sha256(self, data: bytes = b""):
        return hashlib.sha256(bytes(data))

    def hmac_sha1(self, key: bytes, message: bytes) -> bytes:
        return _std_hmac.digest(key, message, "sha1")

    def hmac_sha256(self, key: bytes, message: bytes) -> bytes:
        return _std_hmac.digest(key, message, "sha256")

    # -- RSA: built-in pow + cached CRT contexts -----------------------
    def rsa_modexp(self, base: int, exp: int, mod: int) -> int:
        return pow(base, exp, mod)

    def rsa_sign_crt(self, key, c: int) -> int:
        return self._crt_contexts.get(key).sign(c, pow)

    def rsa_verify(self, public, m: int) -> int:
        return pow(m, public.e, public.n)


_FACTORIES = {"pure": PureBackend, "accel": AccelBackend}

#: The active backend instance.  ``None`` until first use so the
#: environment variable is read lazily (imports must not depend on
#: process environment order).
_active = None


def _resolve_default() -> str:
    name = os.environ.get(ENV_VAR, DEFAULT_BACKEND)
    if name not in _FACTORIES:
        raise ValueError(
            f"{ENV_VAR}={name!r}: unknown crypto backend "
            f"(choose from {', '.join(BACKEND_NAMES)})"
        )
    return name


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Validate a backend choice *eagerly*, before any work starts.

    ``None`` resolves the ``REPRO_CRYPTO_BACKEND`` environment variable
    (default ``accel``).  Raises :class:`ValueError` naming the bad
    value — callers doing argument parsing or pool-worker init use this
    so a typo fails up front instead of at the first crypto call deep
    inside a minutes-long run.
    """
    resolved = _resolve_default() if name is None else name
    if resolved not in _FACTORIES:
        source = f"{ENV_VAR}=" if name is None else ""
        raise ValueError(
            f"{source}{resolved!r}: unknown crypto backend "
            f"(choose from {', '.join(BACKEND_NAMES)})"
        )
    return resolved


def get_backend():
    """The active backend, initializing from ``REPRO_CRYPTO_BACKEND``."""
    global _active
    if _active is None:
        _active = _FACTORIES[_resolve_default()]()
    return _active


def backend_name() -> str:
    """Name of the active backend (``pure`` or ``accel``)."""
    return get_backend().name


def set_backend(name: Optional[str]) -> str:
    """Select the active backend; returns the *previous* backend's name.

    ``None`` re-resolves the default (environment variable, else
    ``accel``).
    """
    global _active
    previous = backend_name()
    if name is None:
        name = _resolve_default()
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown crypto backend {name!r} "
            f"(choose from {', '.join(BACKEND_NAMES)})"
        )
    if name != previous:
        _active = _FACTORIES[name]()
    return previous


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Scoped backend selection (tests and ablation arms)::

        with use_backend("pure"):
            ...  # all hashing goes through the FIPS pseudocode
    """
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


# ---------------------------------------------------------------------------
# RSA entry points: dispatch + op accounting
# ---------------------------------------------------------------------------

#: Counted RSA operations since process start (or the last reset).
#: Counts are a pure function of the simulated work — identical across
#: backend arms and worker placements — so the bench runner records
#: them per cell next to wall time.
_RSA_OPS = {"modexp": 0, "sign_crt": 0, "verify": 0}


def rsa_modexp(base: int, exp: int, mod: int) -> int:
    """``base^exp mod n`` through the active backend (Miller–Rabin
    witnesses, raw exponentiations)."""
    _RSA_OPS["modexp"] += 1
    return get_backend().rsa_modexp(base, exp, mod)


def rsa_sign_crt(key, c: int) -> int:
    """Private-key operation ``c^d mod n`` via CRT through the active
    backend; ``key`` is an :class:`~repro.crypto.rsa.RsaKeyPair`."""
    _RSA_OPS["sign_crt"] += 1
    return get_backend().rsa_sign_crt(key, c)


def rsa_verify(public, m: int) -> int:
    """Public-key operation ``m^e mod n`` through the active backend
    (signature verification and encryption share it)."""
    _RSA_OPS["verify"] += 1
    return get_backend().rsa_verify(public, m)


def rsa_op_counts() -> Dict[str, int]:
    """Snapshot of the RSA op counters (modexp / sign_crt / verify)."""
    return dict(_RSA_OPS)
