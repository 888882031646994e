"""The crypto backend: ``hashlib``, ``hmac`` and built-in ``pow``.

Every virtual-time number in the reproduction is paid for in real CPU:
all randomness flows through :class:`~repro.crypto.drbg.HmacDrbg` (three
HMAC-SHA256 calls per generate), every PCR extend and SLB measurement
through SHA-1, and every quote, key certification and sealed-key
confirmation through RSA (PKCS#1 v1.5 over 1024-bit keys, primes found
by Miller–Rabin).  :class:`AccelBackend` computes each primitive with
the standard library: ``hashlib`` / ``hmac`` for hashes and MACs, and
CPython's three-argument ``pow`` (a C windowed exponentiation) with
cached per-key CRT contexts for RSA.

Every hash/HMAC entry point (:func:`repro.crypto.sha1.sha1`,
:func:`repro.crypto.hmac_impl.hmac_sha256`, …) and the three counted
RSA entry points below call a method of the one module-level
:data:`BACKEND` instance, so a tracer that wraps :class:`AccelBackend`'s
methods (``perf/layers.py``) sees every primitive call.

The module-level :func:`rsa_modexp` / :func:`rsa_sign_crt` /
:func:`rsa_verify` entry points count what they dispatch
(:func:`rsa_op_counts`), so the bench runner can record per-cell
RSA-op counters alongside wall time.
"""

from __future__ import annotations

import hashlib
import hmac as _std_hmac
from typing import Dict, Tuple

from repro.crypto.modexp import CrtContext

#: Per-key CRT context caches are bounded: the simulation's live key
#: population is tiny (EK/SRK/AIK/signing key per platform plus CA
#: keys), so this is a correctness backstop, not a tuning knob.
CRT_CONTEXT_LIMIT = 256


class _CrtContextCache:
    """Bounded per-key :class:`CrtContext` memo.

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


class AccelBackend:
    """``hashlib``/``hmac``/built-in ``pow``: the primitives at C speed.

    For RSA the C implementation behind three-argument ``pow`` *is* a
    windowed modular exponentiation; at the operand sizes used here it
    beats every Python-level strategy, so the effort goes where Python
    overhead actually lives: precomputed, cached per-key CRT contexts
    for private operations.
    """

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
        return self._crt_contexts.get(key).sign(c)

    def rsa_verify(self, public, m: int) -> int:
        return pow(m, public.e, public.n)


#: The instance every entry point dispatches to.  Callers go through it
#: at call time (``BACKEND.sha1(...)``), never through a bound method
#: captured at import, so a wrapper installed on the class is seen.
BACKEND = AccelBackend()


def set_backend(name: str) -> None:
    """Check a backend name: ``"accel"`` is the only one there is.

    Raises :class:`ValueError` naming any other value.  Its one caller
    is ``perf/worker.py``, which selects ``"accel"`` before each round.
    """
    if name != "accel":
        raise ValueError(
            f"unknown crypto backend {name!r} (the only backend is 'accel')"
        )


# ---------------------------------------------------------------------------
# RSA entry points: dispatch + op accounting
# ---------------------------------------------------------------------------

#: Counted RSA operations since process start (or the last reset).
#: Counts are a pure function of the simulated work — identical across
#: worker placements — so the bench runner records them per cell next
#: to wall time.
_RSA_OPS = {"modexp": 0, "sign_crt": 0, "verify": 0}


def rsa_modexp(base: int, exp: int, mod: int) -> int:
    """``base^exp mod n`` (Miller–Rabin witnesses, raw exponentiations)."""
    _RSA_OPS["modexp"] += 1
    return BACKEND.rsa_modexp(base, exp, mod)


def rsa_sign_crt(key, c: int) -> int:
    """Private-key operation ``c^d mod n`` via CRT; ``key`` is an
    :class:`~repro.crypto.rsa.RsaKeyPair`."""
    _RSA_OPS["sign_crt"] += 1
    return BACKEND.rsa_sign_crt(key, c)


def rsa_verify(public, m: int) -> int:
    """Public-key operation ``m^e mod n`` (signature verification and
    encryption share it)."""
    _RSA_OPS["verify"] += 1
    return BACKEND.rsa_verify(public, m)


def rsa_op_counts() -> Dict[str, int]:
    """Snapshot of the RSA op counters (modexp / sign_crt / verify)."""
    return dict(_RSA_OPS)
