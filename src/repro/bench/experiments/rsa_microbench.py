"""RSAX — microbenchmark of the two RSA modexp arms.

One cell that times both interchangeable ``base^exp mod n`` strategies
(`repro.crypto.modexp`) over the same deterministic keys and inputs:

* ``binary`` — schoolbook square-and-multiply (the ``pure`` arm),
* ``pow`` — CPython's built-in C windowed exponentiation (the
  ``accel`` arm).

Each row carries the measured wall microseconds per operation (a
:data:`~repro.bench.runner.WALL_KEYS` field, stripped from the
deterministic results) and an ``agree`` flag asserting bit-identity
against the built-in ``pow`` reference — so the artifact that records
the speedup also re-proves, every run, that the speedup changed
nothing but time.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.crypto.drbg import HmacDrbg
from repro.crypto.modexp import CrtContext, modexp_binary
from repro.crypto.rsa import generate_rsa_keypair

STRATEGIES: Tuple[Tuple[str, Callable[[int, int, int], int]], ...] = (
    ("binary", modexp_binary),
    ("pow", pow),
)


def _time_op(fn: Callable[[], int], iterations: int) -> float:
    """Best-of-N timing in µs.

    The minimum, not the mean: when the cell runs inside the parallel
    pool, a scheduler preemption landing inside one sub-millisecond
    measurement window inflates that sample ~10x, and a mean would
    poison the committed speedup ratios the CI gate compares against.
    The fastest observed run is the one closest to the true cost.
    """
    best = float("inf")
    for _ in range(iterations):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best * 1e6


def rsa_backend_microbench(
    bits_list: Sequence[int] = (512, 1024),
    iterations: int = 8,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Rows of ``{bits, strategy, op, us_per_op, agree}``.

    Ops are the two RSA primitives the protocol actually spends time
    in: ``sign`` (CRT private op over both half-size prime moduli) and
    ``verify`` (one full-size public op with e = 65537).  All inputs
    are derived from ``seed`` through the DRBG, so every strategy sees
    byte-identical work.
    """
    rows: List[Dict[str, object]] = []
    for bits in bits_list:
        drbg = HmacDrbg(b"rsax:" + seed.to_bytes(8, "big"))
        key = generate_rsa_keypair(bits, drbg)
        message = drbg.generate_below(key.n - 1) + 1
        crt = CrtContext.from_key(key)
        reference_sig = crt.sign(message, pow)
        reference_rec = pow(reference_sig, key.public.e, key.n)
        for name, modexp in STRATEGIES:
            signature = crt.sign(message, modexp)
            recovered = modexp(signature, key.public.e, key.n)
            rows.append({
                "bits": bits,
                "strategy": name,
                "op": "sign",
                "us_per_op": round(
                    _time_op(lambda: crt.sign(message, modexp), iterations), 2
                ),
                "agree": signature == reference_sig,
            })
            rows.append({
                "bits": bits,
                "strategy": name,
                "op": "verify",
                "us_per_op": round(
                    _time_op(
                        lambda: modexp(signature, key.public.e, key.n),
                        iterations,
                    ),
                    2,
                ),
                "agree": recovered == reference_rec,
            })
    return rows


def rsa_micro_summary(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Condense rsax rows into the ``rsa_micro`` wall-record entry.

    Per ``(op, bits)``: the pure-arm (``binary``) and accel-arm
    (``pow``) microseconds and their ratio — the machine-relative
    speedup that ``benchmarks/check_wall_regression.py`` gates (both
    numerator and denominator scale with the host, so the ratio
    travels across machines where raw µs do not).
    """
    by_key: Dict[str, Dict[str, float]] = {}
    for row in rows:
        key = f"{row['op']}_{row['bits']}"
        entry = by_key.setdefault(key, {})
        if row["strategy"] == "binary":
            entry["pure_us"] = row["us_per_op"]
        elif row["strategy"] == "pow":
            entry["accel_us"] = row["us_per_op"]
    for entry in by_key.values():
        if entry.get("accel_us") and entry.get("pure_us"):
            entry["speedup"] = round(entry["pure_us"] / entry["accel_us"], 2)
    return by_key
