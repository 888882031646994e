"""One benchmark round in a fresh interpreter.

``perf/bench.py`` starts this script once per round, one at a time::

    python3 perf/worker.py --workload openloop_day --seed 7 [--trace] [--size tiny]

It sets up the workload's world, times the set-up and the timed phase
separately (imports are not timed), runs the output checks and prints
the round's result as one JSON line.  With ``--trace`` the layer
wrappers of ``perf/layers.py`` are installed before set-up and record
during the timed phase only.

Timings are also given at nominal machine speed.  On a shared host the
same code can run at half speed for minutes at a time, because of other
tenants.  A :class:`SpeedReference` runs a fixed pure-Python
workload interleaved with the measured one — at every slice edge of the
timed phase, and before and after set-up — and scales each measured
time by ``REF_UNIT_NOMINAL_S`` ÷ the reference's own time per unit.
The reference's time is excluded from the measured times.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import resource
import struct
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    # Benchmark this checkout's program or nothing; never an installed
    # copy found elsewhere on the path.
    raise SystemExit(f"worker: no program source under {SRC}")
sys.path.insert(0, str(SRC))

from layers import LayerTrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.crypto.backend import set_backend  # noqa: E402

#: Seconds per reference unit on a quiet machine of the kind the
#: baseline was recorded on.  It sets the scale of normalized times only.
REF_UNIT_NOMINAL_S = 0.00045
#: Reference units per slice edge of the timed phase (about 3 % of it),
#: and before and after set-up.
UNITS_PER_SLICE = 2
UNITS_AROUND_SETUP = 60

#: A 255-bit modulus and exponent: one exponentiation costs about what
#: half of a 512-bit CRT signature does.
_MODULUS = (1 << 255) - 19
_EXPONENT = (1 << 254) + 12345


class _Item:
    __slots__ = ("key", "rank")

    def __init__(self, key: str, rank: int) -> None:
        self.key = key
        self.rank = rank


def _reference_unit() -> int:
    """Fixed work in the proportions the workloads spend their time:
    about 60 % interpreter (objects, a dict, a heap, bytes), 25 %
    big-integer exponentiation and 10 % hashing, measured on a loaded
    host to track the workloads' own slowdown best.  No object
    outlives the call, so it leaves the collector's counts as it found
    them."""
    table = {}
    heap = []
    parts = []
    for i in range(300):
        item = _Item(str(i), i * 7919 % 1000)
        table[item.key] = item
        heapq.heappush(heap, (item.rank, i, item))
        parts.append(struct.pack(">I", i))
    while heap:
        table.get(heapq.heappop(heap)[2].key)
    digest = b"".join(parts)
    for _ in range(100):
        digest = hashlib.sha256(digest).digest()
    return pow(int.from_bytes(digest, "big"), _EXPONENT, _MODULUS)


class SpeedReference:
    """Times reference units to tell how fast the machine runs now."""

    def __init__(self) -> None:
        self.spent_s = 0.0
        self.units = 0

    def tick(self, units: int = UNITS_PER_SLICE) -> None:
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        for _ in range(units):
            _reference_unit()
        self.spent_s += time.perf_counter() - started
        self.units += units
        if collecting:
            gc.enable()

    @property
    def speed(self) -> float:
        """Nominal ÷ measured time per unit: < 1 on a slowed machine."""
        return REF_UNIT_NOMINAL_S * self.units / self.spent_s


def run_round(
    workload: str, seed: int, size: str = "full", traced: bool = False
) -> dict:
    """Set up, time and check one round; returns its plain-data result."""
    # The layer trace wraps the accel backend; the pure arm is a
    # reference implementation, not what the benchmark times.
    set_backend("accel")
    trace = LayerTrace() if traced else None
    if trace is not None:
        trace.install()
    try:
        world = WORKLOADS[workload](seed, size)
        around_setup = SpeedReference()
        gc.collect()
        around_setup.tick(UNITS_AROUND_SETUP)
        started = time.perf_counter()
        world.setup()
        setup_s = time.perf_counter() - started
        around_setup.tick(UNITS_AROUND_SETUP)
        gc.collect()

        during_run = SpeedReference()

        def on_slice() -> None:
            if trace is not None:
                trace.stop()
            during_run.tick()
            if trace is not None:
                trace.start()

        world.on_slice = on_slice
        if trace is not None:
            trace.start()
        started = time.perf_counter()
        world.run()
        run_s = time.perf_counter() - started - during_run.spent_s
        if trace is not None:
            trace.stop()
        world.on_slice = None
        result = world.finish()
    finally:
        if trace is not None:
            trace.uninstall()
    result.update({
        "workload": workload,
        "seed": seed,
        "size": size,
        "traced": traced,
        "setup_s": setup_s,
        "setup_nominal_s": setup_s * around_setup.speed,
        "run_s": run_s,
        "run_nominal_s": run_s * during_run.speed,
        "speed": during_run.speed,
        "plan_s": world.plan_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "trace": trace.snapshot() if trace is not None else None,
    })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = run_round(args.workload, args.seed, args.size, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
