"""Experiment F6: open-loop population sweep — users per wall-second.

The paper positions one-device confirmation as captcha-scale
infrastructure, so the question F6 answers is not "how fast is one
flow" (T3) or "where does a shard saturate" (F3-S) but **how large a
daily population can this codebase simulate, and what happens at the
stampede**.  `repro.bench.loadgen` offers a full diurnal day of traffic
— Zipf-skewed accounts, mixed session lifetimes, one noon flash crowd —
to the sharded pool, swept over population 10³ → 10⁵ users/day:

* **Headline**: ``users_per_wall_s`` — simulated users per second of
  real time, the kernel-throughput number tracked in
  ``BENCH_wall.json`` (wall-derived, so it is stripped from the
  determinism-checked results like every :data:`~repro.bench.runner
  .WALL_KEYS` field).
* **Saturation is explicit, never silent**: the noon stampede is sized
  so small populations absorb it while the largest overruns pool
  capacity — the router sheds (``router.shed``), the engine's
  admission cap drops countedly (``loadgen.dropped_cap``), bounded
  retries fail loudly, and every column lands in the report.
* **Ring stress**: Zipf account skew concentrates load on few hot
  identities; ``ring_imbalance`` (max/mean forwards per shard) shows
  what that does to the consistent-hash ring.

All saturation counters flow through the shared
:class:`~repro.sim.metrics.MetricRegistry` (``sim.metrics.counters()``)
exactly like R1/R2's health counters — no experiment-private counting.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from repro.bench.loadgen import LOAD_HOST, FlashCrowd, LoadEngine
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_rsa_keypair
from repro.net.network import LinkSpec, Network
from repro.server.policy import VerifierPolicy
from repro.server.router import build_sharded_pool
from repro.sim import Simulator

ROUTER_HOST = "pool.example"

#: The noon stampede: short and violent (a breach-notification herd
#: holding ~18% of the day's arrivals in 30 seconds), sized so the 10⁵
#: population's peak (~600 sessions/s) overruns a 2-shard pool (~570
#: flows/s) while 10⁴ and below absorb it — the shed/dropped columns
#: must be non-trivial only where saturation is real.
SPIKE_START_S = 43_200.0
SPIKE_DURATION_S = 30.0
SPIKE_MULTIPLIER = 400.0


def f6_open_loop_rows(
    populations: Sequence[int] = (1_000, 10_000, 100_000),
    shards: int = 2,
    seed: int = 113,
    spike_multiplier: float = SPIKE_MULTIPLIER,
    spike_duration_s: float = SPIKE_DURATION_S,
    max_outstanding: int = 1_000,
) -> List[Dict]:
    """Rows: users, arrivals, completed, failed, dropped_cap, confirms,
    goodput_cps, p95_session_ms, shed, retries, spike_arrivals,
    hot_share, ring_imbalance, users_per_wall_s, wall_s.

    One full simulated day (86 400 virtual seconds) per population.
    ``wall_s`` and ``users_per_wall_s`` time ``run_day`` — account
    setup is one-time provisioning, not daily serving cost.  The timer
    also covers the day's arrival plan, which ``run_day`` computes on
    first use.
    """
    # Warm the DRBG-state-keyed keygen replay cache so the first row's
    # wall-clock does not absorb one-time RSA key generation.
    warm = HmacDrbg(b"f6-openloop", personalization=str(seed).encode())
    generate_rsa_keypair(512, warm.fork(b"signing"))

    rows: List[Dict] = []
    for users in populations:
        rows.append(
            _run_one(
                users=users,
                shards=shards,
                seed=seed,
                spike=FlashCrowd(
                    start=SPIKE_START_S,
                    duration=spike_duration_s,
                    multiplier=spike_multiplier,
                ),
                max_outstanding=max_outstanding,
            )
        )
    return rows


def _run_one(
    users: int,
    shards: int,
    seed: int,
    spike: FlashCrowd,
    max_outstanding: int,
) -> Dict:
    sim = Simulator(seed=seed)
    network = Network(sim)
    network.attach(LOAD_HOST, LinkSpec.lan())
    drbg = HmacDrbg(b"f6-openloop", personalization=str(seed).encode())
    signing_key = generate_rsa_keypair(512, drbg.fork(b"signing"))
    policy = VerifierPolicy()

    # Default queue depth (64): unlike F3-S, which lets queues grow to
    # trace the latency knee, F6 *wants* the router's shedding path — at
    # the stampede the pool must refuse loudly, not buffer silently.
    router = build_sharded_pool(
        sim, network, ROUTER_HOST, policy,
        shard_count=shards, workers_per_shard=1,
    )

    engine = LoadEngine(
        sim, router,
        users=users,
        signing_key=signing_key,
        accounts=max(16, min(users // 20, 2_000)),
        spikes=[spike],
        max_outstanding=max_outstanding,
    )
    engine.setup_accounts()

    wall_started = time.perf_counter()
    report = engine.run_day()
    wall_s = time.perf_counter() - wall_started

    metric = sim.metrics.counters()
    forwards = list(router.forwards_by_shard.values())
    mean_forwards = sum(forwards) / len(forwards) if forwards else 0.0
    day = engine.curve.day_seconds
    return {
        "users": users,
        "arrivals": report.arrivals,
        "completed": report.sessions_completed,
        "failed": report.sessions_failed,
        "dropped_cap": metric.get("loadgen.dropped_cap", 0),
        "confirms": metric.get("loadgen.confirms", 0),
        "goodput_cps": report.confirms_completed / day,
        "p95_session_ms": 1000 * report.p95_session_s,
        "shed": metric.get("router.shed", 0),
        "retries": metric.get("loadgen.retries", 0),
        "spike_arrivals": report.spike_arrivals,
        "hot_share": (
            report.hot_account_arrivals / report.arrivals
            if report.arrivals
            else 0.0
        ),
        "ring_imbalance": (
            max(forwards) / mean_forwards if mean_forwards else 0.0
        ),
        "users_per_wall_s": users / wall_s if wall_s > 0 else 0.0,
        "wall_s": wall_s,
    }
