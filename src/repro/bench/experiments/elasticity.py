"""Experiment E4: elastic shard pool under a flash crowd.

F6 established what a *fixed* pool does at the stampede: it sheds,
loudly.  E4 closes the loop the paper's captcha-scale pitch implies —
the pool should **grow into** the spike and **shrink out of** the
trough, moving account ranges between shards live, without weakening
any security property.  Two measurements:

* **Elastic day** — an open-loop half-hour "day" (diurnal curve, one
  mid-day flash crowd sized to overrun the starting single shard)
  offered to a pool governed by :class:`~repro.server.rebalance
  .AutoScaler`.  Recorded per row: availability over the whole day and
  *during the migration windows specifically* (the acceptance bar is
  ≥99% while ranges are moving), goodput, p95 session latency, scale
  events, and the rebalance cost — snapshot + WAL-tail bytes and
  virtual migration seconds (both deterministic, so they stay in the
  determinism-checked results; the wall-clock cost lands in
  ``BENCH_wall.json`` as ``rebalance_wall_s``).
* **Round trip** — a quiesced journaled pool is scaled up and the new
  shard drained back out; the survivor pool's ``state_digest()`` must
  be **bit-identical** to a pool that never scaled.  This is the
  security argument in one bit: migration moved every account, cookie,
  transaction and nonce record exactly once and invented nothing.

Everything rides the shared metric registry and virtual clock; an
elastic run is as deterministic as a static one (asserted across
worker counts and crypto backends in ``tests/test_elasticity.py``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.bench.loadgen import LOAD_HOST, FlashCrowd, LoadEngine, SessionMix
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_rsa_keypair
from repro.net.network import LinkSpec, Network
from repro.server.bank import BankServer
from repro.server.policy import VerifierPolicy
from repro.server.provider import ServiceProvider
from repro.server.rebalance import AutoScaler, ShardPoolManager
from repro.server.router import build_sharded_pool
from repro.sim import Simulator
from repro.os.disk import UntrustedDisk

ROUTER_HOST = "pool.elastic"

#: Mid-day stampede for the 1800 s compressed day, sized so population
#: 10^4's peak (~350 sessions/s) overruns one shard (~265 sessions/s at
#: the modeled ~3.75 ms of verify compute per mixed session) while two
#: shards absorb it with headroom — the scale-up has to *matter*, and
#: the scaled pool has to be sufficient, for the availability bar to be
#: a statement about elasticity rather than raw capacity.
SPIKE_START_S = 900.0
SPIKE_DURATION_S = 10.0
SPIKE_MULTIPLIER = 60.0

#: How long past each flip a session still counts as migration-affected.
MIGRATION_TAIL_S = 2.0

#: E4's session mix drops the long-lived re-login shape: concurrent
#: sessions of a Zipf-hot account invalidate each other's cookies (each
#: re-login revokes the previous cookie end to end), which under a
#: flash crowd produces a cookie-churn failure cascade that exists with
#: or without rebalancing — R2/F6 own that phenomenon.  E4 keeps the
#: one-shot and batch shapes so every failure in the migration window
#: is attributable to the migration itself.
E4_MIX = SessionMix(one_shot=0.75, batch=0.25, long_lived=0.0)


def _shard_factory(simulator, network, policy, disk, cls=ServiceProvider):
    """Builder for mid-run shards, matching ``build_sharded_pool``'s
    construction (class, workers, journaling) so migrated state lands
    on an identically-shaped host."""
    def make(host: str) -> ServiceProvider:
        if not network.is_attached(host):
            network.attach(host, LinkSpec.lan())
        shard = cls(simulator, network, host, policy, workers=1)
        if disk is not None:
            shard.attach_journal(disk)
        return shard

    return make


def e4_elastic_rows(
    users: int = 10_000,
    day_seconds: float = 1_800.0,
    spike_start: float = SPIKE_START_S,
    spike_duration_s: float = SPIKE_DURATION_S,
    spike_multiplier: float = SPIKE_MULTIPLIER,
    start_shards: int = 1,
    max_shards: int = 3,
    seed: int = 131,
    max_outstanding: int = 1_000,
    up_outstanding: int = 48,
    roundtrip_accounts: int = 8,
) -> Dict[str, object]:
    """E4: one elastic-day row plus the drained-pool digest check.

    Returns ``{"rows": [row], "roundtrip": {...}}``; every field except
    ``wall_s``/``rebalance_wall_s`` is virtual-time deterministic.
    """
    # Warm the DRBG-state-keyed keygen replay cache so the wall numbers
    # do not absorb one-time RSA key generation.
    warm = HmacDrbg(b"e4-elastic", personalization=str(seed).encode())
    generate_rsa_keypair(512, warm.fork(b"signing"))

    row = _elastic_day(
        users=users,
        day_seconds=day_seconds,
        spike=FlashCrowd(
            start=spike_start,
            duration=spike_duration_s,
            multiplier=spike_multiplier,
        ),
        start_shards=start_shards,
        max_shards=max_shards,
        seed=seed,
        max_outstanding=max_outstanding,
        up_outstanding=up_outstanding,
    )
    roundtrip = _roundtrip_digest_check(accounts=roundtrip_accounts, seed=seed)
    return {"rows": [row], "roundtrip": roundtrip}


def _elastic_day(
    users: int,
    day_seconds: float,
    spike: FlashCrowd,
    start_shards: int,
    max_shards: int,
    seed: int,
    max_outstanding: int,
    up_outstanding: int,
) -> Dict[str, object]:
    sim = Simulator(seed=seed)
    network = Network(sim)
    network.attach(LOAD_HOST, LinkSpec.lan())
    drbg = HmacDrbg(b"e4-elastic", personalization=str(seed).encode())
    signing_key = generate_rsa_keypair(512, drbg.fork(b"signing"))
    policy = VerifierPolicy()

    router = build_sharded_pool(
        sim, network, ROUTER_HOST, policy,
        shard_count=start_shards, workers_per_shard=1,
    )
    manager = ShardPoolManager(
        sim, router, _shard_factory(sim, network, policy, disk=None)
    )
    scaler = AutoScaler(
        sim, router, manager,
        min_shards=start_shards, max_shards=max_shards,
        tick_s=1.0, up_ticks=2, up_outstanding=up_outstanding,
        down_ticks=30, cooldown_s=60.0,
    )

    engine = LoadEngine(
        sim, router,
        users=users,
        signing_key=signing_key,
        accounts=max(16, min(users // 20, 2_000)),
        day_seconds=day_seconds,
        spikes=[spike],
        mix=E4_MIX,
        max_outstanding=max_outstanding,
        max_attempts=6,
    )
    engine.setup_accounts()
    scaler.start()

    wall_started = time.perf_counter()
    report = engine.run_day()
    wall_s = time.perf_counter() - wall_started

    totals = manager.totals()
    windows = _migration_windows(manager)
    mig_done, mig_total = _window_outcomes(engine.session_log, windows)
    metric = sim.metrics.counters()
    shards_peak = max(
        (event["shards"] for event in scaler.events), default=start_shards
    )
    admitted = report.arrivals - report.dropped_cap
    finished = report.sessions_completed + report.sessions_failed
    return {
        "users": users,
        "shards_start": start_shards,
        "shards_peak": shards_peak,
        "shards_end": len(router.shards),
        "arrivals": report.arrivals,
        "completed": report.sessions_completed,
        "failed": report.sessions_failed,
        "dropped_cap": report.dropped_cap,
        "availability": (
            report.sessions_completed / finished if finished else 0.0
        ),
        "availability_migration": (
            mig_done / mig_total if mig_total else 1.0
        ),
        "migration_sessions": mig_total,
        "goodput_cps": report.confirms_completed / day_seconds,
        "p95_session_ms": 1000 * report.p95_session_s,
        "shed": metric.get("router.shed", 0),
        "retries": metric.get("loadgen.retries", 0),
        "scale_ups": sum(
            1 for e in scaler.events if e["action"] == "scale_up"
        ),
        "drains": sum(1 for e in scaler.events if e["action"] == "drain"),
        "cookie_rewrites": metric.get("router.cookie_rewrites", 0),
        "dual_read_redirects": metric.get("router.dual_read_redirects", 0),
        "accounts_moved": int(totals["accounts_moved"]),
        "rebalance_bytes": int(
            totals["snapshot_bytes"] + totals["tail_bytes"]
        ),
        "rebalance_virtual_s": round(totals["migration_s"], 6),
        "admitted": admitted,
        "wall_s": wall_s,
    }


def _migration_windows(manager: ShardPoolManager) -> List[Tuple[float, float]]:
    """[start, flip + MIGRATION_TAIL_S] per migration — the intervals
    during which availability must hold despite moving ranges."""
    return [
        (r.started_at, r.flipped_at + MIGRATION_TAIL_S)
        for r in manager.reports
        if r.kind in ("scale_up", "drain")
    ]


def _window_outcomes(
    session_log: List[tuple], windows: List[Tuple[float, float]]
) -> Tuple[int, int]:
    completed = total = 0
    for ended_at, ok in session_log:
        if any(lo <= ended_at <= hi for lo, hi in windows):
            total += 1
            completed += 1 if ok else 0
    return completed, total


def _roundtrip_digest_check(accounts: int, seed: int) -> Dict[str, object]:
    """Scale-up + drain on a quiesced journaled pool must reproduce the
    never-scaled pool's digest bit-for-bit at the same virtual time."""

    def run(scale: bool):
        sim = Simulator(seed=seed)
        network = Network(sim)
        network.attach(LOAD_HOST, LinkSpec.lan())
        policy = VerifierPolicy()
        disk = UntrustedDisk()
        router = build_sharded_pool(
            sim, network, ROUTER_HOST, policy,
            shard_count=2, provider_factory=BankServer,
            workers_per_shard=1, journal_disk=disk,
        )
        drbg = HmacDrbg(b"e4-roundtrip", personalization=str(seed).encode())
        signing_key = generate_rsa_keypair(512, drbg.fork(b"signing"))
        from repro.core.confirmation_pal import confirmation_digest
        from repro.crypto.pkcs1 import pkcs1_sign

        for index in range(accounts):
            name = f"rt-{index:04d}"
            router.endpoint.call_sync(
                LOAD_HOST, "register",
                {"account": name, "password": "pw",
                 "opening_balance": 1_000_000},
            )
            cookie = router.endpoint.call_sync(
                LOAD_HOST, "login", {"account": name, "password": "pw"}
            )["set_session"]
            router.shard_for_account(name).register_signing_key(
                name, signing_key.public
            )
            challenge = router.endpoint.call_sync(
                LOAD_HOST, "tx.request",
                {"kind": "transfer", "account": name, "session": cookie,
                 "f.to": "sink", "f.amount": 100 + index},
            )
            digest = confirmation_digest(
                challenge["text"], challenge["nonce"], b"accept"
            )
            router.endpoint.call_sync(
                LOAD_HOST, "tx.confirm",
                {"tx_id": challenge["tx_id"], "decision": b"accept",
                 "evidence": "signed",
                 "signature": pkcs1_sign(signing_key, digest, prehashed=True),
                 "session": cookie},
            )
        manager = ShardPoolManager(
            sim, router,
            _shard_factory(sim, network, policy, disk=None, cls=BankServer),
        )
        if scale:
            manager.scale_up()
            sim.run(until=200.0)
            manager.drain_shard(f"{ROUTER_HOST}!shard2")
            sim.run(until=400.0)
        else:
            sim.run(until=400.0)
        return router.state_digest(), manager.totals(), len(router.shards)

    wall_started = time.perf_counter()
    scaled_digest, totals, shards_after = run(scale=True)
    reference_digest, _, _ = run(scale=False)
    rebalance_wall_s = time.perf_counter() - wall_started
    return {
        "accounts": accounts,
        "digest_match": scaled_digest == reference_digest,
        "shards_after": shards_after,
        "accounts_moved": int(totals["accounts_moved"]),
        "rebalance_bytes": int(
            totals["snapshot_bytes"] + totals["tail_bytes"]
        ),
        "rebalance_virtual_s": round(totals["migration_s"], 6),
        "rebalance_wall_s": rebalance_wall_s,
    }


def main(argv: Optional[List[str]] = None) -> int:
    """CLI quick-start: ``python -m repro.bench.experiments.elasticity
    --shards auto`` runs the elastic day; ``--shards N`` pins the pool
    size (no autoscaler) for an F6-style fixed baseline."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description="E4: elastic shard pool")
    parser.add_argument(
        "--shards", default="auto",
        help="'auto' for the autoscaled pool, or a fixed shard count",
    )
    parser.add_argument("--users", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=131)
    args = parser.parse_args(argv)
    if args.shards == "auto":
        result = e4_elastic_rows(users=args.users, seed=args.seed)
    else:
        fixed = int(args.shards)
        result = e4_elastic_rows(
            users=args.users, seed=args.seed,
            start_shards=fixed, max_shards=fixed,
        )
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
