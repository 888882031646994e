"""Experiment R3: chaos sweep over crash-safe live migration.

R2 established the pool's story for *steady-state* crash-stop faults;
E4 established *fault-free* elasticity.  R3 closes the square the
paper's deployment pitch actually lives in: scale events racing
crashes.  Two measurements:

* **Chaos day** — an open-loop day offered to a journaled
  :class:`~repro.server.bank.BankServer` pool while a deterministic
  fault plan crashes shards (optionally tearing their WAL tails
  mid-append), crashes the migration coordinator, and aims crashes at
  exact migration phases of scripted scale-up/drain events.  Each row
  reports availability, goodput, p95, migrations
  started/committed/aborted/resumed, and a full
  :class:`~repro.server.invariants.InvariantChecker` verdict — unique
  ownership, ring coverage, nonce single-use, ledger conservation,
  exactly-once — after every component has recovered.  The exact fault
  plan (every window of every kind) is echoed into the result so a red
  run is reproducible from the artifact alone.
* **Crash-anywhere matrix** — on a quiesced pool, force exactly one
  crash per cell: every migration phase × every victim (source shard,
  target shard, migration coordinator), for both scale-up and drain.
  Every cell must resolve the way the write-ahead protocol promises —
  commit logged → resumed, otherwise cleanly aborted — and the
  recovered pool's ``state_digest()`` must be bit-identical to the
  corresponding never-crashed reference (the unscaled pool for aborts,
  the cleanly-scaled/drained pool for commits).

Everything — crashes included — is a pure function of the seed: fault
windows come from dedicated named RNG streams, migration aiming draws
in control-plane event order, and rows are byte-identical across
worker counts and crypto backends.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.bench.experiments.availability import _replay_probe
from repro.bench.experiments.elasticity import E4_MIX, _shard_factory
from repro.bench.loadgen import LOAD_HOST, LoadEngine
from repro.core.confirmation_pal import confirmation_digest
from repro.core.protocol import EVIDENCE_SIGNED
from repro.crypto.drbg import HmacDrbg
from repro.crypto.pkcs1 import pkcs1_sign
from repro.crypto.rsa import generate_rsa_keypair
from repro.net.network import LinkSpec, Network
from repro.os.disk import UntrustedDisk
from repro.server.bank import BankServer
from repro.server.invariants import InvariantChecker
from repro.server.policy import VerifierPolicy
from repro.server.rebalance import ShardPoolManager
from repro.server.router import build_sharded_pool
from repro.sim import Simulator
from repro.sim.faults import FaultInjector

ROUTER_HOST = "pool.chaos"

#: Fault modes swept by the chaos day.  ``steady`` is R2-shaped
#: background crashing with no scale events; ``scripted`` adds
#: scale-up + drain events with migration-phase-aimed crashes;
#: ``torn`` crashes land mid-append and tear the victim's WAL tail.
MODES = ("steady", "scripted", "torn")

#: Scripted scale-event schedule, as fractions of the day.  Each point
#: is an *attempt*: a coordinator that is busy or mid-recovery simply
#: declines, and a later attempt retries.
SCALE_UP_AT = (0.25, 0.4)
DRAIN_AT = (0.6, 0.78)

#: Migration-phase crash plan for scripted rows: one pre-commit data
#: victim, one pre-commit coordinator kill, one post-commit target
#: kill — each protocol outcome (inline abort, recovery abort,
#: idempotent resume) stays exercised under live load.
AIMED_PLAN = (
    {"phase": "copy", "victim": "source", "probability": 0.5},
    {"phase": "ring_flip", "victim": "control", "probability": 0.5},
    {"phase": "dual_read", "victim": "target", "probability": 0.5},
)


class ChaosBank(BankServer):
    """R3's provider: a :class:`BankServer` whose accounts open with a
    balance that outlasts a whole day of Zipf-hot traffic, so every
    availability loss in a row is attributable to the fault plan
    rather than to deterministic insufficient-funds refusals."""

    OPENING_BALANCE_CENTS = 1_000_000_000

    def on_account_created(self, record, request) -> None:
        request = dict(request)
        request.setdefault("opening_balance", self.OPENING_BALANCE_CENTS)
        super().on_account_created(record, request)


# ----------------------------------------------------------------------
# Chaos day
# ----------------------------------------------------------------------
def r3_chaos_sweep(
    crash_rates=(0.0, 0.08),
    modes=MODES,
    users: int = 2_000,
    day_seconds: float = 300.0,
    shards: int = 3,
    recovery_s: float = 2.0,
    seed: int = 167,
    max_outstanding: int = 400,
    workers_per_shard: int = 1,
    matrix_accounts: int = 4,
) -> Dict[str, object]:
    """R3: mode × crash-rate day rows plus the crash-anywhere matrix.

    Returns ``{"rows": [...], "crash_matrix": {...},
    "fault_plans": {...}}``; every field except ``wall_s`` is
    virtual-time deterministic.  ``fault_plans`` maps each faulted
    row's id to its complete window plan, for artifact echo.
    """
    warm = HmacDrbg(b"r3-chaos", personalization=str(seed).encode())
    generate_rsa_keypair(512, warm.fork(b"signing"))

    rows: List[Dict] = []
    fault_plans: Dict[str, Dict] = {}
    for mode in modes:
        for crash_rate in crash_rates:
            if mode == "torn" and crash_rate == 0.0:
                continue  # identical to steady@0 by construction
            row, plan = _chaos_day(
                mode, crash_rate,
                users=users, day_seconds=day_seconds, shards=shards,
                recovery_s=recovery_s, seed=seed,
                max_outstanding=max_outstanding,
                workers_per_shard=workers_per_shard,
            )
            rows.append(row)
            if plan:
                fault_plans[f"{mode}@{crash_rate}"] = plan
    matrix = crash_matrix(seed=seed, accounts=matrix_accounts)
    return {"rows": rows, "crash_matrix": matrix, "fault_plans": fault_plans}


def _newest_host(router) -> Optional[str]:
    prefix = f"{router.host}!shard"
    best: Optional[Tuple[int, str]] = None
    for index, shard in enumerate(router.shards):
        if index in router.draining or not shard.host.startswith(prefix):
            continue
        try:
            seq = int(shard.host[len(prefix):])
        except ValueError:
            continue
        if best is None or seq > best[0]:
            best = (seq, shard.host)
    return best[1] if best else None


def _schedule_scale_events(sim, manager, router, day_seconds: float) -> None:
    base = sim.now

    def try_scale_up() -> None:
        manager.scale_up()  # declines while busy/crashed; later attempt retries

    def try_drain() -> None:
        if manager.busy or manager.crashed or len(router.shards) <= 1:
            return
        host = _newest_host(router)
        if host is not None:
            manager.drain_shard(host)

    for frac in SCALE_UP_AT:
        sim.schedule_at(
            base + day_seconds * frac, try_scale_up, label="r3.scale_up"
        )
    for frac in DRAIN_AT:
        sim.schedule_at(
            base + day_seconds * frac, try_drain, label="r3.drain"
        )


def _recover_world(sim, router, manager, grace_s: float) -> None:
    """Bring every crashed component back and let the pool quiesce.
    Two passes: a restart during the first grace window may race a
    still-scheduled fault or an in-flight migration resolving."""
    for _ in range(2):
        for shard in router.shards:
            if shard.endpoint.crashed:
                shard.restart()
        if router.endpoint.crashed:
            router.restart()
        if manager.crashed:
            manager.restart()
        sim.run(until=sim.now + grace_s)


def _chaos_day(
    mode: str,
    crash_rate: float,
    *,
    users: int,
    day_seconds: float,
    shards: int,
    recovery_s: float,
    seed: int,
    max_outstanding: int,
    workers_per_shard: int,
) -> Tuple[Dict, Dict]:
    wall_started = time.perf_counter()
    sim = Simulator(seed=seed)
    network = Network(sim)
    network.attach(LOAD_HOST, LinkSpec.lan())
    drbg = HmacDrbg(b"r3-chaos", personalization=str(seed).encode())
    signing_key = generate_rsa_keypair(512, drbg.fork(b"signing"))
    policy = VerifierPolicy()
    disk = UntrustedDisk()
    router = build_sharded_pool(
        sim, network, ROUTER_HOST, policy,
        shard_count=shards, workers_per_shard=workers_per_shard,
        provider_factory=ChaosBank,
        journal_disk=disk, snapshot_every=64,
        breaker_reset_s=max(0.25, recovery_s / 3),
    )
    manager = ShardPoolManager(
        sim, router,
        _shard_factory(sim, network, policy, disk=disk, cls=ChaosBank),
        intent_disk=disk,
    )
    engine = LoadEngine(
        sim, router,
        users=users,
        signing_key=signing_key,
        accounts=max(16, min(users // 20, 400)),
        day_seconds=day_seconds,
        mix=E4_MIX,
        max_outstanding=max_outstanding,
        max_attempts=6,
    )
    engine.setup_accounts()
    checker = InvariantChecker(router, manager)
    checker.snapshot_baseline()

    # Fault plan AFTER setup: windows are relative to virtual now.
    injector = FaultInjector(sim, horizon=day_seconds, name="r3.faults")
    if crash_rate > 0:
        for shard in router.shards:
            if mode == "torn":
                injector.add_torn_crashes(shard, crash_rate, recovery_s)
            else:
                injector.add_shard_crashes(shard, crash_rate, recovery_s)
        injector.add_control_plane_crashes(
            manager, crash_rate / 2, recovery_s
        )
    if mode == "scripted":
        _schedule_scale_events(sim, manager, router, day_seconds)
        if crash_rate > 0:
            injector.aim_at_migrations(manager, [
                dict(entry, recovery_s=recovery_s) for entry in AIMED_PLAN
            ])

    report = engine.run_day()
    _recover_world(sim, router, manager, grace_s=60.0)

    invariants = checker.check()
    probe = _replay_probe(router, engine.account_names[0], signing_key)
    totals = manager.totals()
    metric = sim.metrics.counters()
    finished = report.sessions_completed + report.sessions_failed
    row = {
        "mode": mode,
        "crash_rate": crash_rate,
        "users": users,
        "shards_start": shards,
        "shards_end": len(router.shards),
        "arrivals": report.arrivals,
        "completed": report.sessions_completed,
        "failed": report.sessions_failed,
        "dropped_cap": report.dropped_cap,
        # Every session must end in a counted outcome — the no-silent-
        # hangs contract holds under coordinator crashes too.
        "unfinished": report.sessions_unfinished,
        "availability": (
            report.sessions_completed / finished if finished else 0.0
        ),
        "goodput_cps": report.confirms_completed / day_seconds,
        "p95_session_ms": 1000 * report.p95_session_s,
        "migrations": int(totals["migrations"]),
        "accounts_moved": int(totals["accounts_moved"]),
        "aborts": int(totals["aborts"]),
        "resumes": int(totals["resumes"]),
        "manager_crashes": manager.crashes,
        "shard_crashes": metric.get("provider.crashes", 0),
        "torn_tails": router.journal_stats().get("torn_tails", 0),
        "torn_scheduled": injector.torn_tails_scheduled,
        "migration_crashes": injector.migration_crashes,
        "windows_merged": injector.windows_merged,
        "invariants": invariants.to_row(),
        "probe_idempotent": probe["probe_idempotent"],
        "probe_duplicates": probe["probe_duplicates"],
        "wall_s": time.perf_counter() - wall_started,
    }
    return row, injector.describe_plan()


# ----------------------------------------------------------------------
# Crash-anywhere matrix
# ----------------------------------------------------------------------
#: (kind, phase, victim) cells.  A victim must exist at the phase:
#: a drain has no registered targets during its poll phase.
def _matrix_cells() -> List[Tuple[str, str, str]]:
    cells: List[Tuple[str, str, str]] = []
    for phase in ("capture", "copy", "tail_replay", "ring_flip", "dual_read"):
        for victim in ("source", "target", "control"):
            cells.append(("scale_up", phase, victim))
            cells.append(("drain", phase, victim))
    cells.append(("drain", "drain_poll", "source"))
    cells.append(("drain", "drain_poll", "control"))
    return cells


MATRIX_SETTLE_S = 120.0
MATRIX_HORIZON_S = 200.0


def _matrix_world(seed: int, accounts: int):
    sim = Simulator(seed=seed)
    network = Network(sim)
    network.attach(LOAD_HOST, LinkSpec.lan())
    policy = VerifierPolicy()
    disk = UntrustedDisk()
    router = build_sharded_pool(
        sim, network, ROUTER_HOST, policy,
        shard_count=2, workers_per_shard=1,
        provider_factory=ChaosBank,
        journal_disk=disk, snapshot_every=8,
    )
    drbg = HmacDrbg(b"r3-matrix", personalization=str(seed).encode())
    signing_key = generate_rsa_keypair(512, drbg.fork(b"signing"))
    for index in range(accounts):
        name = f"cm-{index:03d}"
        router.endpoint.call_sync(
            LOAD_HOST, "register", {"account": name, "password": "pw"}
        )
        cookie = router.endpoint.call_sync(
            LOAD_HOST, "login", {"account": name, "password": "pw"}
        )["set_session"]
        router.shard_for_account(name).register_signing_key(
            name, signing_key.public
        )
        if index < 2:  # leave real settled state + nonces in the slices
            challenge = router.endpoint.call_sync(
                LOAD_HOST, "tx.request",
                {"kind": "transfer", "account": name, "session": cookie,
                 "f.to": "sink", "f.amount": 500 + index},
            )
            digest = confirmation_digest(
                challenge["text"], challenge["nonce"], b"accept"
            )
            router.endpoint.call_sync(
                LOAD_HOST, "tx.confirm",
                {"tx_id": challenge["tx_id"], "decision": b"accept",
                 "evidence": EVIDENCE_SIGNED,
                 "signature": pkcs1_sign(signing_key, digest, prehashed=True),
                 "session": cookie},
            )
    manager = ShardPoolManager(
        sim, router,
        _shard_factory(sim, network, policy, disk=disk, cls=ChaosBank),
        intent_disk=disk,
    )
    return sim, router, manager


def _reference_digest(seed: int, accounts: int, op: Optional[str]) -> bytes:
    """Never-crashed reference pools, run to the same horizon: the
    unscaled pool (abort cells), the cleanly-scaled pool, and the
    cleanly-drained pool (commit cells)."""
    sim, router, manager = _matrix_world(seed, accounts)
    if op == "scale_up":
        manager.scale_up()
    elif op == "drain":
        manager.drain_shard(f"{ROUTER_HOST}!shard1")
    sim.run(until=MATRIX_HORIZON_S)
    return router.state_digest()


def crash_matrix(seed: int = 167, accounts: int = 4) -> Dict[str, object]:
    """Force one crash at every (operation, phase, victim) point and
    verify the protocol's promised outcome plus digest parity with the
    matching never-crashed reference pool."""
    wall_started = time.perf_counter()
    references = {
        None: _reference_digest(seed, accounts, None),
        "scale_up": _reference_digest(seed, accounts, "scale_up"),
        "drain": _reference_digest(seed, accounts, "drain"),
    }
    cells: List[Dict] = []
    for kind, phase, victim in _matrix_cells():
        sim, router, manager = _matrix_world(seed, accounts)
        checker = InvariantChecker(router, manager)
        checker.snapshot_baseline()
        fired: List[str] = []
        # A drain's source is already detached from the pool by its
        # dual_read phase; remember every shard ever seen so the crash
        # can still land on it (survivors must stay unaffected).
        known = {shard.host: shard for shard in router.shards}

        def hook(ph: str, info: dict) -> None:
            known.update({shard.host: shard for shard in router.shards})
            if ph != phase or fired:
                return
            if victim == "control":
                fired.append("control")
                manager.crash()
                return
            hosts = info["sources"] if victim == "source" else info["targets"]
            shard = known.get(hosts[0]) if hosts else None
            if shard is None:
                return
            fired.append(shard.host)
            shard.crash()

        manager.phase_hooks.append(hook)
        if kind == "scale_up":
            manager.scale_up()
        else:
            manager.drain_shard(f"{ROUTER_HOST}!shard1")
        sim.run(until=MATRIX_SETTLE_S)
        _recover_world(sim, router, manager, grace_s=10.0)
        sim.run(until=MATRIX_HORIZON_S)

        committed = manager.totals()["migrations"] >= 1 or manager.resumes >= 1
        outcome = (
            "committed" if committed
            else "aborted" if manager.aborts >= 1
            else "none"
        )
        # A crash strictly after the durable transition (the dual_read
        # hook) must resolve as a commit; any earlier crash point sits
        # before the commit record and must resolve as a clean abort.
        expected = "committed" if phase == "dual_read" else "aborted"
        reference = references[kind if outcome == "committed" else None]
        digest_match = router.state_digest() == reference
        invariants = checker.check()
        cells.append({
            "kind": kind,
            "phase": phase,
            "victim": victim,
            "crash_fired": bool(fired),
            "outcome": outcome,
            "expected": expected,
            "outcome_ok": outcome == expected,
            "digest_match": digest_match,
            "invariants_ok": invariants.ok,
            "violations": invariants.to_row()["violations"],
            "busy_released": not manager.busy,
        })
    all_ok = all(
        c["crash_fired"] and c["outcome_ok"] and c["digest_match"]
        and c["invariants_ok"] and c["busy_released"]
        for c in cells
    )
    return {
        "cells": cells,
        "all_ok": all_ok,
        "wall_s": time.perf_counter() - wall_started,
    }


def main(argv: Optional[List[str]] = None) -> int:
    """CLI quick-start: ``python -m repro.bench.experiments.chaos``
    runs a reduced chaos day + the full crash-anywhere matrix."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description="R3: migration chaos sweep")
    parser.add_argument("--users", type=int, default=2_000)
    parser.add_argument("--day", type=float, default=300.0)
    parser.add_argument("--seed", type=int, default=167)
    parser.add_argument(
        "--crash-rates", type=float, nargs="+", default=[0.0, 0.08]
    )
    parser.add_argument(
        "--matrix-only", action="store_true",
        help="run just the crash-anywhere matrix",
    )
    args = parser.parse_args(argv)
    if args.matrix_only:
        result: Dict[str, object] = {
            "crash_matrix": crash_matrix(seed=args.seed)
        }
    else:
        result = r3_chaos_sweep(
            crash_rates=tuple(args.crash_rates),
            users=args.users,
            day_seconds=args.day,
            seed=args.seed,
        )
    print(json.dumps(result, indent=2, default=str))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
