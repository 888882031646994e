"""Experiment R2: availability and exactly-once under crash-stop shards.

A sharded provider pool (R2 reuses F3-S's router and open-loop load
generator) is subjected to precomputed crash-stop windows: each shard
process dies at a Poisson-timed instant and returns ``recovery_s``
later.  Swept over the crash rate with the provider journal on and off:

* **Availability/goodput** — with the health layer (circuit breakers,
  explicit ``DENIAL_SHARD_DOWN`` degraded mode, bounded-queue load
  shedding) the surviving shards keep serving at full goodput and no
  caller ever hangs: every flow ends in a completion, an explicit
  retryable refusal it backs off from, or a counted failure.
* **Journal ablation** — with the write-ahead journal each crashed
  shard restarts bit-identical (sessions, nonce DB, settled
  transactions), so resubmitted confirms replay idempotently and no
  transfer executes twice.  Without it the restarted shard has lost the
  nonce DB and the settled set: the deterministic replay probe shows
  the client's honest recovery path re-executing a transfer the
  journaled arm would have absorbed — the replay defense and
  exactly-once confirms are properties of durability, not just of the
  protocol.

Every fault window is precomputed from a named RNG stream, so the whole
experiment — crashes included — is a pure function of the seed.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.core.confirmation_pal import confirmation_digest
from repro.core.protocol import EVIDENCE_SIGNED
from repro.crypto.drbg import HmacDrbg
from repro.crypto.pkcs1 import pkcs1_sign
from repro.crypto.rsa import generate_rsa_keypair
from repro.net.network import LinkSpec, Network
from repro.net.retry import (
    DEADLINE_ERROR_KEY,
    RPC_OVERLOADED_KEY,
    RetryPolicy,
)
from repro.net.rpc import RpcError
from repro.os.disk import UntrustedDisk
from repro.server.bank import BankServer
from repro.server.policy import VerifierPolicy
from repro.server.router import SHARD_DOWN_KEY, build_sharded_pool
from repro.sim import Simulator
from repro.sim.faults import FaultInjector
from repro.sim.metrics import Histogram

LOAD_HOST = "load-gen"
ROUTER_HOST = "pool.example"

#: Client-side resubmit backoff for retryable refusals (dead letters,
#: shard-down denials, overload sheds).  ``deadline=None``: the ladder
#: is bounded by max_attempts and the experiment's give-up horizon.
RESUBMIT_POLICY = RetryPolicy(
    initial_timeout=0.3,
    backoff=2.0,
    max_timeout=2.0,
    jitter=0.1,
    max_attempts=10,
    deadline=None,
)


def r2_crash_availability(
    crash_rates: Sequence[float] = (0.0, 0.1, 0.3),
    recovery_s: float = 1.5,
    journal_modes: Sequence[str] = ("on", "off"),
    offered: float = 240.0,
    duration: float = 6.0,
    accounts: int = 16,
    shards: int = 4,
    seed: int = 73,
) -> List[Dict]:
    """Rows: journal, crash_rate, goodput_rps, success_rate,
    p95_latency_ms, resubmits, denials_shard_down, shed, dead_letters,
    crashes, restarts, duplicate_executions, probe_idempotent,
    probe_duplicates, journal stats, wall_s."""
    warm = HmacDrbg(b"r2-availability", personalization=str(seed).encode())
    for label in (b"ca", b"signing"):
        generate_rsa_keypair(512, warm.fork(label))

    rows: List[Dict] = []
    for journal in journal_modes:
        for crash_rate in crash_rates:
            rows.append(
                _run_one(
                    journal == "on", crash_rate, recovery_s, offered,
                    duration, accounts, shards, seed,
                )
            )
    return rows


def _transfer_count(shard: BankServer, account: str, amount: int) -> int:
    return sum(
        1
        for transfer in shard.executed_transfers
        if transfer.source == account and transfer.amount_cents == amount
    )


def _duplicate_executions(router) -> int:
    """Transfers that executed more than once.  Every flow uses a unique
    (account, amount) pair, so the ledger itself is the dedup witness."""
    seen: Dict[tuple, int] = {}
    for transfer in router.executed_transfers:
        key = (transfer.source, transfer.amount_cents)
        seen[key] = seen.get(key, 0) + 1
    return sum(count - 1 for count in seen.values() if count > 1)


def _sync_call(router, method: str, request: Dict) -> Dict:
    """Synchronous router call returning error *responses* instead of
    raising, so the probe can branch on them."""
    try:
        return router.endpoint.call_sync(LOAD_HOST, method, request)
    except RpcError as exc:
        return dict(exc.response) if exc.response else {"error": str(exc)}


def _replay_probe(router, victim: str, signing_key) -> Dict[str, int]:
    """The deterministic exactly-once measurement.

    Run one transfer to EXECUTED, crash and restart the victim's home
    shard, then resubmit the *same* confirmation evidence and — if the
    shard disowns the transaction — recover the way an honest client
    must: redo the whole flow.  With the journal the resubmission
    replays the stored outcome (idempotent, ledger untouched); without
    it the recovery re-executes the transfer.  Runs identically at
    crash rate 0, so every R2 row carries the ablation signal.
    """
    login = _sync_call(router, "login", {"account": victim, "password": "pw"})
    cookie = login["set_session"]
    shard = router.shard_for_account(victim)
    amount = 777_001
    challenge = _sync_call(router, "tx.request", {
        "kind": "transfer", "account": victim, "session": cookie,
        "f.to": "sink", "f.amount": amount,
    })
    digest = confirmation_digest(
        challenge["text"], challenge["nonce"], b"accept"
    )
    signature = pkcs1_sign(signing_key, digest, prehashed=True)
    confirm = {
        "tx_id": challenge["tx_id"], "decision": b"accept",
        "evidence": EVIDENCE_SIGNED, "signature": signature,
        "session": cookie,
    }
    first = _sync_call(router, "tx.confirm", dict(confirm))
    assert first.get("status") == "executed", first

    shard.crash()
    shard.restart()

    # The crash evicted the session either way; log back in (the account
    # registry models a durable user DB) and resubmit the SAME evidence.
    login = _sync_call(router, "login", {"account": victim, "password": "pw"})
    confirm["session"] = login["set_session"]
    replayed = _sync_call(router, "tx.confirm", dict(confirm))
    idempotent = int(
        not replayed.get("error") and replayed.get("status") == "executed"
    )
    if "unknown transaction" in str(replayed.get("error", "")):
        # Journal-less shard: the pending/settled record is gone, so the
        # honest client redoes the flow — a fresh challenge over the
        # same transfer, which then executes a second time.
        challenge = _sync_call(router, "tx.request", {
            "kind": "transfer", "account": victim,
            "session": confirm["session"],
            "f.to": "sink", "f.amount": amount,
        })
        digest = confirmation_digest(
            challenge["text"], challenge["nonce"], b"accept"
        )
        _sync_call(router, "tx.confirm", {
            "tx_id": challenge["tx_id"], "decision": b"accept",
            "evidence": EVIDENCE_SIGNED,
            "signature": pkcs1_sign(signing_key, digest, prehashed=True),
            "session": confirm["session"],
        })
    return {
        "probe_idempotent": idempotent,
        "probe_duplicates": _transfer_count(shard, victim, amount) - 1,
    }


def _run_one(
    journal_on: bool,
    crash_rate: float,
    recovery_s: float,
    offered: float,
    duration: float,
    accounts: int,
    shards: int,
    seed: int,
) -> Dict:
    wall_started = time.perf_counter()
    sim = Simulator(seed=seed)
    network = Network(sim)
    network.attach(LOAD_HOST, LinkSpec.lan())

    drbg = HmacDrbg(b"r2-availability", personalization=str(seed).encode())
    ca_key = generate_rsa_keypair(512, drbg.fork(b"ca"))
    signing_key = generate_rsa_keypair(512, drbg.fork(b"signing"))
    policy = VerifierPolicy()
    policy.trust_ca(ca_key.public)

    disk: Optional[UntrustedDisk] = UntrustedDisk() if journal_on else None
    router = build_sharded_pool(
        sim, network, ROUTER_HOST, policy,
        shard_count=shards, workers_per_shard=1,
        provider_factory=BankServer,
        journal_disk=disk, snapshot_every=64,
        breaker_reset_s=max(0.25, recovery_s / 3),
    )

    names = [f"acct-{index:03d}" for index in range(accounts)]
    cookies: Dict[str, bytes] = {}
    for name in names:
        router.endpoint.call_sync(LOAD_HOST, "register", {
            "account": name, "password": "pw",
            "opening_balance": 1_000_000_000,
        })
        login = router.endpoint.call_sync(
            LOAD_HOST, "login", {"account": name, "password": "pw"}
        )
        cookies[name] = login["set_session"]
        router.shard_for_account(name).register_signing_key(
            name, signing_key.public
        )

    # Fault plan AFTER setup: windows are relative to virtual now.
    if crash_rate > 0:
        injector = FaultInjector(sim, horizon=duration, name="r2.faults")
        for shard in router.shards:
            injector.add_crashes(shard, crash_rate, recovery_s)

    latency_hist = Histogram("r2.latency")
    completion_times: List[float] = []
    counters = {"failed": 0, "resubmits": 0, "relogins": 0, "reflows": 0}
    resubmit_rng = sim.rng.stream("r2.resubmit")

    started = sim.now
    window_end = started + duration
    give_up_at = window_end + 15.0

    def flow(index: int) -> None:
        name = names[index % accounts]
        amount = 10_000 + index  # unique per flow: the ledger dedups
        state = {"started": sim.now, "reflows": 0}

        def send(method: str, request: Dict, on_reply, attempt: int = 0) -> None:
            def handle(response: Dict) -> None:
                retryable = (
                    DEADLINE_ERROR_KEY in response
                    or SHARD_DOWN_KEY in response
                    or RPC_OVERLOADED_KEY in response
                )
                if retryable:
                    next_attempt = attempt + 1
                    if (
                        next_attempt >= RESUBMIT_POLICY.max_attempts
                        or sim.now >= give_up_at
                    ):
                        counters["failed"] += 1
                        return
                    counters["resubmits"] += 1
                    delay = RESUBMIT_POLICY.timeout_for(attempt, resubmit_rng)
                    sim.schedule(
                        delay,
                        lambda: send(method, request, on_reply, next_attempt),
                        label="r2:resubmit",
                    )
                    return
                on_reply(response)

            router.endpoint.submit(LOAD_HOST, method, request, handle)

        def start_flow() -> None:
            send("tx.request", {
                "kind": "transfer", "account": name, "session": cookies[name],
                "f.to": "sink", "f.amount": amount,
            }, on_challenge)

        def redo_flow() -> None:
            # The shard forgot the transaction (journal-less restart):
            # an honest client's only recovery is a fresh flow.
            if state["reflows"] >= 3 or sim.now >= give_up_at:
                counters["failed"] += 1
                return
            state["reflows"] += 1
            counters["reflows"] += 1
            start_flow()

        def relogin_then_redo() -> None:
            counters["relogins"] += 1

            def after_login(response: Dict) -> None:
                if response.get("error"):
                    counters["failed"] += 1
                    return
                cookies[name] = response["set_session"]
                redo_flow()

            send("login", {"account": name, "password": "pw"}, after_login)

        def on_challenge(response: Dict) -> None:
            error = response.get("error")
            if error:
                if "not logged in" in error:
                    relogin_then_redo()
                    return
                counters["failed"] += 1
                return
            confirm(response["tx_id"], response["text"], response["nonce"])

        def confirm(tx_id: bytes, text: bytes, nonce: bytes) -> None:
            digest = confirmation_digest(text, nonce, b"accept")
            signature = pkcs1_sign(signing_key, digest, prehashed=True)
            send("tx.confirm", {
                "tx_id": tx_id, "decision": b"accept",
                "evidence": EVIDENCE_SIGNED, "signature": signature,
                "session": cookies[name],
            }, lambda response: on_confirm(response, tx_id))

        def on_confirm(response: Dict, tx_id: bytes) -> None:
            error = response.get("error")
            if not error:
                latency_hist.observe(sim.now - state["started"])
                completion_times.append(sim.now)
                return
            if response.get("rechallenge"):
                send("tx.rechallenge",
                     {"tx_id": tx_id, "session": cookies[name]},
                     on_challenge)
                return
            if "not logged in" in error:
                relogin_then_redo()
                return
            if "unknown transaction" in error:
                redo_flow()
                return
            counters["failed"] += 1

        start_flow()

    arrival_rng = sim.rng.stream("r2.arrivals")
    t = 0.0
    index = 0
    while True:
        t += arrival_rng.expovariate(offered)
        if t >= duration:
            break
        sim.schedule_at(started + t, lambda i=index: flow(i), label="r2:flow")
        index += 1
    total_flows = index

    sim.run(until=give_up_at + 10.0)  # drain: legs + resubmit ladders

    # Any shard still down at the horizon comes back for the probe.
    for shard in router.shards:
        if shard.endpoint.crashed:
            shard.restart()

    duplicates = _duplicate_executions(router)
    probe = _replay_probe(router, names[0], signing_key)

    metric = sim.metrics.counters()
    in_window = sum(1 for when in completion_times if when <= window_end)
    p95 = latency_hist.quantile(0.95) if latency_hist.count else float("nan")
    journal_stats = router.journal_stats()
    return {
        "journal": "on" if journal_on else "off",
        "crash_rate": crash_rate,
        "recovery_s": recovery_s,
        "offered_rps": offered,
        "flows": total_flows,
        "goodput_rps": in_window / duration,
        "success_rate": (
            len(completion_times) / total_flows if total_flows else 1.0
        ),
        "p95_latency_ms": 1000 * p95,
        "failed": counters["failed"],
        # Every flow must end in a completion or an explicit, counted
        # failure — the health layer's no-silent-hangs contract.
        "hung": total_flows - len(completion_times) - counters["failed"],
        "resubmits": counters["resubmits"],
        "relogins": counters["relogins"],
        "reflows": counters["reflows"],
        "denials_shard_down": metric.get("router.shard_down_denials", 0),
        "shed": metric.get("router.shed", 0),
        "dead_letters": metric.get("rpc.dead_letters", 0),
        "cookie_prunes": metric.get("router.cookie_prunes", 0),
        "breaker_opens": metric.get("router.breaker_opens", 0),
        "crashes": metric.get("provider.crashes", 0),
        "restarts": router.restarts,
        "duplicate_executions": duplicates,
        "probe_idempotent": probe["probe_idempotent"],
        "probe_duplicates": probe["probe_duplicates"],
        "journal_appends": journal_stats["appends"],
        "journal_snapshots": journal_stats["snapshots"],
        "journal_restores": journal_stats["restores"],
        "wall_s": time.perf_counter() - wall_started,
    }
