"""The benchmark's four workloads, built only from public constructors.

Each workload runs in three phases that the worker times separately:

* ``setup()``  builds the world: simulator, network, pool or fleet,
  accounts, and (pool workloads) the day's arrival plan;
* ``run()``    is the timed phase: one simulated day, or a fixed number
  of closed-loop confirmations on full client platforms;
* ``finish()`` recovers the world where faults were injected, runs the
  output checks and returns the deterministic outputs.

Every input is a pure function of the seed, so two rounds of one
workload with one seed must produce the same outputs digest, traced or
not.  ``SIZES`` holds the benchmark size and the tiny size the tests
use; the benchmark size keeps one round at a few host seconds so a run
can repeat rounds and report medians.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from typing import Callable, Dict, List, Optional

from repro.bench.fleet import MULE, FleetWorld
from repro.bench.loadgen import (
    LOAD_HOST,
    SESSION_KINDS,
    FlashCrowd,
    LoadEngine,
    SessionMix,
)
from repro.core.confirmation_pal import confirmation_digest
from repro.core.protocol import (
    EVIDENCE_QUOTE,
    EVIDENCE_SIGNED,
    build_transaction_request,
)
from repro.core.transaction import Transaction
from repro.crypto.backend import rsa_op_counts
from repro.crypto.drbg import HmacDrbg
from repro.crypto.pkcs1 import pkcs1_sign
from repro.crypto.rsa import generate_rsa_keypair
from repro.net.network import LinkSpec, Network
from repro.net.rpc import RpcError
from repro.os.disk import UntrustedDisk
from repro.server.bank import BankServer
from repro.server.invariants import InvariantChecker
from repro.server.policy import VerifierPolicy
from repro.server.provider import ServiceProvider
from repro.server.rebalance import AutoScaler, ShardPoolManager
from repro.server.router import build_sharded_pool
from repro.sim import FaultInjector, Histogram, Simulator, Window

#: One-shot and batch sessions only.  Concurrent long-lived sessions of
#: a Zipf-hot account re-log-in and invalidate each other's cookies; at
#: the flash crowd some exhaust their relogin budget and fail (14 of
#: 2 472 sessions on seed 7 with the default mix), and a benchmark
#: workload must be one on which no operation fails.
SHORT_MIX = SessionMix(one_shot=0.75, batch=0.25, long_lived=0.0)

#: Virtual-time slices per pool day (see :class:`SlicedSimulator`), and
#: confirmations per slice on the platform workload.  The worker runs
#: its speed reference at every slice edge.
SLICES = 100
SLICE_CONFIRMS = 5

SIZES: Dict[str, Dict[str, Dict[str, float]]] = {
    "openloop_day": {
        "full": {"users": 3_500, "accounts": 500},
        "tiny": {"users": 60, "accounts": 16},
    },
    "elastic_spike": {
        "full": {"users": 4_000, "accounts": 200, "day_s": 300.0},
        "tiny": {"users": 120, "accounts": 16, "day_s": 60.0},
    },
    "journaled_crash": {
        "full": {"users": 1_500, "accounts": 400, "day_s": 225.0},
        "tiny": {"users": 60, "accounts": 16, "day_s": 30.0},
    },
    "platform_confirm": {
        "full": {"confirms": 400},
        "tiny": {"confirms": 8},
    },
}


class RichBank(BankServer):
    """A bank whose accounts open with a balance no benchmark day can
    spend, so no session is refused for insufficient funds."""

    OPENING_BALANCE_CENTS = 1_000_000_000

    def on_account_created(self, record, request) -> None:
        request = dict(request)
        request.setdefault("opening_balance", self.OPENING_BALANCE_CENTS)
        super().on_account_created(record, request)


class SlicedSimulator(Simulator):
    """A simulator that calls ``on_slice`` at fixed virtual-time edges.

    With ``slice_s`` and ``on_slice`` set, :meth:`run` advances in
    half-open windows of ``slice_s`` virtual seconds and a final
    inclusive one, which dispatches the same events in the same order as
    a single run, and calls ``on_slice()`` after each window.
    """

    def __init__(self, seed: int) -> None:
        super().__init__(seed=seed)
        self.slice_s: Optional[float] = None
        self.on_slice: Optional[Callable[[], None]] = None

    def run(self, until=None, max_events=10_000_000, inclusive=True) -> int:
        if self.slice_s is None or self.on_slice is None or until is None:
            return super().run(until, max_events, inclusive)
        dispatched = 0
        edge = self.now + self.slice_s
        while edge < until:
            dispatched += super().run(edge, max_events, inclusive=False)
            self.on_slice()
            edge += self.slice_s
        dispatched += super().run(until, max_events, inclusive)
        self.on_slice()
        return dispatched


def _quantile_ms(values: List[float], q: float) -> float:
    histogram = Histogram("session")
    histogram.observe_many(values)
    return 1000.0 * histogram.quantile(q)


def outputs_digest(outputs: Dict) -> str:
    """sha256 over the canonical JSON of a round's deterministic outputs."""
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Pool workloads
# ----------------------------------------------------------------------
class PoolWorkload:
    """An open-loop day of `LoadEngine` traffic against a sharded pool."""

    name = ""
    router_host = "pool.bench"

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.params = SIZES[self.name][size]
        self.engine: LoadEngine = None
        self.report = None
        #: Called at every slice edge of the timed phase.
        self.on_slice: Optional[Callable[[], None]] = None
        #: Set by workloads that inject faults or migrate; the pool is
        #: recovered and audited after the day.
        self.checker: Optional[InvariantChecker] = None
        self.manager: Optional[ShardPoolManager] = None

    # -- world construction ------------------------------------------------
    def _world(self, shards: int, provider_cls=ServiceProvider, **pool_kwargs):
        self.sim = SlicedSimulator(seed=self.seed)
        self.network = Network(self.sim)
        self.network.attach(LOAD_HOST, LinkSpec.lan())
        self.policy = VerifierPolicy()
        drbg = HmacDrbg(b"perf-bench", personalization=str(self.seed).encode())
        self.signing_key = generate_rsa_keypair(512, drbg.fork(b"signing"))
        self.router = build_sharded_pool(
            self.sim, self.network, self.router_host, self.policy,
            shard_count=shards, provider_factory=provider_cls,
            workers_per_shard=1, **pool_kwargs,
        )

    def _engine(self, **kwargs) -> None:
        self.engine = LoadEngine(
            self.sim, self.router, signing_key=self.signing_key, **kwargs
        )
        self.engine.setup_accounts()

    def plan(self) -> None:
        """The arrival plan, computed in setup so that load-generator
        work is not timed as program work."""
        started = time.perf_counter()
        self.arrivals = self.engine.arrival_times()
        self.plan_s = time.perf_counter() - started

    # -- phases --------------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        self.events_before = self.sim.events_dispatched
        self.rsa_before = rsa_op_counts()
        self.sim.slice_s = self.engine.curve.day_seconds / SLICES
        self.sim.on_slice = self.on_slice
        self.report = self.engine.run_day()
        self.sim.slice_s = self.sim.on_slice = None
        self.events = self.sim.events_dispatched - self.events_before
        after = rsa_op_counts()
        self.rsa_ops = {op: after[op] - self.rsa_before[op] for op in after}

    def recover(self) -> None:
        """Bring every crashed component back and let the pool settle."""
        for _ in range(2):
            for shard in self.router.shards:
                if shard.endpoint.crashed:
                    shard.restart()
            if self.manager is not None and self.manager.crashed:
                self.manager.restart()
            self.sim.run(until=self.sim.now + 60.0)

    def checks(self) -> Dict[str, bool]:
        report, engine = self.report, self.engine
        counters = self.sim.metrics.counters()
        checks = {
            "accounting_identity": (
                report.arrivals == len(self.arrivals)
                and report.sessions_unfinished == engine.outstanding
                and report.sessions_unfinished >= 0
                and sum(report.arrivals_by_kind.values()) == report.arrivals
                and len(engine.session_log)
                == report.sessions_completed + report.sessions_failed
                and counters.get("loadgen.arrivals", 0) == report.arrivals
                and counters.get("loadgen.dropped_cap", 0) == report.dropped_cap
                and counters.get("loadgen.sessions_completed", 0)
                == report.sessions_completed
                and counters.get("loadgen.sessions_failed", 0)
                == report.sessions_failed
                and counters.get("loadgen.confirms", 0)
                == report.confirms_completed
            ),
        }
        if self.checker is not None:
            self.recover()
            checks["invariants"] = self.checker.check().ok
        return checks

    def program_counters(self) -> Dict[str, int]:
        """Deterministic program counters the per-layer table reads."""
        router = self.router
        endpoints = [router.endpoint] + [s.endpoint for s in router.shards]
        journal = router.journal_stats()
        verification = router.verification_stats()
        counters = dict(self.sim.metrics.counters())
        counters.update({
            "sim.events": self.events,
            "rpc.retransmits": sum(e.retransmits for e in endpoints),
            "rpc.queue_peak": max(e.queue_peak for e in endpoints),
            "provider.denials": sum(router.denials.values()),
            "verifier.cache_hits": verification["hits"],
            "verifier.cache_misses": verification["misses"],
            "journal.appends": journal.get("appends", 0),
            "journal.snapshots": journal.get("snapshots", 0),
            "journal.restores": journal.get("restores", 0),
        })
        totals = self.manager.totals() if self.manager is not None else {}
        counters.update({
            "rebalance.migrations": int(totals.get("migrations", 0)),
            "rebalance.accounts_moved": int(totals.get("accounts_moved", 0)),
            "rebalance.bytes": int(
                totals.get("snapshot_bytes", 0) + totals.get("tail_bytes", 0)
            ),
        })
        return counters

    def finish(self) -> Dict:
        """Output checks and the round's deterministic outputs."""
        report = self.report
        checks = self.checks()
        latencies = list(self.engine.session_hist.values)
        day_s = self.engine.curve.day_seconds
        outputs = {
            "report": {
                "arrivals": report.arrivals,
                "dropped_cap": report.dropped_cap,
                "completed": report.sessions_completed,
                "failed": report.sessions_failed,
                "unfinished": report.sessions_unfinished,
                "confirms": report.confirms_completed,
                "retries": report.retries,
                "relogins": report.relogins,
                "by_kind": {k: report.arrivals_by_kind[k] for k in SESSION_KINDS},
            },
            "counters": self.program_counters(),
            "session_s": latencies,
            "rsa_ops": self.rsa_ops,
            "state_digest": self.router.state_digest().hex(),
        }
        return {
            "confirms": report.confirms_completed,
            "attempted": report.arrivals,
            "failed": (
                report.sessions_failed + report.dropped_cap
                + report.sessions_unfinished
            ),
            "sim_session_p50_ms": _quantile_ms(latencies, 0.50),
            "sim_session_p95_ms": _quantile_ms(latencies, 0.95),
            "sim_session_samples": len(latencies),
            "sim_goodput_cps": report.confirms_completed / day_s,
            "counters": outputs["counters"],
            "checks": checks,
            "digest": outputs_digest(outputs),
        }


class OpenLoopDay(PoolWorkload):
    """Unsaturated steady state on a fixed two-shard pool: kernel, RPC,
    codec, router, provider, verifier and client signing all run; no
    journal or rebalance code does."""

    name = "openloop_day"

    def setup(self) -> None:
        self._world(shards=2)
        self._engine(
            users=int(self.params["users"]),
            accounts=int(self.params["accounts"]),
            spikes=[FlashCrowd(start=43_200.0, duration=30.0, multiplier=400.0)],
            mix=SHORT_MIX,
            max_outstanding=1_000,
        )
        self.plan()


class ElasticSpike(PoolWorkload):
    """A flash crowd that overruns one shard: the autoscaler grows the
    pool, the router sheds and clients retry, and ranges migrate live
    both ways.  The only workload on the refusal and migration paths."""

    name = "elastic_spike"

    def setup(self) -> None:
        day_s = float(self.params["day_s"])
        self._world(shards=1)
        self.manager = ShardPoolManager(self.sim, self.router, self._new_shard)
        self.scaler = AutoScaler(
            self.sim, self.router, self.manager,
            min_shards=1, max_shards=3, tick_s=1.0, up_ticks=2,
            up_outstanding=48, down_ticks=30, cooldown_s=60.0,
        )
        self._engine(
            users=int(self.params["users"]),
            accounts=int(self.params["accounts"]),
            day_seconds=day_s,
            spikes=[FlashCrowd(start=day_s / 2, duration=10.0, multiplier=60.0)],
            mix=SHORT_MIX,
            max_outstanding=1_000,
            max_attempts=6,
        )
        self.checker = InvariantChecker(self.router, self.manager)
        self.checker.snapshot_baseline()
        self.scaler.start()
        self.plan()

    def _new_shard(self, host: str) -> ServiceProvider:
        """Shard factory for the pool manager, shaped like the pool's
        own shards."""
        if not self.network.is_attached(host):
            self.network.attach(host, LinkSpec.lan())
        return ServiceProvider(
            self.sim, self.network, host, self.policy, workers=1
        )

    def program_counters(self) -> Dict[str, int]:
        counters = super().program_counters()
        counters["rebalance.scale_ups"] = sum(
            1 for event in self.scaler.events if event["action"] == "scale_up"
        )
        counters["rebalance.drains"] = sum(
            1 for event in self.scaler.events if event["action"] == "drain"
        )
        return counters


class JournaledCrash(PoolWorkload):
    """A journaled two-shard bank whose shards crash and restore from
    snapshot + WAL while clients retry: the only workload that writes
    and reads the journal.

    Crashes are clean crash-stops, not torn writes: a torn WAL tail
    loses the record being written, and the sessions that record
    belonged to fail, while a benchmark workload must be one on which
    no operation fails."""

    name = "journaled_crash"
    #: Each shard crashes every ``crash_every_s`` (the shards half a
    #: period apart) and restarts ``recovery_s`` later.  A fixed plan,
    #: not a Poisson one, so every seed restores the same number of
    #: times and seeds differ only in their traffic.
    crash_every_s = 10.0
    recovery_s = 1.5

    def setup(self) -> None:
        day_s = float(self.params["day_s"])
        disk = UntrustedDisk()
        self._world(
            shards=2, provider_cls=RichBank, journal_disk=disk,
            snapshot_every=64, breaker_reset_s=max(0.25, self.recovery_s / 3),
        )
        self._engine(
            users=int(self.params["users"]),
            accounts=int(self.params["accounts"]),
            day_seconds=day_s,
            mix=SHORT_MIX,
            max_outstanding=400,
            max_attempts=6,
        )
        self.checker = InvariantChecker(self.router)
        self.checker.snapshot_baseline()
        # Windows are relative to virtual now, so they are drawn after
        # account setup.
        injector = FaultInjector(self.sim, horizon=day_s, name="perf.faults")
        period = self.crash_every_s
        for index, shard in enumerate(self.router.shards):
            first = period * (index + 1) / 2
            injector.add_crash_windows(shard, [
                Window(first + k * period, first + k * period + self.recovery_s)
                for k in range(math.ceil((day_s - first) / period))
            ])
        self.plan()

    def checks(self) -> Dict[str, bool]:
        checks = super().checks()
        checks["replay_idempotent"] = self.replay_probe()
        return checks

    def replay_probe(self) -> bool:
        """Execute one transfer, crash and restart its shard, resubmit
        the same evidence: the journal must replay the settled outcome
        and the transfer must appear in the ledger exactly once."""
        account = self.engine.account_names[0]
        endpoint = self.router.endpoint
        amount = 777_001

        def call(method: str, request: Dict) -> Dict:
            try:
                return endpoint.call_sync(LOAD_HOST, method, request)
            except RpcError as exc:
                return dict(exc.response) or {"error": str(exc)}

        cookie = call("login", {"account": account, "password": "pw"})
        challenge = call("tx.request", {
            "kind": "transfer", "account": account,
            "session": cookie.get("set_session"),
            "f.to": "sink", "f.amount": amount,
        })
        if "tx_id" not in challenge:
            return False
        digest = confirmation_digest(
            challenge["text"], challenge["nonce"], b"accept"
        )
        confirm = {
            "tx_id": challenge["tx_id"], "decision": b"accept",
            "evidence": EVIDENCE_SIGNED,
            "signature": pkcs1_sign(self.signing_key, digest, prehashed=True),
            "session": cookie.get("set_session"),
        }
        first = call("tx.confirm", dict(confirm))
        shard = self.router.shard_for_account(account)
        shard.crash()
        shard.restart()
        confirm["session"] = call(
            "login", {"account": account, "password": "pw"}
        ).get("set_session")
        replayed = call("tx.confirm", dict(confirm))
        executions = sum(
            1 for transfer in shard.executed_transfers
            if transfer.source == account and transfer.amount_cents == amount
        )
        return (
            first.get("status") == "executed"
            and replayed.get("status") == "executed"
            and executions == 1
        )


# ----------------------------------------------------------------------
# Platform workload
# ----------------------------------------------------------------------
class PlatformConfirm:
    """The paper's protocol path on full client platforms (TPM 1.2,
    DRTM/Flicker, PAL, human): closed-loop confirmations, each on a
    client picked uniformly, with forged confirmations from infected
    hosts that must be denied.  Barely touches the event queue."""

    name = "platform_confirm"
    clients = 16
    infected = 2
    forge_every = 20
    quote_share = 0.25

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.params = SIZES[self.name][size]
        self.plan_s = 0.0
        self.on_slice: Optional[Callable[[], None]] = None

    def setup(self) -> None:
        self.world = FleetWorld(
            clients=self.clients, infected=self.infected, seed=self.seed
        )
        self.inputs = random.Random(self.seed)

    def run(self) -> None:
        world, rng = self.world, self.inputs
        clock = world.simulator.clock
        endpoint = world.bank.endpoint
        infected = [m for m in world.clients if m.infected]
        self.events_before = world.simulator.events_dispatched
        self.rsa_before = rsa_op_counts()
        self.session_s: List[float] = []
        self.honest = self.executed = 0
        self.forged = self.forged_denied = 0
        started = clock.now
        for step in range(int(self.params["confirms"])):
            member = world.clients[rng.randrange(len(world.clients))]
            mode = EVIDENCE_QUOTE if rng.random() < self.quote_share else (
                EVIDENCE_SIGNED
            )
            transaction = Transaction(
                kind="transfer", account=member.name,
                fields={"to": f"payee-{rng.randrange(10)}",
                        "amount": rng.randint(100, 999)},
            )
            member.human.intend(transaction)
            began = clock.now
            outcome = member.client.confirm_transaction(
                endpoint, transaction, mode=mode
            )
            self.session_s.append(clock.now - began)
            self.honest += 1
            self.executed += int(outcome.executed)
            if step % self.forge_every == self.forge_every - 1:
                self._forge(infected[rng.randrange(len(infected))], step, rng)
            if self.on_slice is not None and step % SLICE_CONFIRMS == 0:
                self.on_slice()
        self.virtual_s = clock.now - started
        self.events = world.simulator.events_dispatched - self.events_before
        after = rsa_op_counts()
        self.rsa_ops = {op: after[op] - self.rsa_before[op] for op in after}

    def _forge(self, member, step: int, rng: random.Random) -> None:
        """Malware on an infected host requests a transfer to the mule
        and submits junk evidence; the provider must deny it."""
        self.forged += 1
        forged = Transaction(
            kind="transfer", account=member.name,
            fields={"to": MULE, "amount": 50_000 + step},
        )
        endpoint = self.world.bank.endpoint
        try:
            challenge = member.client.browser.call(
                endpoint, "tx.request", build_transaction_request(forged)
            )
            member.client.browser.call(endpoint, "tx.confirm", {
                "tx_id": challenge["tx_id"], "decision": b"accept",
                "evidence": EVIDENCE_SIGNED,
                "signature": rng.randbytes(64),
            })
        except RpcError:
            self.forged_denied += 1

    def program_counters(self) -> Dict[str, int]:
        bank = self.world.bank
        endpoint = bank.endpoint
        verification = bank.verification_cache.stats()
        counters = dict(self.world.simulator.metrics.counters())
        counters.update({
            "sim.events": self.events,
            "rpc.retransmits": endpoint.retransmits,
            "rpc.queue_peak": endpoint.queue_peak,
            "provider.denials": sum(bank.denials.values()),
            "verifier.cache_hits": verification["hits"],
            "verifier.cache_misses": verification["misses"],
        })
        return counters

    def finish(self) -> Dict:
        bank = self.world.bank
        stolen = bank.total_stolen_by(MULE)
        checks = {
            "no_forged_execution": (
                stolen == 0 and self.forged_denied == self.forged
            ),
        }
        outputs = {
            "honest": self.honest,
            "executed": self.executed,
            "forged": self.forged,
            "forged_denied": self.forged_denied,
            "counters": self.program_counters(),
            "session_s": self.session_s,
            "rsa_ops": self.rsa_ops,
            "state_digest": bank.state_digest().hex(),
        }
        return {
            "confirms": self.executed,
            "attempted": self.honest + self.forged,
            "failed": (self.honest - self.executed)
            + (self.forged - self.forged_denied),
            "sim_session_p50_ms": _quantile_ms(self.session_s, 0.50),
            "sim_session_p95_ms": _quantile_ms(self.session_s, 0.95),
            "sim_session_samples": len(self.session_s),
            "sim_goodput_cps": self.executed / self.virtual_s,
            "counters": outputs["counters"],
            "checks": checks,
            "digest": outputs_digest(outputs),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (OpenLoopDay, ElasticSpike, JournaledCrash, PlatformConfirm)
}
