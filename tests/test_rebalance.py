"""Elastic shard pool: migration, drain, reconciliation, autoscaling.

The acceptance properties for `repro.server.rebalance`:

* scaling up moves exactly the grown ring's account ranges — sessions,
  pending transactions and their nonces migrate, so in-flight work
  settles on the new owner and the replay defense never weakens;
* after the flip the router's learned routes are rewritten: the next
  request for a migrated account lands on the new owner *first try*;
* a leg that raced the flip gets a ``moved`` answer from the old owner
  and is re-aimed once at the new owner, however late it lands, instead
  of surfacing a spurious denial; work the old owner executed is never
  re-aimed;
* a ``register`` racing a flip — executing after a scale-up or drain
  flip, or inside an account-less drain's copy window — ends up held
  by exactly one live shard, the routed one (``TestOwnershipFence``);
* add-then-drain returns the pool to a state **bit-identical** (pool
  digest) to a run that never scaled;
* register-failover overrides reconcile back to ring ownership once
  the home shard recovers — the override map drains instead of leaking;
* the autoscaler scales up under sustained pressure and drains in
  sustained calm, with hysteresis and cooldown against flapping.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.confirmation_pal import confirmation_digest
from repro.crypto import HmacDrbg, generate_rsa_keypair, pkcs1_sign
from repro.net.messages import decode_message, encode_message
from repro.net.network import LinkSpec, Network
from repro.net.retry import RetryPolicy
from repro.net.rpc import RpcError
from repro.os.disk import UntrustedDisk
from repro.server import router as router_module
from repro.server.bank import BankServer
from repro.server.invariants import InvariantChecker
from repro.server.policy import VerifierPolicy
from repro.server.provider import AccountRecord
from repro.server.rebalance import AutoScaler, ShardPoolManager
from repro.server.router import HashRing, build_sharded_pool
from repro.sim import Simulator

CLIENT = "load-host"
POOL = "pool.test"
S0, S1, S2, S3 = (f"{POOL}!shard{i}" for i in range(4))


def _count(simulator, name: str) -> int:
    """A registry counter's value, without creating the key."""
    return simulator.metrics.counters().get(name, 0)


def _build(shard_count: int, journal: bool = True, seed: int = 404):
    simulator = Simulator(seed=seed)
    network = Network(simulator)
    network.attach(CLIENT, LinkSpec.lan())
    policy = VerifierPolicy()
    disk = UntrustedDisk() if journal else None
    router = build_sharded_pool(
        simulator, network, POOL, policy,
        shard_count=shard_count, provider_factory=BankServer,
        workers_per_shard=1, journal_disk=disk, snapshot_every=8,
    )

    def make_shard(host: str) -> BankServer:
        if not network.is_attached(host):
            network.attach(host, LinkSpec.lan())
        shard = BankServer(simulator, network, host, policy, workers=1)
        if disk is not None:
            shard.attach_journal(disk, snapshot_every=8)
        return shard

    signing_key = generate_rsa_keypair(512, HmacDrbg(b"rebalance-signing"))
    return simulator, router, signing_key, make_shard


def _enroll(router, signing_key, name):
    router.endpoint.call_sync(
        CLIENT, "register",
        {"account": name, "password": "pw", "opening_balance": 10_000_000},
    )
    login = router.endpoint.call_sync(
        CLIENT, "login", {"account": name, "password": "pw"}
    )
    router.shard_for_account(name).register_signing_key(
        name, signing_key.public
    )
    return login["set_session"]


def _request(router, cookie, amount, name):
    return router.endpoint.call_sync(
        CLIENT, "tx.request",
        {
            "kind": "transfer", "account": name, "session": cookie,
            "f.to": "sink", "f.amount": amount,
        },
    )


def _confirm(router, signing_key, cookie, challenge):
    digest = confirmation_digest(
        challenge["text"], challenge["nonce"], b"accept"
    )
    return router.endpoint.call_sync(
        CLIENT, "tx.confirm",
        {
            "tx_id": challenge["tx_id"], "decision": b"accept",
            "evidence": "signed",
            "signature": pkcs1_sign(signing_key, digest, prehashed=True),
            "session": cookie,
        },
    )


def _transfer(router, signing_key, cookie, amount, name):
    challenge = _request(router, cookie, amount, name)
    assert "error" not in challenge, challenge
    return _confirm(router, signing_key, cookie, challenge)


class TestScaleUp:
    def test_ranges_move_and_sessions_survive_first_try(self):
        simulator, router, signing_key, make = _build(shard_count=2)
        names = [f"acct-{i:02d}" for i in range(16)]
        cookies = {n: _enroll(router, signing_key, n) for n in names}
        manager = ShardPoolManager(simulator, router, make)
        new_host = manager.scale_up()
        assert new_host == f"{POOL}!shard2"
        assert manager.scale_up() is None  # one migration at a time
        simulator.run(until=simulator.now + 5.0)
        assert not manager.busy

        new_shard = router.shards[2]
        moved = sorted(new_shard.accounts)
        assert moved, "grown ring should assign some of 16 accounts"
        assert sum(len(s.accounts) for s in router.shards) == len(names)
        assert _count(simulator, "router.cookie_rewrites") >= len(moved)
        report = manager.reports[-1]
        assert report.kind == "scale_up"
        assert report.accounts == len(moved)
        assert report.snapshot_bytes > 0

        # First-try routing: the migrated session's next request lands
        # on the new owner directly — no ``moved`` re-aim needed.
        name = moved[0]
        forwards_before = router.forwards_by_shard[S2]
        redirects_before = _count(simulator, "router.dual_read_redirects")
        challenge = _request(router, cookies[name], 500, name)
        assert "error" not in challenge, challenge
        assert router.forwards_by_shard[S2] == forwards_before + 1
        assert _count(simulator, "router.dual_read_redirects") == (
            redirects_before
        )
        # The nonce migrated with the account: the confirm settles.
        result = _confirm(router, signing_key, cookies[name], challenge)
        assert result["status"] == "executed"

    def test_leg_racing_the_flip_is_redirected_not_denied(self):
        simulator, router, signing_key, make = _build(shard_count=2)
        names = [f"acct-{i:02d}" for i in range(16)]
        cookies = {n: _enroll(router, signing_key, n) for n in names}
        # Instant copy: the flip fires before the in-flight leg's
        # network hop lands, so the leg reaches the *old* owner after
        # its range moved away.
        manager = ShardPoolManager(
            simulator, router, make,
            transfer_latency_s=0.0, bandwidth_bytes_per_s=1e15,
        )
        # Pick an account the grown ring will assign to the new shard.
        grown = HashRing([s.host for s in router.shards] + [S2])
        victim = next(n for n in names if grown.host_for(n) == S2)
        outcomes: list = []
        router.endpoint.submit(
            CLIENT, "tx.request",
            {
                "kind": "transfer", "account": victim,
                "session": cookies[victim], "f.to": "sink", "f.amount": 77,
            },
            outcomes.append,
        )
        # Advance until the router has the shard leg in flight, then
        # flip ownership instantly underneath it.
        while not sum(router.outstanding.values()):
            simulator.run(until=simulator.now + 0.0005)
        assert not outcomes
        assert manager.scale_up() == f"{POOL}!shard2"
        simulator.run(until=simulator.now + 5.0)
        assert outcomes and "error" not in outcomes[-1], outcomes
        assert _count(simulator, "router.dual_read_redirects") == 1
        assert victim in router.shard(S2).accounts


class TestDrainDigestParity:
    def _run(self, scale: bool) -> bytes:
        simulator, router, signing_key, make = _build(
            shard_count=2, journal=True
        )
        names = [f"acct-{i:02d}" for i in range(8)]
        cookies = {n: _enroll(router, signing_key, n) for n in names}
        for index, name in enumerate(names):
            result = _transfer(
                router, signing_key, cookies[name], 100 + index, name
            )
            assert result["status"] == "executed"
        if scale:
            manager = ShardPoolManager(simulator, router, make)
            assert manager.scale_up() == f"{POOL}!shard2"
            simulator.run(until=200.0)
            assert len(router.shards) == 3
            assert manager.drain_shard(f"{POOL}!shard2")
            simulator.run(until=400.0)
            assert len(router.shards) == 2
            assert manager.totals()["migrations"] == 2
        else:
            simulator.run(until=400.0)
        return router.state_digest()

    def test_add_then_drain_matches_never_scaled_pool(self):
        """The tentpole acceptance: a quiesced scale-up + drain round
        trip leaves the survivor pool bit-identical — same accounts on
        the same owners, same nonces, same DRBG positions — to a pool
        that never scaled, at the same virtual time."""
        assert self._run(scale=True) == self._run(scale=False)

    def test_drained_shard_accounts_stay_served(self):
        simulator, router, signing_key, make = _build(shard_count=2)
        names = [f"acct-{i:02d}" for i in range(12)]
        cookies = {n: _enroll(router, signing_key, n) for n in names}
        manager = ShardPoolManager(simulator, router, make)
        manager.scale_up()
        simulator.run(until=simulator.now + 5.0)
        migrated = sorted(router.shards[2].accounts)
        assert migrated
        manager.drain_shard(f"{POOL}!shard2")
        simulator.run(until=simulator.now + 10.0)
        assert len(router.shards) == 2
        assert f"{POOL}!shard2" not in [s.host for s in router.shards]
        # Every formerly-migrated session still works, first try.
        for name in migrated:
            result = _transfer(
                router, signing_key, cookies[name], 999, name
            )
            assert result["status"] == "executed", (name, result)
        # A fresh scale-up never reuses the drained hostname (DRBG
        # streams derive from hostnames and freshness must not repeat).
        assert manager.scale_up() == f"{POOL}!shard3"


def _readable(record):
    """An intent-log record with its encoded source ranges opened up,
    so a pinned literal reads as hosts and account names."""
    out = {}
    for key, value in record.items():
        if key == "srcs":
            value = [
                (str(m["h"]), [str(n) for n in m["ns"]])
                for m in map(decode_message, value)
            ]
        elif isinstance(value, list):
            value = [str(item) for item in value]
        elif isinstance(value, bytes):
            value = value.decode()
        out[key] = value
    return out




class TestMigrationGoldenPin:
    """Scale-up and drain, completed and aborted, pinned to literals:
    the phase-hook order, every intent-log record (abort reasons
    included), each report, the totals and the pool digest.  A
    refactor of the migration path must leave all of it unchanged."""

    def test_completed_and_aborted_migrations_match_the_pin(self):
        simulator, router, signing_key, make = _build(shard_count=2)
        names = [f"acct-{i:02d}" for i in range(16)]
        cookies = {n: _enroll(router, signing_key, n) for n in names}
        for index, name in enumerate(names):
            result = _transfer(
                router, signing_key, cookies[name], 100 + index, name
            )
            assert result["status"] == "executed"
        manager = ShardPoolManager(
            simulator, router, make, intent_disk=UntrustedDisk()
        )
        phases: list = []
        manager.phase_hooks.append(
            lambda phase, info: phases.append((phase, info["kind"]))
        )
        outcomes: list = []

        def window_request(name: str) -> None:
            # Lands in the copy window: the tail carries its record.
            router.endpoint.submit(
                CLIENT, "tx.request",
                {
                    "kind": "transfer", "account": name,
                    "session": cookies[name], "f.to": "sink", "f.amount": 7,
                },
                outcomes.append,
            )

        assert manager.scale_up() == S2
        window_request("acct-02")
        simulator.run(until=simulator.now + 5.0)
        assert manager.drain_shard(S2)
        simulator.run(until=simulator.now + 0.26)
        window_request("acct-05")
        simulator.run(until=simulator.now + 5.0)
        assert len(outcomes) == 2
        assert all(o.get("ok") == 1 for o in outcomes), outcomes

        victims: list = []

        def crash_at_copy(phase: str, info: dict) -> None:
            if phase != "copy" or not victims:
                return
            if victims.pop() == "source":
                shard = next(
                    s for s in router.shards if s.host == info["sources"][0]
                )
                shard.crash()
                simulator.schedule(1.0, shard.restart, label="test.restart")
            else:
                manager.crash()

        manager.phase_hooks.append(crash_at_copy)
        victims.append("source")
        assert manager.scale_up() is None
        simulator.run(until=simulator.now + 5.0)
        victims.append("control")
        assert manager.drain_shard(S1)
        simulator.run(until=simulator.now + 5.0)
        assert manager.crashed and manager.busy
        manager.restart()
        assert not manager.busy
        assert [s.host for s in router.shards] == [S0, S1]

        full = ["capture", "copy", "tail_replay", "ring_flip", "dual_read"]
        assert phases == (
            [(p, "scale_up") for p in full]
            + [(p, "drain") for p in ["drain_poll"] + full]
            + [(p, "scale_up") for p in ("capture", "copy")]
            + [(p, "drain") for p in ("drain_poll", "capture", "copy")]
        )
        up_names = ["acct-02", "acct-05", "acct-14", "acct-15"]
        up_srcs = [(S0, up_names), (S1, ["acct-08", "acct-12"])]
        drained = sorted(up_names + ["acct-08", "acct-12"])
        records = manager.intent_log.records()
        assert [_readable(r) for r in records] == [
            {"t": "mig_prepare", "op": "scale_up-0", "k": "scale_up",
             "h": S2, "ph": "copy", "srcs": up_srcs},
            {"t": "mig_commit", "op": "scale_up-0", "k": "scale_up",
             "h": S2, "mvn": up_names + ["acct-08", "acct-12"],
             "mvh": [S2] * 6, "srcs": up_srcs},
            {"t": "mig_done", "op": "scale_up-0"},
            {"t": "mig_prepare", "op": "drain-1", "k": "drain", "h": S2,
             "ph": "poll", "srcs": [(S2, [])]},
            {"t": "mig_prepare", "op": "drain-1", "k": "drain", "h": S2,
             "ph": "copy", "srcs": [(S2, drained)]},
            {"t": "mig_commit", "op": "drain-1", "k": "drain", "h": S2,
             "mvn": up_names + ["acct-08", "acct-12"],
             "mvh": [S0] * 4 + [S1] * 2, "srcs": [(S2, drained)]},
            {"t": "mig_done", "op": "drain-1"},
            {"t": "mig_prepare", "op": "scale_up-2", "k": "scale_up",
             "h": S3, "ph": "copy",
             "srcs": [(S0, ["acct-02", "acct-03", "acct-05", "acct-14",
                            "acct-15"]),
                      (S1, ["acct-08"])]},
            {"t": "mig_abort", "op": "scale_up-2",
             "r": "participant crashed opening the copy window"},
            {"t": "mig_prepare", "op": "drain-3", "k": "drain", "h": S1,
             "ph": "poll", "srcs": [(S1, [])]},
            {"t": "mig_prepare", "op": "drain-3", "k": "drain", "h": S1,
             "ph": "copy",
             "srcs": [(S1, ["acct-00", "acct-01", "acct-08", "acct-09",
                            "acct-10", "acct-11", "acct-12"])]},
            {"t": "mig_abort", "op": "drain-3",
             "r": "recovered: no commit record"},
        ]
        # The records' bytes, not only their decoded values.
        assert hashlib.sha256(
            b"".join(encode_message(r) for r in records)
        ).hexdigest() == (
            "515f1801fe16ce52ff230ccf3c54d4e0df9bcdf942337346753dc8b5d1f9c21e"
        )
        assert [vars(r) for r in manager.reports] == [
            {"kind": "scale_up", "host": S2, "accounts": 6,
             "snapshot_bytes": 5312, "tail_records": 1, "tail_bytes": 461,
             "started_at": 0.34521201255892464,
             "flipped_at": 0.39587601255892463},
            {"kind": "drain", "host": S2, "accounts": 6,
             "snapshot_bytes": 5765, "tail_records": 1, "tail_bytes": 461,
             "started_at": 0.39587601255892463,
             "flipped_at": 0.6965966375589246},
        ]
        assert manager.totals() == {
            "migrations": 2, "accounts_moved": 12, "snapshot_bytes": 11077,
            "tail_records": 2, "tail_bytes": 922,
            "migration_s": 0.351384625, "failovers_reconciled": 0,
            "aborts": 2, "resumes": 0,
        }
        assert router.state_digest().hex() == (
            "b2ead70deef0fb6a60f9e7bcf5b50912f5b1bed2c5ba7947a462b51925f5acb9"
        )


class TestFailoverReconciliation:
    def test_overrides_drain_home_after_recovery(self):
        simulator, router, signing_key, make = _build(
            shard_count=4, journal=True
        )
        home_names = [
            name for name in (f"acct-{i:03d}" for i in range(200))
            if router.ring.host_for(name) == S0
        ]
        assert len(home_names) >= 5
        router.shards[0].crash()
        # Three transport failures trip shard 0's breaker...
        for name in home_names[:3]:
            with pytest.raises(RpcError):
                router.endpoint.call_sync(
                    CLIENT, "register", {"account": name, "password": "pw"}
                )
        assert router.breakers[S0].state != "closed"
        # ...then a register fails over to a live neighbor, recording
        # an override so the account stays findable.
        landed = home_names[3]
        response = router.endpoint.call_sync(
            CLIENT, "register",
            {"account": landed, "password": "pw", "opening_balance": 5_000},
        )
        assert response.get("ok") == 1
        assert landed in router._account_shard
        override = router._account_shard[landed]
        assert override != S0
        assert landed in router.shard(override).accounts

        router.shards[0].restart()
        # Carry the virtual clock past the breaker's reset timeout (the
        # queue is empty, so run() alone would not advance time).
        simulator.schedule(2.0, lambda: None, label="test.tick")
        simulator.run(until=simulator.now + 2.0)
        # A successful probe closes the breaker again.
        probe = router.endpoint.call_sync(
            CLIENT, "register",
            {"account": home_names[4], "password": "pw"},
        )
        assert probe.get("ok") == 1
        assert router.breakers[S0].state == "closed"

        manager = ShardPoolManager(simulator, router, make)
        moved = manager.reconcile_failovers()
        assert moved == 1
        # The regression: without reconciliation this map only grows.
        assert router._account_shard == {}
        assert landed in router.shards[0].accounts
        assert landed not in router.shard(override).accounts
        assert router.shard_for_account(landed) is router.shards[0]
        login = router.endpoint.call_sync(
            CLIENT, "login", {"account": landed, "password": "pw"}
        )
        assert "set_session" in login


class TestCrashSafety:
    def test_lost_flip_callback_releases_busy_via_watchdog(self):
        """The stuck-latch regression: a scale-up whose flip callback
        is lost used to latch ``busy`` forever, wedging the autoscaler.
        The watchdog now aborts the operation at its deadline."""
        simulator, router, signing_key, make = _build(shard_count=2)
        names = [f"acct-{i:02d}" for i in range(16)]
        cookies = {n: _enroll(router, signing_key, n) for n in names}
        manager = ShardPoolManager(simulator, router, make)
        assert manager.scale_up() == f"{POOL}!shard2"
        # Simulate the lost-callback failure mode: the scheduled flip
        # never fires.
        manager._op.flip_event.cancel()
        simulator.run(until=simulator.now + 1.0)
        assert manager.busy  # latched while the op is nominally live
        assert manager.scale_up() is None
        # The watchdog deadline (copy window + flip grace) lapses:
        # abort, not a forever-stuck latch.
        simulator.run(until=simulator.now + 60.0)
        assert not manager.busy
        assert simulator.metrics.counters().get("rebalance.aborts") == 1
        # The half-added shard is detached and the sources kept
        # ownership of every range.
        assert len(router.shards) == 2
        assert sum(len(s.accounts) for s in router.shards) == len(names)
        result = _transfer(
            router, signing_key, cookies[names[0]], 500, names[0]
        )
        assert result["status"] == "executed"
        # The pool scales again — on a fresh hostname, never reusing
        # the aborted one.
        assert manager.scale_up() == f"{POOL}!shard3"
        simulator.run(until=simulator.now + 5.0)
        assert not manager.busy
        assert manager.totals()["migrations"] == 1

    def test_drain_grace_lapse_with_legs_outstanding(self):
        """A drain whose shard never goes idle must not wait forever:
        when the grace period lapses with legs still outstanding, the
        copy proceeds anyway and the straggler's ``moved`` answer is
        re-aimed at the new owner."""
        simulator, router, signing_key, make = _build(shard_count=2)
        names = [f"acct-{i:02d}" for i in range(12)]
        cookies = {n: _enroll(router, signing_key, n) for n in names}
        manager = ShardPoolManager(
            simulator, router, make,
            drain_grace_s=2.0,
        )
        manager.scale_up()
        simulator.run(until=simulator.now + 5.0)
        migrated = sorted(router.shards[2].accounts)
        assert migrated
        victim = migrated[0]
        # Stall the shard's workers past the grace period and put a leg
        # in flight that cannot settle while they are stalled.
        shard = router.shards[2]
        shard.endpoint.stall_workers(3.0)
        outcomes: list = []
        router.endpoint.submit(
            CLIENT, "tx.request",
            {
                "kind": "transfer", "account": victim,
                "session": cookies[victim], "f.to": "sink", "f.amount": 41,
            },
            outcomes.append,
        )
        while not sum(router.outstanding.values()):
            simulator.run(until=simulator.now + 0.0005)
        drained_at = simulator.now
        assert manager.drain_shard(f"{POOL}!shard2")
        simulator.run(until=simulator.now + 20.0)
        # The grace lapse forced the copy: the shard is gone and busy
        # released well before the stall would have ended on its own.
        assert len(router.shards) == 2
        assert not manager.busy
        assert manager.totals()["migrations"] == 2
        report = manager.reports[-1]
        assert report.kind == "drain"
        assert 2.0 <= report.flipped_at - drained_at < 3.0
        # The stalled leg was re-aimed at the new owner instead of
        # hanging or surfacing a spurious denial.
        assert outcomes and "error" not in outcomes[-1], outcomes
        result = _transfer(router, signing_key, cookies[victim], 99, victim)
        assert result["status"] == "executed"

    def test_drain_keeps_a_registration_acknowledged_in_the_copy_window(self):
        """A register queued behind a stall on the draining shard
        executes inside the copy window and is acknowledged.  The flip
        must carry the new account to its survivor owner — the same
        copy-window rule a scale-up applies — not drop it with the
        departing shard."""
        simulator, router, signing_key, make = _build(shard_count=2)
        names = [f"acct-{i:02d}" for i in range(12)]
        for name in names:
            _enroll(router, signing_key, name)
        manager = ShardPoolManager(
            simulator, router, make,
            drain_grace_s=2.0, bandwidth_bytes_per_s=1_000.0,
        )
        assert manager.scale_up() == f"{POOL}!shard2"
        simulator.run(until=simulator.now + 30.0)
        assert not manager.busy and len(router.shards) == 3
        shard = router.shards[2]
        late = next(
            name for name in (f"late-{i:02d}" for i in range(100))
            if router.ring.host_for(name) == S2
        )
        shard.endpoint.stall_workers(2.6)
        outcomes: list = []
        router.endpoint.submit(
            CLIENT, "register",
            {"account": late, "password": "pw", "opening_balance": 500},
            outcomes.append,
        )
        while not sum(router.outstanding.values()):
            simulator.run(until=simulator.now + 0.0005)
        assert manager.drain_shard(f"{POOL}!shard2")
        simulator.run(until=simulator.now + 60.0)
        assert outcomes == [{"ok": 1}]
        assert len(router.shards) == 2 and not manager.busy
        owners = [s.host for s in router.shards if late in s.accounts]
        assert owners == [router.ring.host_for(late)]
        login = router.endpoint.call_sync(
            CLIENT, "login", {"account": late, "password": "pw"}
        )
        assert "set_session" in login, login

    def test_source_crash_during_copy_aborts_with_ownership_retained(self):
        simulator, router, signing_key, make = _build(shard_count=2)
        names = [f"acct-{i:02d}" for i in range(8)]
        cookies = {n: _enroll(router, signing_key, n) for n in names}
        manager = ShardPoolManager(simulator, router, make)
        fired: list = []

        def hook(phase: str, info: dict) -> None:
            if phase == "copy" and not fired:
                fired.append(info["sources"][0])
                source = next(
                    s for s in router.shards if s.host == fired[0]
                )
                source.crash()
                simulator.schedule(1.0, source.restart, label="test.restart")

        manager.phase_hooks.append(hook)
        assert manager.scale_up() is None  # aborted before the flip
        simulator.run(until=simulator.now + 10.0)
        assert fired
        assert not manager.busy
        assert _count(simulator, "rebalance.aborts") == 1
        assert manager.totals()["migrations"] == 0
        assert len(router.shards) == 2
        # The journaled source restarted bit-identical: every range
        # stayed owned and in-flight work still settles.
        assert sum(len(s.accounts) for s in router.shards) == len(names)
        result = _transfer(
            router, signing_key, cookies[names[0]], 250, names[0]
        )
        assert result["status"] == "executed"

    def test_manager_crash_before_commit_aborts_on_restart(self):
        simulator, router, signing_key, make = _build(shard_count=2)
        names = [f"acct-{i:02d}" for i in range(8)]
        cookies = {n: _enroll(router, signing_key, n) for n in names}
        manager = ShardPoolManager(simulator, router, make)
        manager.phase_hooks.append(
            lambda phase, info: manager.crash()
            if phase == "ring_flip" else None
        )
        assert manager.scale_up() == f"{POOL}!shard2"
        simulator.run(until=simulator.now + 5.0)
        # Crashed mid-protocol: busy stays latched until recovery
        # resolves the logged intent — no second operation may re-slice
        # the ranges in flight.
        assert manager.crashed and manager.busy
        assert manager.scale_up() is None
        manager.restart()
        assert not manager.busy
        assert _count(simulator, "rebalance.aborts") == 1
        assert _count(simulator, "rebalance.resumes") == 0
        # No commit record landed, so nothing durable changed hands:
        # the half-added shard is gone, sources kept every range.
        assert len(router.shards) == 2
        assert sum(len(s.accounts) for s in router.shards) == len(names)
        result = _transfer(
            router, signing_key, cookies[names[0]], 300, names[0]
        )
        assert result["status"] == "executed"

    def test_manager_crash_after_commit_resumes_on_restart(self):
        def run(crash: bool) -> tuple:
            simulator, router, signing_key, make = _build(shard_count=2)
            names = [f"acct-{i:02d}" for i in range(8)]
            for name in names:
                _enroll(router, signing_key, name)
            manager = ShardPoolManager(simulator, router, make)
            if crash:
                manager.phase_hooks.append(
                    lambda phase, info: manager.crash()
                    if phase == "dual_read" else None
                )
            assert manager.scale_up() == f"{POOL}!shard2"
            simulator.run(until=50.0)
            if crash:
                assert manager.crashed and manager.busy
                manager.restart()
            return manager, router

        manager, router = run(crash=True)
        # The commit record landed before the crash point, so recovery
        # re-asserts the durable transition idempotently: the migration
        # counts, the new shard owns its ranges.
        assert _count(manager.simulator, "rebalance.resumes") == 1
        assert _count(manager.simulator, "rebalance.aborts") == 0
        assert not manager.busy
        assert len(router.shards) == 3
        assert router.shards[2].accounts
        # Digest parity: the resumed pool is bit-identical to one whose
        # coordinator never crashed.
        _, reference = run(crash=False)
        assert router.state_digest() == reference.state_digest()


def _late_name(router, now_host, after_ring=None, after_host=None):
    """A fresh account name the current ring homes on ``now_host``
    (and, given ``after_ring``, that ring homes on ``after_host``)."""
    return next(
        name for name in (f"late-{i:03d}" for i in range(1000))
        if router.ring.host_for(name) == now_host
        and (after_ring is None or after_ring.host_for(name) == after_host)
    )


def _queue_register(simulator, router, name):
    """Submit a register through the router and run until its shard leg
    is in flight; returns the list its outcome will land in."""
    outcomes: list = []
    router.endpoint.submit(
        CLIENT, "register",
        {"account": name, "password": "pw", "opening_balance": 500},
        outcomes.append,
    )
    while not sum(router.outstanding.values()):
        simulator.run(until=simulator.now + 0.0005)
    return outcomes


def _assert_single_routed_holder(router, checker, name):
    """The acknowledged account has exactly one live holder, the router
    routes to it, and a login succeeds on the first try."""
    report = checker.check()
    assert report.ok, report.violations
    holders = [s.host for s in router.shards if name in s.accounts]
    assert holders == [router.shard_for_account(name).host]
    redirects = _count(router.simulator, "router.dual_read_redirects")
    login = router.endpoint.call_sync(
        CLIENT, "login", {"account": name, "password": "pw"}
    )
    assert "set_session" in login, login
    assert _count(router.simulator, "router.dual_read_redirects") == redirects


class TestOwnershipFence:
    """Registrations racing a ring flip, pinned.  A ``register`` queued
    behind a worker stall on the old owner used to execute after the
    flip and be acknowledged but stranded; the old owner now answers
    ``moved`` and the router re-aims the request at the current owner.
    One executing inside an account-less drain's copy window used to be
    dropped with the shard; the flip now plans a move for it."""

    def _manager(self, simulator, router, make):
        return ShardPoolManager(
            simulator, router, make,
            drain_grace_s=2.0, bandwidth_bytes_per_s=1_000.0,
        )

    def test_register_executing_after_a_scale_up_flip_lands_on_new_owner(self):
        simulator, router, _, make = _build(shard_count=2)
        manager = self._manager(simulator, router, make)
        checker = InvariantChecker(router, manager)
        grown = HashRing([S0, S1, S2])
        late = _late_name(router, S0, grown, S2)
        router.shards[0].endpoint.stall_workers(3.0)
        outcomes = _queue_register(simulator, router, late)
        assert manager.scale_up() == S2
        simulator.run(until=simulator.now + 60.0)
        assert outcomes == [{"ok": 1}]
        assert len(router.shards) == 3 and not manager.busy
        _assert_single_routed_holder(router, checker, late)

    def test_register_in_a_scale_up_copy_window_on_a_shard_moving_nothing(
        self,
    ):
        """The copy window of a scale-up whose sources move no account:
        a register executing there on any shard still follows the ring
        the flip installs."""
        simulator, router, _, make = _build(shard_count=2)
        manager = self._manager(simulator, router, make)
        checker = InvariantChecker(router, manager)
        grown = HashRing([S0, S1, S2])
        late = _late_name(router, S0, grown, S2)
        router.shards[0].endpoint.stall_workers(0.03)
        outcomes = _queue_register(simulator, router, late)
        assert manager.scale_up() == S2
        simulator.run(until=manager._op.flip_event.time - 1e-6)
        assert late in router.shards[0].accounts  # inside the window
        simulator.run(until=simulator.now + 60.0)
        assert outcomes == [{"ok": 1}]
        _assert_single_routed_holder(router, checker, late)

    def test_crash_of_a_tapped_shard_moving_nothing_aborts_the_scale_up(self):
        """A scale-up taps every old shard, sources or not.  A crash of
        one that moves no account severs its tap, so a register it
        executes after restarting would go unrecorded: the flip aborts
        instead, and the account stays with the shard that holds it."""
        simulator, router, _, make = _build(shard_count=2)
        manager = ShardPoolManager(
            simulator, router, make, transfer_latency_s=1.0
        )
        checker = InvariantChecker(router, manager)
        grown = HashRing([S0, S1, S2])
        late = _late_name(router, S0, grown, S2)
        shard0 = router.shards[0]
        assert manager.scale_up() == S2
        assert shard0 not in manager._op.sources  # no account to move
        simulator.schedule(0.1, shard0.crash, label="test.crash")
        simulator.schedule(0.2, shard0.restart, label="test.restart")
        simulator.run(until=simulator.now + 0.3)
        outcomes = _queue_register(simulator, router, late)
        simulator.run(until=simulator.now + 30.0)
        assert outcomes == [{"ok": 1}]
        assert _count(simulator, "rebalance.aborts") == 1
        assert manager.totals()["migrations"] == 0
        assert len(router.shards) == 2 and not manager.busy
        _assert_single_routed_holder(router, checker, late)

    def _scaled(self):
        simulator, router, _, make = _build(shard_count=2)
        manager = self._manager(simulator, router, make)
        checker = InvariantChecker(router, manager)
        assert manager.scale_up() == S2
        simulator.run(until=simulator.now + 30.0)
        assert not manager.busy and len(router.shards) == 3
        return simulator, router, manager, checker

    def test_register_executing_after_a_drain_flip_survives_the_removal(self):
        simulator, router, manager, checker = self._scaled()
        late = _late_name(router, S2)
        router.shards[2].endpoint.stall_workers(3.5)
        outcomes = _queue_register(simulator, router, late)
        assert manager.drain_shard(S2)
        simulator.run(until=simulator.now + 60.0)
        assert outcomes == [{"ok": 1}]
        assert len(router.shards) == 2 and not manager.busy
        _assert_single_routed_holder(router, checker, late)

    def test_register_in_the_copy_window_of_an_account_less_drain(self):
        simulator, router, manager, checker = self._scaled()
        assert not router.shards[2].accounts
        late = _late_name(router, S2)
        router.shards[2].endpoint.stall_workers(2.01)
        outcomes = _queue_register(simulator, router, late)
        assert manager.drain_shard(S2)
        simulator.run(until=simulator.now + 60.0)
        assert outcomes == [{"ok": 1}]
        assert len(router.shards) == 2 and not manager.busy
        _assert_single_routed_holder(router, checker, late)

    def test_checker_flags_an_account_left_on_a_removed_shard(self):
        simulator, router, manager, checker = self._scaled()
        removed = router.shards[2]
        assert manager.drain_shard(S2)
        simulator.run(until=simulator.now + 30.0)
        assert len(router.shards) == 2
        assert checker.check().ok
        removed.accounts["orphan"] = AccountRecord("orphan", "pw")
        report = checker.check()
        assert report.to_row()["failed"] == ["no_stranded_accounts"]

    def test_executed_request_crossing_the_flip_is_delivered_as_is(self):
        """Work the old owner executed before the flip is never re-aimed:
        its answer is delivered unchanged, and the new owner holds the
        one challenge it created."""
        simulator, router, signing_key, make = _build(shard_count=2)
        names = [f"acct-{i:02d}" for i in range(16)]
        cookies = {n: _enroll(router, signing_key, n) for n in names}
        grown = HashRing([S0, S1, S2])
        victim = next(n for n in names if grown.host_for(n) == S2)
        source = router.shard_for_account(victim)
        manager = ShardPoolManager(
            simulator, router, make,
            transfer_latency_s=0.0, bandwidth_bytes_per_s=1e15,
        )
        before = len(source.challenges)
        outcomes: list = []
        router.endpoint.submit(
            CLIENT, "tx.request",
            {
                "kind": "transfer", "account": victim,
                "session": cookies[victim], "f.to": "sink", "f.amount": 12,
            },
            outcomes.append,
        )
        # Run until the old owner has executed the request; its answer
        # is now on the wire back to the router.  Flip underneath it.
        while len(source.challenges) == before:
            simulator.run(until=simulator.now + 0.0001)
        assert not outcomes
        redirects = _count(simulator, "router.dual_read_redirects")
        assert manager.scale_up() == S2
        simulator.run(until=simulator.now + 5.0)
        assert len(outcomes) == 1 and outcomes[0].get("ok") == 1, outcomes
        assert _count(simulator, "router.dual_read_redirects") == redirects
        new_owner = router.shards[2]
        mine = [
            c for c in new_owner.challenges.values() if c.account == victim
        ]
        assert [c.challenge_id for c in mine] == [outcomes[0]["tx_id"]]
        result = _confirm(router, signing_key, cookies[victim], outcomes[0])
        assert result["status"] == "executed"

    def test_stale_cookie_leg_is_re_aimed_long_after_the_flip(
        self, monkeypatch
    ):
        """No time limit: a cookie leg stalled on the old owner lands 5 s
        after the flip and is still re-aimed at the new owner."""
        simulator, router, signing_key, make = _build(shard_count=2)
        monkeypatch.setattr(router_module, "SHARD_LEG_POLICY", RetryPolicy(
            initial_timeout=0.2, backoff=2.0, max_timeout=1.0,
            max_attempts=4, deadline=20.0,
        ))
        names = [f"acct-{i:02d}" for i in range(16)]
        cookies = {n: _enroll(router, signing_key, n) for n in names}
        grown = HashRing([S0, S1, S2])
        victim = next(n for n in names if grown.host_for(n) == S2)
        source = router.shard_for_account(victim)
        manager = ShardPoolManager(simulator, router, make)
        source.endpoint.stall_workers(6.0)
        outcomes: list = []
        router.endpoint.submit(
            CLIENT, "tx.request",
            {
                "kind": "transfer", "account": victim,
                "session": cookies[victim], "f.to": "sink", "f.amount": 13,
            },
            outcomes.append,
        )
        while not sum(router.outstanding.values()):
            simulator.run(until=simulator.now + 0.0005)
        assert manager.scale_up() == S2
        simulator.run(until=simulator.now + 1.0)
        assert not manager.busy and not outcomes
        flipped_at = manager.reports[-1].flipped_at
        simulator.run(until=simulator.now + 30.0)
        assert outcomes and outcomes[0].get("ok") == 1, outcomes
        assert simulator.now - flipped_at > 5.0
        assert _count(simulator, "router.dual_read_redirects") == 1
        result = _confirm(router, signing_key, cookies[victim], outcomes[0])
        assert result["status"] == "executed"


class TestHostKeyedTables:
    def test_leg_in_flight_to_a_later_shard_survives_an_earlier_removal(self):
        """Draining a shard listed before another must not disturb a
        queued leg in flight to the later one: when its answer lands
        after the removal, it settles the later shard's backlog, feeds
        its breaker and teaches the cookie route to it."""
        simulator, router, signing_key, make = _build(shard_count=3)
        name = next(
            n for n in (f"acct-{i:02d}" for i in range(100))
            if router.ring.host_for(n) == S2
        )
        _enroll(router, signing_key, name)
        manager = ShardPoolManager(
            simulator, router, make,
            transfer_latency_s=0.0, bandwidth_bytes_per_s=1e15,
        )
        breaker = router.breakers[S2]
        breaker.record_failure(simulator.now)
        assert breaker.failures == 1 and breaker.state == "closed"
        router.shard(S2).endpoint.stall_workers(1.0)
        outcomes: list = []
        router.endpoint.submit(
            CLIENT, "login", {"account": name, "password": "pw"},
            outcomes.append,
        )
        while not router.outstanding[S2]:
            simulator.run(until=simulator.now + 0.0005)
        assert manager.drain_shard(S1)
        while manager.busy:
            simulator.run(until=simulator.now + 0.01)
        assert [s.host for s in router.shards] == [S0, S2]
        assert not outcomes and router.outstanding[S2] == 1
        simulator.run(until=simulator.now + 5.0)
        assert len(outcomes) == 1 and "set_session" in outcomes[0], outcomes
        assert router.outstanding == {S0: 0, S2: 0}
        assert breaker.failures == 0
        assert router._cookie_shard[outcomes[0]["set_session"]] == S2


class TestAutoScaler:
    def test_scales_up_under_pressure_and_drains_in_calm(self):
        simulator, router, signing_key, make = _build(
            shard_count=1, journal=False
        )
        manager = ShardPoolManager(
            simulator, router, make, transfer_latency_s=0.05
        )
        scaler = AutoScaler(
            simulator, router, manager,
            min_shards=1, max_shards=2, tick_s=1.0,
            up_ticks=2, down_ticks=5, cooldown_s=3.0,
        )
        scaler.start()

        # Synthetic pressure: shedding for four consecutive seconds.
        def shed_burst() -> None:
            simulator.metrics.counter("router.shed").increment(5)

        for second in range(4):
            simulator.schedule(second + 0.5, shed_burst, label="test.shed")
        simulator.run(until=5.0)
        ups = [e for e in scaler.events if e["action"] == "scale_up"]
        assert len(ups) == 1  # max_shards + cooldown cap the response
        assert len(router.shards) == 2
        # Hysteresis: the first pressure tick alone must not scale.
        assert ups[0]["at"] >= 2.0

        # Calm: no shedding, empty backlogs -> drain back down.
        simulator.run(until=60.0)
        downs = [e for e in scaler.events if e["action"] == "drain"]
        assert len(downs) == 1
        assert len(router.shards) == 1
        assert scaler.ticks > 0
