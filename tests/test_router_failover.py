"""Router health under crash-stop shards: degraded mode, not hangs.

One dead shard must cost exactly its own accounts' availability: the
surviving shards keep serving at full goodput, callers routed to the
dead shard get an explicit, structured refusal (dead-letter deadline
error or ``DENIAL_SHARD_DOWN``), and nobody waits forever.  Also covers
the circuit-breaker lifecycle, register-only failover, bounded-queue
load shedding, the dead-lettered ``DeferredResponse`` leg, stale-cookie
pruning, and the fault injector's crash windows.
"""

from __future__ import annotations

import pytest

from repro.core.confirmation_pal import confirmation_digest
from repro.crypto import HmacDrbg, generate_rsa_keypair, pkcs1_sign
from repro.net.network import LinkSpec, Network
from repro.net.retry import DEADLINE_ERROR_KEY, RPC_OVERLOADED_KEY
from repro.net.rpc import RpcEndpoint, RpcError
from repro.os.disk import UntrustedDisk
from repro.server.bank import BankServer
from repro.server.policy import VerifierPolicy
from repro.server.router import (
    DENIAL_SHARD_DOWN,
    SHARD_DOWN_KEY,
    CircuitBreaker,
    build_sharded_pool,
)
from repro.sim import FaultInjector, Simulator

CLIENT = "load-host"
POOL = "pool.test"


def _build(journal: bool = True, seed: int = 2024, **pool_kwargs):
    simulator = Simulator(seed=seed)
    network = Network(simulator)
    network.attach(CLIENT, LinkSpec.lan())
    policy = VerifierPolicy()
    disk = UntrustedDisk() if journal else None
    router = build_sharded_pool(
        simulator, network, POOL, policy,
        shard_count=4, provider_factory=BankServer, workers_per_shard=1,
        journal_disk=disk, **pool_kwargs,
    )
    signing_key = generate_rsa_keypair(512, HmacDrbg(b"failover-signing"))
    return simulator, router, signing_key


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


def _submit_transfer(router, signing_key, cookie, name, amount, outcomes):
    """Queued two-leg flow recording exactly one outcome per call."""
    def on_challenge(response):
        if response.get("error"):
            outcomes.append(response)
            return
        digest = confirmation_digest(
            response["text"], response["nonce"], b"accept"
        )
        signature = pkcs1_sign(signing_key, digest, prehashed=True)
        router.endpoint.submit(
            CLIENT, "tx.confirm",
            {
                "tx_id": response["tx_id"], "decision": b"accept",
                "evidence": "signed", "signature": signature,
                "session": cookie,
            },
            outcomes.append,
        )

    router.endpoint.submit(
        CLIENT, "tx.request",
        {
            "kind": "transfer", "account": name, "session": cookie,
            "f.to": "sink", "f.amount": amount,
        },
        on_challenge,
    )


class TestOneDeadShard:
    def test_survivors_at_full_goodput_victims_denied_explicitly(self):
        simulator, router, signing_key = _build()
        names = [f"acct-{index:02d}" for index in range(16)]
        cookies = {n: _enroll(router, signing_key, n) for n in names}
        dead = router.shards[0]
        victims = {n for n in names if router.shard_for_account(n) is dead}
        survivors = set(names) - victims
        assert victims and survivors  # 16 accounts cover all 4 shards

        dead.crash()
        per_account: dict = {}
        for index, name in enumerate(names):
            per_account[name] = []
            _submit_transfer(
                router, signing_key, cookies[name], name,
                1000 + index, per_account[name],
            )
        simulator.run(until=simulator.now + 30.0)

        # Nobody hangs: every flow produced a terminal outcome.
        assert all(per_account[name] for name in names)
        for name in survivors:
            final = per_account[name][-1]
            assert final.get("status") == "executed", (name, final)
        for name in victims:
            final = per_account[name][-1]
            assert final.get("error"), (name, final)
            assert (
                DEADLINE_ERROR_KEY in final or SHARD_DOWN_KEY in final
            ), (name, final)
        # The survivors' goodput is untouched by the neighbour's death.
        assert len(survivors) == sum(
            1 for n in survivors
            if per_account[n][-1].get("status") == "executed"
        )


class TestCircuitBreaker:
    def test_opens_after_failures_then_probe_recloses(self):
        simulator, router, signing_key = _build(
            breaker_threshold=3, breaker_reset_s=0.5,
        )
        name = "acct-00"
        _enroll(router, signing_key, name)
        shard = router.shard_for_account(name)
        shard.crash()

        # Transport failures accumulate until the breaker trips.
        for _ in range(3):
            with pytest.raises(RpcError):
                router.endpoint.call_sync(
                    CLIENT, "login", {"account": name, "password": "pw"}
                )
        assert router.breaker_states()[shard.host] == "open"

        # While open: immediate structured denial, not another attempt.
        with pytest.raises(RpcError) as denied:
            router.endpoint.call_sync(
                CLIENT, "login", {"account": name, "password": "pw"}
            )
        assert denied.value.response[SHARD_DOWN_KEY] == 1
        assert DENIAL_SHARD_DOWN in denied.value.response["error"]
        assert router.denials[DENIAL_SHARD_DOWN] >= 1

        # Recovery: shard restarts, reset timeout elapses, the half-open
        # probe succeeds and the breaker recloses.
        shard.restart()
        simulator.clock.advance(0.6)
        login = router.endpoint.call_sync(
            CLIENT, "login", {"account": name, "password": "pw"}
        )
        assert login["set_session"]
        assert router.breaker_states()[shard.host] == "closed"

    def test_half_open_failure_reopens(self):
        simulator = Simulator(seed=3)
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=1.0)
        breaker.record_failure(simulator.now)
        breaker.record_failure(simulator.now)
        assert breaker.state == "open"
        assert not breaker.allow(0.5)
        assert breaker.allow(1.5)          # the single half-open probe
        assert not breaker.allow(1.6)      # second probe refused
        breaker.record_failure(1.7)
        assert breaker.state == "open"     # failed probe reopens at once

    def test_register_fails_over_to_live_successor(self):
        simulator, router, signing_key = _build(breaker_threshold=1)
        shard0 = router.shards[0]
        shard0_names = [
            f"newcomer-{index}" for index in range(1000)
            if router.ring.host_for(f"newcomer-{index}") == shard0.host
        ]
        tripper, probe = shard0_names[:2]
        shard0.crash()
        with pytest.raises(RpcError):
            router.endpoint.call_sync(
                CLIENT, "login", {"account": tripper, "password": "x"}
            )
        assert router.breaker_states()[shard0.host] == "open"

        # A brand-new account has no home yet: re-homed, not denied.
        router.endpoint.call_sync(
            CLIENT, "register", {"account": probe, "password": "pw"},
        )
        assert router.register_failovers == 1
        assert router.shard_for_account(probe) is not shard0
        login = router.endpoint.call_sync(
            CLIENT, "login", {"account": probe, "password": "pw"}
        )
        assert login["set_session"]


class TestLoadShedding:
    def test_full_shard_queue_sheds_explicitly(self):
        simulator, router, signing_key = _build(max_shard_queue_depth=2)
        names = [f"acct-{index:02d}" for index in range(4)]
        cookies = {n: _enroll(router, signing_key, n) for n in names}
        target = names[0]
        outcomes: list = []
        for _ in range(40):
            router.endpoint.submit(
                CLIENT, "tx.request",
                {
                    "kind": "transfer", "account": target,
                    "session": cookies[target],
                    "f.to": "sink", "f.amount": 100,
                },
                outcomes.append,
            )
        simulator.run(until=simulator.now + 30.0)
        assert len(outcomes) == 40  # every call resolved
        shed = [r for r in outcomes if r.get(RPC_OVERLOADED_KEY)]
        assert shed, "expected explicit overload rejections"
        assert simulator.metrics.counter("router.shed").value == len(shed)
        assert all("overloaded" in r["error"] for r in shed)


class TestDeferredDeadLetter:
    def test_dead_lettered_leg_resolves_caller_without_leaks(self):
        """A shard that dies mid-flight dead-letters the forwarded leg;
        the router must resolve the caller's DeferredResponse with the
        structured deadline error and leave no deferred slot pending."""
        simulator, router, signing_key = _build()
        name = "acct-00"
        cookie = _enroll(router, signing_key, name)
        shard = router.shard_for_account(name)

        outcomes: list = []
        router.endpoint.submit(
            CLIENT, "tx.request",
            {
                "kind": "transfer", "account": name, "session": cookie,
                "f.to": "sink", "f.amount": 500,
            },
            outcomes.append,
        )
        # Kill the shard while the leg is in flight (before any service
        # completes), then run far past the leg's retry deadline.
        simulator.schedule(0.0001, shard.crash, label="test:crash")
        simulator.run(until=simulator.now + 30.0)

        assert len(outcomes) == 1
        assert outcomes[0][DEADLINE_ERROR_KEY] == 1
        # No leaked deferred slot: every response the router accepted
        # has a concrete payload cached, none is still pending.
        assert all(
            payload is not None
            for payload in router.endpoint._request_cache.values()
        )
        assert simulator.metrics.counter("rpc.dead_letters").value >= 1


class TestCookiePruning:
    def test_stale_cookie_pruned_on_denial_path(self):
        simulator, router, signing_key = _build(journal=False)
        name = "acct-00"
        cookie = _enroll(router, signing_key, name)
        shard = router.shard_for_account(name)
        assert cookie in router._cookie_shard
        shard.crash()
        shard.restart()  # journal-off: session table gone, mapping stale

        with pytest.raises(RpcError, match="not logged in"):
            router.endpoint.call_sync(
                CLIENT, "tx.request",
                {
                    "kind": "transfer", "account": name, "session": cookie,
                    "f.to": "sink", "f.amount": 100,
                },
            )
        assert cookie not in router._cookie_shard
        assert simulator.metrics.counter("router.cookie_prunes").value == 1

        # Re-login relearns the route and the account works again.
        login = router.endpoint.call_sync(
            CLIENT, "login", {"account": name, "password": "pw"}
        )
        assert login["set_session"] in router._cookie_shard


class TestCrashWindows:
    def test_crash_windows_kill_and_restart_the_endpoint(self):
        simulator = Simulator(seed=11)
        network = Network(simulator)
        network.attach("victim", LinkSpec.lan())
        endpoint = RpcEndpoint(simulator, network, "victim", workers=1)
        injector = FaultInjector(simulator, horizon=10.0, name="crashes")
        windows = injector.add_crashes(endpoint, 0.5, 0.8)
        assert windows
        # Windows never overlap after merging: each crash has a restart.
        for earlier, later in zip(windows, windows[1:]):
            assert earlier.end <= later.start

        inside = windows[0].start + 0.01
        after = windows[-1].end + 0.01
        observed = {}
        simulator.schedule_at(
            inside, lambda: observed.setdefault("inside", endpoint.crashed)
        )
        simulator.schedule_at(
            after, lambda: observed.setdefault("after", endpoint.crashed)
        )
        simulator.run(until=after + 1.0)
        assert observed == {"inside": True, "after": False}
        assert injector.crashes_scheduled == len(windows)

    def test_empty_crash_plan_is_counted(self):
        simulator = Simulator(seed=12)
        network = Network(simulator)
        network.attach("victim", LinkSpec.lan())
        endpoint = RpcEndpoint(simulator, network, "victim", workers=1)
        injector = FaultInjector(simulator, horizon=10.0, name="crashes")
        # A rate so low the Poisson draw never lands inside the horizon:
        # a configured-but-empty plan, which must be visible, not silent.
        assert injector.add_crashes(endpoint, 1e-9, 1.0) == []
        assert injector.empty_plans == {"crash:victim": 1}
        assert simulator.metrics.counter("faults.empty_plan").value == 1
