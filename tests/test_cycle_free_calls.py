"""Queued calls are freed by reference counting, not the cycle collector.

A finished queued call — and everything its ``on_response`` reaches:
load-generator sessions, router relays, deferred responses — must leave
no reference cycle behind.  Each check runs with the cyclic collector
off and then asks it how much unreachable garbage is left: any cycle on
the queued path shows up as a non-zero count.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

from repro.bench.loadgen import LOAD_HOST, LoadEngine, SessionMix
from repro.crypto import HmacDrbg, generate_rsa_keypair
from repro.net.network import LinkSpec, Network
from repro.net.retry import DEADLINE_ERROR_KEY, RetryPolicy
from repro.net.rpc import RpcEndpoint
from repro.server.bank import BankServer
from repro.server.policy import VerifierPolicy
from repro.server.rebalance import ShardPoolManager
from repro.server.router import build_sharded_pool
from repro.sim import ConstantLatency, Simulator

#: Retransmit after 0.1 s; dead-letter after 1 s.
POLICY = RetryPolicy(
    initial_timeout=0.1, backoff=2.0, max_timeout=0.4, max_attempts=4,
    deadline=1.0,
)


@contextmanager
def collector_off():
    """Run the body with the cyclic collector disabled, starting from a
    heap with no garbage in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        yield
    finally:
        if enabled:
            gc.enable()


class TestQueuedCall:
    def _endpoint(self):
        simulator = Simulator(seed=5)
        network = Network(simulator)
        for host in ("client", "server"):
            network.attach(host, LinkSpec(latency=ConstantLatency(0.01)))
        endpoint = RpcEndpoint(simulator, network, "server")
        endpoint.register("echo", lambda request: {"echo": request["x"]})
        return simulator, endpoint

    def _run_one_call(self, simulator, endpoint):
        responses = []
        with collector_off():
            endpoint.submit(
                "client", "echo", {"x": 7}, responses.append, policy=POLICY
            )
            simulator.run()
            garbage = gc.collect()
        assert len(responses) == 1, responses
        assert endpoint._router.pending == {}
        assert garbage == 0, f"{garbage} objects left for the cycle collector"
        return responses[0]

    def test_completed_call(self):
        simulator, endpoint = self._endpoint()
        assert self._run_one_call(simulator, endpoint) == {"echo": 7}
        assert endpoint.retransmits == 0

    def test_call_retransmitted_after_a_dropped_request(self):
        simulator, endpoint = self._endpoint()
        # The first request reaches a crashed host and vanishes; the
        # host is back before the retransmission timer fires.
        endpoint.crash()
        simulator.schedule(0.05, endpoint.restart)
        assert self._run_one_call(simulator, endpoint) == {"echo": 7}
        assert endpoint.retransmits >= 1

    def test_call_dead_lettered_at_its_deadline(self):
        simulator, endpoint = self._endpoint()
        endpoint.crash()
        response = self._run_one_call(simulator, endpoint)
        assert response[DEADLINE_ERROR_KEY] == 1
        assert endpoint.dead_letters == 1
        assert endpoint.retransmits == POLICY.max_attempts - 1


def test_pool_day_with_a_scale_up_and_a_drain_leaves_no_cycles():
    simulator = Simulator(seed=11)
    network = Network(simulator)
    network.attach(LOAD_HOST, LinkSpec.lan())
    policy = VerifierPolicy()
    router = build_sharded_pool(
        simulator, network, "pool.gc", policy, shard_count=2,
        provider_factory=BankServer, workers_per_shard=1,
    )

    def make_shard(host: str) -> BankServer:
        network.attach(host, LinkSpec.lan())
        return BankServer(simulator, network, host, policy, workers=1)

    manager = ShardPoolManager(simulator, router, make_shard)
    engine = LoadEngine(
        simulator, router, users=120, accounts=16, day_seconds=60.0,
        signing_key=generate_rsa_keypair(512, HmacDrbg(b"gc-guard")),
        mix=SessionMix(one_shot=0.75, batch=0.25, long_lived=0.0),
    )
    engine.setup_accounts()
    grown, drained = [], []
    simulator.schedule(15.0, lambda: grown.append(manager.scale_up()))
    simulator.schedule(
        35.0, lambda: drained.append(manager.drain_shard(grown[0]))
    )
    with collector_off():
        report = engine.run_day()
        garbage = gc.collect()
    assert grown[0] is not None and drained == [True]
    assert router.shard(grown[0]) is None and len(router.shards) == 2
    assert report.sessions_completed > 0
    assert router.endpoint._router.pending == {}
    assert garbage == 0, f"{garbage} objects left for the cycle collector"
