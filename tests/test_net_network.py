"""Network transfer/latency/loss and RPC endpoints with queueing."""

from __future__ import annotations

import struct

import pytest

from repro.net.messages import encode_message
from repro.net.network import LinkSpec, Network, NetworkError
from repro.net.rpc import RpcEndpoint, RpcError
from repro.sim import ConstantLatency


def _net(simulator, loss=0.0):
    network = Network(simulator)
    network.attach("a", LinkSpec(latency=ConstantLatency(0.010), loss_probability=loss))
    network.attach("b", LinkSpec(latency=ConstantLatency(0.005)))
    return network


class TestNetwork:
    def test_transfer_charges_latency(self, simulator):
        network = _net(simulator)
        before = simulator.now
        network.transfer("a", "b", b"payload")
        assert simulator.now - before == pytest.approx(0.015)

    def test_unknown_host_rejected(self, simulator):
        network = _net(simulator)
        with pytest.raises(NetworkError):
            network.transfer("a", "ghost", b"x")
        with pytest.raises(NetworkError):
            network.attach("a")  # duplicate

    def test_loss_raises_and_counts(self, simulator):
        network = _net(simulator, loss=1.0)
        with pytest.raises(NetworkError):
            network.transfer("a", "b", b"x")
        assert network.packets_dropped == 1

    def test_async_send_delivers_later(self, simulator):
        network = _net(simulator)
        received = []
        network.set_inbox("b", lambda source, payload: received.append(
            (source, payload, simulator.now)
        ))
        network.send("a", "b", b"hello")
        assert received == []  # not yet delivered
        simulator.run()
        assert received[0][0] == "a" and received[0][1] == b"hello"
        assert received[0][2] == pytest.approx(0.015)

    def test_send_requires_inbox(self, simulator):
        network = _net(simulator)
        with pytest.raises(NetworkError):
            network.send("a", "b", b"x")

    def test_byte_accounting(self, simulator):
        network = _net(simulator)
        network.transfer("a", "b", b"12345")
        assert network.bytes_sent == 5 and network.packets_sent == 1

    def test_other_hosts_traffic_leaves_draws_unchanged(self):
        """Latency and loss draws come from the *source* host's stream:
        traffic from c never shifts the a->b timeline."""
        from repro.sim import Simulator

        def a_to_b_arrivals(with_c_traffic: bool):
            sim = Simulator(seed=5)
            network = Network(sim)
            arrivals = []

            def inbox(source, payload):
                if source == "a":
                    arrivals.append(sim.now)

            for host in ("a", "b", "c"):
                network.attach(host, LinkSpec.lossy_wan(0.1), inbox=inbox)
            for i in range(40):
                sim.schedule_at(0.01 * i, lambda: network.send("a", "b", b"x"))
                if with_c_traffic:
                    sim.schedule_at(
                        0.01 * i, lambda: network.send("c", "b", b"noise")
                    )
                    sim.schedule_at(
                        0.01 * i, lambda: network.send("c", "a", b"noise")
                    )
            sim.run()
            return arrivals

        quiet = a_to_b_arrivals(False)
        assert 0 < len(quiet) < 40  # some a->b packets were lost
        assert a_to_b_arrivals(True) == quiet


class TestRpcSync:
    def _endpoint(self, simulator):
        network = _net(simulator)
        endpoint = RpcEndpoint(simulator, network, "b")
        endpoint.register("double", lambda req: {"value": req["value"] * 2},
                          service_time=0.003)
        endpoint.register("boom", lambda req: (_ for _ in ()).throw(ValueError("x")))
        return endpoint

    def test_call_sync(self, simulator):
        endpoint = self._endpoint(simulator)
        before = simulator.now
        response = endpoint.call_sync("a", "double", {"value": 21})
        assert response["value"] == 42
        # two transfers (0.015 each) + service time
        assert simulator.now - before == pytest.approx(0.033)

    def test_unknown_method(self, simulator):
        endpoint = self._endpoint(simulator)
        with pytest.raises(RpcError):
            endpoint.call_sync("a", "missing", {})
        assert endpoint.requests_failed == 1

    def test_handler_exception_surfaces_as_rpc_error(self, simulator):
        endpoint = self._endpoint(simulator)
        with pytest.raises(RpcError) as err:
            endpoint.call_sync("a", "boom", {})
        assert "ValueError" in str(err.value)

    def test_served_counter(self, simulator):
        endpoint = self._endpoint(simulator)
        endpoint.call_sync("a", "double", {"value": 1})
        endpoint.call_sync("a", "double", {"value": 2})
        assert endpoint.requests_served == 2


class TestRpcQueued:
    def test_single_worker_serializes(self, simulator):
        network = _net(simulator)
        endpoint = RpcEndpoint(simulator, network, "b", workers=1)
        endpoint.register("work", lambda req: {"ok": 1}, service_time=0.1)
        completions = []
        for _ in range(3):
            endpoint.submit(
            "a", "work", {}, lambda r: completions.append(simulator.now)
        )
        simulator.run()
        assert len(completions) == 3
        # Completions are spaced by the service time (single worker).
        gaps = [b - a for a, b in zip(completions, completions[1:])]
        assert all(gap == pytest.approx(0.1, abs=1e-6) for gap in gaps)

    def test_multiple_workers_parallelize(self, simulator):
        network = _net(simulator)
        endpoint = RpcEndpoint(simulator, network, "b", workers=3)
        endpoint.register("work", lambda req: {"ok": 1}, service_time=0.1)
        completions = []
        for _ in range(3):
            endpoint.submit(
            "a", "work", {}, lambda r: completions.append(simulator.now)
        )
        simulator.run()
        spread = max(completions) - min(completions)
        assert spread < 0.01  # all three served concurrently

    def test_queue_peak_tracked(self, simulator):
        network = _net(simulator)
        endpoint = RpcEndpoint(simulator, network, "b", workers=1)
        endpoint.register("work", lambda req: {"ok": 1}, service_time=0.5)
        for _ in range(5):
            endpoint.submit("a", "work", {}, lambda r: None)
        simulator.run()
        assert endpoint.queue_peak >= 3


def _frame(key: bytes, tag: bytes, value: bytes) -> bytes:
    """One-field wire frame, built by hand so it can be malformed."""
    return (
        struct.pack(">I", 1) + struct.pack(">I", len(key)) + key
        + tag + struct.pack(">I", len(value)) + value
    )


def _deep_list_frame(depth: int) -> bytes:
    body = b""
    for _ in range(depth - 1):
        body = b"L" + struct.pack(">I", len(body)) + body
    return _frame(b"kind", b"L", body)


#: (source, destination, payload): untrusted packets that once raised out
#: of the event loop.  Responses travel b -> a (the caller's inbox),
#: requests a -> b; call id 0 is the honest call in flight.
MALFORMED_PACKETS = {
    "req-list-call": ("a", "b", encode_message({
        "kind": "req", "call": [0], "method": "double",
        "body": encode_message({"value": 1}), "attempt": 0,
    })),
    "resp-list-call": ("b", "a", encode_message({
        "kind": "resp", "call": [0], "body": encode_message({"value": 0}),
    })),
    "req-int-body": ("a", "b", encode_message({
        "kind": "req", "call": 9, "method": "double", "body": 7,
        "attempt": 0,
    })),
    "resp-int-body": ("b", "a", encode_message({
        "kind": "resp", "call": 0, "body": 7,
    })),
    "bad-utf8-value": ("a", "b", _frame(b"kind", b"S", b"\xff\xfereq")),
    "bad-utf8-key": ("b", "a", _frame(b"\xffkind", b"S", b"resp")),
    "deep-nested-list": ("a", "b", _deep_list_frame(5_000)),
}


class TestUntrustedPackets:
    """No handler may raise on untrusted input: each malformed packet is
    dropped like a corrupt frame, and the honest call in flight still
    resolves with its real response."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_PACKETS))
    def test_malformed_packet_is_dropped(self, simulator, case):
        network = _net(simulator)
        endpoint = RpcEndpoint(simulator, network, "b")
        endpoint.register("double", lambda req: {"value": req["value"] * 2},
                          service_time=0.003)
        responses = []
        endpoint.submit("a", "double", {"value": 21}, responses.append)
        source, destination, payload = MALFORMED_PACKETS[case]
        network.send(source, destination, payload)
        simulator.run()
        assert responses == [{"value": 42}]
        assert endpoint.requests_served == 1
