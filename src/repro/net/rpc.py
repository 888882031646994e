"""Request/response endpoints with service-time queueing.

An :class:`RpcEndpoint` registers handlers by method name.  Two call
paths mirror the two network styles:

* :meth:`call_sync` — the client blocks; network latency and the
  server's service time advance the shared clock inline.  Used by
  single-client end-to-end runs.
* :meth:`submit` — queued: request and response packets cross the
  `Network` loss model as real async sends, the request joins the
  endpoint's FIFO and is served by ``workers`` parallel servers, each
  charging the handler's service time.  This is the path the throughput
  (F2) and robustness (R1) experiments drive, so server saturation and
  packet loss behave like a real queueing system.

The queued path is UDP-shaped, so it carries its own reliability layer
(`repro.net.retry`): per-call retransmission with exponential backoff
and deterministic jitter, a hard per-call deadline (no caller can ever
hang — a call resolves with a response or a structured deadline error),
and server-side request de-duplication with a response cache so a
handler executes **at most once** per call no matter how many request
copies arrive or how many responses are lost.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, defaultdict, deque
from functools import partial
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.net.channel import SecureChannel, establish_channel
from repro.net.messages import Message, MessageError, decode_message, encode_message
from repro.net.network import Network, NetworkError
from repro.net.retry import RetryPolicy, deadline_error
from repro.sim.kernel import Simulator

Handler = Callable[[Message], Message]

#: Transport retries on packet loss (the paper's protocol sits on TCP;
#: a couple of retransmits is the honest abstraction).  Applies to the
#: synchronous path; the queued path uses a RetryPolicy instead.
MAX_TRANSFER_ATTEMPTS = 4

_MISSING = object()


def error_response(exc: Exception) -> Message:
    """The answer an endpoint gives when its handler raised ``exc``."""
    return {"error": f"{type(exc).__name__}: {exc}"}


class RpcError(RuntimeError):
    """Remote handler failure, surfaced to the caller.

    Carries the full error response (when one exists) so recovery code
    can branch on structured fields instead of message text, and a
    ``transport`` flag marking failures where the request's fate is
    *unknown* (it may have executed server-side) — the case that needs
    idempotent resubmission rather than a blind retry.
    """

    def __init__(
        self,
        message: str,
        response: Optional[Message] = None,
        transport: bool = False,
    ) -> None:
        super().__init__(message)
        self.response: Message = response if response is not None else {}
        self.transport = transport

    @property
    def rechallenge_required(self) -> bool:
        """The provider says the challenge expired but the transaction
        survives: fetch a fresh nonce via ``tx.rechallenge`` and retry."""
        return bool(self.response.get("rechallenge"))


class DeferredResponse:
    """A queued-path handler's promise to respond later.

    A handler that must wait on asynchronous work (the sharded-pool
    router forwarding a request to a backend shard) returns one of
    these instead of a response dict.  The serving worker is released
    immediately — the endpoint keeps taking requests while the work is
    in flight — and the response packet is sent when :meth:`resolve`
    fires.  Resolution is exactly-once: later calls are ignored.

    Only meaningful on the queued path; ``call_sync`` handlers run
    inline and must return a plain message (an unresolved deferred on
    the sync path is reported as a server error).
    """

    __slots__ = ("resolved", "value", "_deliver")

    def __init__(self) -> None:
        self.resolved = False
        self.value: Optional[Message] = None
        self._deliver: Optional[Callable[[Message], None]] = None

    def resolve(self, response: Message) -> None:
        if self.resolved:
            return
        self.resolved = True
        self.value = response
        deliver, self._deliver = self._deliver, None
        if deliver is not None:
            deliver(response)

    def _on_resolve(self, deliver: Callable[[Message], None]) -> None:
        """Endpoint-internal: wire the delivery callback (or fire it
        immediately if the handler resolved before returning)."""
        if self.resolved:
            deliver(self.value if self.value is not None else {})
        else:
            self._deliver = deliver


class _PendingCall:
    """One in-flight queued call and the actions its two timers run.

    Only the router's ``pending`` entry and the call's own timers refer
    to it.  :meth:`finish` drops all three and ``on_response``, so a
    finished call, and all its callback reaches, is freed by reference
    counting, never by the cycle collector.  A cancelled timer never
    fires, so neither :meth:`transmit` nor :meth:`expire` runs after
    :meth:`finish`.
    """

    __slots__ = (
        "endpoint", "caller", "call_id", "method", "body", "on_response",
        "policy", "retry_rng", "attempts", "retransmit_event", "deadline_event",
    )

    def __init__(
        self, endpoint: "RpcEndpoint", caller: str, call_id: int, method: str,
        body: bytes, on_response: Callable[[Message], None],
        policy: RetryPolicy, retry_rng,
    ) -> None:
        self.endpoint = endpoint
        self.caller = caller
        self.call_id = call_id
        self.method = method
        self.body = body
        self.on_response: Optional[Callable[[Message], None]] = on_response
        self.policy = policy
        self.retry_rng = retry_rng
        self.attempts = 0
        self.retransmit_event = None
        self.deadline_event = None

    def finish(self, response: Message) -> None:
        on_response, self.on_response = self.on_response, None
        if on_response is None:
            return  # finished already: the callback runs exactly once
        self.endpoint._router.pending.pop((self.caller, self.call_id), None)
        for event in (self.retransmit_event, self.deadline_event):
            if event is not None:
                event.cancel()
        self.retransmit_event = self.deadline_event = None
        on_response(response)

    def transmit(self) -> None:
        """Send the next copy of the request and, while the retry budget
        lasts, arm the timer that retransmits it."""
        endpoint = self.endpoint
        attempt = self.attempts
        self.attempts += 1
        if attempt:
            endpoint.retransmits += 1
        packet = encode_message({
            "kind": "req", "call": self.call_id, "method": self.method,
            "body": self.body, "attempt": attempt,
        })
        network = endpoint.network
        network.send(self.caller, endpoint.host, packet)
        if self.attempts < self.policy.max_attempts:
            timeout = self.policy.timeout_for(attempt, self.retry_rng)
            self.retransmit_event = network.simulator.schedule(
                timeout, self.transmit, label=f"rpc:retx:{self.method}"
            )

    def expire(self) -> None:
        endpoint = self.endpoint
        endpoint.dead_letters += 1
        endpoint.network.simulator.metrics.counter("rpc.dead_letters").increment()
        self.finish(deadline_error(self.attempts, self.policy.deadline))


class _RpcRouter:
    """Per-network packet dispatcher for the queued transport.

    One router owns every host's inbox (installed lazily, only where no
    custom inbox exists): request packets go to the endpoint bound to
    the destination host, response packets resolve the matching pending
    call.  Call ids are allocated per *caller host* — a response packet
    arrives at its caller's inbox, so ``(caller, call_id)`` is a unique
    key and no global counter is needed.  Per-caller allocation keeps
    each caller's id sequence independent of every other caller's
    traffic.  Late or duplicated responses for completed calls are
    recognized and dropped instead of mis-delivered.  Packets are
    untrusted input: a frame that does not decode, or whose ``call`` is
    not an int or ``body`` not bytes, is dropped like a bad checksum.
    """

    _ATTR = "_rpc_router"

    def __init__(self, network: Network) -> None:
        self.network = network
        self.endpoints: Dict[str, "RpcEndpoint"] = {}
        self.pending: Dict[Tuple[str, int], _PendingCall] = {}
        self._next_ids: Dict[str, "itertools.count"] = defaultdict(itertools.count)

    def next_call_id(self, caller: str) -> int:
        return next(self._next_ids[caller])

    @classmethod
    def for_network(cls, network: Network) -> "_RpcRouter":
        router = getattr(network, cls._ATTR, None)
        if router is None:
            router = cls(network)
            setattr(network, cls._ATTR, router)
        return router

    def bind(self, endpoint: "RpcEndpoint") -> None:
        self.endpoints[endpoint.host] = endpoint
        if endpoint.network.is_attached(endpoint.host):
            self.ensure_inbox(endpoint.host)

    def ensure_inbox(self, host: str) -> None:
        if not self.network.has_inbox(host):
            self.network.set_inbox(host, partial(self._dispatch, host))

    def _dispatch(self, host: str, source: str, payload: bytes) -> None:
        try:
            packet = decode_message(payload)
        except MessageError:
            return  # corrupt frame: dropped, like a bad checksum
        kind = packet.get("kind")
        if kind == "req":
            endpoint = self.endpoints.get(host)
            if endpoint is not None:
                endpoint._receive_request(source, packet)
        elif kind == "resp":
            call_id = packet.get("call", -1)
            body = packet.get("body", b"")
            if not isinstance(call_id, int) or not isinstance(body, bytes):
                return  # malformed packet: dropped like a corrupt frame
            # A response packet lands at the caller's own inbox, so
            # ``host`` here *is* the caller that submitted the call.
            call = self.pending.get((host, call_id))
            if call is None:
                return  # unknown, or finished: a late or duplicate response
            try:
                response = decode_message(body)
            except MessageError:
                return
            call.finish(response)


class RpcEndpoint:
    """A named host serving methods over the network.

    With :meth:`enable_tls` the synchronous path wraps every request and
    response in a per-caller :class:`SecureChannel` (TLS-lite): key
    transport at first contact, then HMAC-authenticated records.  The
    threat this addresses is the *network*; the malicious client OS sits
    above the channel, exactly as in the paper's deployment.
    """

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        host: str,
        workers: int = 1,
    ) -> None:
        self.simulator = simulator
        self.network = network
        self.host = host
        self.workers = workers
        self._handlers: Dict[str, Handler] = {}
        self._service_time: Dict[str, float] = {}
        self._queue: Deque[Tuple[str, int, str, Message]] = deque()
        self._busy_workers = 0
        self.requests_served = 0
        self.requests_failed = 0
        self.queue_peak = 0
        self._tls_keypair = None
        self._server_channels: Dict[str, SecureChannel] = {}
        self._client_channels: Dict[str, SecureChannel] = {}
        self.tls_handshakes = 0
        # -- queued-path reliability state --------------------------------
        #: Default policy for submit(); callers may override per call.
        self.retry_policy = RetryPolicy()
        #: Retry jitter is drawn from one stream per (caller, endpoint)
        #: pair (created lazily on first submit), so one caller's
        #: retransmissions never shift another caller's jitter draws.
        self._retry_rngs: Dict[str, object] = {}
        self._router = _RpcRouter.for_network(network)
        self._router.bind(self)
        #: (caller, call_id) -> None (request in service) or encoded
        #: response (kept so lost responses replay without re-executing).
        self._request_cache: "OrderedDict[Tuple[str, int], Optional[bytes]]" = (
            OrderedDict()
        )
        self.response_cache_limit = 100_000
        self._stalled_until = 0.0
        self.worker_stalls = 0
        # -- crash-stop state ----------------------------------------------
        #: While crashed the endpoint is a black hole: inbound request
        #: packets vanish, queued work is dropped, in-flight service is
        #: abandoned.  Callers are resolved by their own RetryPolicy
        #: deadlines — deterministically dead-lettered, never hung.
        self._crashed = False
        #: Incarnation counter: bumped on every crash so service-finish
        #: events scheduled before the crash recognize they belong to a
        #: dead process and do nothing on the restarted one.
        self._epoch = 0
        self.crashes = 0
        self.restarts = 0
        self.calls_submitted = 0
        self.retransmits = 0
        self.dead_letters = 0
        self.duplicate_requests = 0
        self.responses_replayed = 0
        self.deferred_responses = 0
        #: True while dispatching on the synchronous (inline-clock) path;
        #: handlers that behave differently per transport (the shard
        #: router) branch on this instead of guessing.
        self.sync_dispatch = False

    @property
    def tracer(self):
        return self.simulator.tracer

    # -- TLS-lite ----------------------------------------------------------
    def enable_tls(self, server_keypair) -> None:
        """Require the secure channel on the synchronous call path."""
        self._tls_keypair = server_keypair

    @property
    def tls_enabled(self) -> bool:
        return self._tls_keypair is not None

    def _channel_for(self, caller: str) -> Tuple[SecureChannel, SecureChannel]:
        """(client-side, server-side) channel pair for ``caller``."""
        if caller not in self._server_channels:
            from repro.crypto.drbg import HmacDrbg

            client_drbg = HmacDrbg(
                self.simulator.rng.derive_seed(
                    f"tls:{caller}->{self.host}"
                ).to_bytes(8, "big")
            )
            with self.tracer.span("rpc.tls_handshake", caller=caller):
                client, server, handshake = establish_channel(
                    self._tls_keypair.public, self._tls_keypair, client_drbg
                )
                # The handshake crosses the wire once per (caller, endpoint).
                self._transfer_with_retry(caller, self.host, handshake)
            self._client_channels[caller] = client
            self._server_channels[caller] = server
            self.tls_handshakes += 1
        return self._client_channels[caller], self._server_channels[caller]

    def _transfer_with_retry(self, source: str, destination: str,
                             payload: bytes) -> None:
        last_error: Optional[NetworkError] = None
        for _ in range(MAX_TRANSFER_ATTEMPTS):
            try:
                self.network.transfer(source, destination, payload)
                return
            except NetworkError as exc:
                last_error = exc
        raise RpcError(
            f"transport gave up after retries: {last_error}", transport=True
        )

    def register(
        self, method: str, handler: Handler, service_time: float = 0.0
    ) -> None:
        """Expose ``handler`` as ``method``; ``service_time`` is the
        modeled compute cost charged per request."""
        self._handlers[method] = handler
        self._service_time[method] = service_time

    # -- synchronous path ---------------------------------------------------
    def call_sync(self, caller: str, method: str, request: Message) -> Message:
        """Blocking call: request latency + service time + response latency.

        Retries transport-level losses (TCP abstraction); with TLS
        enabled, the payload travels as authenticated channel records.
        Under tracing, one ``rpc.call`` span brackets the exchange with
        ``rpc.request`` / ``rpc.service`` / ``rpc.response`` children
        (network transfers nest below as ``net.transfer``).
        """
        if self._crashed:
            # The TCP abstraction of a dead host: connection refused,
            # immediately and unambiguously (no request was consumed).
            raise RpcError(f"host {self.host} is down", transport=True)
        tracer = self.tracer
        with tracer.span(
            "rpc.call", method=method, host=self.host, caller=caller,
            transport="sync",
        ):
            payload = encode_message(
                {"method": method, "body": encode_message(request)}
            )
            with tracer.span("rpc.request"):
                if self.tls_enabled:
                    client_channel, server_channel = self._channel_for(caller)
                    record = client_channel.wrap(payload)
                    self._transfer_with_retry(caller, self.host, record)
                    # The server dispatches from what it *unwraps* — a record
                    # modified in flight raises ChannelError right here.
                    opened = decode_message(server_channel.unwrap(record))
                    served_method = str(opened["method"])
                    served_request = decode_message(opened["body"])
                else:
                    self._transfer_with_retry(caller, self.host, payload)
                    served_method, served_request = method, request
            with tracer.span("rpc.service", method=method):
                response = self._dispatch(
                    served_method, served_request, charge_time=True
                )
                if isinstance(response, DeferredResponse):
                    # Sync handlers run inline: a deferred that resolved
                    # before returning is unwrapped; one still pending
                    # cannot be awaited here and is a handler bug.
                    if response.resolved and response.value is not None:
                        response = response.value
                    else:
                        response = {
                            "error": "handler deferred response on sync path"
                        }
            with tracer.span("rpc.response"):
                raw = encode_message(response)
                if self.tls_enabled:
                    response_record = server_channel.wrap(raw)
                    self._transfer_with_retry(self.host, caller, response_record)
                    response = decode_message(
                        client_channel.unwrap(response_record)
                    )
                else:
                    self._transfer_with_retry(self.host, caller, raw)
            if response.get("error"):
                raise RpcError(str(response["error"]), response=response)
            # The caller gets its own copy: decoded from the TLS record
            # above, or here from the bytes that crossed the network.
            return response if self.tls_enabled else decode_message(raw)

    # -- queued path ----------------------------------------------------------
    def submit(
        self,
        caller: str,
        method: str,
        request: Message,
        on_response: Callable[[Message], None],
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        """Send a request through the network into the endpoint's queue.

        Request and response packets are real :meth:`Network.send`\\ s:
        they cross the loss model, count symmetrically in the traffic
        stats, and may be dropped.  The ``policy`` (endpoint default
        when None) governs retransmission and the per-call deadline;
        ``on_response`` is **always** invoked exactly once — with the
        handler's response, or with a deadline-error message (see
        `repro.net.retry.deadline_error`) once the retry budget or the
        deadline is exhausted.  Handler responses must be wire-encodable
        (`repro.net.messages` types), since they genuinely round-trip.
        """
        policy = policy or self.retry_policy
        router = self._router
        router.ensure_inbox(caller)
        router.ensure_inbox(self.host)
        sim = self.network.simulator
        retry_rng = self._retry_rngs.get(caller)
        if retry_rng is None:
            retry_rng = self._retry_rngs[caller] = sim.rng.stream(
                f"rpc.retry.{caller}->{self.host}"
            )
        call_id = router.next_call_id(caller)
        call = _PendingCall(
            self, caller, call_id, method, encode_message(request),
            on_response, policy, retry_rng,
        )
        router.pending[(caller, call_id)] = call
        self.calls_submitted += 1
        if policy.deadline is not None:
            call.deadline_event = sim.schedule(
                policy.deadline, call.expire, label=f"rpc:deadline:{method}"
            )
        call.transmit()

    def _receive_request(self, caller: str, packet: Message) -> None:
        """Server side: a request packet reached this host's inbox."""
        if self._crashed:
            return
        call_id = packet.get("call", -1)
        body = packet.get("body", b"")
        if not isinstance(call_id, int) or not isinstance(body, bytes):
            return  # malformed packet: dropped like a corrupt frame
        cache_key = (caller, call_id)
        cached = self._request_cache.get(cache_key, _MISSING)
        if cached is not _MISSING:
            # At-most-once execution: a retransmitted request never
            # re-runs the handler.  If the response already exists, its
            # earlier copy was evidently lost — replay it.
            self.duplicate_requests += 1
            if cached is not None:
                self.responses_replayed += 1
                self.network.send(self.host, caller, cached)
            return
        self._request_cache[cache_key] = None
        method = str(packet.get("method", ""))
        try:
            request = decode_message(body)
        except MessageError:
            request = {"_malformed": 1}
            method = ""
        self._queue.append((caller, call_id, method, request))
        self.queue_peak = max(self.queue_peak, len(self._queue))
        self._pump()

    def _respond(self, caller: str, call_id: int, response: Message) -> None:
        if self._crashed:
            return  # a dead process sends nothing
        payload = encode_message({
            "kind": "resp", "call": call_id, "body": encode_message(response),
        })
        cache_key = (caller, call_id)
        if cache_key in self._request_cache:
            self._request_cache[cache_key] = payload
            while len(self._request_cache) > self.response_cache_limit:
                self._request_cache.popitem(last=False)
        self.network.send(self.host, caller, payload)

    # -- crash-stop fault hooks ---------------------------------------------
    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """Fault hook: the host process dies right now.

        Everything volatile goes with it: the request queue (those
        callers dead-letter via their own deadlines), in-flight service
        (the scheduled finish events are orphaned by the epoch bump),
        and the request-dedup/response-replay cache — which is exactly
        the loss a durable journal exists to compensate for.  Packets
        already on the wire still arrive wherever they were headed;
        packets addressed *to* a crashed host are dropped on arrival.
        """
        if self._crashed:
            return
        self._crashed = True
        self._epoch += 1
        self.crashes += 1
        self.simulator.metrics.counter("rpc.crashes").increment()
        self._queue.clear()
        self._busy_workers = 0
        self._request_cache.clear()
        self._stalled_until = 0.0

    def restart(self) -> None:
        """The host comes back up with empty volatile state; new
        requests are served again immediately."""
        if not self._crashed:
            return
        self._crashed = False
        self.restarts += 1

    def stall_workers(self, duration: float) -> None:
        """Fault hook: freeze dispatch of *new* queued work for
        ``duration`` seconds (in-flight requests complete normally),
        modeling a GC pause / overloaded server."""
        if duration <= 0:
            return
        self._stalled_until = max(
            self._stalled_until, self.simulator.clock.now + duration
        )
        self.worker_stalls += 1
        self.simulator.schedule(
            duration, self._pump, label=f"rpc:unstall:{self.host}"
        )

    def _pump(self) -> None:
        """Start serving queued requests while workers are free."""
        if self._crashed or self.simulator.clock.now < self._stalled_until:
            return
        while self._busy_workers < self.workers and self._queue:
            caller, call_id, method, request = self._queue.popleft()
            self._busy_workers += 1
            self.simulator.schedule(
                self._service_time.get(method, 0.0),
                partial(self._serve, caller, call_id, method, request, self._epoch),
                label=f"rpc:serve:{method}",
            )

    def _serve(
        self, caller: str, call_id: int, method: str, request: Message, epoch: int
    ) -> None:
        """A worker finished its service time: run the handler, respond."""
        if epoch != self._epoch:
            # The process serving this request died mid-service; the
            # work (and its worker slot) vanished with it.
            return
        response = self._dispatch(method, request, charge_time=False)
        self._busy_workers -= 1
        if isinstance(response, DeferredResponse):
            # The handler parked the call (e.g. the shard router forwarded
            # it): free the worker now, send the response whenever the
            # deferred resolves.
            self.deferred_responses += 1
            response._on_resolve(partial(self._respond, caller, call_id))
        else:
            self._respond(caller, call_id, response)
        self._pump()

    # -- dispatch -----------------------------------------------------------
    def _dispatch(self, method: str, request: Message, charge_time: bool) -> Message:
        handler = self._handlers.get(method)
        if handler is None:
            self.requests_failed += 1
            return {"error": f"no such method {method!r}"}
        if charge_time:
            self.simulator.clock.advance(self._service_time.get(method, 0.0))
        previous = self.sync_dispatch
        self.sync_dispatch = charge_time
        try:
            response = handler(request)
            self.requests_served += 1
            return response
        except Exception as exc:
            self.requests_failed += 1
            return error_response(exc)
        finally:
            self.sync_dispatch = previous

    @property
    def queue_depth(self) -> int:
        return len(self._queue)
