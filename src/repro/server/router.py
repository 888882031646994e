"""Sharded provider pool: a consistent-hash router over N replicas.

The paper's deployment story (a captcha replacement at web scale) is
many-clients-one-provider; one `ServiceProvider` with a small worker
pool saturates in the low hundreds of confirmations per second because
pure-Python RSA dominates its service time.  :class:`ProviderRouter`
scales the provider *out* instead of up:

* N independent :class:`~repro.server.provider.ServiceProvider` shard
  replicas, each a complete provider — its own worker pool, its own
  :class:`~repro.server.noncedb.NonceDatabase`, its own DRBG stream
  (derived from the shard's hostname, so streams never collide).
* A thin router front end speaking the *same* RPC methods on the public
  host.  ``register``/``login`` route by consistent hash of the account
  name; every session-cookie method routes by the cookie→shard map the
  router learns from ``set_session`` in login responses.
* Forwarding is transport-faithful: on the synchronous path the router
  calls the shard inline (two real network hops); on the queued path it
  returns a :class:`~repro.net.rpc.DeferredResponse`, releasing its
  worker while the shard leg is in flight — the router never becomes
  the bottleneck it exists to remove.

Sharding preserves the replay defense *by construction*: a challenge
nonce lives only in the owning shard's nonce database, so evidence can
never be replayed cross-shard — any other shard reports the nonce
UNKNOWN, which is a deny.  There is no cross-shard state to keep
coherent because accounts are partitioned, not replicated.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.net.messages import Message
from repro.net.network import LinkSpec, Network
from repro.net.retry import (
    DEADLINE_ERROR_KEY,
    RetryPolicy,
    overload_error,
)
from repro.net.rpc import DeferredResponse, RpcEndpoint, RpcError
from repro.os.disk import UntrustedDisk
from repro.server.policy import VerifierPolicy
from repro.server.provider import SERVICE_TIMES, ServiceProvider
from repro.sim.kernel import Simulator

#: Modeled routing cost per forwarded request (hash + table lookup —
#: orders of magnitude below any shard's verification service time).
ROUTER_SERVICE_TIME = 0.0001

#: Methods that carry the account name and may legally arrive without a
#: session cookie — routed by consistent hash of the account.
_ACCOUNT_ROUTED = ("register", "login")

#: Denial reason for the degraded mode: the owning shard's breaker is
#: open.  An explicit, immediate refusal — the one thing the router must
#: never do during an outage is hang the caller.
DENIAL_SHARD_DOWN = "shard down"

#: Denial reason while a shard is being drained for removal: it stops
#: admitting *new* sessions (login) but keeps serving in-flight ones.
#: Retryable — the account's range flips to a surviving shard within
#: the copy window, so the client's next attempt lands on the new owner.
DENIAL_SHARD_DRAINING = "shard draining"

#: Response key marking a DENIAL_SHARD_DOWN refusal as retryable — the
#: shard's state is intact (or restorable); only its process is gone.
SHARD_DOWN_KEY = "shard_down"

#: Default retry policy for the router→shard leg: strictly tighter than
#: any sane caller deadline, so a black-holed leg dead-letters back to
#: the router (feeding the breaker) long before the *caller* gives up.
SHARD_LEG_POLICY = RetryPolicy(
    initial_timeout=0.2,
    backoff=2.0,
    max_timeout=1.0,
    max_attempts=4,
    deadline=4.0,
)


class CircuitBreaker:
    """Per-shard failure gate: closed -> open -> half-open -> closed.

    Transport failures (dead-lettered legs, connection refusals) count
    against ``failure_threshold``; at the threshold the breaker trips
    OPEN and the router fails fast with :data:`DENIAL_SHARD_DOWN`
    instead of queueing more work at a dead shard.  After
    ``reset_timeout`` seconds one probe request is allowed through
    (HALF_OPEN); its outcome either closes the breaker or re-opens it
    for another timeout.  Application errors are *successes* here — the
    shard answered.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self, failure_threshold: int = 3, reset_timeout: float = 1.0
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1: {failure_threshold}")
        if reset_timeout <= 0:
            raise ValueError(f"reset_timeout must be > 0: {reset_timeout}")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.state = self.CLOSED
        self.failures = 0
        self.opens = 0
        self._open_until = 0.0
        self._probe_inflight = False

    def allow(self, now: float) -> bool:
        """May one request pass right now?  (May consume the probe slot.)"""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if now < self._open_until:
                return False
            self.state = self.HALF_OPEN
            self._probe_inflight = True
            return True
        # HALF_OPEN: exactly one probe at a time.
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        return True

    def record_success(self) -> None:
        self.state = self.CLOSED
        self.failures = 0
        self._probe_inflight = False

    def record_failure(self, now: float) -> None:
        self.failures += 1
        if self.state == self.HALF_OPEN or self.failures >= self.failure_threshold:
            self.state = self.OPEN
            self._open_until = now + self.reset_timeout
            self._probe_inflight = False
            self.opens += 1


class HashRing:
    """Consistent hashing with virtual nodes.

    Each shard contributes ``vnodes`` points on a 64-bit ring (SHA-256
    of ``"host#replica"`` — engineering machinery, not protocol
    crypto); a key routes to the first point clockwise from its own
    hash.  Virtual nodes smooth the per-shard load imbalance to a few
    percent, and the mapping is a pure function of the host list — every
    router instance (or a restarted one) computes the same assignment.
    """

    def __init__(self, hosts: Sequence[str], vnodes: int = 128) -> None:
        if not hosts:
            raise ValueError("hash ring needs at least one host")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1: {vnodes}")
        self.hosts = list(hosts)
        self.vnodes = vnodes
        points: List[tuple] = []
        for index, host in enumerate(self.hosts):
            for replica in range(vnodes):
                digest = hashlib.sha256(
                    f"{host}#{replica}".encode("utf-8")
                ).digest()
                points.append((int.from_bytes(digest[:8], "big"), index))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [owner for _, owner in points]

    def index_for(self, key: str) -> int:
        """Shard index owning ``key`` (stable across router instances)."""
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        point = int.from_bytes(digest[:8], "big")
        slot = bisect.bisect_right(self._points, point)
        if slot == len(self._points):
            slot = 0
        return self._owners[slot]

    def host_for(self, key: str) -> str:
        return self.hosts[self.index_for(key)]


class ProviderRouter:
    """Front end exposing a shard pool as one provider endpoint.

    Duck-types the provider surface the fleet and experiments consume
    (``endpoint``, ``denials``, ``expire_stale_transactions`` ...) by
    aggregating over shards, so a sharded pool drops in wherever a
    single provider was wired.
    """

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        host: str,
        shards: Sequence[ServiceProvider],
        vnodes: int = 128,
        workers: int = 8,
        breaker_threshold: int = 3,
        breaker_reset_s: float = 1.0,
        max_shard_queue_depth: int = 64,
        leg_policy: Optional[RetryPolicy] = SHARD_LEG_POLICY,
    ) -> None:
        if not shards:
            raise ValueError("router needs at least one shard")
        if max_shard_queue_depth < 1:
            raise ValueError(
                f"max_shard_queue_depth must be >= 1: {max_shard_queue_depth}"
            )
        self.simulator = simulator
        self.host = host
        self.shards = list(shards)
        self._vnodes = vnodes
        self._breaker_threshold = breaker_threshold
        self._breaker_reset_s = breaker_reset_s
        self.ring = HashRing([shard.host for shard in self.shards], vnodes=vnodes)
        if not network.is_attached(host):
            network.attach(host, LinkSpec.lan())
        self.endpoint = RpcEndpoint(simulator, network, host, workers=workers)
        for method in SERVICE_TIMES:
            self.endpoint.register(
                method, self._make_handler(method), ROUTER_SERVICE_TIME
            )
        #: session cookie -> shard index, learned from login responses.
        self._cookie_shard: Dict[bytes, int] = {}
        #: account -> its live cookie, for eviction on re-login (mirrors
        #: the shard-side one-session-per-account invalidation).
        self._account_cookie: Dict[str, bytes] = {}
        # -- shard health ---------------------------------------------------
        self.breakers = [
            CircuitBreaker(breaker_threshold, breaker_reset_s)
            for _ in self.shards
        ]
        self.max_shard_queue_depth = max_shard_queue_depth
        self.leg_policy = leg_policy
        #: Outstanding queued legs per shard — the router-local backlog
        #: signal load shedding keys on.  The shard's own queue_depth
        #: lags by a network latency (a burst is fully forwarded before
        #: the first packet lands), so the router counts what it has in
        #: flight instead.
        self.outstanding = [0] * len(self.shards)
        #: account -> shard index override, recorded when a *register*
        #: failed over from an open home shard; account-hash routing
        #: consults this first so the account stays findable.
        self._account_shard: Dict[str, int] = {}
        # -- live rebalancing (repro.server.rebalance) ----------------------
        #: Shard indices draining for removal: no new sessions admitted,
        #: in-flight legs settle, ranges migrate out before the flip.
        self.draining: Set[int] = set()
        #: End of the dual-read window (virtual time).  After a ring
        #: flip, a leg already in flight at the *old* owner may come
        #: back "not logged in"/"unknown transaction" for a migrated
        #: account; until this instant the router re-aims such a
        #: response once at the current owner instead of denying.
        self._dual_read_until = 0.0
        # -- routing accounting --------------------------------------------
        self.forwards_by_shard = [0] * len(self.shards)
        self.unroutable = 0
        self.cookie_routes = 0
        self.account_routes = 0
        self.cookies_invalidated = 0
        self.shard_down_denials = 0
        self.shed = 0
        self.register_failovers = 0
        self.cookie_prunes = 0
        self.draining_denials = 0
        self.cookie_rewrites = 0
        self.dual_read_redirects = 0
        self.router_crashes = 0
        self.router_restarts = 0

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_index_for_account(self, account: str) -> int:
        # Failed-over registrations live on their override shard, not
        # the ring's nominal home — accessors must agree with _route.
        override = self._account_shard.get(account)
        return override if override is not None else self.ring.index_for(account)

    def shard_for_account(self, account: str) -> ServiceProvider:
        return self.shards[self.shard_index_for_account(account)]

    def _route(self, method: str, request: Message):
        """(shard index, None) or (None, error response)."""
        if method in _ACCOUNT_ROUTED:
            account = str(request.get("account", ""))
            if not account:
                return None, {"error": "missing account"}
            self.account_routes += 1
            override = self._account_shard.get(account)
            if override is not None:
                return override, None
            return self.ring.index_for(account), None
        cookie = request.get("session")
        if isinstance(cookie, bytes):
            index = self._cookie_shard.get(cookie)
            if index is not None:
                self.cookie_routes += 1
                return index, None
        return None, {"error": "not logged in"}

    def _observe(self, request: Message, response: Message, index: int) -> None:
        """Learn cookie→shard mappings from forwarded login responses."""
        self._inspect_response(request, response)
        cookie = response.get("set_session")
        if not isinstance(cookie, bytes):
            return
        account = str(request.get("account", ""))
        previous = self._account_cookie.get(account)
        if previous is not None and previous != cookie:
            self._cookie_shard.pop(previous, None)
            self.cookies_invalidated += 1
        self._account_cookie[account] = cookie
        self._cookie_shard[cookie] = index

    def _inspect_response(self, request: Message, response: Message) -> None:
        """Prune the cookie→shard map when the owning shard disowns a
        session (piggybacked on the denial path, so pruning costs no
        extra traffic).  Happens after a journal-less shard restarts:
        its session table is gone, the router's mapping is stale, and
        keeping it would bounce every retry off the same dead cookie
        instead of letting the client's re-login relearn the route."""
        error = response.get("error")
        if not isinstance(error, str) or "not logged in" not in error:
            return
        cookie = request.get("session")
        if not isinstance(cookie, bytes) or cookie not in self._cookie_shard:
            return
        self._cookie_shard.pop(cookie, None)
        for account, known in list(self._account_cookie.items()):
            if known == cookie:
                del self._account_cookie[account]
        self.cookie_prunes += 1
        self.simulator.metrics.counter("router.cookie_prunes").increment()

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def _make_handler(self, method: str) -> Callable[[Message], Message]:
        def handle(request: Message) -> Message:
            return self._forward(method, request)

        return handle

    def _shard_down_response(self) -> Message:
        self.shard_down_denials += 1
        self.simulator.metrics.counter("router.shard_down_denials").increment()
        return {"error": f"denied: {DENIAL_SHARD_DOWN}", SHARD_DOWN_KEY: 1}

    def _draining_response(self) -> Message:
        self.draining_denials += 1
        self.simulator.metrics.counter("router.draining_denials").increment()
        return {"error": f"denied: {DENIAL_SHARD_DRAINING}", SHARD_DOWN_KEY: 1}

    def _retarget_index(
        self, request: Message, response: Message, index: int
    ) -> Optional[int]:
        """Dual-read check: a leg that raced a ring flip may land on
        the *old* owner of a migrated account and come back disowned
        ("not logged in" / "unknown transaction" — or, for an
        account-routed login whose registration record already moved,
        "bad credentials").  Inside the window, if the current route
        (rewritten cookie map, or ring ownership for account-routed
        legs) already points somewhere else, re-aim the leg once at
        the current owner instead of surfacing the denial — the
        migrated state (account, cookie, nonce, transaction) is all
        there, and the true owner's verdict is authoritative either
        way."""
        if self.simulator.now >= self._dual_read_until:
            return None
        error = response.get("error")
        if not isinstance(error, str):
            return None
        if not any(
            marker in error
            for marker in (
                "not logged in", "unknown transaction", "unknown batch",
                "bad credentials",
            )
        ):
            return None
        cookie = request.get("session")
        if isinstance(cookie, bytes):
            target = self._cookie_shard.get(cookie)
            if target is not None and target != index:
                return target
            return None
        account = str(request.get("account", ""))
        if not account:
            return None
        target = self._account_shard.get(account)
        if target is None:
            target = self.ring.index_for(account)
        if target == index:
            return None
        return target

    def _failover_register(self, index: int, account: str) -> Optional[int]:
        """A *register* aimed at an open shard may be placed on the next
        live shard instead — a brand-new account has no home yet, so
        re-homing it costs nothing.  The override map keeps account-hash
        routing consistent afterwards.  Existing accounts never fail
        over: their state is partitioned, not replicated, so the honest
        answer while their shard is down is the explicit denial."""
        now = self.simulator.now
        for step in range(1, len(self.shards)):
            candidate = (index + step) % len(self.shards)
            if candidate in self.draining:
                continue
            if self.breakers[candidate].allow(now):
                self._account_shard[account] = candidate
                self.register_failovers += 1
                return candidate
        return None

    def _record_outcome(self, index: int, failed: bool) -> None:
        """Feed a forwarded leg's transport outcome to the breaker.
        Application errors count as successes — the shard answered."""
        breaker = self.breakers[index]
        if not failed:
            breaker.record_success()
            return
        opens_before = breaker.opens
        breaker.record_failure(self.simulator.now)
        if breaker.opens > opens_before:
            self.simulator.metrics.counter("router.breaker_opens").increment()

    def _forward(self, method: str, request: Message):
        index, error = self._route(method, request)
        if error is not None:
            self.unroutable += 1
            return error
        # A draining shard admits no *new* sessions: registrations are
        # placed elsewhere immediately; logins get an explicit retryable
        # refusal (the account's range flips to a survivor within the
        # copy window).  Cookie-routed methods keep flowing — in-flight
        # sessions are exactly what the drain waits for.
        if index in self.draining and method in _ACCOUNT_ROUTED:
            if method == "register":
                failover = self._failover_register(
                    index, str(request.get("account", ""))
                )
                if failover is None:
                    return self._draining_response()
                index = failover
            else:
                return self._draining_response()
        shard = self.shards[index]
        # Load shedding first: a full shard backlog is explicit back-
        # pressure, refused before it can consume a half-open breaker's
        # probe slot.  Sync dispatch has no queue to bound.
        if (
            not self.endpoint.sync_dispatch
            and self.outstanding[index] >= self.max_shard_queue_depth
        ):
            self.shed += 1
            self.simulator.metrics.counter("router.shed").increment()
            return overload_error(shard.host, self.outstanding[index])
        if not self.breakers[index].allow(self.simulator.now):
            if method == "register":
                failover = self._failover_register(
                    index, str(request.get("account", ""))
                )
                if failover is None:
                    return self._shard_down_response()
                index = failover
                shard = self.shards[index]
            else:
                return self._shard_down_response()
        self.forwards_by_shard[index] += 1
        tracer = self.simulator.tracer
        if self.endpoint.sync_dispatch:
            # Synchronous path: the shard leg runs inline (two more
            # network hops + the shard's service time on the shared
            # clock).  Error responses come back as RpcError — unwrap
            # so the router's own endpoint re-raises them to the caller
            # with every structured field (e.g. the rechallenge hint)
            # intact.
            failed = False
            with tracer.span(
                "router.forward", method=method, shard=shard.host
            ):
                try:
                    response = shard.endpoint.call_sync(
                        self.host, method, request
                    )
                except RpcError as exc:
                    failed = exc.transport  # connection refused / dead host
                    response = (
                        dict(exc.response) if exc.response
                        else {"error": str(exc)}
                    )
            self._record_outcome(index, failed)
            target = self._retarget_index(request, response, index)
            if target is not None:
                self.dual_read_redirects += 1
                self.simulator.metrics.counter(
                    "router.dual_read_redirects"
                ).increment()
                self.forwards_by_shard[target] += 1
                retry_shard = self.shards[target]
                failed = False
                with tracer.span(
                    "router.forward", method=method, shard=retry_shard.host
                ):
                    try:
                        response = retry_shard.endpoint.call_sync(
                            self.host, method, request
                        )
                    except RpcError as exc:
                        failed = exc.transport
                        response = (
                            dict(exc.response) if exc.response
                            else {"error": str(exc)}
                        )
                self._record_outcome(target, failed)
                index = target
            self._observe(request, response, index)
            return response
        # Queued path: forward via the shard's own queue and release
        # this router worker immediately.  The shard leg carries its own
        # retry policy; a dead-lettered leg resolves the deferred with
        # the structured deadline error, so the client never hangs.
        deferred = DeferredResponse()
        self.outstanding[index] += 1
        self._submit_leg(index, method, request, deferred, redirected=False)
        return deferred

    def _submit_leg(
        self,
        index: int,
        method: str,
        request: Message,
        deferred: DeferredResponse,
        redirected: bool,
    ) -> None:
        """One queued router→shard leg.  The relay closure holds the
        shard *object*, not its index: a drain can remove a shard
        (shifting every index) while this leg is in flight, so the
        live index is resolved again when the response lands."""
        shard = self.shards[index]
        tracer = self.simulator.tracer
        span = tracer.begin("router.forward", method=method, shard=shard.host)

        def relay(response: Message) -> None:
            tracer.finish(span)
            try:
                live = self.shards.index(shard)
            except ValueError:
                live = None  # shard removed while the leg was in flight
            if live is not None:
                self.outstanding[live] -= 1
                self._record_outcome(live, DEADLINE_ERROR_KEY in response)
            if not redirected:
                # A leg whose shard was removed mid-flight (live is
                # None) is the dual-read case par excellence: a drain
                # whose grace lapsed flipped ownership — and detached
                # the shard — while the leg sat in its queue.  -1 can
                # never equal a live index, so the disowned response is
                # re-aimed at whichever shard owns the range now.
                target = self._retarget_index(
                    request, response, -1 if live is None else live
                )
                if target is not None:
                    self.dual_read_redirects += 1
                    self.simulator.metrics.counter(
                        "router.dual_read_redirects"
                    ).increment()
                    self.forwards_by_shard[target] += 1
                    self.outstanding[target] += 1
                    self._submit_leg(
                        target, method, request, deferred, redirected=True
                    )
                    return
            if live is not None:
                self._observe(request, response, live)
            deferred.resolve(response)

        shard.endpoint.submit(
            self.host, method, request, relay, policy=self.leg_policy
        )

    # ------------------------------------------------------------------
    # Elasticity (driven by repro.server.rebalance)
    # ------------------------------------------------------------------
    def add_shard(self, shard: ServiceProvider) -> int:
        """Attach a new, empty shard *without* rebuilding the ring: the
        shard is reachable by index (migration legs, health accounting)
        but owns no key ranges until :meth:`rebuild_ring` flips
        ownership at the end of the copy."""
        self.shards.append(shard)
        self.breakers.append(
            CircuitBreaker(self._breaker_threshold, self._breaker_reset_s)
        )
        self.outstanding.append(0)
        self.forwards_by_shard.append(0)
        return len(self.shards) - 1

    def rebuild_ring(self) -> None:
        """Recompute ring ownership from the current shard list — the
        atomic half of a migration flip."""
        self.ring = HashRing(
            [shard.host for shard in self.shards], vnodes=self._vnodes
        )

    def remove_shard(self, host: str) -> int:
        """Detach a drained shard.  Every index above it shifts down by
        one, so all index-keyed routing state is rewritten in the same
        step — entries pointing *at* the removed shard are dropped
        (its accounts migrated out before removal; anything left is
        stale by definition).  Returns the removed index."""
        index = next(
            i for i, shard in enumerate(self.shards) if shard.host == host
        )
        del self.shards[index]
        del self.breakers[index]
        del self.outstanding[index]
        del self.forwards_by_shard[index]

        def shift(owner: int) -> Optional[int]:
            if owner == index:
                return None
            return owner - 1 if owner > index else owner

        cookies: Dict[bytes, int] = {}
        for cookie, owner in self._cookie_shard.items():
            live = shift(owner)
            if live is not None:
                cookies[cookie] = live
        self._cookie_shard = cookies
        overrides: Dict[str, int] = {}
        for account, owner in self._account_shard.items():
            live = shift(owner)
            if live is not None:
                overrides[account] = live
        self._account_shard = overrides
        draining: Set[int] = set()
        for owner in self.draining:
            live = shift(owner)
            if live is not None:
                draining.add(live)
        self.draining = draining
        self.rebuild_ring()
        return index

    def complete_migration(
        self, moved: Dict[str, int], window_s: float
    ) -> None:
        """Finish a ring flip for ``moved`` (account → new shard
        index): rewrite learned cookie routes so the next request lands
        on the new owner first try, reconcile register-failover
        overrides back to ring ownership where the ring now agrees, and
        open the dual-read window for legs that raced the flip."""
        for account, target in moved.items():
            cookie = self._account_cookie.get(account)
            if cookie is not None and self._cookie_shard.get(cookie) != target:
                self._cookie_shard[cookie] = target
                self.cookie_rewrites += 1
                self.simulator.metrics.counter(
                    "router.cookie_rewrites"
                ).increment()
            if account in self._account_shard:
                if self.ring.index_for(account) == target:
                    # The ring now homes the account where it actually
                    # lives — the override has nothing left to say.
                    del self._account_shard[account]
                else:
                    self._account_shard[account] = target
        if window_s > 0:
            self._dual_read_until = max(
                self._dual_read_until, self.simulator.now + window_s
            )

    # ------------------------------------------------------------------
    # Crash-stop lifecycle (control plane)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash-stop of the routing tier: the RPC endpoint drops its
        queue and dedup cache, and every learned routing map — cookie
        routes, account cookies, register-failover overrides — dies
        with the process.  Shards are unaffected; they just become
        unreachable until :meth:`restart`."""
        if self.endpoint.crashed:
            return
        self.endpoint.crash()
        self.router_crashes += 1
        self.simulator.metrics.counter("router.crashes").increment()
        self._cookie_shard.clear()
        self._account_cookie.clear()
        self._account_shard.clear()
        self._dual_read_until = 0.0

    def restart(self) -> None:
        """Bring the routing tier back.  Cookie routes relearn lazily
        (clients re-login through the normal retry ladder), but
        register-failover overrides must be rebuilt eagerly — without
        them, accounts living off their ring home would be unroutable
        forever, not just slow."""
        if not self.endpoint.crashed:
            return
        self.endpoint.restart()
        self.router_restarts += 1
        self.recover_routes()

    def recover_routes(self) -> int:
        """Rebuild register-failover overrides from actual ownership:
        any account held by a shard that is not its ring home gets an
        override pointing where it really lives.  Deterministic scan,
        no randomness.  Returns the number of overrides rebuilt."""
        rebuilt = 0
        for index, shard in enumerate(self.shards):
            for account in shard.accounts:
                if self.ring.index_for(account) != index:
                    self._account_shard[account] = index
                    rebuilt += 1
        return rebuilt

    def state_digest(self) -> bytes:
        """Pool-level state identity: a digest over (host, shard
        digest) pairs in *host* order.  Shard-list order is an artifact
        of scaling history; host-sorted digests make "same accounts on
        the same owners with the same state" compare equal regardless
        of how the pool got there."""
        hasher = hashlib.sha256()
        for host, digest in sorted(
            (shard.host, shard.state_digest()) for shard in self.shards
        ):
            hasher.update(host.encode("utf-8"))
            hasher.update(digest)
        return hasher.digest()

    # ------------------------------------------------------------------
    # Aggregated provider surface (experiment/fleet accessors)
    # ------------------------------------------------------------------
    @property
    def denials(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for shard in self.shards:
            for reason, count in shard.denials.items():
                merged[reason] = merged.get(reason, 0) + count
        # Router-level degraded-mode denials sit beside the shard-side
        # reasons so reports read one uniform ledger.
        if self.shard_down_denials:
            merged[DENIAL_SHARD_DOWN] = (
                merged.get(DENIAL_SHARD_DOWN, 0) + self.shard_down_denials
            )
        return merged

    @property
    def crashes(self) -> int:
        return sum(shard.crashes for shard in self.shards)

    @property
    def restarts(self) -> int:
        return sum(shard.restarts for shard in self.shards)

    def journal_stats(self) -> Dict[str, int]:
        totals = {"appends": 0, "snapshots": 0, "wal_bytes": 0, "restores": 0}
        for shard in self.shards:
            for key, value in shard.journal_stats().items():
                totals[key] = totals.get(key, 0) + value
            totals["restores"] += shard.journal_restores
        return totals

    def breaker_states(self) -> List[str]:
        return [breaker.state for breaker in self.breakers]

    @property
    def duplicate_confirms(self) -> int:
        return sum(shard.duplicate_confirms for shard in self.shards)

    @property
    def cookies_invalidated_total(self) -> int:
        return sum(shard.cookies_invalidated for shard in self.shards)

    @property
    def transactions_retired(self) -> int:
        return sum(shard.transactions_retired for shard in self.shards)

    @property
    def transactions_live(self) -> int:
        return sum(len(shard.transactions) for shard in self.shards)

    def count_by_status(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for shard in self.shards:
            for status, count in shard.count_by_status().items():
                merged[status] = merged.get(status, 0) + count
        return merged

    def expire_stale_transactions(self) -> int:
        return sum(shard.expire_stale_transactions() for shard in self.shards)

    def retire_settled(self, now: Optional[float] = None) -> int:
        return sum(shard.retire_settled(now) for shard in self.shards)

    def verification_stats(self) -> Dict[str, int]:
        totals = {"hits": 0, "misses": 0, "evictions": 0, "entries": 0}
        for shard in self.shards:
            cache = shard.verification_cache
            if cache is None:
                continue
            for key, value in cache.stats().items():
                totals[key] += value
        return totals

    # Ledger accessors exist only when the shard class provides them
    # (e.g. BankServer); the router exposes the aggregate.
    @property
    def executed_transfers(self) -> list:
        transfers: list = []
        for shard in self.shards:
            transfers.extend(getattr(shard, "executed_transfers", ()))
        return transfers

    def total_stolen_by(self, destination: str) -> int:
        return sum(
            shard.total_stolen_by(destination)
            for shard in self.shards
            if hasattr(shard, "total_stolen_by")
        )

    def balance_of(self, account: str) -> int:
        return self.shard_for_account(account).balance_of(account)


def build_sharded_pool(
    simulator: Simulator,
    network: Network,
    host: str,
    policy: VerifierPolicy,
    shard_count: int,
    provider_factory: Optional[Callable[..., ServiceProvider]] = None,
    workers_per_shard: int = 1,
    verification_cache: bool = True,
    vnodes: int = 128,
    router_workers: int = 8,
    journal_disk: Optional[UntrustedDisk] = None,
    snapshot_every: int = 256,
    breaker_threshold: int = 3,
    breaker_reset_s: float = 1.0,
    max_shard_queue_depth: int = 64,
    leg_policy: Optional[RetryPolicy] = SHARD_LEG_POLICY,
) -> ProviderRouter:
    """Build N shard replicas behind a :class:`ProviderRouter`.

    ``provider_factory(simulator, network, host, policy, workers,
    verification_cache=...)`` constructs one shard (default: plain
    :class:`ServiceProvider`); shard hosts are ``{host}!shard{i}``, so
    each replica derives an independent DRBG/nonce stream from its own
    hostname.  ``verification_cache=False`` builds every shard cold
    (the F3-S cache ablation).  ``journal_disk`` makes every shard
    durable: each gets a write-ahead journal on the shared disk and
    rebuilds its state bit-identically on restart after a crash (the R2
    journal ablation passes ``None`` here).
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1: {shard_count}")
    factory = provider_factory or ServiceProvider
    extra = {} if verification_cache else {"verification_cache": None}
    shards = []
    for index in range(shard_count):
        shard_host = f"{host}!shard{index}"
        if not network.is_attached(shard_host):
            network.attach(shard_host, LinkSpec.lan())
        shard = factory(
            simulator, network, shard_host, policy,
            workers=workers_per_shard, **extra,
        )
        if journal_disk is not None:
            shard.attach_journal(journal_disk, snapshot_every=snapshot_every)
        shards.append(shard)
    return ProviderRouter(
        simulator, network, host, shards,
        vnodes=vnodes, workers=router_workers,
        breaker_threshold=breaker_threshold,
        breaker_reset_s=breaker_reset_s,
        max_shard_queue_depth=max_shard_queue_depth,
        leg_policy=leg_policy,
    )
