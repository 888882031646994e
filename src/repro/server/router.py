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

Every shard enforces the ring the router routes by (plus the names a
register failover granted it): it answers ``moved``, executing nothing,
for an account it neither holds nor owns or a session it does not hold,
and the router re-aims that answer at the current owner (:meth:`_settle`).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

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
from repro.server.provider import (
    ACCOUNT_ROUTED, MOVED_KEY, NOT_LOGGED_IN, SERVICE_TIMES, ServiceProvider,
)
from repro.sim.kernel import Simulator

#: Modeled routing cost per forwarded request (hash + table lookup —
#: orders of magnitude below any shard's verification service time).
ROUTER_SERVICE_TIME = 0.0001

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

#: Worker pool of the router's own endpoint.
ROUTER_WORKERS = 8

#: Retry policy for the router→shard leg: strictly tighter than
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
        points: List[Tuple[int, str]] = []
        for host in self.hosts:
            for replica in range(vnodes):
                digest = hashlib.sha256(
                    f"{host}#{replica}".encode("utf-8")
                ).digest()
                points.append((int.from_bytes(digest[:8], "big"), host))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [owner for _, owner in points]

    def host_for(self, key: str) -> str:
        """Host owning ``key`` (stable across router instances)."""
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        point = int.from_bytes(digest[:8], "big")
        slot = bisect.bisect_right(self._points, point)
        if slot == len(self._points):
            slot = 0
        return self._owners[slot]


class ProviderRouter:
    """Front end exposing a shard pool as one provider endpoint.

    Duck-types the provider surface the fleet and experiments consume
    (``endpoint``, ``denials``, ``expire_stale_transactions`` ...) by
    aggregating over shards, so a sharded pool drops in wherever a
    single provider was wired.

    A shard's host is its only name in the control plane: every routing
    and health table is keyed by it, so adding or removing a shard
    touches its own entries and nothing else.  ``shards`` keeps the
    pool's order, which register failover walks.  Router events are
    counted in the simulator's metric registry (``router.*``).
    """

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        host: str,
        shards: Sequence[ServiceProvider],
        breaker_threshold: int = 3,
        breaker_reset_s: float = 1.0,
        max_shard_queue_depth: int = 64,
    ) -> None:
        if not shards:
            raise ValueError("router needs at least one shard")
        if max_shard_queue_depth < 1:
            raise ValueError(
                f"max_shard_queue_depth must be >= 1: {max_shard_queue_depth}"
            )
        self.simulator = simulator
        self.host = host
        self._breaker_threshold = breaker_threshold
        self._breaker_reset_s = breaker_reset_s
        self.max_shard_queue_depth = max_shard_queue_depth
        self.ring: Optional[HashRing] = None
        self.shards: List[ServiceProvider] = []
        self._by_host: Dict[str, ServiceProvider] = {}
        # -- shard health, by host (filled by add_shard) --------------------
        self.breakers: Dict[str, CircuitBreaker] = {}
        #: Outstanding queued legs per shard — the router-local backlog
        #: signal load shedding keys on.  The shard's own queue_depth
        #: lags by a network latency (a burst is fully forwarded before
        #: the first packet lands), so the router counts what it has in
        #: flight instead.
        self.outstanding: Dict[str, int] = {}
        self.forwards_by_shard: Dict[str, int] = {}
        for shard in shards:
            self.add_shard(shard)
        self.rebuild_ring()
        if not network.is_attached(host):
            network.attach(host, LinkSpec.lan())
        self.endpoint = RpcEndpoint(
            simulator, network, host, workers=ROUTER_WORKERS
        )
        for method in SERVICE_TIMES:
            self.endpoint.register(
                method, self._make_handler(method), ROUTER_SERVICE_TIME
            )
        #: session cookie -> shard host, learned from login responses.
        self._cookie_shard: Dict[bytes, str] = {}
        #: account -> its live cookie, for eviction on re-login (mirrors
        #: the shard-side one-session-per-account invalidation).
        self._account_cookie: Dict[str, bytes] = {}
        #: account -> shard host override, recorded when a *register*
        #: failed over from an open home shard; account-hash routing
        #: consults this first so the account stays findable.
        self._account_shard: Dict[str, str] = {}
        # -- live rebalancing (repro.server.rebalance) ----------------------
        #: Hosts draining for removal: no new sessions admitted,
        #: in-flight legs settle, ranges migrate out before the flip.
        self.draining: Set[str] = set()
        # -- routing accounting --------------------------------------------
        self.unroutable = 0
        self.cookie_routes = 0
        self.cookies_invalidated = 0
        self.register_failovers = 0

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard(self, host: str) -> Optional[ServiceProvider]:
        """The pool's shard named ``host``, or ``None``."""
        return self._by_host.get(host)

    def owner_of(self, account: str) -> str:
        # Failed-over registrations live on their override shard, not
        # the ring's nominal home — accessors must agree with _route.
        override = self._account_shard.get(account)
        return override if override is not None else self.ring.host_for(account)

    def shard_for_account(self, account: str) -> ServiceProvider:
        return self._by_host[self.owner_of(account)]

    def _count(self, name: str) -> None:
        self.simulator.metrics.counter(name).increment()

    def _route(self, method: str, request: Message):
        """(shard host, None) or (None, error response)."""
        if method in ACCOUNT_ROUTED:
            account = str(request.get("account", ""))
            if not account:
                return None, {"error": "missing account"}
            return self.owner_of(account), None
        cookie = request.get("session")
        if isinstance(cookie, bytes):
            host = self._cookie_shard.get(cookie)
            if host is not None:
                self.cookie_routes += 1
                return host, None
        return None, {"error": NOT_LOGGED_IN}

    def _observe(self, request: Message, response: Message, host: str) -> None:
        """Learn cookie→shard mappings from forwarded login responses."""
        cookie = response.get("set_session")
        if not isinstance(cookie, bytes):
            return
        account = str(request.get("account", ""))
        previous = self._account_cookie.get(account)
        if previous is not None and previous != cookie:
            self._cookie_shard.pop(previous, None)
            self.cookies_invalidated += 1
        self._account_cookie[account] = cookie
        self._cookie_shard[cookie] = host

    def _settle(
        self, method: str, request: Message, response: Message,
        host: str, redirected: bool,
    ) -> Tuple[Optional[str], Message]:
        """The one ownership rule, for both forwarding paths.  A
        ``moved`` answer from shard ``host`` (possibly removed while the
        leg was in flight; no route names a removed host) executed
        nothing.  If the current route names another shard, returns
        ``(target, response)``: re-aim once, however late after a flip.
        Otherwise returns ``(None, the shard's pre-fence answer)`` and
        prunes a stale cookie route (a journal-less shard restarts
        holding no sessions; a re-login relearns the route)."""
        if not response.get(MOVED_KEY):
            return None, response
        account_routed = method in ACCOUNT_ROUTED
        cookie = request.get("session")
        if account_routed:
            route = self.owner_of(str(request.get("account", "")))
        else:
            route = self._cookie_shard.get(cookie)
        if route is not None and route != host and not redirected:
            self._count("router.dual_read_redirects")
            self.forwards_by_shard[route] += 1
            return route, response
        if not account_routed and cookie in self._cookie_shard:
            del self._cookie_shard[cookie]
            for account, known in list(self._account_cookie.items()):
                if known == cookie:
                    del self._account_cookie[account]
            self._count("router.cookie_prunes")
        return None, {k: v for k, v in response.items() if k != MOVED_KEY}

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def _make_handler(self, method: str) -> Callable[[Message], Message]:
        def handle(request: Message) -> Message:
            return self._forward(method, request)

        return handle

    def _shard_down_response(self) -> Message:
        self._count("router.shard_down_denials")
        return {"error": f"denied: {DENIAL_SHARD_DOWN}", SHARD_DOWN_KEY: 1}

    def _draining_response(self) -> Message:
        self._count("router.draining_denials")
        return {"error": f"denied: {DENIAL_SHARD_DRAINING}", SHARD_DOWN_KEY: 1}

    def _failover_register(
        self, method: str, request: Message, host: str
    ) -> Optional[str]:
        """Where a request aimed at open or draining shard ``host``
        fails over to — the next eligible shard after it in pool order —
        or ``None``.  Only a *register* does: a new account has no home
        yet, the override map keeps routing to it, and the grant lets
        the candidate's fence admit it.  Existing accounts are
        partitioned, not replicated, so while their shard is down the
        honest answer is the explicit denial."""
        if method != "register":
            return None
        account = str(request.get("account", ""))
        now = self.simulator.now
        position = self.shards.index(self._by_host[host])
        for candidate in self.shards[position + 1:] + self.shards[:position]:
            if candidate.host in self.draining:
                continue
            if self.breakers[candidate.host].allow(now):
                self._account_shard[account] = candidate.host
                candidate.granted.add(account)
                self.register_failovers += 1
                return candidate.host
        return None

    def _record_outcome(self, host: str, failed: bool) -> None:
        """Feed a forwarded leg's transport outcome to the breaker.
        Application errors count as successes — the shard answered."""
        breaker = self.breakers[host]
        if not failed:
            breaker.record_success()
            return
        opens_before = breaker.opens
        breaker.record_failure(self.simulator.now)
        if breaker.opens > opens_before:
            self._count("router.breaker_opens")

    def _forward(self, method: str, request: Message):
        host, error = self._route(method, request)
        if error is not None:
            self.unroutable += 1
            return error
        # A draining shard admits no *new* sessions: registrations are
        # placed elsewhere immediately; logins get an explicit retryable
        # refusal (the account's range flips to a survivor within the
        # copy window).  Cookie-routed methods keep flowing — in-flight
        # sessions are exactly what the drain waits for.
        if host in self.draining and method in ACCOUNT_ROUTED:
            host = self._failover_register(method, request, host)
            if host is None:
                return self._draining_response()
        # Load shedding first: a full shard backlog is explicit back-
        # pressure, refused before it can consume a half-open breaker's
        # probe slot.  Sync dispatch has no queue to bound.
        if (
            not self.endpoint.sync_dispatch
            and self.outstanding[host] >= self.max_shard_queue_depth
        ):
            self._count("router.shed")
            return overload_error(host, self.outstanding[host])
        if not self.breakers[host].allow(self.simulator.now):
            host = self._failover_register(method, request, host)
            if host is None:
                return self._shard_down_response()
        self.forwards_by_shard[host] += 1
        if self.endpoint.sync_dispatch:
            target, redirected = host, False
            while target is not None:
                host = target
                target, response = self._settle(
                    method, request, self._call_leg(host, method, request),
                    host, redirected,
                )
                redirected = True
            self._observe(request, response, host)
            return response
        # Queued path: forward via the shard's own queue and release
        # this router worker immediately.  The shard leg carries its own
        # retry policy; a dead-lettered leg resolves the deferred with
        # the structured deadline error, so the client never hangs.
        deferred = DeferredResponse()
        self.outstanding[host] += 1
        self._submit_leg(host, method, request, deferred, redirected=False)
        return deferred

    def _call_leg(self, host: str, method: str, request: Message) -> Message:
        """One inline router→shard leg.  An error response is unwrapped
        from its RpcError so every structured field reaches the caller."""
        shard = self._by_host[host]
        failed = False
        try:
            response = shard.endpoint.call_sync(self.host, method, request)
        except RpcError as exc:
            failed = exc.transport  # connection refused / dead host
            response = dict(exc.response) if exc.response else {"error": str(exc)}
        self._record_outcome(host, failed)
        return response

    def _submit_leg(
        self,
        host: str,
        method: str,
        request: Message,
        deferred: DeferredResponse,
        redirected: bool,
    ) -> None:
        """One queued router→shard leg.  A drain can remove the shard
        while the leg is in flight; its answer then feeds no health or
        route state, and a ``moved`` answer follows the current route
        (no route names a removed host)."""
        shard = self._by_host[host]

        def relay(response: Message) -> None:
            live = self._by_host.get(host) is shard
            if live:
                self.outstanding[host] -= 1
                self._record_outcome(host, DEADLINE_ERROR_KEY in response)
            target, response = self._settle(
                method, request, response, host, redirected
            )
            if target is not None:
                self.outstanding[target] += 1
                self._submit_leg(
                    target, method, request, deferred, redirected=True
                )
                return
            if live:
                self._observe(request, response, host)
            deferred.resolve(response)

        shard.endpoint.submit(
            self.host, method, request, relay, policy=SHARD_LEG_POLICY
        )

    # ------------------------------------------------------------------
    # Elasticity (driven by repro.server.rebalance)
    # ------------------------------------------------------------------
    def add_shard(self, shard: ServiceProvider) -> None:
        """Attach a new, empty shard *without* rebuilding the ring: the
        shard is reachable by host (migration legs, health accounting)
        but owns no key ranges until :meth:`rebuild_ring` flips
        ownership at the end of the copy."""
        if shard.host in self._by_host:
            raise ValueError(f"shard host already in the pool: {shard.host!r}")
        shard.ring = self.ring
        self.shards.append(shard)
        self._by_host[shard.host] = shard
        self.breakers[shard.host] = CircuitBreaker(
            self._breaker_threshold, self._breaker_reset_s
        )
        self.outstanding[shard.host] = 0
        self.forwards_by_shard[shard.host] = 0

    def rebuild_ring(self) -> None:
        """Recompute ring ownership from the current shard list — the
        atomic half of a migration flip."""
        self.ring = HashRing([shard.host for shard in self.shards])
        # Every shard's fence enforces the ring the router routes by.
        for shard in self.shards:
            shard.ring = self.ring

    def remove_shard(self, host: str) -> None:
        """Detach a drained shard and every routing entry naming it
        (its accounts migrated out before removal; anything left is
        stale by definition).  The removed shard keeps the new ring, so
        its fence refuses whatever still reaches it."""
        removed = self._by_host.pop(host)
        self.shards.remove(removed)
        del self.breakers[host]
        del self.outstanding[host]
        del self.forwards_by_shard[host]
        self._cookie_shard = {
            cookie: owner
            for cookie, owner in self._cookie_shard.items() if owner != host
        }
        self._account_shard = {
            account: owner
            for account, owner in self._account_shard.items() if owner != host
        }
        self.draining.discard(host)
        self.rebuild_ring()
        removed.ring = self.ring
        removed.granted.clear()

    def complete_migration(self, moved: Dict[str, str]) -> None:
        """Finish a ring flip for ``moved`` (account → new owner host):
        rewrite learned cookie routes so the next request lands on the
        new owner first try, and reconcile register-failover overrides
        back to ring ownership where the ring now agrees."""
        for account, target in moved.items():
            cookie = self._account_cookie.get(account)
            if cookie is not None and self._cookie_shard.get(cookie) != target:
                self._cookie_shard[cookie] = target
                self._count("router.cookie_rewrites")
            if account in self._account_shard:
                if self.ring.host_for(account) == target:
                    # The ring now homes the account where it actually
                    # lives — the override has nothing left to say.
                    del self._account_shard[account]
                else:
                    self._account_shard[account] = target

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
        self._count("router.crashes")
        self._cookie_shard.clear()
        self._account_cookie.clear()
        self._account_shard.clear()

    def restart(self) -> None:
        """Bring the routing tier back.  Cookie routes relearn lazily
        (clients re-login through the normal retry ladder), but
        register-failover overrides must be rebuilt eagerly — without
        them, accounts living off their ring home would be unroutable
        forever, not just slow."""
        if not self.endpoint.crashed:
            return
        self.endpoint.restart()
        self.recover_routes()

    def recover_routes(self) -> int:
        """Rebuild register-failover overrides from actual ownership:
        any account held by a shard that is not its ring home gets an
        override pointing where it really lives.  Deterministic scan,
        no randomness.  Returns the number of overrides rebuilt."""
        rebuilt = 0
        for shard in self.shards:
            for account in shard.accounts:
                if self.ring.host_for(account) != shard.host:
                    self._account_shard[account] = shard.host
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
        down = self.simulator.metrics.counters().get(
            "router.shard_down_denials", 0
        )
        if down:
            merged[DENIAL_SHARD_DOWN] = merged.get(DENIAL_SHARD_DOWN, 0) + down
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

    def breaker_states(self) -> Dict[str, str]:
        return {host: breaker.state for host, breaker in self.breakers.items()}

    @property
    def duplicate_confirms(self) -> int:
        return sum(shard.duplicate_confirms for shard in self.shards)

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
    journal_disk: Optional[UntrustedDisk] = None,
    snapshot_every: int = 256,
    breaker_threshold: int = 3,
    breaker_reset_s: float = 1.0,
    max_shard_queue_depth: int = 64,
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
        breaker_threshold=breaker_threshold,
        breaker_reset_s=breaker_reset_s,
        max_shard_queue_depth=max_shard_queue_depth,
    )
