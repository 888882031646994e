"""The sharded provider pool: consistent-hash routing over N replicas.

Covers the ring itself (deterministic, balanced), the router's two
routing modes (account hash vs learned cookie map), transport
faithfulness on both RPC paths (sync inline, queued via
DeferredResponse), and the security property sharding must preserve:
challenge nonces live only in the owning shard's database, so evidence
can never replay cross-shard.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.confirmation_pal import confirmation_digest
from repro.crypto import HmacDrbg, generate_rsa_keypair, pkcs1_sign
from repro.net.network import LinkSpec, Network
from repro.net.rpc import RpcError
from repro.server.bank import BankServer
from repro.server.noncedb import NonceState
from repro.server.policy import VerifierPolicy
from repro.server.provider import DENIAL_NOT_OWNER, MOVED_KEY
from repro.server.router import HashRing, ProviderRouter, build_sharded_pool
from repro.sim import Simulator

CLIENT = "load-host"
POOL = "pool.test"


class TestHashRing:
    def test_deterministic_across_instances(self):
        hosts = [f"shard{i}" for i in range(4)]
        first, second = HashRing(hosts), HashRing(hosts)
        for key in (f"acct-{i}" for i in range(200)):
            assert first.host_for(key) == second.host_for(key)

    def test_reasonably_balanced(self):
        ring = HashRing([f"shard{i}" for i in range(4)])
        counts = dict.fromkeys(ring.hosts, 0)
        for index in range(2000):
            counts[ring.host_for(f"acct-{index}")] += 1
        assert min(counts.values()) > 2000 * 0.15  # vnodes smooth the split

    def test_host_for_is_the_first_point_clockwise(self):
        ring = HashRing(["a", "b"], vnodes=4)

        def point(text):
            digest = hashlib.sha256(text.encode("utf-8")).digest()
            return int.from_bytes(digest[:8], "big")

        points = sorted(
            (point(f"{host}#{replica}"), host)
            for host in ring.hosts for replica in range(4)
        )
        for key in (f"key-{i}" for i in range(50)):
            owner = next(
                (host for p, host in points if p > point(key)), points[0][1]
            )
            assert ring.host_for(key) == owner

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a"], vnodes=0)


@pytest.fixture()
def pool():
    simulator = Simulator(seed=4321)
    network = Network(simulator)
    network.attach(CLIENT, LinkSpec.lan())
    policy = VerifierPolicy()
    router = build_sharded_pool(
        simulator, network, POOL, policy,
        shard_count=4, provider_factory=BankServer, workers_per_shard=1,
    )
    signing_key = generate_rsa_keypair(512, HmacDrbg(b"router-signing"))
    return simulator, router, signing_key


def _enroll(router, signing_key, name):
    """Register + login + arm the account's setup key on its shard."""
    router.endpoint.call_sync(
        CLIENT, "register", {"account": name, "password": "pw"}
    )
    login = router.endpoint.call_sync(
        CLIENT, "login", {"account": name, "password": "pw"}
    )
    shard = router.shard_for_account(name)
    shard.accounts[name].registered_key = signing_key.public
    return login["set_session"]


def _request_transfer(router, cookie, name, amount=100):
    return router.endpoint.call_sync(
        CLIENT, "tx.request",
        {
            "kind": "transfer", "account": name, "session": cookie,
            "f.to": "sink", "f.amount": amount,
        },
    )


def _confirm(router, signing_key, cookie, challenge, decision=b"accept"):
    digest = confirmation_digest(
        challenge["text"], challenge["nonce"], decision
    )
    return router.endpoint.call_sync(
        CLIENT, "tx.confirm",
        {
            "tx_id": challenge["tx_id"], "decision": decision,
            "evidence": "signed",
            "signature": pkcs1_sign(signing_key, digest, prehashed=True),
            "session": cookie,
        },
    )


class TestRouting:
    def test_cookie_routes_to_the_account_shard(self, pool):
        _, router, signing_key = pool
        cookie = _enroll(router, signing_key, "alice")
        owner = router.owner_of("alice")
        before = router.forwards_by_shard[owner]
        _request_transfer(router, cookie, "alice")
        assert router.forwards_by_shard[owner] == before + 1
        assert router.cookie_routes >= 1

    def test_unknown_cookie_is_unroutable(self, pool):
        _, router, _ = pool
        with pytest.raises(RpcError, match="not logged in"):
            router.endpoint.call_sync(
                CLIENT, "tx.status",
                {"tx_id": b"\x00" * 16, "session": b"\xff" * 16},
            )
        assert router.unroutable == 1

    def test_relogin_evicts_old_cookie_router_and_shard(self, pool):
        _, router, signing_key = pool
        first = _enroll(router, signing_key, "bob")
        shard = router.shard_for_account("bob")
        invalidated_before = shard.cookies_invalidated
        second = router.endpoint.call_sync(
            CLIENT, "login", {"account": "bob", "password": "pw"}
        )["set_session"]
        assert second != first
        assert router.cookies_invalidated == 1
        assert shard.cookies_invalidated == invalidated_before + 1
        # The stale cookie no longer routes anywhere.
        with pytest.raises(RpcError, match="not logged in"):
            _request_transfer(router, first, "bob")
        _request_transfer(router, second, "bob")  # the live one works

    def test_accounts_spread_over_shards(self, pool):
        _, router, signing_key = pool
        owners = {router.owner_of(f"user-{index}") for index in range(32)}
        assert len(owners) == 4


class TestEndToEnd:
    def test_sync_confirm_executes_on_owning_shard(self, pool):
        _, router, signing_key = pool
        cookie = _enroll(router, signing_key, "carol")
        challenge = _request_transfer(router, cookie, "carol", amount=250)
        response = _confirm(router, signing_key, cookie, challenge)
        assert response["status"] == "executed"
        shard = router.shard_for_account("carol")
        assert shard.balance_of("sink") == 250
        assert router.balance_of("carol") == 500_000 - 250
        # Aggregated ledger view sees the transfer exactly once.
        assert sum(
            1 for t in router.executed_transfers if t.destination == "sink"
        ) == 1

    def test_queued_path_uses_deferred_responses(self, pool):
        simulator, router, signing_key = pool
        cookie = _enroll(router, signing_key, "dave")
        done = {}

        def after_challenge(challenge):
            digest = confirmation_digest(
                challenge["text"], challenge["nonce"], b"accept"
            )
            router.endpoint.submit(
                CLIENT, "tx.confirm",
                {
                    "tx_id": challenge["tx_id"], "decision": b"accept",
                    "evidence": "signed",
                    "signature": pkcs1_sign(signing_key, digest, prehashed=True),
                    "session": cookie,
                },
                lambda response: done.update(response),
            )

        router.endpoint.submit(
            CLIENT, "tx.request",
            {
                "kind": "transfer", "account": "dave", "session": cookie,
                "f.to": "sink", "f.amount": 70,
            },
            after_challenge,
        )
        simulator.run(until=simulator.now + 60.0)
        assert done.get("status") == "executed"
        # The router freed its worker while shard legs were in flight.
        assert router.endpoint.deferred_responses >= 2
        assert router.shard_for_account("dave").balance_of("sink") == 70

    def test_error_responses_survive_the_sync_hop(self, pool):
        _, router, signing_key = pool
        cookie = _enroll(router, signing_key, "erin")
        challenge = _request_transfer(router, cookie, "erin")
        with pytest.raises(RpcError) as err:
            router.endpoint.call_sync(
                CLIENT, "tx.confirm",
                {
                    "tx_id": challenge["tx_id"], "decision": b"accept",
                    "evidence": "signed", "signature": b"\x01" * 64,
                    "session": cookie,
                },
            )
        assert "denied" in str(err.value)


class TestCrossShardIsolation:
    def test_nonce_is_unknown_to_every_other_shard(self, pool):
        simulator, router, signing_key = pool
        cookie = _enroll(router, signing_key, "frank")
        challenge = _request_transfer(router, cookie, "frank")
        owner = router.owner_of("frank")
        for shard in router.shards:
            state = shard.nonces.state_of(challenge["nonce"], now=simulator.now)
            expected = (
                NonceState.LIVE if shard.host == owner else NonceState.UNKNOWN
            )
            assert state is expected

    def test_replayed_confirm_at_foreign_shard_denied(self, pool):
        """Evidence accepted by the owning shard is dead on arrival at
        any other shard: the tx_id (and its nonce) simply do not exist
        there — there is no cross-shard state to replay against."""
        _, router, signing_key = pool
        cookie = _enroll(router, signing_key, "grace")
        challenge = _request_transfer(router, cookie, "grace", amount=40)
        response = _confirm(router, signing_key, cookie, challenge)
        assert response["status"] == "executed"
        owner = router.owner_of("grace")
        digest = confirmation_digest(
            challenge["text"], challenge["nonce"], b"accept"
        )
        signature = pkcs1_sign(signing_key, digest, prehashed=True)
        for shard in router.shards:
            if shard.host == owner:
                continue
            with pytest.raises(RpcError, match="unknown|not logged in"):
                shard.endpoint.call_sync(
                    CLIENT, "tx.confirm",
                    {
                        "tx_id": challenge["tx_id"], "decision": b"accept",
                        "evidence": "signed", "signature": signature,
                        "session": cookie,
                    },
                )
            assert shard.balance_of("sink") == 0

    def test_shards_have_independent_drbg_streams(self, pool):
        _, router, _ = pool
        hosts = {shard.host for shard in router.shards}
        assert len(hosts) == len(router.shards)
        nonces = set()
        for shard in router.shards:
            nonces.add(shard._drbg.generate(16))
        assert len(nonces) == len(router.shards)


class TestAggregation:
    def test_denials_and_stats_merge_across_shards(self, pool):
        _, router, signing_key = pool
        for name in ("hank", "iris"):
            cookie = _enroll(router, signing_key, name)
            challenge = _request_transfer(router, cookie, name)
            with pytest.raises(RpcError):
                router.endpoint.call_sync(
                    CLIENT, "tx.confirm",
                    {
                        "tx_id": challenge["tx_id"], "decision": b"accept",
                        "evidence": "signed", "signature": b"\x02" * 64,
                        "session": cookie,
                    },
                )
        assert sum(router.denials.values()) == 2
        assert router.transactions_live == 2
        assert router.count_by_status().get("denied") == 2
        stats = router.verification_stats()
        assert stats["misses"] >= 2  # forged signatures were verified cold

    def test_cache_ablation_builds_cold_shards(self):
        simulator = Simulator(seed=77)
        network = Network(simulator)
        cold = build_sharded_pool(
            simulator, network, "cold.pool", VerifierPolicy(),
            shard_count=2, verification_cache=False,
        )
        assert all(shard.verification_cache is None for shard in cold.shards)
        warm = build_sharded_pool(
            simulator, network, "warm.pool", VerifierPolicy(), shard_count=2
        )
        assert all(
            shard.verification_cache is not None for shard in warm.shards
        )

    def test_retire_settled_aggregates(self, pool):
        simulator, router, signing_key = pool
        cookie = _enroll(router, signing_key, "judy")
        challenge = _request_transfer(router, cookie, "judy", amount=10)
        assert _confirm(router, signing_key, cookie, challenge)["status"] == (
            "executed"
        )
        for shard in router.shards:
            shard.settled_retention_seconds = 1.0
        simulator.clock.advance(5.0)
        assert router.retire_settled() == 1
        assert router.transactions_retired == 1
        assert router.transactions_live == 0


def test_router_requires_shards():
    simulator = Simulator(seed=1)
    network = Network(simulator)
    with pytest.raises(ValueError):
        ProviderRouter(simulator, network, "empty.pool", [])
    with pytest.raises(ValueError):
        build_sharded_pool(
            simulator, network, "none.pool", VerifierPolicy(), shard_count=0
        )
    # A host names exactly one shard.
    shard = build_sharded_pool(
        simulator, network, "one.pool", VerifierPolicy(), shard_count=1
    ).shards[0]
    with pytest.raises(ValueError, match="already in the pool"):
        ProviderRouter(simulator, network, "dup.pool", [shard, shard])


def test_not_owner_denial_crosses_the_router(pool):
    """Ownership enforcement composes with sharding: a session probing a
    foreign transaction through the router gets the dedicated denial."""
    _, router, signing_key = pool
    victim_cookie = _enroll(router, signing_key, "victim")
    prober_cookie = _enroll(router, signing_key, "prober")
    challenge = _request_transfer(router, victim_cookie, "victim")
    owner = router.owner_of("victim")
    prober_home = router.owner_of("prober")
    if owner == prober_home:
        # Same shard: the provider's ownership check answers.
        with pytest.raises(RpcError, match=DENIAL_NOT_OWNER):
            router.endpoint.call_sync(
                CLIENT, "tx.status",
                {"tx_id": challenge["tx_id"], "session": prober_cookie},
            )
    else:
        # Different shard: the transaction does not even exist there.
        with pytest.raises(RpcError, match="unknown"):
            router.endpoint.call_sync(
                CLIENT, "tx.status",
                {"tx_id": challenge["tx_id"], "session": prober_cookie},
            )


# ----------------------------------------------------------------------
# The ownership fence on the entry points a router routes
# ----------------------------------------------------------------------
_FENCED_METHODS = (
    "register", "login", "tx.request", "tx.confirm", "tx.status",
    "tx.rechallenge", "tx.request_batch", "tx.confirm_batch",
)
_FIELDS = (
    "account", "password", "session", "tx_id", "kind", "f.to", "f.amount",
    "decision", "evidence", "signature", "opening_balance", "transactions",
    "quote", "counter",
)
#: Any value the wire codec carries: bytes, str, int, and lists of them.
_WIRE_VALUES = st.recursive(
    st.one_of(
        st.binary(max_size=16), st.text(max_size=12),
        st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    ),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def fenced_pool():
    """A 3-shard pool with one account enrolled on shard 0, plus names
    shard 0 does not own and fresh names it does."""
    simulator = Simulator(seed=2718)
    network = Network(simulator)
    network.attach(CLIENT, LinkSpec.lan())
    router = build_sharded_pool(
        simulator, network, POOL, VerifierPolicy(),
        shard_count=3, provider_factory=BankServer, workers_per_shard=1,
    )
    signing_key = generate_rsa_keypair(512, HmacDrbg(b"router-signing"))
    home = router.shards[0].host
    held = next(
        f"held-{i}" for i in range(100)
        if router.ring.host_for(f"held-{i}") == home
    )
    foreign = next(
        f"foreign-{i}" for i in range(100)
        if router.ring.host_for(f"foreign-{i}") != home
    )
    fresh = [
        name for name in (f"fresh-{i}" for i in range(100))
        if router.ring.host_for(name) == home
    ][:8]
    cookie = _enroll(router, signing_key, held)
    return router, cookie, [held, foreign] + fresh


@st.composite
def _hostile_requests(draw, cookie, names):
    request = draw(st.dictionaries(
        st.sampled_from(_FIELDS), _WIRE_VALUES, max_size=6
    ))
    # Reach past the fence too: a live session and real account names.
    if draw(st.booleans()):
        request["session"] = cookie
    if draw(st.booleans()):
        request["account"] = draw(st.sampled_from(names))
    return request


class TestFencedEntryPoints:
    @settings(
        max_examples=100, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_hostile_requests_are_refused_without_a_trace(
        self, fenced_pool, data
    ):
        """Arbitrary field types and values, sent to a pool shard with
        ownership installed and through the router: the answer is a
        response (an error or ``moved`` unless the request happened to
        be well-formed), never an exception, and a refused request
        leaves the pool digest unchanged.  No ``moved`` marker ever
        escapes the router."""
        router, cookie, names = fenced_pool
        shard = router.shards[0]
        method = data.draw(st.sampled_from(_FENCED_METHODS))
        request = data.draw(_hostile_requests(cookie, names))
        for endpoint in (shard.endpoint, router.endpoint):
            before = router.state_digest()
            try:
                response = endpoint.call_sync(CLIENT, method, request)
            except RpcError as exc:
                assert exc.response is not None and not exc.transport, exc
                response = exc.response
            assert isinstance(response, dict)
            if endpoint is router.endpoint:
                assert MOVED_KEY not in response, response
            if "error" in response or MOVED_KEY in response:
                assert router.state_digest() == before, (method, request)

    @settings(
        max_examples=100, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_hostile_requests_on_the_queued_path(self, fenced_pool, data):
        """The same hostile requests, submitted through the router and
        run on the simulator: ``on_response`` fires exactly once, with
        a response dict, and a refused request leaves the pool digest
        unchanged."""
        router, cookie, names = fenced_pool
        method = data.draw(st.sampled_from(_FENCED_METHODS))
        request = data.draw(_hostile_requests(cookie, names))
        before = router.state_digest()
        responses = []
        router.endpoint.submit(CLIENT, method, request, responses.append)
        router.simulator.run(until=router.simulator.now + 60.0)
        assert len(responses) == 1, (method, request, responses)
        response = responses[0]
        assert isinstance(response, dict)
        assert MOVED_KEY not in response, response
        if "error" in response:
            assert router.state_digest() == before, (method, request)

    def test_shard_answers_moved_for_what_it_does_not_own(self, fenced_pool):
        router, cookie, (held, foreign, *_) = fenced_pool
        shard = router.shards[0]
        before = shard.state_digest()
        for method, request in (
            ("register", {"account": foreign, "password": "pw"}),
            ("login", {"account": foreign, "password": "pw"}),
            ("tx.status", {"tx_id": b"\x00" * 16, "session": b"\x01" * 16}),
        ):
            with pytest.raises(RpcError) as raised:
                shard.endpoint.call_sync(CLIENT, method, request)
            assert raised.value.response[MOVED_KEY] == 1
        assert shard.state_digest() == before
        # What it holds it serves: a wrong password on a held account is
        # the handler's own refusal, not a ``moved`` answer.
        with pytest.raises(RpcError) as raised:
            shard.endpoint.call_sync(
                CLIENT, "login", {"account": held, "password": "nope"}
            )
        assert raised.value.response == {"error": "bad credentials"}

    def test_provider_outside_a_pool_is_unfenced(self):
        simulator = Simulator(seed=99)
        network = Network(simulator)
        network.attach(CLIENT, LinkSpec.lan())
        network.attach("solo.bank", LinkSpec.lan())
        solo = BankServer(simulator, network, "solo.bank", VerifierPolicy())
        assert solo.ring is None
        assert solo.endpoint.call_sync(
            CLIENT, "register", {"account": "anyone", "password": "pw"}
        ) == {"ok": 1}
        with pytest.raises(RpcError) as raised:
            solo.endpoint.call_sync(
                CLIENT, "tx.status", {"tx_id": b"", "session": b"\x01"}
            )
        assert raised.value.response == {
            "error": "ProtocolError: not logged in"
        }
