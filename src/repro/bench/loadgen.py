"""Open-loop load engine: internet-scale arrival shapes for the pool.

Every pre-existing workload in the repo is *closed-loop*: N clients
issue a transaction, wait for it to settle, then issue the next, so the
offered load can never exceed N/latency and the system under test
throttles its own traffic.  Real deployments — the paper pitches the
trusted path as a captcha replacement, i.e. front-door internet
infrastructure — are *open-loop*: users arrive whether or not the pool
is keeping up, following a diurnal curve with occasional stampedes.
This module models that population:

* **Diurnal arrivals by deterministic thinning.**  A smooth day curve
  (:class:`DiurnalCurve`) plus configured :class:`FlashCrowd` windows
  define an inhomogeneous Poisson rate λ(t).  Arrival instants are
  drawn by thinning a homogeneous candidate stream at λ_max on a
  dedicated named RNG stream, so the whole day's arrival sequence is a
  pure function of (seed, curve, spikes) — independent of worker count,
  crypto backend and anything the pool does.
* **Zipf-skewed account popularity.**  :class:`ZipfSampler` picks which
  account each arrival belongs to with P(rank r) ∝ 1/r^s — a handful
  of hot accounts carry a disproportionate share, which stresses the
  router's consistent-hash ring exactly where real traffic would.
* **Mixed session lifetimes.**  Each arrival runs one of three session
  shapes: a one-shot confirmation, a k-transaction batch under a single
  challenge, or a long-lived session that re-logs-in (invalidating its
  previous cookie) and confirms several transactions with think time
  between them.
* **Explicit saturation behaviour.**  Arrivals are never silently
  discarded: an optional ``max_outstanding`` admission cap drops
  arrivals *countedly* (``loadgen.dropped_cap`` in the metric
  registry), the router's load shedding and shard-down refusals are
  retried a bounded number of times, and every session ends in exactly
  one of completed / failed / dropped — the :class:`LoadReport`
  accounting must always balance.

The engine drives any object with the provider RPC surface —
a single provider or the sharded :class:`~repro.server.router
.ProviderRouter`.  Experiment F6
(:mod:`repro.bench.experiments.openloop`) sweeps the population
10³ → 10⁵ users/day and records users-per-wall-second, the headline
``BENCH_wall.json`` metric.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.confirmation_pal import confirmation_digest
from repro.core.protocol import EVIDENCE_SIGNED, build_transaction_request
from repro.core.transaction import Transaction
from repro.crypto.pkcs1 import pkcs1_sign
from repro.net.messages import encode_message
from repro.net.retry import DEADLINE_ERROR_KEY, RPC_OVERLOADED_KEY
from repro.server.router import SHARD_DOWN_KEY
from repro.sim.kernel import Simulator
from repro.sim.metrics import Histogram

#: Host name the engine attaches to the network as.
LOAD_HOST = "load-gen"

#: Base resubmit backoff; attempt k waits this × 2^k × U(0.5, 1.5).
RETRY_BACKOFF_S = 0.5

#: Virtual seconds the day runs past its curve so in-flight sessions
#: can settle.
DRAIN_S = 60.0

#: Session shape identifiers (stable row/counter keys).
ONE_SHOT = "one_shot"
BATCH = "batch"
LONG_LIVED = "long_lived"
SESSION_KINDS = (ONE_SHOT, BATCH, LONG_LIVED)


# ----------------------------------------------------------------------
# Rate curve
# ----------------------------------------------------------------------
class DiurnalCurve:
    """A smooth day/night arrival-rate shape over one day.

    ``shape(t)`` runs from ``trough`` at t = 0 (and t = day) up to 1.0
    at mid-day: ``trough + (1 - trough) · ½(1 − cos 2πt/day)``.  The
    class also provides the analytic integral, so arrival-count
    normalization is exact rather than numerically estimated.
    """

    def __init__(self, day_seconds: float = 86_400.0, trough: float = 0.25) -> None:
        if day_seconds <= 0:
            raise ValueError(f"day must be positive: {day_seconds}")
        if not 0.0 < trough <= 1.0:
            raise ValueError(f"trough must be in (0, 1]: {trough}")
        self.day_seconds = float(day_seconds)
        self.trough = float(trough)

    def shape(self, t: float) -> float:
        """Relative rate at ``t`` seconds into the day, in [trough, 1]."""
        phase = 2.0 * math.pi * (t % self.day_seconds) / self.day_seconds
        return self.trough + (1.0 - self.trough) * 0.5 * (1.0 - math.cos(phase))

    def shape_integral(self, a: float, b: float) -> float:
        """∫ shape(t) dt over [a, b] within one day (analytic)."""
        if b < a:
            raise ValueError(f"bad integration window [{a}, {b}]")
        day = self.day_seconds
        half = 0.5 * (1.0 - self.trough)

        def antiderivative(t: float) -> float:
            phase = 2.0 * math.pi * t / day
            return (self.trough + half) * t - half * day / (2.0 * math.pi) * math.sin(
                phase
            )

        return antiderivative(b) - antiderivative(a)


@dataclass(frozen=True)
class FlashCrowd:
    """A rate spike: ticket sale, breach-notification stampede.

    Inside ``[start, start + duration)`` the instantaneous arrival rate
    is ``multiplier`` times the diurnal baseline — the *rate multiple*
    is the configured contract, tested directly in
    ``tests/test_loadgen.py``.
    """

    start: float
    duration: float
    multiplier: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"spike duration must be positive: {self.duration}")
        if self.multiplier < 1.0:
            raise ValueError(f"spike multiplier must be >= 1: {self.multiplier}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def covers(self, t: float) -> bool:
        return self.start <= t < self.end


def _base_rate(
    users: int, curve: DiurnalCurve, spikes: Sequence[FlashCrowd]
) -> float:
    """Check the day's spikes and solve for the rate at shape 1.0 that
    makes the expected day ``users`` arrivals, spike mass included.

    Spikes must start inside the day and must not overlap: inside two
    windows at once the rate would exceed the thinning envelope and the
    extra spike mass would be counted twice.
    """
    if users <= 0:
        raise ValueError(f"users must be positive: {users}")
    day = curve.day_seconds
    for spike in spikes:
        if not 0 <= spike.start < day:
            raise ValueError(f"spike starts outside the day: {spike}")
    ordered = sorted(spikes, key=lambda spike: spike.start)
    for earlier, later in zip(ordered, ordered[1:]):
        if later.start < earlier.end:
            raise ValueError(f"spikes overlap: {earlier} and {later}")

    # expected arrivals = base_rate · (diurnal mass + extra spike mass),
    # with the analytic integral.
    mass = curve.shape_integral(0.0, day)
    for spike in spikes:
        mass += (spike.multiplier - 1.0) * curve.shape_integral(
            spike.start, min(spike.end, day)
        )
    return users / mass


def plan_arrivals(
    rng,
    users: int,
    curve: DiurnalCurve,
    spikes: Sequence[FlashCrowd] = (),
) -> List[float]:
    """Deterministic thinning: arrival instants for one simulated day.

    ``users`` is the *expected* number of arrivals over the day
    (spike mass included); the realized count is Poisson-concentrated
    around it.  Candidates are drawn at the global maximum rate and
    accepted with probability λ(t)/λ_max, all from the single ``rng``
    stream the caller dedicates to arrivals — adding randomness
    anywhere else in the system cannot perturb the plan.  Each
    candidate draws one ``expovariate`` and, if it falls inside the
    day, one ``random``.
    """
    base_rate = _base_rate(users, curve, spikes)
    day = curve.day_seconds
    rate_max = base_rate * max((s.multiplier for s in spikes), default=1.0)
    # Outside every spike λ(t) = base_rate · shape(t) ≤ base_rate, so
    # outside the spikes' hull a draw at or above ``ceiling`` is rejected
    # without computing λ(t).  The slack covers the rounding of shape(),
    # whose true peak is 1.0; a higher ceiling gives the same verdicts.
    ceiling = base_rate * (1.0 + 1e-9)
    hull_start = min((s.start for s in spikes), default=day)
    hull_end = max((s.end for s in spikes), default=day)

    expovariate, random, shape = rng.expovariate, rng.random, curve.shape
    arrivals: List[float] = []
    t = 0.0
    while True:
        t += expovariate(rate_max)
        if t >= day:
            return arrivals
        u = random() * rate_max
        if u >= ceiling and not hull_start <= t < hull_end:
            continue
        rate = base_rate * shape(t)
        for spike in spikes:
            if spike.covers(t):
                rate *= spike.multiplier
        if u < rate:
            arrivals.append(t)


# ----------------------------------------------------------------------
# Account popularity
# ----------------------------------------------------------------------
class ZipfSampler:
    """Zipf-distributed rank sampler: P(rank r) ∝ 1/r^s, r = 1..n.

    Implemented as an exact inverse-CDF table (one cumulative list,
    O(log n) per draw via bisect) rather than rejection sampling, so
    the documented :meth:`frequency` is the sampler's true law.
    """

    def __init__(self, population: int, exponent: float = 1.1) -> None:
        if population < 1:
            raise ValueError(f"population must be >= 1: {population}")
        if exponent <= 0:
            raise ValueError(f"exponent must be positive: {exponent}")
        self.population = population
        self.exponent = exponent
        weights = [1.0 / (rank ** exponent) for rank in range(1, population + 1)]
        total = sum(weights)
        self._frequencies = [w / total for w in weights]
        cumulative: List[float] = []
        running = 0.0
        for frequency in self._frequencies:
            running += frequency
            cumulative.append(running)
        cumulative[-1] = 1.0  # float-sum slack never strands a draw
        self._cdf = cumulative

    def frequency(self, rank: int) -> float:
        """Exact probability of drawing 0-based ``rank``."""
        return self._frequencies[rank]

    def sample(self, rng) -> int:
        """Draw a 0-based rank (0 is the hottest account)."""
        return bisect_right(self._cdf, rng.random())


# ----------------------------------------------------------------------
# Session mix
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SessionMix:
    """Proportions and shapes of the three session lifetimes.

    Weights need not sum to 1 (they are normalized); batch size and
    long-lived confirmation counts are drawn uniformly from the given
    inclusive ranges on the engine's session RNG stream.
    """

    one_shot: float = 0.6
    batch: float = 0.2
    long_lived: float = 0.2
    batch_size: Sequence[int] = (2, 8)
    long_confirms: Sequence[int] = (2, 4)
    think_mean_s: float = 7.5

    def __post_init__(self) -> None:
        if min(self.one_shot, self.batch, self.long_lived) < 0:
            raise ValueError("session weights must be non-negative")
        if self.one_shot + self.batch + self.long_lived <= 0:
            raise ValueError("at least one session weight must be positive")
        if self.batch_size[0] < 1 or self.batch_size[1] < self.batch_size[0]:
            raise ValueError(f"bad batch_size range: {self.batch_size}")
        if (
            self.long_confirms[0] < 1
            or self.long_confirms[1] < self.long_confirms[0]
        ):
            raise ValueError(f"bad long_confirms range: {self.long_confirms}")

    def draw_kind(self, rng) -> str:
        total = self.one_shot + self.batch + self.long_lived
        point = rng.random() * total
        if point < self.one_shot:
            return ONE_SHOT
        if point < self.one_shot + self.batch:
            return BATCH
        return LONG_LIVED


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass
class LoadReport:
    """Balanced accounting of one open-loop day."""

    users: int
    arrivals: int = 0
    dropped_cap: int = 0
    sessions_completed: int = 0
    sessions_failed: int = 0
    sessions_unfinished: int = 0
    confirms_completed: int = 0
    retries: int = 0
    relogins: int = 0
    arrivals_by_kind: Dict[str, int] = field(default_factory=dict)
    spike_arrivals: int = 0
    hot_account_arrivals: int = 0
    p95_session_s: float = float("nan")
    virtual_seconds: float = 0.0


class LoadEngine:
    """Drives one open-loop day of traffic at a provider pool.

    Parameters
    ----------
    simulator, pool:
        The shared simulator and any object with the provider RPC
        surface (``endpoint``, ``shard_for_account`` optional).
    users:
        Expected arrivals over the day (the open-loop population).
    accounts:
        Number of distinct account identities arrivals are drawn from
        (Zipf-skewed).  Defaults to ``max(16, users // 16)`` capped at
        5 000 — popularity skew means identities repeat.
    day_seconds, spikes:
        Arrival-rate curve configuration (see :class:`DiurnalCurve` /
        :class:`FlashCrowd`).
    mix:
        Session-lifetime mix (:class:`SessionMix`).
    max_outstanding:
        Admission cap: arrivals beyond this many in-flight sessions are
        dropped — counted in ``loadgen.dropped_cap`` and reported, never
        silent.  ``None`` admits everything.
    max_attempts:
        Bounded resubmit ladder for retryable refusals (overload shed,
        shard-down denial, dead-lettered legs).
    """

    def __init__(
        self,
        simulator: Simulator,
        pool,
        *,
        users: int,
        signing_key,
        accounts: Optional[int] = None,
        day_seconds: float = 86_400.0,
        spikes: Sequence[FlashCrowd] = (),
        mix: Optional[SessionMix] = None,
        max_outstanding: Optional[int] = None,
        max_attempts: int = 3,
    ) -> None:
        if users < 1:
            raise ValueError(f"users must be >= 1: {users}")
        self.simulator = simulator
        self.pool = pool
        self.users = users
        self.signing_key = signing_key
        self.account_count = (
            accounts
            if accounts is not None
            else max(16, min(users // 16, 5_000))
        )
        self.curve = DiurnalCurve(day_seconds=day_seconds)
        self.spikes = tuple(spikes)
        self.mix = mix or SessionMix()
        self.zipf = ZipfSampler(self.account_count)
        self.max_outstanding = max_outstanding
        self.max_attempts = max_attempts
        self.account_names = [
            f"user-{index:06d}" for index in range(self.account_count)
        ]
        self.cookies: Dict[str, bytes] = {}
        self.session_hist = Histogram("loadgen.session_s")
        #: (virtual end time, completed) per finished session — lets
        #: experiments compute availability over a *window* (e.g. while
        #: a migration is in flight) instead of only day-wide totals.
        self.session_log: List[tuple] = []
        self.outstanding = 0
        self._arrivals: Optional[List[float]] = None
        self._report: Optional[LoadReport] = None
        # Uniform registry counters — experiments read these exactly
        # like the router/rpc health counters (R1/R2 pattern).
        metrics = simulator.metrics
        self._c_arrivals = metrics.counter("loadgen.arrivals")
        self._c_dropped = metrics.counter("loadgen.dropped_cap")
        self._c_completed = metrics.counter("loadgen.sessions_completed")
        self._c_failed = metrics.counter("loadgen.sessions_failed")
        self._c_confirms = metrics.counter("loadgen.confirms")
        self._c_retries = metrics.counter("loadgen.retries")
        self._c_relogins = metrics.counter("loadgen.relogins")

    # ------------------------------------------------------------------
    # Arrival plan
    # ------------------------------------------------------------------
    def arrival_times(self) -> List[float]:
        """The day's arrival instants (computed once, then cached)."""
        if self._arrivals is None:
            rng = self.simulator.rng.stream("loadgen.arrivals")
            self._arrivals = plan_arrivals(rng, self.users, self.curve, self.spikes)
        return self._arrivals

    # ------------------------------------------------------------------
    # Account setup
    # ------------------------------------------------------------------
    def setup_accounts(self) -> None:
        """Register + log in every identity; register the signing key.

        Runs through the pool's public RPC surface (register/login) so
        the router learns cookie routes the same way production traffic
        would; the per-account signing key is installed directly on the
        owning shard — the engine measures confirmation traffic, not
        the one-time TPM setup phase (T2b/F4 own that cost).
        """
        endpoint = self.pool.endpoint
        for name in self.account_names:
            endpoint.call_sync(
                LOAD_HOST, "register",
                {"account": name, "password": "pw"},
            )
            login = endpoint.call_sync(
                LOAD_HOST, "login", {"account": name, "password": "pw"}
            )
            self.cookies[name] = login["set_session"]
            self._shard_for(name).register_signing_key(
                name, self.signing_key.public
            )

    def _shard_for(self, account: str):
        finder = getattr(self.pool, "shard_for_account", None)
        return finder(account) if finder is not None else self.pool

    # ------------------------------------------------------------------
    # Day execution
    # ------------------------------------------------------------------
    def run_day(self) -> LoadReport:
        """Schedule the whole day open-loop, run it, return the report.

        Arrivals are chained — each arrival event schedules the next —
        so the kernel's heap stays small regardless of population; the
        *times* are precomputed, so completions can never back-pressure
        arrivals (that would close the loop).
        """
        if not self.cookies:
            self.setup_accounts()
        report = LoadReport(users=self.users)
        report.arrivals_by_kind = {kind: 0 for kind in SESSION_KINDS}
        self._report = report
        arrivals = self.arrival_times()
        started = self.simulator.now
        session_rng = self.simulator.rng.stream("loadgen.sessions")
        if arrivals:
            self.simulator.schedule_at(
                started + arrivals[0],
                lambda: self._fire(0, arrivals, started, session_rng),
                label="loadgen:arrival",
            )
        self.simulator.run(
            until=started + self.curve.day_seconds + DRAIN_S,
            max_events=200_000_000,
        )
        report.sessions_unfinished = (
            report.arrivals
            - report.dropped_cap
            - report.sessions_completed
            - report.sessions_failed
        )
        report.p95_session_s = (
            self.session_hist.quantile(0.95)
            if self.session_hist.count
            else float("nan")
        )
        report.virtual_seconds = self.simulator.now - started
        return report

    def _fire(
        self, index: int, arrivals: List[float], started: float, rng
    ) -> None:
        """Arrival ``index``: chain the next arrival, then admit this one."""
        if index + 1 < len(arrivals):
            self.simulator.schedule_at(
                started + arrivals[index + 1],
                lambda: self._fire(index + 1, arrivals, started, rng),
                label="loadgen:arrival",
            )
        self._admit(arrivals[index], rng)

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def _admit(self, day_t: float, rng) -> None:
        report = self._report
        report.arrivals += 1
        self._c_arrivals.increment()
        if any(spike.covers(day_t) for spike in self.spikes):
            report.spike_arrivals += 1
        rank = self.zipf.sample(rng)
        if rank == 0:
            report.hot_account_arrivals += 1
        kind = self.mix.draw_kind(rng)
        report.arrivals_by_kind[kind] += 1
        if (
            self.max_outstanding is not None
            and self.outstanding >= self.max_outstanding
        ):
            # The engine's only cap, and it is loud: counted here and
            # logged in the experiment report, never silent truncation.
            report.dropped_cap += 1
            self._c_dropped.increment()
            return
        self.outstanding += 1
        session = _Session(self, self.account_names[rank], kind, rng)
        session.start()

    def _session_done(self, completed: bool, confirms: int, elapsed: float) -> None:
        self.outstanding -= 1
        self.session_log.append((self.simulator.now, completed))
        report = self._report
        if completed:
            report.sessions_completed += 1
            self._c_completed.increment()
            report.confirms_completed += confirms
            if confirms:
                self._c_confirms.increment(confirms)
            self.session_hist.observe(elapsed)
        else:
            report.sessions_failed += 1
            self._c_failed.increment()

    def _count_retry(self) -> None:
        self._report.retries += 1
        self._c_retries.increment()

    def _count_relogin(self) -> None:
        self._report.relogins += 1
        self._c_relogins.increment()


class _Session:
    """One arrival's lifetime against the pool."""

    __slots__ = (
        "engine", "account", "kind", "rng", "started", "confirms",
        "remaining", "cookie", "relogins",
    )

    def __init__(self, engine: LoadEngine, account: str, kind: str, rng) -> None:
        self.engine = engine
        self.account = account
        self.kind = kind
        self.rng = rng
        self.started = engine.simulator.now
        self.confirms = 0
        self.remaining = 0
        self.relogins = 0
        self.cookie = engine.cookies[account]

    # -- plumbing ------------------------------------------------------
    def _send(self, method: str, request: Dict, on_reply, attempt: int = 0) -> None:
        engine = self.engine

        def handle(response: Dict) -> None:
            retryable = (
                DEADLINE_ERROR_KEY in response
                or SHARD_DOWN_KEY in response
                or RPC_OVERLOADED_KEY in response
            )
            if retryable:
                if attempt + 1 >= engine.max_attempts:
                    self._finish(False)
                    return
                engine._count_retry()
                engine.simulator.schedule(
                    RETRY_BACKOFF_S * (2 ** attempt)
                    * (0.5 + self.rng.random()),
                    lambda: self._send(method, request, on_reply, attempt + 1),
                    label="loadgen:retry",
                )
                return
            error = response.get("error")
            if (
                error
                and method != "login"
                and "not logged in" in error
                and self.relogins < 2
            ):
                # A concurrent session of this (hot, Zipf-popular)
                # account re-logged-in and invalidated our cookie — the
                # everyday churn cost of skewed popularity.  Recover the
                # way R2's honest clients do: fresh login, same step.
                self.relogins += 1
                engine._count_relogin()

                def after_login(login_response: Dict) -> None:
                    if login_response.get("error"):
                        self._finish(False)
                        return
                    self.cookie = login_response["set_session"]
                    engine.cookies[self.account] = self.cookie
                    request["session"] = self.cookie
                    self._send(method, request, on_reply, attempt)

                self._send(
                    "login",
                    {"account": self.account, "password": "pw"},
                    after_login,
                )
                return
            on_reply(response)

        engine.pool.endpoint.submit(LOAD_HOST, method, request, handle)

    def _finish(self, completed: bool) -> None:
        self.engine._session_done(
            completed, self.confirms, self.engine.simulator.now - self.started
        )

    def _sign(self, text: bytes, nonce: bytes) -> bytes:
        digest = confirmation_digest(text, nonce, b"accept")
        return pkcs1_sign(self.engine.signing_key, digest, prehashed=True)

    # -- session shapes ------------------------------------------------
    def start(self) -> None:
        if self.kind == ONE_SHOT:
            self.remaining = 1
            self._request_next()
        elif self.kind == BATCH:
            lo, hi = self.engine.mix.batch_size
            self._request_batch(self.rng.randint(lo, hi))
        else:
            lo, hi = self.engine.mix.long_confirms
            self.remaining = self.rng.randint(lo, hi)
            self._relogin()

    def _relogin(self) -> None:
        """Long-lived sessions start by logging in again — the previous
        cookie is invalidated end to end (shard session table, router
        cookie map), the churn path a real always-logged-in population
        exercises constantly."""

        def after_login(response: Dict) -> None:
            if response.get("error"):
                self._finish(False)
                return
            self.cookie = response["set_session"]
            self.engine.cookies[self.account] = self.cookie
            self._request_next()

        self._send(
            "login", {"account": self.account, "password": "pw"}, after_login
        )

    def _request_next(self) -> None:
        amount = 100 + self.rng.randint(0, 899_999)
        self._send(
            "tx.request",
            {
                "kind": "transfer", "account": self.account,
                "session": self.cookie,
                "f.to": "sink", "f.amount": amount,
            },
            self._on_challenge,
        )

    def _on_challenge(self, response: Dict) -> None:
        if response.get("error"):
            self._finish(False)
            return
        self._send(
            "tx.confirm",
            {
                "tx_id": response["tx_id"], "decision": b"accept",
                "evidence": EVIDENCE_SIGNED,
                "signature": self._sign(response["text"], response["nonce"]),
                "session": self.cookie,
            },
            self._on_confirmed,
        )

    def _on_confirmed(self, response: Dict) -> None:
        if response.get("error"):
            self._finish(False)
            return
        self.confirms += 1
        self.remaining -= 1
        if self.remaining <= 0:
            self._finish(True)
            return
        think = self.rng.expovariate(1.0 / self.engine.mix.think_mean_s)
        self.engine.simulator.schedule(
            think, self._request_next, label="loadgen:think"
        )

    def _request_batch(self, size: int) -> None:
        encoded = [
            encode_message(build_transaction_request(Transaction(
                kind="transfer",
                account=self.account,
                fields={
                    "to": "sink",
                    "amount": 100 + self.rng.randint(0, 899_999),
                },
            )))
            for _ in range(size)
        ]
        self._send(
            "tx.request_batch",
            {"transactions": encoded, "session": self.cookie},
            lambda response: self._on_batch_challenge(response, size),
        )

    def _on_batch_challenge(self, response: Dict, size: int) -> None:
        if response.get("error"):
            self._finish(False)
            return
        self._send(
            "tx.confirm_batch",
            {
                "tx_id": response["tx_id"], "decision": b"accept",
                "evidence": EVIDENCE_SIGNED,
                "signature": self._sign(response["text"], response["nonce"]),
                "session": self.cookie,
            },
            lambda resp: self._on_batch_confirmed(resp, size),
        )

    def _on_batch_confirmed(self, response: Dict, size: int) -> None:
        if response.get("error"):
            self._finish(False)
            return
        self.confirms += size
        self._finish(True)


# ----------------------------------------------------------------------
# Convenience: theoretical spike rate multiple (used by tests/report)
# ----------------------------------------------------------------------
def expected_arrivals(
    users: int,
    curve: DiurnalCurve,
    spikes: Sequence[FlashCrowd],
    a: float,
    b: float,
) -> float:
    """Expected arrival count in [a, b] under the normalized plan."""
    base_rate = _base_rate(users, curve, spikes)
    total = curve.shape_integral(a, b)
    for spike in spikes:
        lo, hi = max(a, spike.start), min(b, spike.end)
        if hi > lo:
            total += (spike.multiplier - 1.0) * curve.shape_integral(lo, hi)
    return base_rate * total
