"""The open-loop load engine: arrival plan, skew, spikes, accounting.

The tentpole claims under test:

* the arrival plan is a pure function of (seed, curve, spikes) — byte-
  identical across crypto backends and runner worker counts;
* the Zipf sampler's documented frequencies are its true law;
* a flash-crowd window produces the configured rate multiple;
* saturation behaviour is explicit: the admission cap drops countedly
  through the shared metric registry, and the per-day accounting always
  balances (every arrival ends in exactly one bucket).
"""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.bench.experiments.openloop import f6_open_loop_rows
from repro.bench.loadgen import (
    LOAD_HOST,
    DiurnalCurve,
    FlashCrowd,
    LoadEngine,
    SessionMix,
    ZipfSampler,
    expected_arrivals,
    plan_arrivals,
)
from repro.bench.runner import Cell, run_cells, strip_wall
from repro.crypto.backend import use_backend
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_rsa_keypair
from repro.net.network import LinkSpec, Network
from repro.server.policy import VerifierPolicy
from repro.server.router import build_sharded_pool
from repro.sim import Simulator

F6_SMALL = dict(populations=(400,), seed=29)


def _canonical(value) -> str:
    return json.dumps(strip_wall(value), sort_keys=False)


def _engine(users=150, seed=23, **kwargs) -> LoadEngine:
    sim = Simulator(seed=seed)
    network = Network(sim)
    network.attach(LOAD_HOST, LinkSpec.lan())
    drbg = HmacDrbg(b"loadgen-test", personalization=str(seed).encode())
    signing_key = generate_rsa_keypair(512, drbg.fork(b"signing"))
    pool = build_sharded_pool(
        sim, network, "pool.example", VerifierPolicy(), shard_count=2,
    )
    return LoadEngine(sim, pool, users=users, signing_key=signing_key,
                      **kwargs)


class TestDiurnalCurve:
    def test_shape_range_and_symmetry(self):
        curve = DiurnalCurve(day_seconds=86_400.0, trough=0.25)
        assert curve.shape(0.0) == pytest.approx(0.25)
        assert curve.shape(43_200.0) == pytest.approx(1.0)
        assert curve.shape(21_600.0) == pytest.approx(curve.shape(64_800.0))

    def test_analytic_integral_matches_numeric(self):
        curve = DiurnalCurve(day_seconds=1_000.0, trough=0.4)
        a, b = 130.0, 870.0
        step = (b - a) / 20_000
        numeric = sum(
            curve.shape(a + (i + 0.5) * step) for i in range(20_000)
        ) * step
        assert curve.shape_integral(a, b) == pytest.approx(numeric, rel=1e-6)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            DiurnalCurve(day_seconds=0)
        with pytest.raises(ValueError):
            DiurnalCurve(trough=0.0)
        with pytest.raises(ValueError):
            FlashCrowd(start=0, duration=-1, multiplier=2)
        with pytest.raises(ValueError):
            FlashCrowd(start=0, duration=10, multiplier=0.5)


def _reference_plan(rng, users, curve, spikes=()):
    """The plain thinning loop, λ(t) evaluated for every candidate: the
    oracle :func:`plan_arrivals` must match draw for draw."""
    day = curve.day_seconds
    mass = curve.shape_integral(0.0, day)
    for spike in spikes:
        mass += (spike.multiplier - 1.0) * curve.shape_integral(
            spike.start, min(spike.end, day)
        )
    base_rate = users / mass
    max_multiplier = max((s.multiplier for s in spikes), default=1.0)
    rate_max = base_rate * 1.0 * max_multiplier
    arrivals = []
    t = 0.0
    while True:
        t += rng.expovariate(rate_max)
        if t >= day:
            break
        rate = base_rate * curve.shape(t)
        for spike in spikes:
            if spike.covers(t):
                rate *= spike.multiplier
        if rng.random() * rate_max < rate:
            arrivals.append(t)
    return arrivals


#: (users, day_seconds, trough, spikes): the perf workloads' shapes at
#: small populations, plus the edges of the spike-free shortcut.
PLAN_CONFIGS = {
    "openloop_day": (100, 86_400.0, 0.25, [(43_200.0, 30.0, 400.0)]),
    "elastic_spike": (400, 300.0, 0.25, [(150.0, 10.0, 60.0)]),
    "journaled_crash": (150, 225.0, 0.25, []),
    "spike_at_zero": (300, 600.0, 0.25, [(0.0, 20.0, 50.0)]),
    "spike_past_day_end": (300, 600.0, 0.25, [(590.0, 30.0, 50.0)]),
    "two_disjoint_spikes": (
        300, 600.0, 0.25, [(400.0, 10.0, 80.0), (100.0, 20.0, 30.0)],
    ),
    "trough_1": (300, 600.0, 1.0, [(300.0, 20.0, 40.0)]),
    "trough_1_no_spike": (300, 600.0, 1.0, []),
    "trough_0.25": (300, 600.0, 0.25, [(300.0, 20.0, 40.0)]),
    "trough_0.1+1e-12": (300, 600.0, 0.1 + 1e-12, [(300.0, 20.0, 40.0)]),
}


def _plan_args(config):
    users, day, trough, spikes = PLAN_CONFIGS[config]
    curve = DiurnalCurve(day_seconds=day, trough=trough)
    return users, curve, [FlashCrowd(*spike) for spike in spikes]


class _CallLog:
    """The two RNG methods a planner may call, each call logged; any
    other attribute is missing, so calling it fails the test."""

    def __init__(self, rng) -> None:
        self._rng = rng
        self.calls = []

    def expovariate(self, rate):
        self.calls.append("expovariate")
        return self._rng.expovariate(rate)

    def random(self):
        self.calls.append("random")
        return self._rng.random()


class TestArrivalPlan:
    def test_expected_count_is_population(self):
        curve = DiurnalCurve()
        spikes = [FlashCrowd(start=40_000, duration=2_000, multiplier=5.0)]
        users = 40_000
        plan = plan_arrivals(random.Random(7), users, curve, spikes)
        # Poisson concentration: the realized day is within a few σ.
        assert abs(len(plan) - users) < 5 * math.sqrt(users)
        assert plan == sorted(plan)
        assert all(0 <= t < curve.day_seconds for t in plan)

    def test_plan_is_pure_function_of_seed(self):
        """Same seed ⇒ byte-identical arrival instants, regardless of
        crypto backend and of anything else the simulator ran."""
        curve_kwargs = dict(day_seconds=86_400.0, trough=0.25)
        spikes = [FlashCrowd(start=43_200, duration=30, multiplier=400)]

        def plan_under(backend, burn_other_streams):
            with use_backend(backend):
                sim = Simulator(seed=77)
                if burn_other_streams:
                    # Consuming unrelated named streams must not
                    # perturb the dedicated arrivals stream.
                    sim.rng.stream("noise").random()
                    sim.rng.stream("loadgen.sessions").random()
                rng = sim.rng.stream("loadgen.arrivals")
                return plan_arrivals(
                    rng, 2_000, DiurnalCurve(**curve_kwargs), spikes
                )

        reference = plan_under("accel", burn_other_streams=False)
        assert json.dumps(plan_under("pure", False)) == json.dumps(reference)
        assert json.dumps(plan_under("accel", True)) == json.dumps(reference)

    def test_flash_crowd_produces_configured_rate_multiple(self):
        curve = DiurnalCurve()
        spike = FlashCrowd(start=43_000, duration=600, multiplier=10.0)
        users = 60_000
        plan = plan_arrivals(random.Random(3), users, curve, [spike])

        def count(a, b):
            return sum(1 for t in plan if a <= t < b)

        in_spike = count(spike.start, spike.end)
        # Realized spike arrivals track the analytic expectation ...
        expected_spike = expected_arrivals(
            users, curve, [spike], spike.start, spike.end
        )
        assert in_spike == pytest.approx(expected_spike, rel=0.10)
        # ... and the window's rate is the configured multiple of the
        # adjacent baseline (same curve height just before noon).
        before = count(spike.start - 600, spike.start)
        assert in_spike / before == pytest.approx(
            spike.multiplier, rel=0.20
        )

    @pytest.mark.parametrize("config", sorted(PLAN_CONFIGS))
    def test_plan_matches_reference_loop(self, config):
        users, curve, spikes = _plan_args(config)
        for seed in (7, 167, 1):
            plan = plan_arrivals(random.Random(seed), users, curve, spikes)
            assert plan == _reference_plan(
                random.Random(seed), users, curve, spikes
            )

    @pytest.mark.parametrize(
        "config", ["openloop_day", "elastic_spike", "journaled_crash"]
    )
    def test_one_expovariate_then_one_random_per_candidate(self, config):
        users, curve, spikes = _plan_args(config)
        planner = _CallLog(random.Random(5))
        reference = _CallLog(random.Random(5))
        plan_arrivals(planner, users, curve, spikes)
        _reference_plan(reference, users, curve, spikes)
        candidates = planner.calls.count("expovariate")
        # The last candidate falls past the day and draws no uniform.
        assert planner.calls == (
            ["expovariate", "random"] * (candidates - 1) + ["expovariate"]
        )
        assert planner.calls == reference.calls

    def test_uniform_draws_at_the_base_rate_edge(self):
        """On a flat curve λ(t) is exactly the base rate outside the
        spike: a draw just under it is accepted and one just over it is
        rejected, so the spike-free shortcut sits at the true maximum."""

        class Scripted:
            def __init__(self, uniform):
                self.uniform = uniform

            def expovariate(self, rate):
                return 1.0

            def random(self):
                return self.uniform

        curve = DiurnalCurve(day_seconds=100.0, trough=1.0)
        spikes = [FlashCrowd(start=50.0, duration=10.0, multiplier=4.0)]
        below = plan_arrivals(Scripted((1 - 1e-12) / 4), 50, curve, spikes)
        above = plan_arrivals(Scripted((1 + 1e-12) / 4), 50, curve, spikes)
        assert below == [float(t) for t in range(1, 100)]
        assert above == [float(t) for t in range(50, 60)]

    def test_overlapping_spikes_rejected(self):
        curve = DiurnalCurve()
        twin = FlashCrowd(start=43_000, duration=600, multiplier=10.0)
        straddle = FlashCrowd(start=43_500, duration=600, multiplier=3.0)
        for spikes in ([twin, twin], [straddle, twin]):
            with pytest.raises(ValueError, match="overlap"):
                plan_arrivals(random.Random(3), 60_000, curve, spikes)
            with pytest.raises(ValueError, match="overlap"):
                expected_arrivals(60_000, curve, spikes, 0.0, 86_400.0)
        # Half-open windows: one ending where the next starts is fine.
        after = FlashCrowd(start=twin.end, duration=60, multiplier=2.0)
        assert plan_arrivals(random.Random(3), 100, curve, [after, twin])

    def test_spike_outside_day_rejected(self):
        curve = DiurnalCurve(day_seconds=1_000)
        with pytest.raises(ValueError):
            plan_arrivals(
                random.Random(1), 100, curve,
                [FlashCrowd(start=2_000, duration=10, multiplier=2)],
            )


class TestZipfSampler:
    def test_documented_frequencies_are_exact_law(self):
        sampler = ZipfSampler(50, exponent=1.1)
        total = sum(sampler.frequency(rank) for rank in range(50))
        assert total == pytest.approx(1.0)
        # Zipf ratio: P(r) / P(2r) = 2^s.
        assert sampler.frequency(0) / sampler.frequency(1) == pytest.approx(
            2 ** 1.1
        )

    def test_empirical_hits_documented_frequencies(self):
        sampler = ZipfSampler(50, exponent=1.1)
        rng = random.Random(11)
        draws = 40_000
        counts = [0] * 50
        for _ in range(draws):
            counts[sampler.sample(rng)] += 1
        for rank in (0, 1, 4):
            assert counts[rank] / draws == pytest.approx(
                sampler.frequency(rank), rel=0.08
            )
        # Skew reaches the tail too: every account can be drawn.
        assert max(counts) == counts[0]

    def test_single_account_population(self):
        sampler = ZipfSampler(1)
        assert sampler.sample(random.Random(5)) == 0
        assert sampler.frequency(0) == pytest.approx(1.0)


class TestSessionMix:
    def test_weights_validated(self):
        with pytest.raises(ValueError):
            SessionMix(one_shot=-1)
        with pytest.raises(ValueError):
            SessionMix(one_shot=0, batch=0, long_lived=0)
        with pytest.raises(ValueError):
            SessionMix(batch_size=(3, 2))

    def test_draw_respects_weights(self):
        mix = SessionMix(one_shot=1.0, batch=0.0, long_lived=0.0)
        rng = random.Random(9)
        assert all(mix.draw_kind(rng) == "one_shot" for _ in range(50))


class TestEngineAccounting:
    def test_day_accounting_balances_and_flows_through_registry(self):
        engine = _engine(users=150, seed=23)
        report = engine.run_day()
        # Every arrival ends in exactly one bucket.
        assert report.arrivals == (
            report.dropped_cap + report.sessions_completed
            + report.sessions_failed + report.sessions_unfinished
        )
        assert report.sessions_completed > 0
        assert report.sessions_unfinished == 0
        # No experiment-private counting: the registry is authoritative.
        counters = engine.simulator.metrics.counters()
        assert counters["loadgen.arrivals"] == report.arrivals
        assert counters["loadgen.dropped_cap"] == report.dropped_cap
        assert counters["loadgen.sessions_completed"] == (
            report.sessions_completed
        )
        assert counters["loadgen.sessions_failed"] == report.sessions_failed
        assert counters["loadgen.retries"] == report.retries
        assert counters["loadgen.relogins"] == report.relogins
        assert counters["loadgen.confirms"] == report.confirms_completed

    def test_admission_cap_drops_are_counted_never_silent(self):
        engine = _engine(
            users=120, seed=31, max_outstanding=1,
            spikes=[FlashCrowd(start=43_200, duration=600, multiplier=60)],
            mix=SessionMix(one_shot=0, batch=0, long_lived=1.0),
        )
        report = engine.run_day()
        assert report.dropped_cap > 0
        counters = engine.simulator.metrics.counters()
        assert counters["loadgen.dropped_cap"] == report.dropped_cap
        assert report.arrivals == (
            report.dropped_cap + report.sessions_completed
            + report.sessions_failed + report.sessions_unfinished
        )

    def test_mixed_sessions_all_shapes_arrive(self):
        engine = _engine(users=200, seed=37)
        report = engine.run_day()
        assert set(report.arrivals_by_kind) == {
            "one_shot", "batch", "long_lived"
        }
        assert all(n > 0 for n in report.arrivals_by_kind.values())
        assert sum(report.arrivals_by_kind.values()) == report.arrivals
        # Batches amortize: more confirmations than completed sessions.
        assert report.confirms_completed > report.sessions_completed


class TestF6Determinism:
    """Satellite: the F6 cell's virtual results are byte-identical
    across runner worker counts and across crypto backends."""

    def test_f6_cell_identical_across_worker_counts(self):
        cell = Cell("f6", ("f6",), f6_open_loop_rows, F6_SMALL)
        serial, _, _ = run_cells([cell], workers=1)
        pooled, _, _ = run_cells([cell], workers=4)
        assert _canonical(serial) == _canonical(pooled)

    @pytest.mark.slow
    def test_f6_cell_identical_across_backends(self):
        with use_backend("accel"):
            accel = f6_open_loop_rows(**F6_SMALL)
        with use_backend("pure"):
            pure = f6_open_loop_rows(**F6_SMALL)
        assert _canonical(accel) == _canonical(pure)
