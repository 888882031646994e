"""Span tracing: scoped collection, no-op mode and the session span tree."""

from __future__ import annotations

import pytest

from repro.sim.clock import VirtualClock
from repro.sim.kernel import Simulator
from repro.sim.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    TracingError,
    traced,
)


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock)


class TestScopedSpans:
    def test_nesting_builds_a_tree(self, clock, tracer):
        with tracer.span("outer") as outer:
            clock.advance(1.0)
            with tracer.span("inner") as inner:
                clock.advance(0.25)
        assert tracer.roots == [outer]
        assert outer.children == [inner]
        assert inner.parent is outer
        assert outer.duration == pytest.approx(1.25)
        assert inner.duration == pytest.approx(0.25)
        assert outer.self_seconds == pytest.approx(1.0)

    def test_current_tracks_the_stack(self, tracer):
        assert tracer.current is None
        with tracer.span("a") as a:
            assert tracer.current is a
            with tracer.span("b") as b:
                assert tracer.current is b
            assert tracer.current is a
        assert tracer.current is None

    def test_attributes_and_set(self, tracer):
        with tracer.span("op", kind="test") as span:
            span.set("result", 7)
        assert span.attributes == {"kind": "test", "result": 7}

    def test_exception_is_recorded_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("fails") as span:
                raise ValueError("boom")
        assert span.finished
        assert "ValueError: boom" in span.attributes["error"]
        assert tracer.current is None

    def test_reentering_finished_span_raises(self, tracer):
        with tracer.span("once") as span:
            pass
        with pytest.raises(TracingError):
            span.__enter__()


class TestNullTracer:
    def test_all_paths_are_noops(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("anything", attr=1) as span:
            assert span is NULL_SPAN
            span.set("k", "v")
        assert NULL_TRACER.current is None
        assert list(NULL_TRACER.roots) == []
        NULL_TRACER.clear()

    def test_traced_runs_are_bit_identical(self):
        """Tracing must not perturb the simulation: same seed, same result."""

        def run(tracing):
            sim = Simulator(seed=99, tracing=tracing)
            samples = []
            for i in range(5):
                sim.schedule(
                    sim.rng.stream("jitter").uniform(0.0, 1.0),
                    lambda: samples.append(sim.now),
                    label=f"tick-{i}",
                )
            sim.run()
            return samples

        assert run(False) == run(True)


class TestExporters:
    def _record(self, clock, tracer):
        with tracer.span("session", vendor="infineon"):
            clock.advance(0.1)
            with tracer.span("tpm.quote"):
                clock.advance(0.8)

    def test_clear_resets_forest(self, clock, tracer):
        self._record(clock, tracer)
        tracer.clear()
        assert tracer.roots == []

    def test_clear_with_open_scope_raises(self, tracer):
        with tracer.span("open"):
            with pytest.raises(TracingError):
                tracer.clear()


class TestTracedDecorator:
    def test_uses_instance_tracer_when_present(self, clock, tracer):
        class Worker:
            def __init__(self, tracer=None):
                self.tracer = tracer

            @traced("work.step")
            def step(self):
                clock.advance(0.2)
                return "done"

        assert Worker(tracer).step() == "done"
        assert [s.name for s in tracer.roots] == ["work.step"]
        # Without a tracer attribute value, the same method is a no-op trace.
        assert Worker().step() == "done"
        assert len(tracer.roots) == 1


class TestSessionTraceIntegration:
    def test_confirmation_session_span_tree(self):
        """A traced confirmation yields DRTM, TPM and network child spans
        whose derived breakdown matches the session's own accounting."""
        from repro.bench.world import TrustedPathWorld, WorldConfig
        from repro.drtm.session import breakdown_from_span

        world = TrustedPathWorld(WorldConfig(seed=11, tracing=True)).ready()
        world.tracer.clear()
        outcome = world.confirm(world.sample_transfer())
        assert outcome.executed

        spans = [span for root in world.tracer.roots for span in root.walk()]
        sessions = [span for span in spans if span.name == "drtm.session"]
        assert len(sessions) == 1
        session = sessions[0]
        names = {span.name for span in session.walk()}
        assert {"drtm.suspend", "drtm.skinit", "drtm.pal", "drtm.cap",
                "drtm.resume", "pal.human_wait"} <= names
        assert any(name.startswith("tpm.") for name in names)

        derived = breakdown_from_span(session)
        for phase, seconds in outcome.session.breakdown.items():
            assert derived[phase] == pytest.approx(seconds, abs=1e-9)

        # The wider trace carries the network legs of the confirmation.
        all_names = {span.name for span in spans}
        assert "rpc.call" in all_names
        assert "verify.signed_confirmation" in all_names
