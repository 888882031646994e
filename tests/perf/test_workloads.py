"""Every benchmark workload runs at the tiny size, passes its output
checks with no failed operation, and produces the same outputs digest
traced and untraced."""

from __future__ import annotations

import pytest

from workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
class TestWorkload:
    def test_runs_and_passes_its_checks(self, tiny_rounds, name):
        result = tiny_rounds[name]["plain"]
        assert result["checks"] and all(result["checks"].values()), (
            result["checks"]
        )
        assert result["attempted"] > 0
        assert result["failed"] == 0
        assert result["confirms"] > 0
        assert result["sim_session_samples"] > 0
        assert result["setup_s"] > 0 and result["run_s"] > 0

    def test_traced_digest_equals_untraced(self, tiny_rounds, name):
        plain, traced = tiny_rounds[name]["plain"], tiny_rounds[name]["traced"]
        assert plain["trace"] is None and traced["trace"] is not None
        assert traced["digest"] == plain["digest"]
        assert all(traced["checks"].values())

    def test_trace_accounts_for_the_timed_phase(self, tiny_rounds, name):
        traced = tiny_rounds[name]["traced"]
        trace = traced["trace"]
        assert trace["calls"]
        self_total = sum(trace["self_s"].values())
        assert self_total == pytest.approx(trace["top_level_s"], rel=1e-6)
        assert trace["top_level_s"] <= traced["run_s"]


def test_same_seed_same_digest_other_seed_differs():
    from worker import run_round

    first = run_round("journaled_crash", 11, "tiny")
    again = run_round("journaled_crash", 11, "tiny")
    other = run_round("journaled_crash", 12, "tiny")
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]


def test_sliced_run_dispatches_like_one_run():
    from workloads import SlicedSimulator

    def trace_of(slice_s):
        sim = SlicedSimulator(seed=3)
        edges = []
        if slice_s is not None:
            sim.slice_s = slice_s
            sim.on_slice = lambda: edges.append(sim.now)
        rng = sim.rng.stream("events")
        order = []

        def event(tag):
            order.append((sim.now, tag))
            if rng.random() < 0.5:
                delay = rng.choice([0.0, 0.25, 1.0, 3.7])
                sim.schedule(delay, lambda: event(tag + 1))

        for tag in range(0, 400, 10):
            at = rng.choice([0.0, 1.0, 2.5, 7.0, 9.99])
            sim.schedule_at(at, lambda t=tag: event(t))
        sim.run(until=10.0)
        return order, sim.now, len(edges)

    plain, now, _ = trace_of(None)
    sliced, sliced_now, edges = trace_of(1.0)
    assert sliced == plain and sliced_now == now
    assert edges == 10
