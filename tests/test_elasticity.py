"""Experiment E4: elastic-pool determinism and shape.

An elastic run — autoscaler ticks, account-range migrations, dual-read
redirects and all — must stay inside the repo's determinism contract:
virtual-time results are a pure function of seed + schedule, identical
across worker fan-out and crypto backends once the real-clock fields
(``wall_s``/``rebalance_wall_s``) are stripped.  The digest-parity
security argument (drained pool == never-scaled pool, bit for bit) is
unit-tested in ``tests/test_rebalance.py``; here the same check runs
through the experiment's own round-trip harness.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.experiments.elasticity import e4_elastic_rows
from repro.bench.runner import Cell, run_cells, strip_wall
from repro.crypto.backend import use_backend

#: Backend arms beyond the accel reference (matches test_bench_runner).
RSA_ARMS = ["pure"]

#: Compressed elastic day: the ×100 spike peaks just above one shard's
#: service capacity, so the autoscaler genuinely fires — the run the
#: determinism claim is made about includes a migration, not a quiet
#: day that never rebalanced.
E4_KWARGS = dict(
    users=3_500, day_seconds=300.0, spike_start=150.0,
    spike_duration_s=10.0, spike_multiplier=100.0,
    roundtrip_accounts=4, seed=99,
)


def _canonical(value) -> str:
    return json.dumps(strip_wall(value), sort_keys=False)


class TestE4Determinism:
    def test_identical_across_worker_counts(self):
        cell = Cell("e4", ("e4",), e4_elastic_rows, E4_KWARGS)
        serial, _, _ = run_cells([cell], workers=1)
        pooled, _, _ = run_cells([cell], workers=4)
        assert _canonical(serial) == _canonical(pooled)

    @pytest.mark.slow
    @pytest.mark.parametrize("arm", RSA_ARMS)
    def test_identical_across_backends(self, arm):
        with use_backend("accel"):
            accel = e4_elastic_rows(**E4_KWARGS)
        with use_backend(arm):
            other = e4_elastic_rows(**E4_KWARGS)
        assert _canonical(accel) == _canonical(other)


class TestE4Shape:
    def test_elastic_day_scales_and_recovers(self):
        result = e4_elastic_rows(**E4_KWARGS)
        row = result["rows"][0]
        # The spike overran the starting shard and the pool responded:
        # grew into it, shrank back out in the trough.
        assert row["shed"] > 0
        assert row["scale_ups"] >= 1
        assert row["drains"] >= 1
        assert row["shards_peak"] > row["shards_start"]
        assert row["shards_end"] == row["shards_start"]
        assert row["accounts_moved"] > 0
        assert row["rebalance_bytes"] > 0
        # The acceptance bar: rebalancing never costs availability.
        assert row["availability"] >= 0.99
        assert row["availability_migration"] >= 0.99
        assert row["migration_sessions"] > 0
        # Accounting balances; nothing vanishes silently.
        assert (
            row["completed"] + row["failed"] + row["dropped_cap"]
            <= row["arrivals"]
        )
        # Round trip: the drained pool is bit-identical to a pool that
        # never scaled.
        assert result["roundtrip"]["digest_match"]
        assert result["roundtrip"]["accounts_moved"] > 0
