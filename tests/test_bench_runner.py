"""The parallel experiment runner and the determinism contract.

Virtual-time results must be a pure function of seed + schedule —
independent of the crypto backend (``pure`` vs ``accel``) and of how
many worker processes the matrix is fanned across.  These are the
regression tests for that contract; the per-primitive differential
checks live in ``test_crypto_backend.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.experiments import f3s_sharded_scaling, r2_crash_availability
from repro.bench.fleet import e2_fleet_rows
from repro.bench.runner import (
    Cell,
    build_cells,
    run_cells,
    strip_wall,
    wall_record,
    write_wall_artifact,
)
from repro.crypto.backend import use_backend

#: Cheap smoke cells used where matrix mechanics, not coverage, are
#: under test.
FAST_IDS = ("t2b", "f1", "f5", "e3")

#: Backend arms the determinism contract is checked against, beyond the
#: accel reference.
RSA_ARMS = ["pure"]


def _fast_cells():
    return [c for c in build_cells(smoke=True) if c.cell_id in FAST_IDS]


def _canonical(results) -> str:
    return json.dumps(strip_wall(results), sort_keys=False)


class TestMatrixDefinition:
    def test_cell_ids_stable_and_unique(self):
        for smoke in (False, True):
            cells = build_cells(smoke)
            ids = [c.cell_id for c in cells]
            assert len(ids) == len(set(ids))
            # The canonical order the report merges (and renders) in.
            assert ids == [
                "t1", "t2", "t2b", "t3", "t4", "f1", "f2", "f3", "f3s",
                "f4", "f6", "e4", "f5", "r1", "r2", "r3", "a1", "a2", "e1", "e3",
                "e2", "rsax",
            ]

    def test_result_keys_cover_report_needs(self):
        keys = [k for c in build_cells(True) for k in c.keys]
        assert "f4" in keys and "crossovers" in keys
        assert len(keys) == len(set(keys))


class TestOrderedMerge:
    def test_pool_merge_matches_serial_order(self):
        serial, _, _ = run_cells(_fast_cells(), workers=1)
        pooled, _, _ = run_cells(_fast_cells(), workers=4)
        assert list(serial) == list(pooled)
        assert _canonical(serial) == _canonical(pooled)

    def test_per_cell_wall_recorded_for_every_cell(self):
        _, wall, _ = run_cells(_fast_cells(), workers=1)
        assert set(wall) == set(FAST_IDS)
        assert all(w >= 0 for w in wall.values())


class TestDeterminismContract:
    """Satellite: FleetWorld day + one F3-S cell, identical virtual-time
    JSON under pure vs accel and under workers=1 vs workers=4."""

    FLEET_KWARGS = dict(clients=2, infected=1, seed=555)
    F3S_KWARGS = dict(
        shard_counts=(1, 2), offered=120, duration=0.5, accounts=6, seed=99
    )
    R2_KWARGS = dict(
        crash_rates=(0.0, 0.7), recovery_s=0.35, offered=100.0,
        duration=0.8, accounts=6, seed=99,
    )

    @pytest.mark.parametrize("arm", RSA_ARMS)
    def test_fleet_day_identical_across_backends(self, arm):
        with use_backend("accel"):
            accel = e2_fleet_rows(**self.FLEET_KWARGS)
        with use_backend(arm):
            other = e2_fleet_rows(**self.FLEET_KWARGS)
        assert json.dumps(accel) == json.dumps(other)

    @pytest.mark.slow
    @pytest.mark.parametrize("arm", RSA_ARMS)
    def test_f3s_cell_identical_across_backends(self, arm):
        with use_backend("accel"):
            accel = f3s_sharded_scaling(**self.F3S_KWARGS)
        with use_backend(arm):
            other = f3s_sharded_scaling(**self.F3S_KWARGS)
        assert _canonical(accel) == _canonical(other)

    def test_f3s_cell_identical_across_worker_counts(self):
        cell = Cell("f3s", ("f3s",), f3s_sharded_scaling, self.F3S_KWARGS)
        serial, _, _ = run_cells([cell], workers=1)
        pooled, _, _ = run_cells([cell], workers=4)
        assert _canonical(serial) == _canonical(pooled)

    def test_r2_cell_identical_across_worker_counts(self):
        """Crash-stop faults included: the whole fault plan is drawn
        from named RNG streams, so the availability cell is a pure
        function of its seed regardless of the pool fan-out."""
        cell = Cell("r2", ("r2",), r2_crash_availability, self.R2_KWARGS)
        serial, _, _ = run_cells([cell], workers=1)
        pooled, _, _ = run_cells([cell], workers=4)
        assert _canonical(serial) == _canonical(pooled)

    def test_runner_backend_arg_round_trips(self):
        from repro.crypto.backend import backend_name

        before = backend_name()
        run_cells(_fast_cells()[:1], workers=1, backend="pure")
        assert backend_name() == before

    def test_bad_backend_rejected_before_any_cell_runs(self):
        ran = []

        def sentinel():
            ran.append(True)
            return []

        cell = Cell("x", ("x",), sentinel)
        with pytest.raises(ValueError, match="openssl3"):
            run_cells([cell], workers=1, backend="openssl3")
        assert not ran

    def test_bad_env_backend_rejected_eagerly(self, monkeypatch):
        from repro.crypto import backend as module

        monkeypatch.setenv(module.ENV_VAR, "bogus")
        with pytest.raises(ValueError, match="bogus"):
            run_cells(_fast_cells()[:1], workers=1)


class TestRsaOpCounters:
    def test_rsa_ops_recorded_per_cell(self):
        from repro.bench.experiments.rsa_microbench import (
            rsa_backend_microbench,
        )

        cell = Cell("rsax", ("rsax",), rsa_backend_microbench,
                    dict(bits_list=(512,), iterations=1, seed=7))
        _, _, rsa_ops = run_cells([cell], workers=1)
        assert set(rsa_ops) == {"rsax"}
        assert set(rsa_ops["rsax"]) == {"modexp", "sign_crt", "verify"}
        assert all(count >= 0 for count in rsa_ops["rsax"].values())

    def test_op_counts_identical_across_arms(self):
        """RSA op counts are deterministic work, not wall-clock: the
        same cell issues the same number of ops on every arm."""
        cell = Cell("e2", ("e2",), e2_fleet_rows,
                    dict(clients=2, infected=1, seed=556))
        counts = {}
        for arm in ["accel"] + RSA_ARMS:
            from repro.crypto.rsa import clear_keygen_cache

            clear_keygen_cache()  # cache hits skip keygen modexp work
            _, _, rsa_ops = run_cells([cell], workers=1, backend=arm)
            counts[arm] = rsa_ops["e2"]
        assert len({tuple(sorted(c.items())) for c in counts.values()}) == 1


class TestStripWall:
    def test_removes_real_clock_fields_recursively(self):
        nested = {
            "f3s": [{"shards": 1, "wall_s": 1.23}],
            "f5": ({"population": 10, "issue_us_per_op": 9.9,
                    "consume_us_per_op": 1.1, "evict_ms_total": 0.2},),
            "deep": {"inner": [{"wall_s": 5, "kept": True}]},
        }
        stripped = strip_wall(nested)
        assert stripped == {
            "f3s": [{"shards": 1}],
            "f5": [{"population": 10}],
            "deep": {"inner": [{"kept": True}]},
        }

    def test_leaves_virtual_values_untouched(self):
        assert strip_wall([1, "x", 2.5]) == [1, "x", 2.5]


class TestWallArtifact:
    def _matrix(self, **overrides):
        from repro.bench.runner import MatrixResult

        defaults = dict(
            results={"t1": []}, cell_wall_s={"t1": 0.5}, total_wall_s=0.5,
            workers=4, backend="accel", smoke=True,
        )
        defaults.update(overrides)
        return MatrixResult(**defaults)

    def test_record_shape(self):
        record = wall_record(self._matrix())
        assert record == {
            "backend": "accel", "workers": 4,
            "cells": {"t1": 0.5}, "total_wall_s": 0.5,
        }

    def test_artifact_with_baseline_records_speedup(self, tmp_path):
        path = tmp_path / "BENCH_wall.json"
        run = self._matrix(total_wall_s=2.0)
        baseline = self._matrix(
            total_wall_s=10.0, workers=1, backend="pure",
            cell_wall_s={"t1": 10.0},
        )
        payload = write_wall_artifact(str(path), run, baseline=baseline)
        on_disk = json.loads(path.read_text())
        assert on_disk == payload
        assert on_disk["schema"] == "bench-wall/1"
        assert on_disk["run"]["backend"] == "accel"
        assert on_disk["baseline"]["backend"] == "pure"
        assert on_disk["speedup_vs_baseline"] == pytest.approx(5.0)

    def test_artifact_without_baseline(self, tmp_path):
        path = tmp_path / "wall.json"
        payload = write_wall_artifact(str(path), self._matrix())
        assert "baseline" not in payload
        assert "speedup_vs_baseline" not in payload
