"""Chaos harness: fault-plan validation, invariant checker, torn-tail
repair, the crash-anywhere matrix, and R3 determinism.

The acceptance properties for the crash-safe migration protocol and its
deterministic chaos harness:

* fault plans validate eagerly — a window that could silently never
  fire (beyond the horizon, malformed) raises instead of lying about
  the configured fault load, and overlapping windows merge *counted*;
* the invariant checker passes on a healthy pool and pinpoints each
  class of corruption (double ownership, resurrected nonces, minted
  money, duplicated settlements, a stuck coordinator latch) when state
  is broken behind its back;
* a WAL torn mid-append is repaired on restore — truncated at the last
  complete frame — so post-restart appends never corrupt the framing
  of later records (the torn tail costs exactly one in-flight record);
* the crash-anywhere matrix holds: a crash of source, target, or the
  control plane at every migration phase resolves deterministically —
  clean abort before the commit record, idempotent resume after — with
  survivor digests bit-identical to a never-crashed reference;
* the R3 chaos sweep is byte-identical across shard worker counts and
  crypto backends.
"""

from __future__ import annotations

import pytest

from repro.crypto.backend import use_backend
from repro.net.network import LinkSpec, Network
from repro.server.bank import BankServer
from repro.server.invariants import (
    CHECKS,
    InvariantChecker,
    InvariantViolation,
)
from repro.server.policy import VerifierPolicy
from repro.server.rebalance import ShardPoolManager
from repro.sim import Simulator
from repro.sim.faults import FaultConfigError, FaultInjector, Window

from tests.test_rebalance import _build, _enroll, _transfer

CLIENT = "load-host"
POOL = "pool.test"


# ----------------------------------------------------------------------
# Fault-plan validation
# ----------------------------------------------------------------------
class TestFaultPlanValidation:
    def _world(self, horizon: float = 100.0):
        simulator = Simulator(seed=11)
        network = Network(simulator)
        network.attach(CLIENT, LinkSpec.lan())
        network.attach("pool!shard0", LinkSpec.lan())
        policy = VerifierPolicy()
        shard = BankServer(simulator, network, "pool!shard0", policy,
                           workers=1)
        injector = FaultInjector(simulator, horizon=horizon)
        return simulator, shard, injector

    def test_beyond_horizon_window_rejected(self):
        _, shard, injector = self._world(horizon=100.0)
        with pytest.raises(FaultConfigError, match="beyond the run horizon"):
            injector.add_crash_windows(shard, [Window(150.0, 160.0)])
        assert injector.crashes_scheduled == 0

    def test_negative_start_rejected(self):
        _, shard, injector = self._world()
        with pytest.raises(FaultConfigError, match="start must be >= 0"):
            injector.add_crash_windows(shard, [Window(-1.0, 5.0)])

    def test_non_positive_duration_rejected(self):
        _, shard, injector = self._world()
        with pytest.raises(FaultConfigError, match="non-positive duration"):
            injector.add_crash_windows(shard, [Window(5.0, 5.0)])

    def test_torn_faults_require_a_journal(self):
        _, shard, injector = self._world()
        assert shard.journal is None
        with pytest.raises(FaultConfigError, match="need a journal"):
            injector.add_torn_crashes(shard, rate_per_s=0.1, duration_s=1.0)

    def test_overlapping_windows_merge_and_are_counted(self):
        simulator, shard, injector = self._world()
        windows = injector.add_crash_windows(
            shard, [Window(1.0, 5.0), Window(3.0, 8.0), Window(20.0, 22.0)]
        )
        # The overlap collapsed into one window so every crash pairs
        # with exactly one restart; the merge is visible, not silent.
        assert [(w.start, w.end) for w in windows] == [(1.0, 8.0),
                                                       (20.0, 22.0)]
        assert injector.windows_merged == 1
        assert injector.crashes_scheduled == 2
        assert (
            simulator.metrics.counters().get("faults.windows_merged") == 1
        )
        assert injector.describe_plan()["crash:pool!shard0"] == [
            [1.0, 8.0], [20.0, 22.0]
        ]

    def test_aimed_plan_rejects_unknown_phase_victim_probability(self):
        simulator, router, _, make = _build(shard_count=2)
        manager = ShardPoolManager(simulator, router, make)
        injector = FaultInjector(simulator, horizon=100.0)
        with pytest.raises(FaultConfigError, match="unknown migration phases"):
            injector.aim_at_migrations(manager, [
                {"phase": "warp", "victim": "source", "probability": 0.5},
            ])
        with pytest.raises(FaultConfigError, match="unknown migration victim"):
            injector.aim_at_migrations(manager, [
                {"phase": "copy", "victim": "bystander", "probability": 0.5},
            ])
        with pytest.raises(FaultConfigError, match="probability"):
            injector.aim_at_migrations(manager, [
                {"phase": "copy", "victim": "source", "probability": 1.5},
            ])
        assert not manager.phase_hooks  # nothing half-installed


# ----------------------------------------------------------------------
# Invariant checker
# ----------------------------------------------------------------------
class TestInvariantChecker:
    def _pool(self, shard_count: int = 2, accounts: int = 8):
        simulator, router, signing_key, make = _build(shard_count)
        names = [f"acct-{i:02d}" for i in range(accounts)]
        cookies = {n: _enroll(router, signing_key, n) for n in names}
        for index, name in enumerate(names):
            result = _transfer(
                router, signing_key, cookies[name], 100 + index, name
            )
            assert result["status"] == "executed"
        manager = ShardPoolManager(simulator, router, make)
        checker = InvariantChecker(router, manager)
        checker.snapshot_baseline()
        return simulator, router, manager, checker, names

    def test_healthy_pool_passes_every_check(self):
        simulator, router, _, checker, _ = self._pool()
        report = checker.assert_ok(reference_digest=router.state_digest())
        assert report.ok
        assert set(report.checks) == set(CHECKS)
        assert all(report.checks.values())
        assert report.violations == []
        assert simulator.metrics.counters().get("invariants.checks") == 1
        assert "invariants.violations" not in simulator.metrics.counters()

    def test_double_ownership_after_undropped_copy(self):
        # A migration that installed on the target but never dropped
        # the source leaves both copies live: the exact corruption the
        # pool-wide sweep exists to catch.
        _, router, _, checker, _ = self._pool()
        source = router.shards[0]
        victim = sorted(source.accounts)[0]
        router.shards[1].install_slice(source.capture_slice([victim]))
        report = checker.check()
        assert not report.ok
        failed = set(report.to_row()["failed"])
        assert "unique_ownership" in failed
        assert "nonce_single_use" in failed
        assert "exactly_once" in failed
        with pytest.raises(InvariantViolation, match="unique_ownership"):
            checker.assert_ok()

    def test_minted_money_breaks_conservation(self):
        _, router, _, checker, names = self._pool()
        shard = router.shard_for_account(names[0])
        shard.balances[names[0]] += 1
        report = checker.check()
        assert report.checks["ledger_conservation"] is False
        assert any("delta 1" in v for v in report.violations)

    def test_digest_parity_against_reference(self):
        _, router, _, checker, _ = self._pool()
        assert checker.check(router.state_digest()).ok
        report = checker.check(b"\x00" * 32)
        assert report.checks["digest_parity"] is False

    def test_stuck_busy_latch_is_a_violation(self):
        _, router, manager, checker, _ = self._pool()
        manager._busy = True  # latched with no op and no pending recovery
        report = checker.check()
        assert report.checks["manager_consistent"] is False
        manager._busy = False
        assert checker.check().ok


# ----------------------------------------------------------------------
# Torn-tail repair on restore
# ----------------------------------------------------------------------
class TestTornTailRepair:
    def test_restore_truncates_partial_frame_before_new_appends(self):
        simulator, router, signing_key, _ = _build(shard_count=1)
        names = [f"acct-{i:02d}" for i in range(4)]
        cookies = {n: _enroll(router, signing_key, n) for n in names}
        for name in names:
            _transfer(router, signing_key, cookies[name], 100, name)
        shard = router.shards[0]
        # Crash mid-append: the final WAL frame is cut in half.
        shard.crash()
        assert shard.journal.tear_tail(0.5) > 0
        shard.restart()
        assert shard.journal.stats()["torn_tails"] >= 1
        # The regression: without repair, post-restart appends land
        # after the leftover partial bytes and corrupt the framing of
        # everything that follows — the *second* restore then explodes.
        login = router.endpoint.call_sync(
            CLIENT, "login", {"account": names[0], "password": "pw"}
        )
        assert "set_session" in login
        shard.crash()
        shard.restart()  # would raise on a corrupt frame without repair
        login = router.endpoint.call_sync(
            CLIENT, "login", {"account": names[1], "password": "pw"}
        )
        assert "set_session" in login

    def test_repair_is_a_noop_on_a_clean_wal(self):
        simulator, router, signing_key, _ = _build(shard_count=1)
        cookie = _enroll(router, signing_key, "acct-00")
        _transfer(router, signing_key, cookie, 100, "acct-00")
        shard = router.shards[0]
        assert shard.journal.repair_tail() == 0
        assert shard.journal.stats()["torn_tails"] == 0


# ----------------------------------------------------------------------
# Crash-anywhere matrix + R3 determinism
# ----------------------------------------------------------------------
class TestCrashAnywhere:
    def test_every_phase_victim_cell_resolves_deterministically(self):
        from repro.bench.experiments.chaos import crash_matrix

        matrix = crash_matrix(seed=901)
        assert len(matrix["cells"]) == 32
        assert matrix["all_ok"], [
            c for c in matrix["cells"]
            if not (c["crash_fired"] and c["outcome_ok"]
                    and c["digest_match"] and c["invariants_ok"]
                    and c["busy_released"])
        ]
        # Both resolution rules are actually exercised: crashes after
        # the durable transition resume, every earlier one aborts.
        outcomes = {c["outcome"] for c in matrix["cells"]}
        assert outcomes == {"committed", "aborted"}


class TestR3Determinism:
    KWARGS = dict(
        crash_rates=(0.1,), modes=("scripted", "torn"), users=200,
        day_seconds=60.0, shards=2, recovery_s=1.0, seed=31,
        matrix_accounts=3,
    )

    @staticmethod
    def _canonical(result: dict) -> str:
        import json

        from repro.bench.runner import strip_wall

        return json.dumps(strip_wall(result), sort_keys=True, default=repr)

    def test_byte_identical_across_shard_worker_counts(self):
        from repro.bench.experiments.chaos import r3_chaos_sweep

        base = self._canonical(r3_chaos_sweep(**self.KWARGS))
        threaded = self._canonical(
            r3_chaos_sweep(workers_per_shard=4, **self.KWARGS)
        )
        assert base == threaded

    def test_byte_identical_across_crypto_backends(self):
        from repro.bench.experiments.chaos import r3_chaos_sweep

        with use_backend("pure"):
            pure = self._canonical(r3_chaos_sweep(**self.KWARGS))
        with use_backend("accel"):
            accel = self._canonical(r3_chaos_sweep(**self.KWARGS))
        assert pure == accel

    def test_fault_plans_echo_into_the_result(self):
        from repro.bench.experiments.chaos import r3_chaos_sweep

        result = r3_chaos_sweep(**self.KWARGS)
        plans = result["fault_plans"]
        assert set(plans) == {"scripted@0.1", "torn@0.1"}
        # The torn arm's plan really schedules torn-write faults; a red
        # chaos run is reproducible from the artifact alone.
        assert any(k.startswith("torn:") for k in plans["torn@0.1"])
