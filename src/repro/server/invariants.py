"""System-wide invariant checking for the sharded confirmation pool.

The paper's security argument leans on properties that are *global* to
the provider fleet, not local to one shard: an account must have
exactly one owner (two owners could each accept a confirmation for the
same nonce), still in the pool (a removed shard's account is
unreachable), a consumed nonce must stay consumed across any crash or
migration (the replay defense), the business ledger must conserve (a
scale event that mints or destroys money is a broken provider no
matter how available it is), and a settled transaction must exist
exactly once pool-wide.  :class:`InvariantChecker` audits all of them
in one pass over the live pool — after every fault recovery in the
chaos harness (R3) and at end-of-day — plus optional
``state_digest()`` parity against a never-crashed reference run where
the fault plan admits one.

The checker only *reads*: it consumes no randomness, schedules no
events, and mutates nothing (its migration phase hook only records
which shards exist), so attaching it cannot perturb a
deterministic run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.server.provider import ServiceProvider, TxStatus
from repro.server.rebalance import ShardPoolManager
from repro.server.router import ProviderRouter

#: Check names, in report order.
CHECKS = (
    "unique_ownership",
    "ring_coverage",
    "routability",
    "no_stranded_accounts",
    "nonce_single_use",
    "consumed_stays_consumed",
    "ledger_conservation",
    "exactly_once",
    "manager_consistent",
    "digest_parity",
)

#: Cap on violation strings kept per report — a badly broken pool
#: should produce a readable report, not a megabyte of repetition.
MAX_VIOLATIONS = 50


class InvariantViolation(AssertionError):
    """Raised by :meth:`InvariantChecker.assert_ok` in hard-fail mode."""


@dataclass
class InvariantReport:
    """Outcome of one invariant sweep: named verdicts + evidence."""

    checks: Dict[str, bool] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    truncated: int = 0

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def note(self, check: str, message: str) -> None:
        self.checks[check] = False
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(f"{check}: {message}")
        else:
            self.truncated += 1

    def to_row(self) -> dict:
        """Plain-data form for experiment rows and wall artifacts."""
        return {
            "ok": self.ok,
            "failed": sorted(k for k, v in self.checks.items() if not v),
            "violations": list(self.violations),
            "truncated": self.truncated,
        }


class InvariantChecker:
    """One-pass auditor over a :class:`ProviderRouter` pool.

    ``snapshot_baseline()`` records the pool-wide ledger total once the
    workload's money supply is fixed (after account setup); every later
    :meth:`check` asserts conservation against it.  Checks that need
    context the caller doesn't have are skipped, not failed: ledger
    conservation without a baseline, digest parity without a reference,
    manager consistency without a manager.
    """

    def __init__(
        self,
        router: ProviderRouter,
        manager: Optional[ShardPoolManager] = None,
    ) -> None:
        self.router = router
        self.manager = manager
        self.baseline_total: Optional[int] = None
        #: Every shard ever in the pool (a migration can add and remove
        #: one between two checks), by host.
        self._seen: Dict[str, ServiceProvider] = {}
        self._remember()
        if manager is not None:
            manager.phase_hooks.append(lambda phase, info: self._remember())

    def _remember(self) -> None:
        self._seen.update((shard.host, shard) for shard in self.router.shards)

    # ------------------------------------------------------------------
    def _pool_balance_total(self) -> int:
        return sum(
            int(value)
            for shard in self.router.shards
            for value in getattr(shard, "balances", {}).values()
        )

    def snapshot_baseline(self) -> int:
        """Fix the conservation baseline: the pool-wide balance total.
        Call after workload setup (all registrations done); transfers
        only move money between balances, so the total is invariant
        from here on no matter what crashes or migrations happen."""
        self.baseline_total = self._pool_balance_total()
        return self.baseline_total

    # ------------------------------------------------------------------
    def check(
        self, reference_digest: Optional[bytes] = None
    ) -> InvariantReport:
        """Audit the pool; returns a report with per-check verdicts."""
        router = self.router
        report = InvariantReport()
        for name in CHECKS:
            report.checks[name] = True
        router.simulator.metrics.counter("invariants.checks").increment()

        # -- exactly-one owner per account, union of ranges covers the
        #    ring, and every account routes to the shard that holds it.
        owners: Dict[str, List[str]] = {}
        for shard in router.shards:
            for account in shard.accounts:
                owners.setdefault(account, []).append(shard.host)
        for account, hosts in sorted(owners.items()):
            if len(hosts) > 1:
                report.note(
                    "unique_ownership", f"{account!r} owned by {hosts}"
                )
        ring_hosts = set(router.ring.hosts)
        pool_hosts = {shard.host for shard in router.shards}
        if ring_hosts != pool_hosts:
            report.note(
                "ring_coverage",
                f"ring hosts {sorted(ring_hosts)} != pool hosts "
                f"{sorted(pool_hosts)}",
            )
        for account, hosts in sorted(owners.items()):
            routed = router.owner_of(account)
            if routed not in hosts:
                report.note(
                    "routability",
                    f"{account!r} routes to {routed} but lives on {hosts}",
                )
        self._remember()
        for host, shard in sorted(self._seen.items()):
            if host not in pool_hosts:
                for account in sorted(shard.accounts):
                    report.note(
                        "no_stranded_accounts",
                        f"{account!r} held by removed shard {host}",
                    )

        # -- the replay defense, pool-wide: a nonce value exists on at
        #    most one shard, and a settled transaction's nonce, where
        #    still present, is marked consumed (a crash+migration that
        #    resurrected it as fresh would re-admit old evidence).
        nonce_owners: Dict[bytes, List[str]] = {}
        for shard in router.shards:
            records = {rec[0]: rec for rec in shard.nonces.export_records()}
            for nonce in records:
                nonce_owners.setdefault(nonce, []).append(shard.host)
            for challenge in shard.challenges.values():
                if challenge.status is not TxStatus.EXECUTED:
                    continue
                record = records.get(challenge.nonce)
                if record is not None and not record[4]:
                    report.note(
                        "consumed_stays_consumed",
                        f"executed challenge {challenge.challenge_id.hex()} "
                        f"on {shard.host} has an unconsumed nonce",
                    )
        for nonce, hosts in nonce_owners.items():
            if len(hosts) > 1:
                report.note(
                    "nonce_single_use",
                    f"nonce {nonce.hex()} present on {sorted(hosts)}",
                )

        # -- ledger conservation against the baseline money supply.
        if self.baseline_total is not None:
            total = self._pool_balance_total()
            if total != self.baseline_total:
                report.note(
                    "ledger_conservation",
                    f"pool total {total} != baseline "
                    f"{self.baseline_total} (delta "
                    f"{total - self.baseline_total})",
                )

        # -- settled-transaction exactly-once: a transaction or challenge
        #    id exists on at most one shard (duplicates across shards
        #    mean a migration left both copies live).
        tx_owners: Dict[bytes, List[str]] = {}
        challenge_owners: Dict[bytes, List[str]] = {}
        for shard in router.shards:
            for tx_id in shard.transactions:
                tx_owners.setdefault(tx_id, []).append(shard.host)
            for challenge_id in shard.challenges:
                challenge_owners.setdefault(challenge_id, []).append(shard.host)
        for ids, label in ((tx_owners, "tx"), (challenge_owners, "challenge")):
            for item_id, hosts in ids.items():
                if len(hosts) > 1:
                    report.note(
                        "exactly_once",
                        f"{label} {item_id.hex()} present on {sorted(hosts)}",
                    )

        # -- coordinator consistency: busy implies a live operation (or
        #    a crash pending recovery), and an idle coordinator leaves
        #    no unresolved intent in its log.
        manager = self.manager
        if manager is not None:
            if manager.busy and manager._op is None and not manager.crashed:
                report.note(
                    "manager_consistent",
                    "busy latched with no active operation and no "
                    "pending recovery",
                )
            log = manager.intent_log
            open_ops = [
                op_id for op_id, entry in log.operations().items()
                if log.unresolved(entry)
            ]
            allowed = 1 if (manager.busy or manager.crashed) else 0
            if len(open_ops) > allowed:
                report.note(
                    "manager_consistent",
                    f"intent log holds unresolved operations {open_ops} "
                    f"with busy={manager.busy}",
                )

        # -- survivor digest parity against a never-crashed reference.
        if reference_digest is not None:
            digest = router.state_digest()
            if digest != reference_digest:
                report.note(
                    "digest_parity",
                    f"pool digest {digest.hex()[:16]}... != reference "
                    f"{reference_digest.hex()[:16]}...",
                )

        if not report.ok:
            router.simulator.metrics.counter(
                "invariants.violations"
            ).increment(len(report.violations) + report.truncated)
        return report

    def assert_ok(
        self, reference_digest: Optional[bytes] = None
    ) -> InvariantReport:
        """Hard-fail mode: raise :class:`InvariantViolation` with the
        full evidence list when any check fails (CI gate)."""
        report = self.check(reference_digest)
        if not report.ok:
            raise InvariantViolation(
                "; ".join(report.violations)
                + (f" (+{report.truncated} more)" if report.truncated else "")
            )
        return report
