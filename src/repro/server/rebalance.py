"""Elastic shard pool: crash-safe live migration, drain, and autoscaling.

The sharded provider (`repro.server.router`) fixes its pool size at
build time, but the paper's deployment story — confirmation as a
captcha replacement at web scale — faces diurnal load with flash
crowds (F6).  A pool sized for the spike wastes shards all night; a
pool sized for the trough sheds the spike.  This module makes the pool
*elastic* without ever weakening the security argument:

* :class:`ShardPoolManager` moves **account ranges** between shards.
  Scale-up and drain are two planners over one migration path: each
  builds a plan — ``(source, destination, names)`` moves plus the ring
  after the move — and hands it to one copy step and one flip.  The
  copy captures one slice per move (accounts, sessions, transactions,
  batches, and every nonce bound to them — consumed ones included) and
  ships it over a modeled transfer window while migration taps mirror
  live mutations; the flip then atomically
  moves ownership and replays the tail on each destination.  Accounts
  registered during the copy window are planned like every other
  leaving account; after the flip, each shard's ownership fence
  (`repro.server.router`) refuses what it no longer owns.  The replay
  defense survives the move *by construction*: a nonce's record
  travels with its transaction, so evidence can no more be replayed
  across a migration than across the original shard boundary.
* Scale-up plans one move per source toward a freshly attached shard
  and rebuilds the ring over it.  A drain first stops the shard
  admitting new sessions and lets in-flight legs settle, then plans
  its accounts' moves from the survivor ring and removes it — survivor
  state is bit-identical (pool ``state_digest``) to a pool that was
  never scaled.  A drain also ships the departing shard's business
  *residual* (external counterparty balances, the executed-transfer
  log) to a survivor, so pool-wide ledger conservation and
  duplicate-execution accounting survive the removal.
* :class:`AutoScaler` closes the loop: a periodic controller reads the
  router's own signals (shed rate, outstanding legs, breaker states)
  and scales up under sustained pressure, drains the newest shard in
  sustained calm — with streak hysteresis and a cooldown so a single
  noisy tick never thrashes the pool.

Crash safety — the migration write-ahead protocol
-------------------------------------------------

Every scale event runs a write-ahead intent protocol against a
durable :class:`MigrationIntentLog` plus ``mig_prepare`` /
``mig_commit`` / ``mig_abort`` marker records in the participating
shards' own journals:

* ``mig_prepare`` is logged before anything else happens; it names the
  operation, the shard added or drained, and the source ranges (a
  drain logs a range-less one when its poll starts and the
  range-bearing one when its copy starts).
* The flip's durable transition — log ``mig_commit``, install slices +
  replay tails + refresh business state per move, drop each source's
  ranges, then rebuild the ring over an added shard or ship a drained
  shard's residual and remove it — executes as one atomic simulation
  event.  The commit record is written *before* the transition applies
  (write-ahead), and the model's crash points (fault hooks, see
  ``phase_hooks``) sit strictly before the commit or strictly after
  the full transition.
* ``mig_done`` closes the operation; ``mig_abort`` records a clean
  abort.

Recovery (:meth:`ShardPoolManager.recover`, run on manager restart)
resolves every open operation deterministically: **commit logged →
idempotent resume** (re-assert drops, ring ownership, learned-route
rewrites, then ``mig_done``); **no commit → clean abort** (clear
migration taps, detach a half-added shard, clear the draining flag —
source ownership retained, ``busy`` released).  No migrated range is
ever dropped or owned by two shards.

A watchdog guards the non-crash failure mode too: if the scheduled
flip callback is lost, the operation aborts at its deadline instead of
latching ``busy`` forever (``rebalance.aborts``).  Manager events are
counted in the simulator's metric registry (``rebalance.*``).

Everything runs on the simulation's virtual clock and derives no new
randomness, so an elastic run is as deterministic as a static one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.messages import Message, decode_message, encode_message
from repro.os.disk import UntrustedDisk
from repro.server.journal import ProviderJournal
from repro.server.provider import RECORD_KINDS, ServiceProvider
from repro.server.router import CircuitBreaker, HashRing, ProviderRouter
from repro.sim.events import Event
from repro.sim.kernel import Simulator

#: Modeled migration link: snapshot bytes stream at this rate during
#: the copy window (LAN-class replication traffic).
DEFAULT_BANDWIDTH_BYTES_PER_S = 8_000_000.0
#: Fixed per-migration setup cost (connection + coordination).
DEFAULT_TRANSFER_LATENCY_S = 0.05
#: Watchdog slack past the expected flip time before an operation is
#: declared stuck and aborted.
FLIP_GRACE_S = 10.0
#: How often a drain checks whether its shard's in-flight legs settled.
DRAIN_POLL_S = 0.25

#: Autoscaler thresholds: a tick with at least this much shedding is
#: pressure; calm needs every backlog at or below this depth.
UP_SHED_PER_TICK = 1
DOWN_OUTSTANDING = 2

#: Migration phases exposed to fault hooks, in protocol order.
MIGRATION_PHASES = (
    "capture", "copy", "drain_poll", "tail_replay", "ring_flip", "dual_read",
)


@dataclass
class MigrationReport:
    """One completed migration, for the E4 experiment ledger."""

    kind: str  # "scale_up" | "drain" | "reconcile"
    host: str  # the shard added or removed
    accounts: int
    snapshot_bytes: int
    tail_records: int
    tail_bytes: int
    started_at: float
    flipped_at: float

    @property
    def migration_s(self) -> float:
        return self.flipped_at - self.started_at


class MigrationIntentLog:
    """Durable write-ahead log of migration intent records.

    With a disk attached the log is a real WAL on the simulated
    :class:`~repro.os.disk.UntrustedDisk` (same framing and torn-tail
    tolerance as the provider journal); without one it degrades to an
    in-memory list that models an external durable configuration store
    — either way the records survive a coordinator crash, which is the
    whole point.
    """

    def __init__(
        self, disk: Optional[UntrustedDisk] = None, host: str = "pool!mgr"
    ) -> None:
        self.host = host
        self._journal = (
            ProviderJournal(disk, host) if disk is not None else None
        )
        self._memory: List[bytes] = []
        self.appends = 0

    def append(self, record: Message) -> None:
        raw = encode_message(record)
        if self._journal is not None:
            self._journal.append(raw)
        else:
            self._memory.append(raw)
        self.appends += 1

    def records(self) -> List[Message]:
        raws = (
            self._journal.read_records()
            if self._journal is not None
            else list(self._memory)
        )
        return [decode_message(raw) for raw in raws]

    def operations(self) -> Dict[str, Dict[str, Message]]:
        """The log folded per operation, in first-record order: each op
        id's latest record of each kind, keyed ``prepare`` / ``commit`` /
        ``abort`` / ``done`` (a drain logs a second, range-bearing
        prepare when its copy starts)."""
        ops: Dict[str, Dict[str, Message]] = {}
        for record in self.records():
            ops.setdefault(str(record["op"]), {})[str(record["t"])[4:]] = record
        return ops

    @staticmethod
    def unresolved(entry: Dict[str, Message]) -> bool:
        """A folded operation prepared and neither done nor aborted."""
        return "prepare" in entry and "done" not in entry and "abort" not in entry


def shard_number(pool_host: str, host: str) -> Optional[int]:
    """The ``N`` of a ``<pool>!shardN`` hostname; ``None`` for any other
    host.  Shard numbers only grow: a reused hostname would re-derive
    the *same* DRBG streams, and freshness must never repeat."""
    prefix = f"{pool_host}!shard"
    if not host.startswith(prefix):
        return None
    try:
        return int(host[len(prefix):])
    except ValueError:
        return None


def newest_shard(router: ProviderRouter) -> Optional[str]:
    """Drain candidate: the highest-numbered non-draining shard (newest
    first keeps the pool's stable core untouched)."""
    best: Optional[Tuple[int, str]] = None
    for shard in router.shards:
        number = shard_number(router.host, shard.host)
        if shard.host in router.draining or number is None:
            continue
        if best is None or number > best[0]:
            best = (number, shard.host)
    return best[1] if best else None


#: Abort reason recorded when a participant is found crashed at a
#: phase, per operation kind.
_CRASH_REASONS = {
    "scale_up": {
        "capture": "participant crashed during capture",
        "copy": "participant crashed opening the copy window",
        "tail_replay": "participant crashed in the copy window",
        "ring_flip": "participant crashed before the flip",
    },
    "drain": {
        "drain_poll": "draining shard crashed",
        "capture": "participant crashed during drain capture",
        "copy": "participant crashed opening the drain copy",
        "tail_replay": "participant crashed in the drain window",
        "ring_flip": "participant crashed before the drain flip",
    },
}


@dataclass
class _Move:
    """One account range leaving ``source`` for the shard ``dest``."""

    source: ServiceProvider
    dest: str
    names: List[str]
    blob: Optional[Message] = None  # the captured slice


@dataclass
class _Operation:
    """Volatile coordinator state for one in-flight scale event.  The
    durable twin lives in the intent log; everything here may be lost
    to a coordinator crash and must be reconstructible from the log."""

    op_id: str
    kind: str  # "scale_up" | "drain"
    host: str  # shard added (scale_up) / drained (drain)
    epoch: int
    started: float
    #: Shards the ranges leave — a drained shard even if it owns none.
    sources: List[ServiceProvider]
    deadline: float = 0.0
    moves: List[_Move] = field(default_factory=list)
    #: Ring ownership after the move.
    ring: Optional[HashRing] = None
    #: participant host -> shard, and its crash count sampled when it
    #: joined; a changed count before commit means the participant lost
    #: RAM mid-protocol.
    participants: Dict[str, ServiceProvider] = field(default_factory=dict)
    epochs: Dict[str, int] = field(default_factory=dict)
    taps: List[Tuple[ServiceProvider, list]] = field(default_factory=list)
    snapshot_bytes: int = 0
    flip_event: Optional[Event] = None
    poll_event: Optional[Event] = None
    watchdog: Optional[Event] = None
    finished: bool = False

    def plan(self, source: ServiceProvider, names: List[str]) -> None:
        """Group ``names`` leaving ``source`` by their post-move owner
        into moves, creating one if needed — for both planners and the
        copy-window rule.  A scale-up moves only what the ring gives the
        added shard; a drain moves everything."""
        moves = {(m.source.host, m.dest): m for m in self.moves}
        for name in names:
            dest = self.ring.host_for(name)
            if self.kind == "scale_up" and dest != self.host:
                continue
            move = moves.get((source.host, dest))
            if move is None:
                move = moves[source.host, dest] = _Move(source, dest, [])
                self.moves.append(move)
            move.names.append(name)
        for move in self.moves:
            move.names.sort()

    def ranges(self) -> List[Tuple[str, List[str]]]:
        """(source host, names leaving it) — the ``srcs`` of the
        prepare and commit records."""
        return [
            (source.host, sorted(
                name for move in self.moves if move.source is source
                for name in move.names
            ))
            for source in self.sources
        ]


class ShardPoolManager:
    """Crash-safe coordinator for account-range migration on a live
    shard pool.

    One migration at a time (``busy`` guards overlap — ranges in
    flight must not be re-sliced by a second operation).  The
    ``shard_factory(host)`` callable builds a fresh, network-attached
    shard; keeping construction outside the manager lets callers
    decide journaling, caching, and provider class.

    ``phase_hooks`` is a list of ``hook(phase, info)`` callables fired
    at each protocol phase (:data:`MIGRATION_PHASES`); the chaos
    harness uses them to aim crashes at exact migration phases.  A
    hook may crash this manager or any participant — the protocol
    resolves either deterministically.
    """

    def __init__(
        self,
        simulator: Simulator,
        router: ProviderRouter,
        shard_factory: Callable[[str], ServiceProvider],
        *,
        bandwidth_bytes_per_s: float = DEFAULT_BANDWIDTH_BYTES_PER_S,
        transfer_latency_s: float = DEFAULT_TRANSFER_LATENCY_S,
        drain_grace_s: float = 30.0,
        intent_disk: Optional[UntrustedDisk] = None,
    ) -> None:
        if bandwidth_bytes_per_s <= 0:
            raise ValueError(
                f"bandwidth must be > 0: {bandwidth_bytes_per_s}"
            )
        self.simulator = simulator
        self.router = router
        self.shard_factory = shard_factory
        self.bandwidth_bytes_per_s = bandwidth_bytes_per_s
        self.transfer_latency_s = transfer_latency_s
        self.drain_grace_s = drain_grace_s
        self.intent_log = MigrationIntentLog(
            intent_disk, f"{router.host}!mgr"
        )
        self.phase_hooks: List[Callable[[str, dict], None]] = []
        self.reports: List[MigrationReport] = []
        self.failovers_reconciled = 0
        self._busy = False
        self._crashed = False
        self._epoch = 0
        self._op: Optional[_Operation] = None
        self._op_seq = 0
        #: Highest shard number ever used, drained shards included.
        self._retired_seq = -1

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def crashed(self) -> bool:
        return self._crashed

    def totals(self) -> Dict[str, float]:
        """Aggregate migration cost, for experiment rows."""
        counters = self.simulator.metrics.counters()
        return {
            "migrations": len(self.reports),
            "accounts_moved": sum(r.accounts for r in self.reports),
            "snapshot_bytes": sum(r.snapshot_bytes for r in self.reports),
            "tail_records": sum(r.tail_records for r in self.reports),
            "tail_bytes": sum(r.tail_bytes for r in self.reports),
            "migration_s": sum(r.migration_s for r in self.reports),
            "failovers_reconciled": self.failovers_reconciled,
            "aborts": counters.get("rebalance.aborts", 0),
            "resumes": counters.get("rebalance.resumes", 0),
        }

    def _note_seq(self, host: str) -> None:
        number = shard_number(self.router.host, host)
        if number is not None:
            self._retired_seq = max(self._retired_seq, number)

    def _next_host(self) -> str:
        """Reserve the next shard hostname: monotonic numbering that
        never reuses a live, drained or aborted shard's number."""
        for shard in self.router.shards:
            self._note_seq(shard.host)
        self._retired_seq += 1
        return f"{self.router.host}!shard{self._retired_seq}"

    # ------------------------------------------------------------------
    # Crash-stop lifecycle of the coordinator itself
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Control-plane crash-stop: every volatile handle — the active
        operation, its scheduled flip/poll/watchdog events, captured
        blobs and tap handles — is gone.  The intent log survives (it
        is the durable store), and :meth:`restart` resolves whatever
        was in flight from it."""
        if self._crashed:
            return
        self._crashed = True
        self._epoch += 1
        self.simulator.metrics.counter("rebalance.manager_crashes").increment()
        op = self._op
        if op is not None and not op.finished:
            self._cancel_events(op)
        self._op = None
        # _busy stays latched until recovery resolves the logged intent.

    def restart(self) -> None:
        """Bring the coordinator back and resolve the intent log."""
        if not self._crashed:
            return
        self._crashed = False
        self.recover()

    def recover(self) -> Dict[str, int]:
        """Resolve every open operation in the intent log.

        Deterministic outcome per operation: a logged ``mig_commit``
        means the durable transition applied — re-assert its effects
        idempotently and close with ``mig_done`` (*resume*); no commit
        means nothing durable changed hands — clear taps, detach a
        half-added shard, clear the draining flag, and close with
        ``mig_abort`` (*abort*, source ownership retained).  Always
        releases ``busy``."""
        ops = self.intent_log.operations()
        for op_id in ops:
            try:
                self._op_seq = max(self._op_seq, int(op_id.rsplit("-", 1)[1]) + 1)
            except (IndexError, ValueError):
                pass
        aborted = resumed = 0
        for op_id, entry in ops.items():
            if not self.intent_log.unresolved(entry):
                continue
            if "commit" in entry:
                self._resume(entry["commit"])
                resumed += 1
            else:
                prepare = entry["prepare"]
                self._abort(
                    op_id, str(prepare["k"]), str(prepare["h"]),
                    [host for host, _ in self._decode_sources(prepare["srcs"])],
                    "recovered: no commit record",
                )
                aborted += 1
        self._busy = False
        self._op = None
        return {"aborted": aborted, "resumed": resumed}

    # ------------------------------------------------------------------
    # Intent-log plumbing
    # ------------------------------------------------------------------
    def _begin_op(
        self, kind: str, host: str, sources: List[ServiceProvider]
    ) -> _Operation:
        self._busy = True
        op = _Operation(
            op_id=f"{kind}-{self._op_seq}",
            kind=kind,
            host=host,
            epoch=self._epoch,
            started=self.simulator.now,
            sources=sources,
        )
        self._op_seq += 1
        self._op = op
        return op

    @staticmethod
    def _encode_sources(sources: List[Tuple[str, List[str]]]) -> List[bytes]:
        return [
            encode_message({"h": host, "ns": list(names)})
            for host, names in sources
        ]

    @staticmethod
    def _decode_sources(encoded: List[bytes]) -> List[Tuple[str, List[str]]]:
        out: List[Tuple[str, List[str]]] = []
        for raw in encoded:
            msg = decode_message(raw)
            out.append((str(msg["h"]), [str(n) for n in msg["ns"]]))
        return out

    def _log_prepare(self, op: _Operation, phase: str) -> None:
        self.intent_log.append({
            "t": "mig_prepare",
            "op": op.op_id,
            "k": op.kind,
            "h": op.host,
            "ph": phase,
            "srcs": self._encode_sources(op.ranges()),
        })

    def _log_commit(self, op: _Operation) -> None:
        self.intent_log.append({
            "t": "mig_commit",
            "op": op.op_id,
            "k": op.kind,
            "h": op.host,
            "mvn": [name for move in op.moves for name in move.names],
            "mvh": [move.dest for move in op.moves for _ in move.names],
            "srcs": self._encode_sources(op.ranges()),
        })

    def _log_abort(self, op_id: str, reason: str) -> None:
        self.intent_log.append({"t": "mig_abort", "op": op_id, "r": reason})

    def _log_done(self, op_id: str) -> None:
        self.intent_log.append({"t": "mig_done", "op": op_id})

    # ------------------------------------------------------------------
    # Phase hooks and crash checks
    # ------------------------------------------------------------------
    def _phase(self, phase: str, op: _Operation) -> None:
        if not self.phase_hooks:
            return
        source_hosts = [shard.host for shard in op.sources]
        info = {
            "op": op.op_id,
            "kind": op.kind,
            "host": op.host,
            "sources": source_hosts,
            "targets": sorted(
                host for host in op.participants if host not in source_hosts
            ),
        }
        for hook in list(self.phase_hooks):
            hook(phase, info)

    def _checkpoint(self, phase: str, op: _Operation) -> bool:
        """Fire ``phase``'s hooks; ``False`` when the operation stops
        here — its coordinator context is gone, or a participant
        crashed (the operation is then aborted)."""
        if self._abandoned(op):
            return False
        self._phase(phase, op)
        if self._abandoned(op):
            return False
        if self._crashed_participants(op):
            self._abort_active(op, _CRASH_REASONS[op.kind][phase])
            return False
        return True

    def _abandoned(self, op: _Operation) -> bool:
        """True when the operation's coordinator context is gone — the
        op finished, or the manager crashed since it began (recovery
        owns the outcome now)."""
        return op.finished or self._crashed or op.epoch != self._epoch

    def _enlist(self, op: _Operation, shard: ServiceProvider) -> None:
        if shard.host not in op.participants:
            op.participants[shard.host] = shard
            op.epochs[shard.host] = shard.crashes

    def _crashed_participants(self, op: _Operation) -> List[str]:
        """Participants, and shards whose tap the flip still needs (a
        crash severs it), that crashed since they joined."""
        watched = dict(op.participants)
        watched.update((shard.host, shard) for shard, _ in op.taps)
        return sorted(
            host
            for host, shard in watched.items()
            if shard.endpoint.crashed or shard.crashes != op.epochs.get(host, shard.crashes)
        )

    def _cancel_events(self, op: _Operation) -> None:
        for event in (op.flip_event, op.poll_event, op.watchdog):
            if event is not None:
                event.cancel()
        op.flip_event = op.poll_event = op.watchdog = None

    def _arm_watchdog(self, op: _Operation, deadline: float) -> None:
        op.deadline = deadline
        if op.watchdog is not None:
            op.watchdog.cancel()
        op.watchdog = self.simulator.schedule_at(
            deadline, lambda: self._watchdog_fire(op),
            label="rebalance.watchdog",
        )

    def _watchdog_fire(self, op: _Operation) -> None:
        if self._abandoned(op):
            return
        if self.simulator.now < op.deadline:
            self._arm_watchdog(op, op.deadline)
            return
        self._abort_active(op, "flip deadline lapsed")

    # ------------------------------------------------------------------
    # Abort / resume
    # ------------------------------------------------------------------
    def _abort_active(self, op: _Operation, reason: str) -> None:
        if op.finished:
            return
        op.finished = True
        self._cancel_events(op)
        self._abort(
            op.op_id, op.kind, op.host, [s.host for s in op.sources], reason
        )
        self._busy = False
        self._op = None

    def _abort(
        self,
        op_id: str,
        kind: str,
        host: str,
        source_hosts: List[str],
        reason: str,
    ) -> None:
        """The one abort cleanup, keyed by host so it serves a live
        operation and one known only from the intent log alike.  Aborts
        only happen before the commit record, so the sources still own
        every range: clear every tap (one migration at a time, so all
        are this operation's), detach a half-added shard, clear the
        draining flag."""
        router = self.router
        for shard in router.shards:
            shard.clear_migration_taps()
            if shard.host in source_hosts and not shard.endpoint.crashed:
                shard.note_migration("mig_abort", op_id)
        router.draining.discard(host)
        shard = router.shard(host)
        if kind == "scale_up" and shard is not None:
            if not shard.endpoint.crashed:
                shard.note_migration("mig_abort", op_id)
            router.remove_shard(host)
            self._note_seq(host)
        self._log_abort(op_id, reason)
        self.simulator.metrics.counter("rebalance.aborts").increment()

    def _resume(self, commit: Message) -> None:
        """Resume an operation whose commit record landed: the durable
        transition (installs, tails, drops, residual, ring change)
        applied atomically before any later crash point, so resumption
        re-asserts the idempotent parts — drops, ring ownership,
        learned-route rewrites — and closes the op."""
        for src_host, names in self._decode_sources(commit["srcs"]):
            shard = self.router.shard(src_host)
            if shard is not None and not shard.endpoint.crashed:
                shard.drop_slice(names)
        self._change_ring(str(commit["k"]), str(commit["h"]), {
            str(name): str(dest)
            for name, dest in zip(commit["mvn"], commit["mvh"])
        })
        self._log_done(str(commit["op"]))
        self.simulator.metrics.counter("rebalance.resumes").increment()

    def _change_ring(
        self, kind: str, host: str, moved: Dict[str, str]
    ) -> None:
        """Flip ownership: a scale-up rebuilds the ring over its added
        shard, a drain removes its shard; then the router's learned
        routes follow each moved account (name -> destination host)."""
        router = self.router
        if kind == "scale_up":
            router.rebuild_ring()
        elif router.shard(host) is not None:
            router.remove_shard(host)
        router.complete_migration(moved)

    # ------------------------------------------------------------------
    # Planners: scale-up and drain build a move plan
    # ------------------------------------------------------------------
    def scale_up(self) -> Optional[str]:
        """Add one shard and migrate the account ranges the grown ring
        assigns to it.  Returns the new shard's host, or ``None`` if a
        migration is already in flight, the coordinator is down, or a
        source shard is down (capturing a crashed shard would ship its
        wiped state).  The plan: one move per shard holding accounts
        the grown ring gives the newcomer."""
        if self._busy or self._crashed:
            return None
        router = self.router
        if any(s.endpoint.crashed for s in router.shards):
            return None
        new_host = self._next_host()
        op = self._begin_op("scale_up", new_host, [])
        op.ring = HashRing([s.host for s in router.shards] + [new_host])
        for source in router.shards:
            op.plan(source, sorted(source.accounts))
        op.sources = [move.source for move in op.moves]
        self._copy(op)
        return None if op.finished else new_host

    def drain_shard(self, host: str) -> bool:
        """Begin draining ``host`` for removal.  The shard immediately
        stops admitting new sessions; once its outstanding legs settle
        (or the grace period lapses), the plan moves each of its
        accounts to its owner on the survivor ring, and the flip
        detaches the shard."""
        if self._busy or self._crashed:
            return False
        router = self.router
        if len(router.shards) <= 1:
            raise ValueError("cannot drain the last shard")
        source = router.shard(host)
        if source is None:
            raise ValueError(f"no shard with host {host!r}")
        if source.endpoint.crashed:
            return False
        self._note_seq(host)
        op = self._begin_op("drain", host, [source])
        self._enlist(op, source)
        self._log_prepare(op, "poll")
        source.note_migration("mig_prepare", op.op_id)
        router.draining.add(host)
        deadline = self.simulator.now + self.drain_grace_s
        self._schedule_drain_poll(op, source, deadline)
        self._arm_watchdog(op, deadline + DRAIN_POLL_S + FLIP_GRACE_S)
        return True

    def _schedule_drain_poll(
        self, op: _Operation, source: ServiceProvider, deadline: float
    ) -> None:
        op.poll_event = self.simulator.schedule(
            DRAIN_POLL_S,
            lambda: self._drain_poll(op, source, deadline),
            label="rebalance.drain_poll",
        )

    def _drain_poll(
        self, op: _Operation, source: ServiceProvider, deadline: float
    ) -> None:
        """Wait for the draining shard's outstanding legs to settle (or
        the grace period to lapse), then plan and start the copy."""
        if not self._checkpoint("drain_poll", op):
            return
        router, host = self.router, source.host
        if router.outstanding[host] > 0 and self.simulator.now < deadline:
            self._schedule_drain_poll(op, source, deadline)
            return
        op.poll_event = None
        op.ring = HashRing([s.host for s in router.shards if s.host != host])
        op.plan(source, sorted(source.accounts))
        self._copy(op)

    # ------------------------------------------------------------------
    # The migration path both planners share: copy, then flip
    # ------------------------------------------------------------------
    def _copy(self, op: _Operation) -> None:
        """Log the range-bearing ``mig_prepare``, capture one slice per
        planned move, tap the shards a registration could leave, and
        schedule the flip after the modeled copy window."""
        router = self.router
        self._log_prepare(op, "copy")
        if op.kind == "scale_up":
            # The new shard attaches empty: reachable by host (migration
            # legs, health accounting), owning nothing until the flip.
            for source in op.sources:
                source.note_migration("mig_prepare", op.op_id)
            shard = self.shard_factory(op.host)
            router.add_shard(shard)
            shard.note_migration("mig_prepare", op.op_id)
            self._enlist(op, shard)
        self._enlist_moves(op)
        if not self._checkpoint("capture", op):
            return
        for move in op.moves:
            move.blob = move.source.capture_slice(move.names)
            op.snapshot_bytes += len(encode_message(move.blob))
        # A scale-up taps every old shard, not only its sources: the
        # grown ring may give the new shard a name registered anywhere.
        tapped = op.sources if op.kind == "drain" else router.shards[:-1]
        op.taps = [(shard, shard.start_migration_tap()) for shard in tapped]
        for shard in tapped:
            op.epochs.setdefault(shard.host, shard.crashes)
        if not self._checkpoint("copy", op):
            return
        copy_s = (
            self.transfer_latency_s
            + op.snapshot_bytes / self.bandwidth_bytes_per_s
        )
        op.flip_event = self.simulator.schedule(
            copy_s,
            lambda: self._flip(op),
            label=(
                "rebalance.flip_up" if op.kind == "scale_up"
                else "rebalance.flip_drain"
            ),
        )
        self._arm_watchdog(op, self.simulator.now + copy_s + FLIP_GRACE_S)

    def _enlist_moves(self, op: _Operation) -> None:
        for move in op.moves:
            if move.source not in op.sources:
                op.sources.append(move.source)
            self._enlist(op, move.source)
            self._enlist(op, self.router.shard(move.dest))

    def _flip(self, op: _Operation) -> None:
        """Stop the taps, plan copy-window registrations like any other
        leaving account, then commit and apply the move atomically."""
        if not self._checkpoint("tail_replay", op):
            return
        tails = {}
        # Copy-window rule: an account registered during the copy window
        # rides in the tail of a move planned like any other (its reg
        # record recreates it); a move created here has no slice, and
        # its shard joins the sources.
        for shard, tap in op.taps:
            tails[shard.host] = shard.stop_migration_tap(tap)
            op.plan(shard, [
                RECORD_KINDS["reg"].owner(record)
                for record in tap if record.get("t") == "reg"
            ])
        op.taps.clear()
        self._enlist_moves(op)
        if not self._checkpoint("ring_flip", op):
            return
        tail_bytes = sum(
            len(encode_message(record))
            for source in op.sources for record in tails[source.host]
        )
        # ---- durable transition: write-ahead commit, then apply.  No
        # crash point (hook) sits inside this block; a later crash
        # resumes idempotently from the commit record. ----
        self._log_commit(op)
        for shard in op.participants.values():
            shard.note_migration("mig_commit", op.op_id)
        tail_records = 0
        for move in op.moves:
            dest = op.participants[move.dest]
            if move.blob is not None:
                dest.install_slice(move.blob)
            tail_records += dest.apply_migration_records(
                tails[move.source.host], move.names
            )
            refresh = move.source.capture_business_slice(move.names)
            tail_bytes += len(encode_message(refresh))
            dest.install_business_refresh(refresh)
        for source, (_, names) in zip(op.sources, op.ranges()):
            source.drop_slice(names)
        if op.kind == "drain":
            # The departing shard's business residual — external
            # counterparty balances and the executed-transfer log —
            # ships to a deterministic survivor, or ledger conservation
            # and duplicate-execution accounting would break with the
            # removal.
            residual = op.sources[0].capture_business_residual()
            if any(residual.values()):
                survivor = self.router.shard(op.ring.host_for(op.host))
                survivor.install_residual(residual)
                tail_bytes += len(encode_message(residual))
        moved = {
            name: move.dest for move in op.moves for name in move.names
        }
        self._change_ring(op.kind, op.host, moved)
        # ---- end durable transition ----
        self._phase("dual_read", op)
        if self._abandoned(op):
            return  # recovery resumes straight to mig_done
        self._log_done(op.op_id)
        op.finished = True
        self._cancel_events(op)
        self.reports.append(MigrationReport(
            kind=op.kind, host=op.host, accounts=len(moved),
            snapshot_bytes=op.snapshot_bytes, tail_records=tail_records,
            tail_bytes=tail_bytes, started_at=op.started,
            flipped_at=self.simulator.now,
        ))
        counter = "rebalance.scale_ups" if op.kind == "scale_up" else "rebalance.drains"
        self.simulator.metrics.counter(counter).increment()
        self._busy = False
        self._op = None

    # ------------------------------------------------------------------
    # Failover reconciliation
    # ------------------------------------------------------------------
    def reconcile_failovers(self) -> int:
        """Migrate register-failover overrides back to ring ownership.

        A register that failed over during an outage left the account
        on a neighbor shard plus a router-side override entry; without
        reconciliation those overrides accumulate forever (and a router
        restart would lose them, orphaning the accounts).  Once the
        home shard's breaker is closed again, each override's account
        migrates home through the same slice machinery and the override
        is dropped.  Runs as one atomic event (no copy window), so it
        needs no intent protocol.  Returns the number of accounts
        moved."""
        if self._busy or self._crashed:
            return 0
        router = self.router
        moved: Dict[str, str] = {}
        for account in sorted(router._account_shard):
            override = router._account_shard[account]
            home = router.ring.host_for(account)
            if home == override:
                del router._account_shard[account]
                continue
            source = router.shard(override)
            if account not in source.accounts:
                # The account never materialized (failed registration);
                # the override maps nothing and just goes.
                del router._account_shard[account]
                continue
            if router.breakers[home].state != CircuitBreaker.CLOSED:
                continue
            if home in router.draining:
                continue
            target = router.shard(home)
            if source.endpoint.crashed or target.endpoint.crashed:
                continue
            blob = source.capture_slice([account])
            target.install_slice(blob)
            source.drop_slice([account])
            moved[account] = home
        if moved:
            router.complete_migration(moved)
            self.failovers_reconciled += len(moved)
            self.reports.append(MigrationReport(
                kind="reconcile", host=router.host, accounts=len(moved),
                snapshot_bytes=0, tail_records=0, tail_bytes=0,
                started_at=self.simulator.now,
                flipped_at=self.simulator.now,
            ))
        return len(moved)


class AutoScaler:
    """Periodic control loop over the router's own load signals.

    Pressure = load shedding this tick, or a shard's outstanding
    backlog near the shedding threshold.  Calm = no shedding, shallow
    backlogs, every breaker closed.  ``up_ticks`` consecutive pressure
    ticks trigger a scale-up (to ``max_shards``); ``down_ticks``
    consecutive calm ticks drain the newest shard (to ``min_shards``).
    A cooldown after every action lets the previous migration's effect
    show up in the signals before the controller moves again —
    hysteresis against flapping on the F6 flash-crowd edge.
    """

    def __init__(
        self,
        simulator: Simulator,
        router: ProviderRouter,
        manager: ShardPoolManager,
        *,
        min_shards: int = 1,
        max_shards: int = 4,
        tick_s: float = 1.0,
        up_outstanding: int = 48,
        up_ticks: int = 2,
        down_ticks: int = 20,
        cooldown_s: float = 30.0,
    ) -> None:
        if min_shards < 1 or max_shards < min_shards:
            raise ValueError(
                f"bad shard bounds: [{min_shards}, {max_shards}]"
            )
        if tick_s <= 0:
            raise ValueError(f"tick_s must be > 0: {tick_s}")
        self.simulator = simulator
        self.router = router
        self.manager = manager
        self.min_shards = min_shards
        self.max_shards = max_shards
        self.tick_s = tick_s
        self.up_outstanding = up_outstanding
        self.up_ticks = up_ticks
        self.down_ticks = down_ticks
        self.cooldown_s = cooldown_s
        self.events: List[dict] = []
        self.ticks = 0
        self._last_shed = self._shed()
        self._last_action_at = float("-inf")
        self._up_streak = 0
        self._down_streak = 0

    def _shed(self) -> int:
        return self.simulator.metrics.counters().get("router.shed", 0)

    def start(self) -> None:
        self.simulator.schedule(self.tick_s, self._tick, label="autoscaler.tick")

    def _tick(self) -> None:
        router = self.router
        self.ticks += 1
        self.manager.reconcile_failovers()
        shed = self._shed()
        shed_delta, self._last_shed = shed - self._last_shed, shed
        backlog = max(router.outstanding.values(), default=0)
        open_breakers = sum(
            1 for b in router.breakers.values()
            if b.state != CircuitBreaker.CLOSED
        )
        pressure = (
            shed_delta >= UP_SHED_PER_TICK or backlog >= self.up_outstanding
        )
        # Never scale down mid-outage: a trough with an open breaker is
        # missing capacity, not excess.
        calm = (
            shed_delta == 0
            and backlog <= DOWN_OUTSTANDING
            and open_breakers == 0
        )
        if pressure:
            self._up_streak += 1
            self._down_streak = 0
        elif calm:
            self._down_streak += 1
            self._up_streak = 0
        else:
            self._up_streak = 0
            self._down_streak = 0
        now = self.simulator.now
        ready = (
            not self.manager.busy
            and not self.manager.crashed
            and now - self._last_action_at >= self.cooldown_s
        )
        if (
            ready
            and self._up_streak >= self.up_ticks
            and len(router.shards) < self.max_shards
        ):
            host = self.manager.scale_up()
            if host is not None:
                self.events.append({
                    "at": now, "action": "scale_up", "host": host,
                    "shards": len(router.shards),
                })
                self._last_action_at = now
                self._up_streak = 0
        elif (
            ready
            and self._down_streak >= self.down_ticks
            and len(router.shards) > self.min_shards
        ):
            host = newest_shard(router)
            if host is not None and self.manager.drain_shard(host):
                self.events.append({
                    "at": now, "action": "drain", "host": host,
                    "shards": len(router.shards),
                })
                self._last_action_at = now
                self._down_streak = 0
        self.simulator.schedule(self.tick_s, self._tick, label="autoscaler.tick")
