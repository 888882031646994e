"""Parallel experiment-matrix runner.

The report's experiment matrix (T1–T4, F1–F6, F3-S, R1/R2, A1/A2, E1–E4)
is a set of *independent deterministic simulations*: every cell builds
its own :class:`~repro.sim.Simulator` from its own seed and never
touches another cell's state.  Serial execution therefore wastes
(cores − 1)/cores of the machine.  This module fans the matrix across a
``multiprocessing`` pool and merges the per-cell results back in a
canonical order, so the emitted results are **byte-identical** to a
serial run — parallelism changes wall-clock only (DESIGN.md
"determinism contract").

Each cell carries a stable ID (``t1`` … ``e2``); per-cell and total
wall seconds are recorded alongside — never inside — the virtual-time
results, and can be written as a ``BENCH_wall.json`` trajectory
artifact for regression tracking (:func:`write_wall_artifact`).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.experiments import (
    a1_defense_ablation,
    e4_elastic_rows,
    f3s_sharded_scaling,
    f6_open_loop_rows,
    fig1_latency_vs_pal_size,
    fig2_server_throughput,
    fig3_captcha_comparison,
    fig4_amortization,
    fig5_noncedb_scalability,
    r1_loss_robustness,
    r2_crash_availability,
    r3_chaos_sweep,
    table1_tpm_microbench,
    table2_session_breakdown,
    table3_end_to_end,
    table4_security_matrix,
)
from repro.bench.experiments.amortization import (
    crossover_k,
    measure_per_vendor_costs,
)
from repro.bench.experiments.extensions import (
    a2_latency_hiding,
    e1_attention_sweep,
    e3_batch_amortization,
)
from repro.bench.experiments.session_breakdown import setup_phase_rows
from repro.bench.fleet import e2_fleet_rows
from repro.crypto.backend import rsa_op_counts

#: Vendors kept in smoke mode — the report's verdict arithmetic compares
#: broadcom against infineon, so both must always run.
SMOKE_VENDORS = ("infineon", "broadcom")

#: One seed shared by every smoke experiment.  The TPM's key hierarchy
#: is derived from the world seed alone (not the vendor), so same-seed
#: worlds replay RSA keygen from `repro.crypto.rsa`'s state cache —
#: the dominant setup cost is paid once per worker process.
SMOKE_SEED = 7


def _amortization_cell(
    vendors: Sequence[str],
    measure_kwargs: Dict[str, object],
    f4_kwargs: Dict[str, object],
    crossover_kwargs: Dict[str, object],
) -> Dict[str, object]:
    """F4 + crossover share one per-vendor cost measurement, so they run
    as a single cell (re-measuring per key would double the sim work;
    results would be identical either way — same seed, same args)."""
    costs = {v: measure_per_vendor_costs(v, **measure_kwargs) for v in vendors}
    return {
        "f4": fig4_amortization(costs_by_vendor=costs, **f4_kwargs),
        "crossovers": {
            v: crossover_k(v, costs=costs[v], **crossover_kwargs)
            for v in vendors
        },
    }


@dataclass(frozen=True)
class Cell:
    """One independent experiment: a stable ID, a module-level function
    (picklable by reference) and its deterministic kwargs."""

    cell_id: str
    keys: Tuple[str, ...]
    fn: Callable
    kwargs: Dict[str, object] = field(default_factory=dict)


def build_cells(smoke: bool = False) -> List[Cell]:
    """The full experiment matrix in canonical (report) order.

    Cell parameters mirror the historical serial
    ``repro.bench.report.run_experiments`` exactly, so results merged
    from these cells are byte-identical to the pre-runner pipeline.
    """
    if smoke:
        return [
            Cell("t1", ("t1",), table1_tpm_microbench,
                 dict(vendors=SMOKE_VENDORS, max_samples=5, seed=SMOKE_SEED)),
            Cell("t2", ("t2",), table2_session_breakdown,
                 dict(vendors=SMOKE_VENDORS, repetitions=2, seed=SMOKE_SEED)),
            Cell("t2b", ("t2b",), setup_phase_rows,
                 dict(vendors=SMOKE_VENDORS, seed=SMOKE_SEED)),
            Cell("t3", ("t3",), table3_end_to_end,
                 dict(vendors=SMOKE_VENDORS, repetitions=2, seed=SMOKE_SEED)),
            Cell("t4", ("t4",), table4_security_matrix, dict(seed=SMOKE_SEED)),
            Cell("f1", ("f1",), fig1_latency_vs_pal_size,
                 dict(sizes=(4 * 1024, 256 * 1024), seed=SMOKE_SEED)),
            Cell("f2", ("f2",), fig2_server_throughput,
                 dict(offered_loads=(100, 800), workers_options=(1,),
                      duration=1.5, seed=SMOKE_SEED)),
            Cell("f3", ("f3",), fig3_captcha_comparison,
                 dict(attempts=60, repetitions=2, seed=SMOKE_SEED)),
            Cell("f3s", ("f3s",), f3s_sharded_scaling,
                 dict(shard_counts=(1, 2, 4), offered=350, duration=1.2,
                      accounts=12, seed=SMOKE_SEED)),
            Cell("f4", ("f4", "crossovers"), _amortization_cell,
                 dict(vendors=SMOKE_VENDORS,
                      measure_kwargs=dict(seed=SMOKE_SEED),
                      f4_kwargs=dict(k_values=(1, 2, 5, 10, 20)),
                      crossover_kwargs=dict(k_max=100))),
            # The acceptance bar for CI is a full >=10^4-user open-loop
            # day; the 10^5 row runs in the nightly full matrix.
            Cell("f6", ("f6",), f6_open_loop_rows,
                 dict(populations=(1_000, 10_000), seed=SMOKE_SEED)),
            # E4 smoke keeps the sizing contract of the full run — the
            # spike overruns one shard (~265 sessions/s) and two absorb
            # it — on a shorter day so the cell stays CI-cheap.
            Cell("e4", ("e4",), e4_elastic_rows,
                 dict(users=6_000, day_seconds=600.0, spike_start=300.0,
                      spike_duration_s=10.0, spike_multiplier=60.0,
                      roundtrip_accounts=6, seed=SMOKE_SEED)),
            Cell("f5", ("f5",), fig5_noncedb_scalability,
                 dict(populations=(500, 2_000), seed=SMOKE_SEED)),
            Cell("r1", ("r1",), r1_loss_robustness,
                 dict(loss_rates=(0.0, 0.2), offered=100, workers=2,
                      duration=1.5, seed=SMOKE_SEED)),
            Cell("r2", ("r2",), r2_crash_availability,
                 dict(crash_rates=(0.0, 0.7), recovery_s=0.35, offered=120.0,
                      duration=1.2, accounts=8, seed=SMOKE_SEED)),
            # R3 smoke keeps the full crash-anywhere matrix (it is the
            # acceptance artifact) on a shortened chaos day.
            Cell("r3", ("r3",), r3_chaos_sweep,
                 dict(crash_rates=(0.0, 0.1), users=800, day_seconds=180.0,
                      shards=2, recovery_s=1.5, seed=SMOKE_SEED,
                      matrix_accounts=3)),
            Cell("a1", ("a1",), a1_defense_ablation, dict(seed=SMOKE_SEED)),
            Cell("a2", ("a2",), a2_latency_hiding,
                 dict(repetitions=1, seed=SMOKE_SEED)),
            Cell("e1", ("e1",), e1_attention_sweep,
                 dict(attention_levels=(0.0, 0.5, 1.0), transactions=3,
                      seed=SMOKE_SEED)),
            Cell("e3", ("e3",), e3_batch_amortization,
                 dict(batch_sizes=(1, 8), seed=SMOKE_SEED)),
            Cell("e2", ("e2",), e2_fleet_rows,
                 dict(clients=4, infected=1, seed=SMOKE_SEED)),
        ]
    return [
        Cell("t1", ("t1",), table1_tpm_microbench),
        Cell("t2", ("t2",), table2_session_breakdown),
        Cell("t2b", ("t2b",), setup_phase_rows),
        Cell("t3", ("t3",), table3_end_to_end),
        Cell("t4", ("t4",), table4_security_matrix),
        Cell("f1", ("f1",), fig1_latency_vs_pal_size),
        Cell("f2", ("f2",), fig2_server_throughput),
        Cell("f3", ("f3",), fig3_captcha_comparison),
        Cell("f3s", ("f3s",), f3s_sharded_scaling),
        Cell("f4", ("f4", "crossovers"), _amortization_cell,
             dict(vendors=("infineon", "broadcom"),
                  measure_kwargs={}, f4_kwargs={}, crossover_kwargs={})),
        Cell("f6", ("f6",), f6_open_loop_rows),
        Cell("e4", ("e4",), e4_elastic_rows),
        Cell("f5", ("f5",), fig5_noncedb_scalability),
        Cell("r1", ("r1",), r1_loss_robustness),
        Cell("r2", ("r2",), r2_crash_availability),
        Cell("r3", ("r3",), r3_chaos_sweep),
        Cell("a1", ("a1",), a1_defense_ablation),
        Cell("a2", ("a2",), a2_latency_hiding),
        Cell("e1", ("e1",), e1_attention_sweep),
        Cell("e3", ("e3",), e3_batch_amortization),
        Cell("e2", ("e2",), e2_fleet_rows),
    ]


@dataclass
class MatrixResult:
    """Merged results plus the wall-clock bookkeeping around them."""

    results: Dict[str, object]
    cell_wall_s: Dict[str, float]
    total_wall_s: float
    workers: int
    smoke: bool
    #: Per-cell RSA operation counts (modexp / sign_crt / verify) from
    #: the backend's op counters — a pure function of the simulated
    #: work, identical across worker placements.
    cell_rsa_ops: Dict[str, Dict[str, int]] = field(default_factory=dict)


def _run_cell(cell: Cell) -> Tuple[str, object, float, Dict[str, int]]:
    before = rsa_op_counts()
    started = time.perf_counter()
    value = cell.fn(**cell.kwargs)
    wall_s = time.perf_counter() - started
    after = rsa_op_counts()
    ops = {op: after[op] - before[op] for op in after}
    return cell.cell_id, value, wall_s, ops


def _run_cell_profiled(
    cell: Cell, top_n: int
) -> Tuple[str, object, float, Dict[str, int]]:
    """Run one cell under cProfile and print its top-N hotspots.

    In-process only (``workers=1``): profiling a pool worker would
    scatter the output across processes and perturb every cell sharing
    the worker.  The profile itself goes to stdout — it is a
    diagnostic, never part of any artifact.
    """
    import cProfile
    import io
    import pstats

    before = rsa_op_counts()
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        value = cell.fn(**cell.kwargs)
    finally:
        profiler.disable()
    wall_s = time.perf_counter() - started
    after = rsa_op_counts()
    ops = {op: after[op] - before[op] for op in after}
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top_n)
    print(f"--- profile: cell {cell.cell_id} "
          f"({wall_s:.2f}s wall, top {top_n} by cumulative) ---")
    print(stream.getvalue())
    return cell.cell_id, value, wall_s, ops


def _merge(cells: Sequence[Cell], by_id: Dict[str, object]) -> Dict[str, object]:
    """Ordered merge: result keys appear exactly as the serial pipeline
    emitted them, independent of worker completion order."""
    results: Dict[str, object] = {}
    for cell in cells:
        value = by_id[cell.cell_id]
        if len(cell.keys) == 1:
            results[cell.keys[0]] = value
        else:
            for key in cell.keys:
                results[key] = value[key]
    return results


def default_workers() -> int:
    """Pool size when the caller does not choose: one worker per core,
    capped at 4 (the matrix has limited long-pole parallelism beyond
    that — T2/T3/F3-S dominate the critical path)."""
    return max(1, min(4, os.cpu_count() or 1))


def run_cells(
    cells: Sequence[Cell],
    workers: int = 1,
    profile: Optional[int] = None,
) -> Tuple[Dict[str, object], Dict[str, float], Dict[str, Dict[str, int]]]:
    """Run ``cells``; return ``(results, per-cell wall_s, per-cell RSA ops)``.

    ``workers=1`` runs in-process (no pool, no pickling) — the
    reference arm for determinism tests.  ``profile`` (an int) dumps
    each cell's top-N cProfile hotspots; it requires the in-process
    arm.
    """
    if profile is not None and workers > 1:
        raise ValueError("--profile requires workers=1 (in-process run)")
    if workers <= 1:
        if profile is not None:
            outcomes = [_run_cell_profiled(c, profile) for c in cells]
        else:
            outcomes = [_run_cell(cell) for cell in cells]
    else:
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
        ) as pool:
            outcomes = list(pool.map(_run_cell, cells))
    by_id = {cell_id: value for cell_id, value, _, _ in outcomes}
    wall = {cell_id: wall_s for cell_id, _, wall_s, _ in outcomes}
    rsa_ops = {cell_id: ops for cell_id, _, _, ops in outcomes}
    return _merge(cells, by_id), wall, rsa_ops


def run_matrix(
    smoke: bool = False,
    workers: int = 1,
    profile: Optional[int] = None,
) -> MatrixResult:
    """Run the whole experiment matrix; see :func:`run_cells`."""
    started = time.perf_counter()
    results, wall, rsa_ops = run_cells(
        build_cells(smoke), workers=workers, profile=profile,
    )
    return MatrixResult(
        results=results,
        cell_wall_s=wall,
        total_wall_s=time.perf_counter() - started,
        workers=workers,
        smoke=smoke,
        cell_rsa_ops=rsa_ops,
    )


#: Result fields measured on the real clock: the F3-S memo-ablation
#: wall time and F5's per-op microbenchmark costs.  Everything else in
#: the matrix is virtual time — a pure function of seed + schedule.
WALL_KEYS = frozenset(
    {
        "wall_s",
        "issue_us_per_op",
        "consume_us_per_op",
        "evict_ms_total",
        # F6's headline is real time by definition: simulated users per
        # second of wall clock.
        "users_per_wall_s",
        # E4's round-trip migration is wall-timed separately from its
        # virtual migration seconds (which are deterministic and stay).
        "rebalance_wall_s",
    }
)


def strip_wall(value):
    """Drop every real-clock field (:data:`WALL_KEYS`), recursively.

    Wall-clock is the one measurement that is *not* a function of seed +
    schedule; stripping it makes the emitted results JSON byte-identical
    across worker counts and machines.
    """
    if isinstance(value, dict):
        return {
            key: strip_wall(inner)
            for key, inner in value.items()
            if key not in WALL_KEYS
        }
    if isinstance(value, (list, tuple)):
        return [strip_wall(inner) for inner in value]
    return value


def wall_record(matrix: MatrixResult) -> Dict[str, object]:
    """The per-run entry written into ``BENCH_wall.json``."""
    record: Dict[str, object] = {
        "workers": matrix.workers,
        "cells": {k: round(v, 4) for k, v in matrix.cell_wall_s.items()},
        "total_wall_s": round(matrix.total_wall_s, 4),
    }
    f6_rows = matrix.results.get("f6")
    if f6_rows:
        # Headline kernel-throughput number: the best simulated-users
        # per wall-second across the F6 population sweep.
        record["users_per_wall_s"] = round(
            max(row["users_per_wall_s"] for row in f6_rows), 1
        )
    if matrix.cell_rsa_ops:
        record["rsa_ops"] = {
            cell_id: dict(ops)
            for cell_id, ops in matrix.cell_rsa_ops.items()
            if any(ops.values())
        }
    r3 = matrix.results.get("r3")
    if r3:
        # Chaos provenance: the exact fault plan of every faulted row
        # plus the crash-anywhere verdict — a red nightly sweep is
        # reproducible from this artifact alone.
        record["chaos"] = {
            "fault_plans": r3["fault_plans"],
            "matrix_ok": r3["crash_matrix"]["all_ok"],
            "matrix_cells": len(r3["crash_matrix"]["cells"]),
        }
    e4 = matrix.results.get("e4")
    if e4:
        # Rebalance cost trajectory: how many bytes a scale-up + drain
        # round trip ships and how long it takes, virtual and wall.
        roundtrip = e4["roundtrip"]
        record["rebalance"] = {
            "bytes": int(roundtrip["rebalance_bytes"]),
            "virtual_s": roundtrip["rebalance_virtual_s"],
            "wall_s": round(roundtrip["rebalance_wall_s"], 4),
        }
    return record


def write_wall_artifact(path: str, run: MatrixResult) -> Dict[str, object]:
    """Write the wall-clock trajectory artifact; returns the payload."""
    payload: Dict[str, object] = {
        "schema": "bench-wall/1",
        "smoke": run.smoke,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "run": wall_record(run),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload
