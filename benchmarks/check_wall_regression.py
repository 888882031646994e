"""CI perf-regression gate on the BENCH_wall.json trajectory.

The repository commits a wall-clock trajectory (``BENCH_wall.json``,
written by ``python -m repro.bench.report --wall``) so the bench-smoke
job can answer a question no unit test can: *did this PR make the
matrix slower?*  This script compares a freshly measured smoke artifact
against the committed one and exits non-zero when any cell — or the
total — regressed beyond tolerance.

Design points:

* **Tolerance is wide (default +30%)** because shared CI runners are
  noisy; the gate exists to catch algorithmic regressions (a cell going
  2x slower), not scheduler jitter.
* **Cells are compared by ID**; cells present in only one artifact are
  reported but never fail the gate, so adding or retiring an experiment
  does not require lock-step artifact updates.
* **Small cells are exempt** (< ``--min-seconds``, default 1.0 s): at
  that scale warm-up and scheduler jitter dominate and ratios are
  meaningless — a 0.7 s cell drifts ±40% run-to-run on a loaded
  1-core runner.  Small cells still count toward the gated
  ``total_wall_s``, so a real across-the-board slowdown is caught.
* ``users_per_wall_s`` (the F6 headline, higher = better) gates in the
  opposite direction when both artifacts record it.
* ``rsa_micro`` gates the RSAX **speedup ratios** (pure-arm µs /
  accel-arm µs per op), not the raw microseconds: both sides of the
  ratio scale with the host, so the ratio travels across machines where
  absolute timings do not.  Higher = better, same tolerance.

Usage::

    python benchmarks/check_wall_regression.py \\
        --fresh BENCH_wall_fresh.json --committed BENCH_wall.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional


def load_artifact(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    schema = payload.get("schema", "")
    if not str(schema).startswith("bench-wall/"):
        raise ValueError(f"{path}: not a bench-wall artifact (schema={schema!r})")
    if "run" not in payload:
        raise ValueError(f"{path}: artifact has no 'run' record")
    return payload


def compare(
    fresh: Dict,
    committed: Dict,
    tolerance: float = 0.30,
    min_seconds: float = 1.0,
) -> List[str]:
    """Return a list of regression messages (empty = gate passes)."""
    problems: List[str] = []
    fresh_run = fresh["run"]
    committed_run = committed["run"]
    fresh_cells: Dict[str, float] = fresh_run.get("cells", {})
    committed_cells: Dict[str, float] = committed_run.get("cells", {})

    only_fresh = sorted(set(fresh_cells) - set(committed_cells))
    only_committed = sorted(set(committed_cells) - set(fresh_cells))
    if only_fresh:
        print(f"note: cells only in fresh artifact (not gated): {only_fresh}")
    if only_committed:
        print(f"note: cells only in committed artifact (not gated): "
              f"{only_committed}")

    for cell_id in sorted(set(fresh_cells) & set(committed_cells)):
        reference = committed_cells[cell_id]
        measured = fresh_cells[cell_id]
        if reference < min_seconds:
            continue
        limit = reference * (1.0 + tolerance)
        if measured > limit:
            problems.append(
                f"cell {cell_id!r}: {measured:.3f}s vs committed "
                f"{reference:.3f}s (limit {limit:.3f}s, "
                f"+{100 * (measured / reference - 1):.0f}%)"
            )

    reference_total = committed_run.get("total_wall_s", 0.0)
    measured_total = fresh_run.get("total_wall_s", 0.0)
    if reference_total >= min_seconds:
        limit = reference_total * (1.0 + tolerance)
        if measured_total > limit:
            problems.append(
                f"total_wall_s: {measured_total:.3f}s vs committed "
                f"{reference_total:.3f}s (limit {limit:.3f}s)"
            )

    # Higher is better for the F6 headline: gate the other way round.
    reference_upws = committed_run.get("users_per_wall_s")
    measured_upws = fresh_run.get("users_per_wall_s")
    if reference_upws and measured_upws:
        floor = reference_upws * (1.0 - tolerance)
        if measured_upws < floor:
            problems.append(
                f"users_per_wall_s: {measured_upws:.1f} vs committed "
                f"{reference_upws:.1f} (floor {floor:.1f}, "
                f"-{100 * (1 - measured_upws / reference_upws):.0f}%)"
            )

    # RSA microbench: gate the machine-relative speedup ratio per op.
    reference_micro = committed_run.get("rsa_micro", {})
    measured_micro = fresh_run.get("rsa_micro", {})
    for key in sorted(set(reference_micro) & set(measured_micro)):
        reference_speedup = reference_micro[key].get("speedup")
        measured_speedup = measured_micro[key].get("speedup")
        if not reference_speedup or not measured_speedup:
            continue
        floor = reference_speedup * (1.0 - tolerance)
        if measured_speedup < floor:
            problems.append(
                f"rsa_micro {key!r} speedup: {measured_speedup:.2f}x vs "
                f"committed {reference_speedup:.2f}x (floor {floor:.2f}x)"
            )

    # Rebalance round trip (E4): the wall seconds gate like a cell once
    # both artifacts record them; an artifact that has the record on
    # only one side (first landing, or retirement) notes and never
    # fails, same contract as unmatched cells.  Bytes and virtual
    # seconds are deterministic — a drift there is a *behaviour*
    # change, reported for the reviewer but gated by the byte-identical
    # results artifact, not this wall gate.
    reference_rebalance = committed_run.get("rebalance")
    measured_rebalance = fresh_run.get("rebalance")
    if (reference_rebalance is None) != (measured_rebalance is None):
        side = "fresh" if measured_rebalance is not None else "committed"
        print(f"note: rebalance record only in {side} artifact (not gated)")
    elif reference_rebalance and measured_rebalance:
        reference_wall = reference_rebalance.get("wall_s", 0.0)
        measured_wall = measured_rebalance.get("wall_s", 0.0)
        if reference_wall >= min_seconds:
            limit = reference_wall * (1.0 + tolerance)
            if measured_wall > limit:
                problems.append(
                    f"rebalance wall_s: {measured_wall:.3f}s vs committed "
                    f"{reference_wall:.3f}s (limit {limit:.3f}s)"
                )
        for key in ("bytes", "virtual_s"):
            if reference_rebalance.get(key) != measured_rebalance.get(key):
                print(
                    f"note: rebalance {key} changed "
                    f"{reference_rebalance.get(key)} -> "
                    f"{measured_rebalance.get(key)} (deterministic field, "
                    f"not wall-gated)"
                )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/check_wall_regression.py",
        description="Fail when a fresh BENCH_wall.json regressed vs the "
        "committed trajectory.",
    )
    parser.add_argument("--fresh", required=True,
                        help="freshly measured artifact")
    parser.add_argument("--committed", required=True,
                        help="committed trajectory artifact")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed slowdown fraction (default 0.30)")
    parser.add_argument("--min-seconds", type=float, default=1.0,
                        help="skip cells whose committed time is below "
                        "this (default 1.0s: warm-up/jitter noise; "
                        "small cells still gate via total_wall_s)")
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        parser.error("--tolerance must be >= 0")

    fresh = load_artifact(args.fresh)
    committed = load_artifact(args.committed)
    if bool(fresh.get("smoke")) != bool(committed.get("smoke")):
        print(
            f"error: smoke mismatch (fresh smoke={fresh.get('smoke')}, "
            f"committed smoke={committed.get('smoke')}) — not comparable",
            file=sys.stderr,
        )
        return 2

    problems = compare(fresh, committed, tolerance=args.tolerance,
                       min_seconds=args.min_seconds)
    if problems:
        print("WALL-CLOCK REGRESSION:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(
        f"wall trajectory OK: total {fresh['run'].get('total_wall_s')}s vs "
        f"committed {committed['run'].get('total_wall_s')}s "
        f"(tolerance +{100 * args.tolerance:.0f}%)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
