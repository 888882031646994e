"""Compare two sets of benchmark results, metric by metric.

    python3 perf/compare.py SET_A SET_B [--save perf/baseline.json]

A set is a directory of result files written by ``perf/bench.py
--out`` (or a single such file), typically one file per seed.  For
every workload × metric the table gives each set's sample count,
median and quartiles (``statistics.quantiles(values, n=4)``).  An
end-to-end metric gets a verdict against its bound in
``BENCHMARK.json``:

* ``within-bound`` — B's median is not worse than A's by more than the
  bound, and in each set the quartile distance ÷ median (the spread)
  is within the bound (``setup_s`` is exempt from the spread test);
* ``outside-bound`` — otherwise.

Per-layer metrics have no bound and get no verdict.  ``--save`` writes
both sets' statistics, the per-layer medians and the outputs digests of
the reference seeds as the recorded baseline.  The exit code is 1 when
any verdict is ``outside-bound``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}

#: Seeds whose outputs digests the baseline records (the default seed
#: and a held-out one).
REFERENCE_SEEDS = (7, 167)

#: The spread test exempts set-up time; its bound covers medians only.
SPREAD_EXEMPT = ("setup_s",)


def load_set(path: Path) -> List[dict]:
    """Every workload result in a result file or directory of them."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results: List[dict] = []
    for file in files:
        results.extend(json.loads(file.read_text()))
    return results


def values_by_metric(results: List[dict]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, one per result."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for result in results:
        metrics = table.setdefault(result["workload"], {})
        for name, metric in result["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return table


def describe(values: List[float]) -> dict:
    """n, median and quartiles; spread = (q3 − q1) ÷ median."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
    }


def verdict(name: str, a: dict, b: dict) -> dict:
    """B against A for one end-to-end metric."""
    metric = END_TO_END[name]
    bound = metric["bound"]
    if a["median"]:
        change = (b["median"] - a["median"]) / abs(a["median"])
    else:
        change = 0.0 if b["median"] == a["median"] else float("inf")
    worse = change if metric["better"] == "lower" else -change
    steady = name in SPREAD_EXEMPT or (
        a["spread"] <= bound and b["spread"] <= bound
    )
    return {
        "change": change,
        "bound": bound,
        "verdict": "within-bound" if worse <= bound and steady
        else "outside-bound",
    }


def compare(set_a: List[dict], set_b: List[dict]) -> dict:
    table_a, table_b = values_by_metric(set_a), values_by_metric(set_b)
    summary: Dict[str, dict] = {"end_to_end": {}, "per_layer": {}}
    for workload in sorted(set(table_a) & set(table_b)):
        for name in sorted(set(table_a[workload]) & set(table_b[workload])):
            a = describe(table_a[workload][name])
            b = describe(table_b[workload][name])
            row = {"a": a, "b": b}
            if name in END_TO_END:
                row.update(verdict(name, a, b))
                kind = "end_to_end"
            else:
                kind = "per_layer"
            summary[kind].setdefault(workload, {})[name] = row
    return summary


def reference_digests(results: List[dict]) -> Dict[str, Dict[str, str]]:
    digests: Dict[str, Dict[str, str]] = {}
    for result in results:
        if result["seed"] in REFERENCE_SEEDS:
            digests.setdefault(result["workload"], {})[
                str(result["seed"])
            ] = result["digest"]
    return digests


def print_table(summary: dict) -> None:
    header = (
        f"{'workload':<17} {'metric':<34} {'n':>3} {'A median':>12} "
        f"{'A q1':>12} {'A q3':>12} {'n':>3} {'B median':>12} {'B q1':>12} "
        f"{'B q3':>12} {'change':>8} {'bound':>6}  verdict"
    )
    print(header)
    for kind in ("end_to_end", "per_layer"):
        for workload, rows in summary[kind].items():
            for name, row in rows.items():
                a, b = row["a"], row["b"]
                tail = (
                    f"{row['change']:>+8.2%} {row['bound']:>6.2f}  "
                    f"{row['verdict']}" if "verdict" in row
                    else f"{'':>8} {'':>6}  -"
                )
                print(
                    f"{workload:<17} {name:<34} {a['n']:>3} "
                    f"{a['median']:>12.6g} {a['q1']:>12.6g} {a['q3']:>12.6g} "
                    f"{b['n']:>3} {b['median']:>12.6g} {b['q1']:>12.6g} "
                    f"{b['q3']:>12.6g} {tail}"
                )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("set_a", type=Path)
    parser.add_argument("set_b", type=Path)
    parser.add_argument(
        "--save", type=Path, help="write the comparison as the baseline"
    )
    args = parser.parse_args(argv)
    set_a, set_b = load_set(args.set_a), load_set(args.set_b)
    summary = compare(set_a, set_b)
    print_table(summary)
    outside = [
        f"{workload} {name}"
        for workload, rows in summary["end_to_end"].items()
        for name, row in rows.items()
        if row["verdict"] == "outside-bound"
    ]
    print(f"# {len(outside)} outside-bound" + (": " + ", ".join(outside)
                                               if outside else ""))
    if args.save:
        summary["reference_digests"] = reference_digests(set_a + set_b)
        args.save.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
