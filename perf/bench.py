"""The benchmark: isolated, repeated rounds of four workloads.

    python3 perf/bench.py [--workload W] [--seed N] [--seconds S] [--trace [0|1]]

Each round of a workload runs in a fresh single-threaded interpreter
(``perf/worker.py``), one round at a time, after one discarded warm-up
round at the tiny size.  Rounds repeat until their timed phases add up
to ``--seconds`` (default: ``run_seconds`` in ``BENCHMARK.json``), and
every host-time metric is the median over rounds of the time at
nominal machine speed (see ``perf/worker.py``).  Every round of one
seed does identical simulated work, so all rounds must produce the same
outputs digest.

Without ``--trace`` the end-to-end metrics are printed; with it, rounds
alternate untraced and traced and the per-layer metrics are printed.
Each metric prints as ``workload metric value unit``; lines starting
with ``#`` carry checks and sample counts.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``, and the full result is written to ``--out``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path.insert(0, str(PERF))

from layers import LAYERS, PROVIDER_METHODS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
BASELINE = PERF / "baseline.json"

#: Untraced rounds per run at least, so ``setup_s`` is a median of
#: several set-ups even when one round fills ``--seconds``.
MIN_ROUNDS = 3
#: A run must end within 180 s: no round starts after ``DEADLINE_S``
#: and none runs past ``LIMIT_S``.
DEADLINE_S = 140.0
LIMIT_S = 175.0


class BenchError(RuntimeError):
    """A round could not run or returned no result."""


def spawn_round(
    workload: str, seed: int, traced: bool = False, size: str = "full",
    timeout: float = LIMIT_S,
) -> dict:
    """One round in a fresh interpreter; returns the worker's result."""
    command = [
        sys.executable, str(PERF / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
    ]
    if traced:
        command.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} round timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} round failed (exit {done.returncode}):\n"
            + done.stderr[-2000:]
        )
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Warm up, then run rounds until ``seconds`` of timed phase; with
    ``traced``, each untraced round is followed by a traced one."""
    began = time.monotonic()
    spawn_round(workload, seed, size="tiny")
    rounds: Dict[str, List[dict]] = {"plain": [], "traced": []}
    kinds = ("plain", "traced") if traced else ("plain",)
    timed = 0.0
    while timed < seconds or (not traced and len(rounds["plain"]) < MIN_ROUNDS):
        if rounds["plain"] and time.monotonic() - began > DEADLINE_S:
            break
        for kind in kinds:
            result = spawn_round(
                workload, seed, traced=kind == "traced",
                timeout=LIMIT_S - (time.monotonic() - began),
            )
            rounds[kind].append(result)
            timed += result["run_s"]
    return rounds


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(plain: List[dict]) -> Dict[str, float]:
    """Host times at nominal machine speed (see ``perf/worker.py``),
    medians over rounds; virtual metrics from the first round (every
    round of one seed has the same)."""
    first = plain[0]
    return {
        "confirms_per_wall_s": first["confirms"]
        / statistics.median(r["run_nominal_s"] for r in plain),
        "setup_s": statistics.median(r["setup_nominal_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "sim_session_p50_ms": first["sim_session_p50_ms"],
        "sim_goodput_cps": first["sim_goodput_cps"],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(plain: List[dict], traced: List[dict]) -> Dict[str, float]:
    """Per-layer metrics: self-time shares of the traced timed phase,
    summed over traced rounds, plus call counts and program counters
    (identical in every round of one seed)."""
    wall = sum(r["run_s"] for r in traced)
    self_s: Dict[str, float] = {}
    for round_ in traced:
        for name, value in round_["trace"]["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
    top_level_s = sum(r["trace"]["top_level_s"] for r in traced)
    trace = traced[0]["trace"]
    calls, tallies = trace["calls"], trace["tallies"]
    counters = traced[0]["counters"]

    def share(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names) / wall

    def layer(name: str) -> float:
        return share(*LAYERS[name])

    def count(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    router_calls = count("router.handler")
    verifier_calls = count("verifier.verify")
    cache_lookups = counters["verifier.cache_hits"] + counters[
        "verifier.cache_misses"
    ]
    metrics = {
        "trace.wall_s": statistics.median(r["run_s"] for r in traced),
        "trace.overhead_ratio": statistics.median(r["run_s"] for r in traced)
        / statistics.median(r["run_s"] for r in plain),
        "trace.unattributed_share": 1.0 - top_level_s / wall,
        "loadgen.plan_setup_share": statistics.median(
            r["plan_s"] / r["setup_s"] for r in plain
        ),
        "loadgen.plan_candidates": trace["plan_candidates"],
        "loadgen.plan_accept_ratio": _ratio(
            trace["plan_arrivals"], trace["plan_candidates"]
        ),
        "loadgen.sign.calls": count("loadgen.sign"),
        "loadgen.sign.self_share": share("loadgen.sign"),
        "loadgen.callback.self_share": share("loadgen.callback"),
        "loadgen.self_share": layer("loadgen"),
        "sim.events": counters["sim.events"],
        "sim.self_share": layer("sim"),
        "rpc.submit.calls": count("rpc.submit"),
        "rpc.call_sync.calls": count("rpc.call_sync"),
        "rpc.self_share": layer("rpc"),
        "rpc.retransmits": counters["rpc.retransmits"],
        "rpc.dead_letters": counters.get("rpc.dead_letters", 0),
        "rpc.queue_peak": counters["rpc.queue_peak"],
        "codec.encode.calls": count("codec.encode"),
        "codec.decode.calls": count("codec.decode"),
        "codec.bytes": tallies.get("codec.encode", 0)
        + tallies.get("codec.decode", 0),
        "codec.self_share": layer("codec"),
        "network.send.calls": count("network.send"),
        "network.transfer.calls": count("network.transfer"),
        "network.self_share": layer("network"),
        "router.calls": router_calls,
        "router.self_share": layer("router"),
        "router.shed": counters.get("router.shed", 0),
        "router.shed_ratio": _ratio(
            counters.get("router.shed", 0), router_calls
        ),
        "router.dual_read_redirects": counters.get(
            "router.dual_read_redirects", 0
        ),
        "provider.calls": count(*LAYERS["provider"]),
        "provider.self_share": layer("provider"),
        "provider.denials": counters["provider.denials"],
        "verifier.calls": verifier_calls,
        "verifier.self_share": layer("verifier"),
        "verifier.reject_ratio": _ratio(
            tallies.get("verifier.verify", 0), verifier_calls
        ),
        "verifier.cache_hit_ratio": _ratio(
            counters["verifier.cache_hits"], cache_lookups
        ),
        "crypto.rsa_sign.calls": count("crypto.rsa_sign"),
        "crypto.rsa_verify.calls": count("crypto.rsa_verify"),
        "crypto.modexp.calls": count("crypto.modexp"),
        "crypto.rsa.self_share": share(
            "crypto.modexp", "crypto.rsa_sign", "crypto.rsa_verify"
        ),
        "crypto.hash.calls": count("crypto.hash"),
        "crypto.hash.self_share": share("crypto.hash"),
        "noncedb.issue.calls": count("noncedb.issue"),
        "noncedb.consume.calls": count("noncedb.consume"),
        "noncedb.self_share": layer("noncedb"),
        "journal.append.calls": count("journal.append"),
        "journal.append.self_share": share("journal.append"),
        "journal.snapshot.calls": count("journal.snapshot"),
        "journal.snapshot.self_share": share(
            "journal.snapshot", "journal.capture"
        ),
        "journal.restore.calls": count("journal.restore"),
        "journal.restore.self_share": share("journal.restore"),
        "journal.bytes": tallies.get("journal.append", 0)
        + tallies.get("journal.snapshot", 0),
        "journal.self_share": layer("journal"),
        "rebalance.migrations": counters.get("rebalance.migrations", 0),
        "rebalance.accounts_moved": counters.get("rebalance.accounts_moved", 0),
        "rebalance.bytes": counters.get("rebalance.bytes", 0),
        "rebalance.self_share": layer("rebalance"),
        "faults.self_share": layer("faults"),
        "client.confirm.calls": count("client.confirm"),
        "client.self_share": layer("client"),
        "drtm.session.calls": count("drtm.session"),
        "drtm.self_share": layer("drtm"),
        "drtm.measure.calls": count("drtm.measure"),
        "drtm.measure.self_share": share("drtm.measure"),
        "tpm.commands": count("tpm.execute"),
        "tpm.self_share": layer("tpm"),
    }
    for method in PROVIDER_METHODS:
        metrics[f"provider.{method}.calls"] = count(f"provider.{method}")
        metrics[f"provider.{method}.self_share"] = share(f"provider.{method}")
    return metrics


def attribution_error(traced: List[dict]) -> float:
    """|layer self time + unattributed time − traced wall| ÷ wall.

    Unattributed time is the wall time no top-level span covers, so
    this is how far the self times miss the top-level spans' total."""
    wall = sum(r["run_s"] for r in traced)
    self_total = sum(
        value for r in traced for value in r["trace"]["self_s"].values()
    )
    covered = sum(r["trace"]["top_level_s"] for r in traced)
    return abs(self_total - covered) / wall


def checks(plain: List[dict], traced: List[dict]) -> Dict[str, bool]:
    """Every output check a run must pass to be correct."""
    result: Dict[str, bool] = {}
    for round_ in plain + traced:
        for name, ok in round_["checks"].items():
            result[name] = result.get(name, True) and ok
    digests = {r["digest"] for r in plain}
    result["rounds_digest_equal"] = len(digests) == 1
    if traced:
        result["traced_digest_equal"] = {r["digest"] for r in traced} == digests
        result["trace_attribution_within_2pct"] = (
            attribution_error(traced) <= 0.02
        )
    return result


def reference_digest(workload: str, seed: int) -> Optional[str]:
    if not BASELINE.exists():
        return None
    references = json.loads(BASELINE.read_text()).get("reference_digests", {})
    return references.get(workload, {}).get(str(seed))


def declared(metrics: Dict[str, float], kind: str) -> Dict[str, dict]:
    """``metrics`` in BENCHMARK.json's order, each with its unit; a
    metric missing on either side is an error."""
    spec = {m["name"]: m["unit"] for m in SPEC[kind]}
    if set(spec) != set(metrics):
        raise BenchError(
            f"{kind} mismatch: undeclared {sorted(set(metrics) - set(spec))}, "
            f"missing {sorted(set(spec) - set(metrics))}"
        )
    return {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in spec.items()
    }


def report(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Measure one workload and print its lines."""
    rounds = measure(workload, seed, seconds, traced)
    plain, tracing = rounds["plain"], rounds["traced"]
    if traced:
        metrics = declared(per_layer(plain, tracing), "per_layer")
    else:
        metrics = declared(end_to_end(plain), "end_to_end")
    verdicts = checks(plain, tracing)
    reference = reference_digest(workload, seed)
    first = plain[0]
    digest = first["digest"]
    for name, metric in metrics.items():
        print(f"{workload} {name} {metric['value']!r} {metric['unit']}")
    print(f"# {workload} rounds={len(plain)} traced_rounds={len(tracing)} "
          f"sim_session_samples={first['sim_session_samples']} "
          f"sim_session_p95_ms={first['sim_session_p95_ms']!r}")
    print(f"# {workload} measured confirms_per_wall_s="
          f"{first['confirms'] / statistics.median(r['run_s'] for r in plain)!r} "
          f"setup_s={statistics.median(r['setup_s'] for r in plain)!r} "
          f"speed={statistics.median(r['speed'] for r in plain)!r}")
    for name, ok in verdicts.items():
        print(f"# {workload} check {name} {'ok' if ok else 'FAIL'}")
    print(f"# {workload} outputs_digest {digest}")
    print(f"# {workload} outputs_match_reference "
          + ("n/a" if reference is None else
             "yes" if reference == digest else "no"))
    measured = plain + tracing
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "correct": all(verdicts.values()),
        "attempted": sum(r["attempted"] for r in measured),
        "failed": sum(r["failed"] for r in measured),
        "metrics": metrics,
        "checks": verdicts,
        "digest": digest,
        "outputs_match_reference": None if reference is None
        else reference == digest,
        "rounds": rounds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Isolated benchmark of the confirmation service."
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: print the per-layer metrics from traced rounds",
    )
    parser.add_argument(
        "--out", type=Path,
        help="result file (default perf/results/<workload>-<seed>-<trace>.json)",
    )
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else WORKLOAD_NAMES
    out = args.out or PERF / "results" / (
        f"{args.workload or 'all'}-{args.seed}-{args.trace}.json"
    )
    try:
        results = [
            report(name, args.seed, args.seconds, bool(args.trace))
            for name in workloads
        ]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True))
    correct = all(r["correct"] for r in results)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if len(results) == 1 else {
            r["workload"]: r["metrics"] for r in results
        },
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
