"""The benchmark command: its declaration, its printed metrics, and its
refusal to run without the program."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["command"][0] == "python3"
    assert all(
        (ROOT / path).is_dir() and not path.startswith("/") for path in spec["paths"]
    )
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("traced", [False, True])
def test_printed_metrics_are_declared(tiny_rounds, monkeypatch, capsys, traced):
    declared = {
        m["name"] for m in bench.SPEC["per_layer" if traced else "end_to_end"]
    }
    for name, rounds in tiny_rounds.items():
        canned = {
            "plain": [rounds["plain"]],
            "traced": [rounds["traced"]] if traced else [],
        }
        monkeypatch.setattr(bench, "measure", lambda *args: canned)
        result = bench.report(name, 7, 1.0, traced)
        assert result["correct"], result["checks"]
        printed = [
            line.split() for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")
        ]
        assert {fields[1] for fields in printed} == declared
        for workload, metric, value, unit in printed:
            assert workload == name and NAME.match(metric) and UNIT.match(unit)
            float(value)


def test_bench_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    files, the command exits non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perf", tmp_path / "perf",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perf/bench.py", "--workload", "openloop_day",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
