"""The CI perf-regression gate on canned BENCH_wall.json artifacts.

Satellite acceptance: the gate demonstrably fails on an injected
slowdown and passes on an unchanged trajectory — proven here on canned
JSON, so the CI wiring only has to invoke the script.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / (
    "check_wall_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_wall_regression", _SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def artifact(cells, total, users_per_wall_s=None, smoke=True):
    run = {"workers": 4, "cells": cells, "total_wall_s": total}
    if users_per_wall_s is not None:
        run["users_per_wall_s"] = users_per_wall_s
    return {"schema": "bench-wall/1", "smoke": smoke, "run": run}


BASELINE = artifact(
    {"t2": 2.0, "f3s": 4.0, "f6": 10.0, "e2": 0.1}, 16.1,
    users_per_wall_s=700.0,
)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestCompare:
    def test_unchanged_trajectory_passes(self):
        assert gate.compare(BASELINE, BASELINE) == []

    def test_within_tolerance_passes(self):
        fresh = artifact(
            {"t2": 2.4, "f3s": 4.9, "f6": 12.0, "e2": 0.2}, 19.5,
            users_per_wall_s=560.0,
        )
        assert gate.compare(fresh, BASELINE, tolerance=0.30) == []

    def test_injected_cell_slowdown_fails(self):
        fresh = artifact(
            {"t2": 2.0, "f3s": 9.0, "f6": 10.0, "e2": 0.1}, 21.1,
            users_per_wall_s=700.0,
        )
        problems = gate.compare(fresh, BASELINE, tolerance=0.30)
        assert any("'f3s'" in p for p in problems)

    def test_total_slowdown_fails_even_with_cells_in_limit(self):
        cells = {k: v * 1.25 for k, v in BASELINE["run"]["cells"].items()}
        fresh = artifact(cells, 16.1 * 1.4, users_per_wall_s=700.0)
        problems = gate.compare(fresh, BASELINE, tolerance=0.30)
        assert any(p.startswith("total_wall_s") for p in problems)

    def test_headline_users_per_wall_s_drop_fails(self):
        fresh = artifact(BASELINE["run"]["cells"], 16.1,
                         users_per_wall_s=300.0)
        problems = gate.compare(fresh, BASELINE, tolerance=0.30)
        assert any(p.startswith("users_per_wall_s") for p in problems)

    def test_tiny_cells_exempt_from_ratio_noise(self):
        # e2's committed 0.1s doubling to 0.2s is warm-up noise, not a
        # regression; cells under min_seconds never gate.
        fresh = artifact(
            {"t2": 2.0, "f3s": 4.0, "f6": 10.0, "e2": 0.24}, 16.2,
            users_per_wall_s=700.0,
        )
        assert gate.compare(fresh, BASELINE) == []

    def test_added_and_retired_cells_do_not_gate(self, capsys):
        fresh = artifact({"t2": 2.0, "f7": 50.0}, 16.1,
                         users_per_wall_s=700.0)
        assert gate.compare(fresh, BASELINE) == []
        noted = capsys.readouterr().out
        assert "f7" in noted and "f3s" in noted


class TestCli:
    def test_exit_zero_on_committed_trajectory(self, tmp_path):
        fresh = write(tmp_path, "fresh.json", BASELINE)
        committed = write(tmp_path, "committed.json", BASELINE)
        assert gate.main(["--fresh", fresh, "--committed", committed]) == 0

    def test_exit_nonzero_on_injected_slowdown(self, tmp_path):
        slow = artifact(
            {"t2": 2.0, "f3s": 4.0, "f6": 30.0, "e2": 0.1}, 36.1,
            users_per_wall_s=700.0,
        )
        fresh = write(tmp_path, "fresh.json", slow)
        committed = write(tmp_path, "committed.json", BASELINE)
        assert gate.main(["--fresh", fresh, "--committed", committed]) == 1

    def test_smoke_mismatch_is_a_hard_error(self, tmp_path):
        full = artifact({"t2": 2.0}, 2.0, smoke=False)
        fresh = write(tmp_path, "fresh.json", full)
        committed = write(tmp_path, "committed.json", BASELINE)
        assert gate.main(["--fresh", fresh, "--committed", committed]) == 2

    def test_rejects_non_bench_wall_json(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"hello": 1}))
        committed = write(tmp_path, "committed.json", BASELINE)
        with pytest.raises(ValueError):
            gate.main(["--fresh", str(bogus), "--committed", committed])

    def test_script_runs_as_subprocess(self, tmp_path):
        """The exact invocation ci.yml uses."""
        fresh = write(tmp_path, "fresh.json", BASELINE)
        committed = write(tmp_path, "committed.json", BASELINE)
        done = subprocess.run(
            [sys.executable, str(_SCRIPT), "--fresh", fresh,
             "--committed", committed],
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert "wall trajectory OK" in done.stdout
