"""Shared fixtures for the benchmark's tests.

The benchmark's modules live in ``perf/`` (not a package), so they are
put on the path here.  ``tiny_rounds`` runs every workload once
untraced and once traced at the tiny size, in this process, and is
shared by every test that needs round results.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[2] / "perf"
if str(PERF) not in sys.path:
    sys.path.insert(0, str(PERF))


@pytest.fixture(scope="session")
def tiny_rounds():
    from worker import run_round
    from workloads import WORKLOADS

    return {
        name: {
            "plain": run_round(name, 7, "tiny"),
            "traced": run_round(name, 7, "tiny", traced=True),
        }
        for name in WORKLOADS
    }
