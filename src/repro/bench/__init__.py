"""Benchmark harness (system S14).

* :mod:`repro.bench.world` — one-call construction of a complete
  trusted-path deployment (platform, OS, human, providers, CA); the
  shared fixture of tests, benchmarks and examples.
* :mod:`repro.bench.tables` — plain-text table/series rendering in the
  shape the paper's tables would be read.
* :mod:`repro.bench.workloads` — transaction stream generators.
* :mod:`repro.bench.experiments` — one function per experiment ID of
  DESIGN.md's index; each returns structured rows, which
  :mod:`repro.bench.runner` runs as cells and :mod:`repro.bench.report`
  renders.
"""

from repro.bench.tables import format_series, format_table
from repro.bench.world import TrustedPathWorld, WorldConfig

__all__ = ["TrustedPathWorld", "WorldConfig", "format_table", "format_series"]
