"""One module per experiment in DESIGN.md's per-experiment index.

Each experiment is a plain function returning structured rows; the
runner (`repro.bench.runner`) runs each as one cell, the report renders
the tables, and ``tests/test_experiments_shapes.py`` asserts the
expected *shapes* (who wins, by roughly what factor) documented in
EXPERIMENTS.md.
"""

from repro.bench.experiments.microbench import table1_tpm_microbench
from repro.bench.experiments.session_breakdown import table2_session_breakdown
from repro.bench.experiments.end_to_end import table3_end_to_end
from repro.bench.experiments.security_matrix import table4_security_matrix
from repro.bench.experiments.pal_size import fig1_latency_vs_pal_size
from repro.bench.experiments.server_throughput import fig2_server_throughput
from repro.bench.experiments.captcha_comparison import fig3_captcha_comparison
from repro.bench.experiments.amortization import fig4_amortization
from repro.bench.experiments.noncedb_scale import fig5_noncedb_scalability
from repro.bench.experiments.ablation import a1_defense_ablation
from repro.bench.experiments.availability import r2_crash_availability
from repro.bench.experiments.robustness import r1_loss_robustness
from repro.bench.experiments.sharding import f3s_sharded_scaling
from repro.bench.experiments.openloop import f6_open_loop_rows
from repro.bench.experiments.elasticity import e4_elastic_rows
from repro.bench.experiments.chaos import crash_matrix, r3_chaos_sweep

__all__ = [
    "table1_tpm_microbench",
    "table2_session_breakdown",
    "table3_end_to_end",
    "table4_security_matrix",
    "fig1_latency_vs_pal_size",
    "fig2_server_throughput",
    "fig3_captcha_comparison",
    "f3s_sharded_scaling",
    "f6_open_loop_rows",
    "e4_elastic_rows",
    "fig4_amortization",
    "fig5_noncedb_scalability",
    "a1_defense_ablation",
    "r1_loss_robustness",
    "r2_crash_availability",
    "r3_chaos_sweep",
    "crash_matrix",
]
