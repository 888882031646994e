"""Experiment T2: trusted-path session latency breakdown.

For each TPM vendor and each evidence variant, run several confirmation
sessions and average the per-phase virtual time.  Expected shape:

* TPM time dominates machine-added latency in both variants;
* in the *signed* variant the per-transaction TPM work (one unseal)
  overlaps the human's reading time, so total session time is lower
  than the quote variant on every vendor even where raw unseal is not
  cheaper than quote;
* suspend/skinit/resume are milliseconds — negligible next to TPM and
  human time, matching Flicker's published analysis.

The phase numbers are the session's own inline clock marks
(:attr:`repro.drtm.session.SessionRecord.breakdown`), recorded by
:meth:`repro.drtm.session.FlickerSession.run` as each phase ends.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bench.world import TrustedPathWorld, WorldConfig
from repro.core.protocol import EVIDENCE_QUOTE, EVIDENCE_SIGNED

PHASES = ("suspend", "skinit", "pal_tpm", "pal_human", "pal_logic", "cap", "resume")


def table2_session_breakdown(
    vendors: Sequence[str] = ("infineon", "broadcom", "atmel", "stmicro"),
    repetitions: int = 5,
    seed: int = 17,
) -> List[Dict]:
    """Rows: vendor, variant, each phase's mean seconds, total,
    machine_added (total minus human wait)."""
    rows: List[Dict] = []
    for vendor in vendors:
        world = TrustedPathWorld(WorldConfig(seed=seed, vendor=vendor)).ready()
        for variant in (EVIDENCE_SIGNED, EVIDENCE_QUOTE):
            accumulated = {phase: 0.0 for phase in PHASES}
            totals = 0.0
            perceived = 0.0
            for index in range(repetitions):
                transaction = world.sample_transfer(
                    amount_cents=1000 + index, to=f"payee-{index}"
                )
                outcome = world.confirm(transaction, mode=variant)
                assert outcome.executed, (
                    f"confirmation failed in breakdown run: "
                    f"{outcome.server_response}"
                )
                for phase in PHASES:
                    accumulated[phase] += outcome.session.breakdown[phase]
                totals += outcome.session.total_seconds
                perceived += outcome.session.perceived_overhead
            row: Dict = {"vendor": vendor, "variant": variant}
            for phase in PHASES:
                row[phase] = accumulated[phase] / repetitions
            row["total"] = totals / repetitions
            row["perceived_overhead"] = perceived / repetitions
            rows.append(row)
    return rows


def setup_phase_rows(
    vendors: Sequence[str] = ("infineon", "broadcom", "atmel", "stmicro"),
    seed: int = 23,
) -> List[Dict]:
    """Companion table: one-time setup-phase cost per vendor."""
    rows = []
    for vendor in vendors:
        world = TrustedPathWorld(WorldConfig(seed=seed, vendor=vendor))
        world.enroll_everywhere()
        record = world.run_setup()
        rows.append(
            {
                "vendor": vendor,
                "setup_total_s": record.total_seconds,
                "tpm_s": record.breakdown["pal_tpm"],
                "keygen_s": record.breakdown["pal_logic"],
            }
        )
    return rows
