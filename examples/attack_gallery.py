#!/usr/bin/env python3
"""Attack gallery: the full threat model, executed.

Runs every attack from the paper's threat model against a live
deployment and reports the outcome with the evidence trail (what the
malware captured, what the server denied, what the ledger says).

Exits non-zero if any attack succeeds against the trusted path with its
defenses on, or if disabling a defense does not re-admit the attack it
exists to stop.

Run:  python examples/attack_gallery.py
"""

import sys

from repro.baselines.adversary import ATTACKS, AttackOutcome
from repro.bench.experiments.security_matrix import trusted_path_scheme
from repro.bench.experiments.ablation import (
    run_credential_exfiltration,
    run_dma_attack,
    run_pal_substitution,
    run_replay,
)


def main() -> int:
    failures = []
    print("== attacks against the trusted path (full worlds, real ledgers) ==")
    scheme = trusted_path_scheme(seed=5150)
    for attack in ATTACKS:
        runner = scheme.run_attack.get(attack)
        outcome = runner() if runner else None
        print(f"  {attack:<26} -> {outcome.value if outcome else 'n/a'}")
        if outcome is AttackOutcome.SUCCEEDED:
            failures.append(f"{attack} succeeded against the trusted path")

    print("\n== what each defense is worth (disable it and re-attack) ==")
    cases = [
        ("PAL measurement whitelist",
         lambda on: run_pal_substitution(check_measurement=on, seed=6001)),
        ("replay protection",
         lambda on: run_replay(replay_protection=on, seed=6003)),
        ("session-end PCR17 cap",
         lambda on: run_credential_exfiltration(apply_cap=on, seed=6005)),
        ("DEV / DMA protection",
         lambda on: run_dma_attack(protect_dma=on, seed=6007)),
    ]
    for name, runner in cases:
        succeeded_on = runner(True)
        succeeded_off = runner(False)
        with_defense = "SUCCEEDED" if succeeded_on else "prevented"
        without = "SUCCEEDED" if succeeded_off else "prevented"
        print(f"  {name:<28} on: {with_defense:<10} off: {without}")
        if succeeded_on:
            failures.append(f"{name}: the attack succeeded with the defense on")
        if not succeeded_off:
            failures.append(
                f"{name}: the attack failed with the defense off, so the "
                "defense is not shown to be what stops it"
            )

    if failures:
        print("\nFAIL —")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nOK — every structural attack is prevented with defenses on, "
          "and each defense provably stops its attack.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
