"""Workload generators: streams of realistic transactions.

The paper's motivating scenario of online banking transfers gets a
generator producing deterministic, seed-driven transaction streams with
plausible field distributions.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.core.transaction import Transaction

_MERCHANTS = [
    "energy-co", "rent-llc", "bookshop", "grocer", "isp", "insurance",
    "charity", "rail-tickets", "cloud-hosting", "coffee-club",
]


def transfer_stream(
    account: str, rng: random.Random, count: int
) -> Iterator[Transaction]:
    """Banking transfers: log-normal-ish amounts, recurring payees."""
    for _ in range(count):
        amount = int(min(max(rng.lognormvariate(8.6, 1.1), 100), 5_000_00))
        yield Transaction(
            kind="transfer",
            account=account,
            fields={"to": rng.choice(_MERCHANTS), "amount": amount},
        )
