"""repro — reproduction of *Uni-directional Trusted Path: Transaction
Confirmation on Just One Device* (Filyanov, McCune, Sadeghi, Winandy;
DSN 2011).

The package is layered bottom-up (see DESIGN.md for the full map):

====================  ====================================================
`repro.sim`            discrete-event kernel: virtual time, metrics
`repro.crypto`         SHA-1/SHA-256/HMAC entry points, DRBG, RSA, PKCS#1
`repro.hardware`       the platform: memory, DMA+DEV, CPU, kbd, display
`repro.tpm`            TPM v1.2 emulator + Privacy CA, vendor timing
`repro.drtm`           SKINIT late launch and the PAL runtime (Flicker)
`repro.os`             the untrusted OS, browser, and malware models
`repro.net`            network, secure channel, RPC with queueing
`repro.server`         service providers and the attestation verifier
`repro.core`           THE PAPER: the uni-directional trusted path
`repro.baselines`      captcha / iTAN / password schemes + adversaries
`repro.user`           the human model
`repro.bench`          worlds, workloads, and every experiment (T1–F5, A1)
====================  ====================================================

Quickstart::

    from repro import TrustedPathWorld, Transaction

    world = TrustedPathWorld().ready()
    tx = Transaction(kind="transfer", account="alice",
                     fields={"to": "bob", "amount": 12_500})
    outcome = world.confirm(tx)
    assert outcome.executed

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
evaluation reproduction.
"""

from repro.bench.world import TrustedPathWorld, WorldConfig
from repro.core import (
    ClientCredentials,
    ConfirmationPal,
    Decision,
    SetupPal,
    Transaction,
    TrustedPathClient,
)
from repro.core.protocol import EVIDENCE_QUOTE, EVIDENCE_SIGNED

__version__ = "1.0.0"

__all__ = [
    "TrustedPathWorld",
    "WorldConfig",
    "Transaction",
    "TrustedPathClient",
    "ClientCredentials",
    "ConfirmationPal",
    "SetupPal",
    "Decision",
    "EVIDENCE_SIGNED",
    "EVIDENCE_QUOTE",
    "__version__",
]
