"""Sealing helpers and the session-end cap.

Sealing to ``(PCR 17, PCR 18)`` binds data to *which code launched* and
*what it has extended so far*.  The subtlety this module owns is the
**cap**: if PCR 17 still held the PAL's value after the session, the
resumed (malicious) OS could simply issue TPM_Unseal itself and walk
away with the sealed signing key.  Flicker therefore extends PCR 17
with a well-known constant before returning to the OS; the PCR can then
never again reach the unseal-eligible value without a fresh SKINIT of
the genuine PAL.  `FlickerSession` applies the cap unconditionally —
and an ablation benchmark (`bench_ablation_defenses`) shows the key
exfiltration attack that becomes possible when it is disabled.
"""

from __future__ import annotations

from repro.crypto.sha1 import sha1
from repro.tpm.constants import PCR_DRTM_CODE, PCR_DRTM_DATA
from repro.tpm.structures import PcrSelection

#: The well-known measurement extended into PCR 17 at session end.
CAP_MEASUREMENT = sha1(b"repro.drtm: end of launch session")


def pal_pcr_selection() -> PcrSelection:
    """The PCR selection trusted-path credentials are bound to."""
    return PcrSelection(indices=(PCR_DRTM_CODE, PCR_DRTM_DATA))


def pcr17_after_launch(slb_measurement: bytes) -> bytes:
    """Predict PCR 17's value inside a session that launched ``slb``.

    reset(0^20) then extend(m):  SHA1(0^20 || m).  Service providers use
    this to compute the known-good value from a published PAL hash.
    """
    return sha1(b"\x00" * 20 + slb_measurement)
