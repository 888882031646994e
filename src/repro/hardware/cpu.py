"""CPU execution model.

The CPU tracks which software layer currently executes — the commodity OS
or a late-launched PAL — plus the interrupt flag.  The security-critical
property is **who can assert TPM locality 4**: only the SKINIT microcode
path (`repro.drtm.skinit`) transitions the CPU into ``LATE_LAUNCH`` and
receives the one-shot locality-4 token that permits resetting the dynamic
PCRs.  Software, however privileged, cannot mint that token — mirroring
the hardware contract that makes DRTM sound.
"""

from __future__ import annotations

import enum
from typing import Optional


class HardwareError(RuntimeError):
    """Raised on violations of hardware contracts."""


class CpuMode(enum.Enum):
    """What the single core is currently running."""

    OFF = "off"
    RUNNING_OS = "running_os"
    LATE_LAUNCH = "late_launch"
    HALTED = "halted"


class _LocalityToken:
    """Unforgeable capability for a TPM locality.

    Instances are only created by :class:`Cpu` internals; possession of a
    token is what the chipset checks before honouring locality-gated TPM
    commands.  (In silicon this is a dedicated bus cycle type; a private
    Python object is the closest honest analogue.)
    """

    __slots__ = ("locality", "_revoked")

    def __init__(self, locality: int) -> None:
        self.locality = locality
        self._revoked = False

    @property
    def valid(self) -> bool:
        return not self._revoked

    def revoke(self) -> None:
        self._revoked = True


class Cpu:
    """Single-core CPU with mode, interrupt flag and locality issuance."""

    def __init__(self) -> None:
        self.mode = CpuMode.OFF
        self.interrupts_enabled = False
        self._active_launch_token: Optional[_LocalityToken] = None

    # -- power / mode -----------------------------------------------------
    def power_on(self) -> None:
        if self.mode is not CpuMode.OFF:
            raise HardwareError(f"power_on in mode {self.mode}")
        self.mode = CpuMode.RUNNING_OS
        self.interrupts_enabled = True

    def halt(self) -> None:
        self.mode = CpuMode.HALTED
        self.interrupts_enabled = False

    # -- interrupts --------------------------------------------------------
    def enable_interrupts(self) -> None:
        if self.mode is CpuMode.LATE_LAUNCH:
            raise HardwareError("interrupts stay disabled during late launch")
        self.interrupts_enabled = True

    # -- late launch -------------------------------------------------------
    def enter_late_launch(self) -> _LocalityToken:
        """Transition into late launch; returns the locality-4 token.

        Only `repro.drtm.skinit` calls this.  The token is one-shot: the
        microcode uses it for the dynamic-PCR reset + SLB measurement and
        then revokes it, leaving the PAL with locality 2 at most.
        """
        if self.mode is not CpuMode.RUNNING_OS:
            raise HardwareError(f"SKINIT only valid from RUNNING_OS, not {self.mode}")
        if self._active_launch_token is not None:
            raise HardwareError("late launch already active")
        self.mode = CpuMode.LATE_LAUNCH
        self.interrupts_enabled = False
        token = _LocalityToken(4)
        self._active_launch_token = token
        return token

    def pal_locality(self) -> _LocalityToken:
        """Locality 2 token for the running PAL."""
        if self.mode is not CpuMode.LATE_LAUNCH:
            raise HardwareError("no PAL is running")
        return _LocalityToken(2)

    def os_locality(self) -> _LocalityToken:
        """Locality 0 token for ordinary OS-initiated TPM commands."""
        if self.mode is not CpuMode.RUNNING_OS:
            raise HardwareError(f"OS is not running (mode {self.mode})")
        return _LocalityToken(0)

    def exit_late_launch(self) -> None:
        """Return to the OS after a PAL session."""
        if self.mode is not CpuMode.LATE_LAUNCH:
            raise HardwareError("exit_late_launch outside a session")
        if self._active_launch_token is not None:
            self._active_launch_token.revoke()
            self._active_launch_token = None
        self.mode = CpuMode.RUNNING_OS
        self.interrupts_enabled = True

    def __repr__(self) -> str:
        return (
            f"Cpu(mode={self.mode.value}, "
            f"interrupts={'on' if self.interrupts_enabled else 'off'})"
        )
