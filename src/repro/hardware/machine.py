"""The composed machine: CPU + memory + TPM + devices + chipset.

:func:`Machine.power_on` performs the static root of trust (SRTM) boot
sequence: TPM startup, then measuring the (simulated) BIOS, option ROMs
and bootloader into the static PCRs — so a quote over the static PCRs
reflects the boot stack, exactly as on the paper's testbed.  The dynamic
PCRs (17–22) start in their "never late-launched" state of all 0xFF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.crypto.sha1 import sha1
from repro.hardware.chipset import Chipset
from repro.hardware.cpu import Cpu, CpuMode
from repro.hardware.display import VgaTextDisplay
from repro.hardware.keyboard import Ps2KeyboardController
from repro.hardware.memory import PhysicalMemory


@dataclass
class MachineConfig:
    """Knobs for building a simulated machine.

    ``firmware`` maps component name -> simulated firmware image bytes;
    each is measured into the corresponding static PCR at power-on.
    """

    memory_size: int = 1 << 30
    firmware: Dict[str, bytes] = field(
        default_factory=lambda: {
            "bios": b"repro-bios-v1.02",
            "option_roms": b"repro-oprom-bundle",
            "bootloader": b"repro-grub-0.97",
        }
    )


# Static PCR assignment per the TCG PC client spec (simplified).
_STATIC_PCR_FOR = {"bios": 0, "option_roms": 2, "bootloader": 4}


class Machine:
    """A single simulated platform.

    Parameters
    ----------
    tpm:
        A TPM device (`repro.tpm.device.TpmDevice`).  The machine does
        not construct it because TPM identity (EK) and timing profile
        are experiment-level choices; use
        :func:`build_machine` for the common composition.
    """

    def __init__(self, tpm: Any, config: Optional[MachineConfig] = None) -> None:
        self.config = config or MachineConfig()
        self.cpu = Cpu()
        self.memory = PhysicalMemory(self.config.memory_size)
        self.keyboard = Ps2KeyboardController()
        self.display = VgaTextDisplay()
        self.tpm = tpm
        self.chipset = Chipset(
            self.cpu, self.memory, tpm, self.keyboard, self.display
        )
        self.powered_on = False

    def power_on(self) -> None:
        """Boot: TPM_Startup(CLEAR) then SRTM measurements."""
        if self.powered_on:
            raise RuntimeError("machine is already powered on")
        self.tpm.startup()
        self.cpu.power_on()
        boot_locality = self.cpu.os_locality()
        for component, image in self.config.firmware.items():
            pcr = _STATIC_PCR_FOR.get(component)
            if pcr is None:
                raise ValueError(f"unknown firmware component {component!r}")
            self.chipset.tpm_command(
                boot_locality, "extend", pcr_index=pcr, measurement=sha1(image)
            )
        self.powered_on = True

    def reboot(self) -> None:
        """Power-cycle: volatile TPM state gone, SRTM runs again.

        Dynamic PCRs return to their never-launched 0xFF state, loaded
        keys (AIKs!) vanish, NV and counters persist — the semantics a
        reboot-crossing protocol must survive.
        """
        if not self.powered_on:
            raise RuntimeError("reboot requires a powered-on machine")
        self.cpu.halt()
        self.cpu.mode = CpuMode.OFF
        self.keyboard.release_to_os()
        self.powered_on = False
        self.power_on()

    def __repr__(self) -> str:
        state = "on" if self.powered_on else "off"
        return f"Machine({state}, cpu={self.cpu!r})"


def build_machine(
    simulator: Any,
    vendor: str = "infineon",
    config: Optional[MachineConfig] = None,
    name: str = "machine",
) -> Machine:
    """Compose a powered-on machine with a freshly provisioned TPM.

    ``simulator`` supplies the clock (for TPM command latencies) and the
    master seed (for the TPM's EK/SRK generation).  ``vendor`` selects a
    TPM timing profile from `repro.tpm.timing`.
    """
    from repro.tpm.device import TpmDevice  # local import: avoid cycle
    from repro.tpm.timing import vendor_profile

    tpm = TpmDevice(
        clock=simulator.clock,
        profile=vendor_profile(vendor),
        seed=simulator.rng.derive_seed(f"tpm:{name}"),
    )
    machine = Machine(tpm, config=config)
    machine.power_on()
    return machine
