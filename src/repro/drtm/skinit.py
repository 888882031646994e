"""The SKINIT late-launch sequence.

`perform_skinit` is the microcode: the only code path in the repository
that obtains a locality-4 token, and therefore the only way the dynamic
PCRs ever reset.  The sequence follows AMD's documented semantics:

1. CPU enters the late-launch mode (interrupts hard-disabled).
2. The SLB's memory region is locked and added to the Device Exclusion
   Vector, so neither the (suspended) OS nor any DMA-capable device can
   touch the PAL.
3. Dynamic PCRs 17–22 reset to zero **at locality 4**.
4. The SLB image streams through the TPM's hash interface — time
   proportional to its padded size — and its SHA-1 lands in PCR 17 via
   a locality-4 extend.

After step 4, PCR 17 == SHA1(0x00^20 || SHA1(slb_image)) — a value
reachable only by launching exactly that code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.hardware.machine import Machine
from repro.hardware.memory import MemoryRegion
from repro.sim.kernel import Simulator
from repro.drtm.slb import SecureLoaderBlock
from repro.tpm.constants import DYNAMIC_PCR_FIRST, DYNAMIC_PCR_LAST, PCR_DRTM_CODE

# Fixed microcode overhead of SKINIT before hashing starts (mode switch,
# DEV programming, TPM locality 4 open): on-era AMD parts ~10ms.
SKINIT_BASE_SECONDS = 0.0104

# OS quiesce before SKINIT (drivers paused, state saved) and resume after
# the session (device re-init, timers): Flicker reported resume costs
# dominated by device re-initialization.
OS_SUSPEND_SECONDS = 0.0021
OS_RESUME_SECONDS = 0.0158


class LateLaunchError(RuntimeError):
    """The late launch could not be performed."""


@dataclass
class LaunchContext:
    """State of an active late launch, consumed by FlickerSession."""

    machine: Machine
    slb: SecureLoaderBlock
    slb_region: MemoryRegion
    launch_token: Any  # locality-4 token, revoked at teardown
    measurement: bytes
    skinit_seconds: float


def perform_skinit(
    simulator: Simulator,
    machine: Machine,
    slb: SecureLoaderBlock,
    protect_dma: bool = True,
) -> LaunchContext:
    """Execute the SKINIT instruction on ``machine`` for ``slb``.

    ``protect_dma=False`` models defective hardware/firmware that skips
    the DEV programming step — the ablation experiment (A1) uses it to
    show which attack that single step prevents.  Everything else about
    the launch is unchanged.
    """
    if not machine.powered_on:
        raise LateLaunchError("machine is not powered on")
    clock = simulator.clock
    started = clock.now

    # 1. CPU transition: this is where the locality-4 capability is born.
    token4 = machine.cpu.enter_late_launch()

    slb_region = None
    try:
        # 2. Isolate the SLB: lock its memory and shield it from DMA.
        region_name = f"slb:{id(slb):x}"
        slb_region = machine.memory.allocate(
            region_name, slb.padded_size, owner="pal"
        )
        slb_region.write("pal", slb.image)
        slb_region.lock("pal")
        if protect_dma:
            machine.chipset.dev.protect(slb_region.base, slb_region.size)

        clock.advance(SKINIT_BASE_SECONDS)

        # 3. Locality-4 reset of every dynamic PCR.
        for pcr_index in range(DYNAMIC_PCR_FIRST, DYNAMIC_PCR_LAST + 1):
            machine.chipset.tpm_command(token4, "pcr_reset", pcr_index=pcr_index)

        # 4. Stream the SLB through the hash engine and extend PCR 17.
        hash_rate = machine.tpm.profile.slb_hash_bytes_per_second
        if hash_rate != float("inf"):
            clock.advance(slb.padded_size / hash_rate)
        measurement = slb.measurement()
        machine.chipset.tpm_command(
            token4, "extend", pcr_index=PCR_DRTM_CODE, measurement=measurement
        )
    except BaseException:
        # A launch that fails part-way (e.g. a transient TPM fault) must
        # hand the machine back to the OS, or the next SKINIT finds the
        # CPU still in late launch and the SLB region still allocated.
        _release_launch(machine, slb_region)
        raise

    return LaunchContext(
        machine=machine,
        slb=slb,
        slb_region=slb_region,
        launch_token=token4,
        measurement=measurement,
        skinit_seconds=clock.now - started,
    )


def teardown_launch(context: LaunchContext) -> None:
    """End the late launch: scrub the SLB, lift protections, resume CPU."""
    _release_launch(context.machine, context.slb_region)


def _release_launch(machine: Machine, slb_region: Optional[MemoryRegion]) -> None:
    if slb_region is not None:
        slb_region.zero("pal")
        slb_region.unlock()
        machine.memory.free(slb_region.name)
    machine.chipset.dev.unprotect_all()
    machine.cpu.exit_late_launch()
