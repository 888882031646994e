"""SKINIT and the FlickerSession lifecycle."""

from __future__ import annotations

from typing import Dict, Set

import pytest

from repro.crypto.sha1 import sha1
from repro.drtm.pal import Pal, PalServices
from repro.drtm.sealing import CAP_MEASUREMENT, pal_pcr_selection, pcr17_after_launch
from repro.drtm.session import CAP_ATTEMPTS, CAP_RETRY_SECONDS, FlickerSession
from repro.drtm.skinit import LateLaunchError, perform_skinit
from repro.drtm.slb import SecureLoaderBlock
from repro.hardware.cpu import CpuMode, HardwareError
from repro.hardware.keyboard import ScanCode
from repro.tpm import TpmError
from repro.tpm.constants import PCR_DRTM_CODE, TpmResult


class _NoopPal(Pal):
    name = "noop"

    def run(self, services: PalServices, inputs: Dict[str, bytes]):
        return {"ran": b"1"}


class _SealingPal(Pal):
    name = "sealer"
    last_blob = None

    def run(self, services: PalServices, inputs: Dict[str, bytes]):
        blob = services.tpm("seal", data=b"pal-secret", selection=pal_pcr_selection())
        type(self).last_blob = blob
        assert services.tpm("unseal", blob=blob) == b"pal-secret"
        return {}


class _CrashingPal(Pal):
    name = "crasher"

    def run(self, services: PalServices, inputs: Dict[str, bytes]):
        raise RuntimeError("deliberate PAL crash")


class _TransientlyFailingPal(Pal):
    """Raises a transient TPM fault the first N runs, then succeeds."""

    name = "flaky"

    def __init__(self, failures: int = 1) -> None:
        self.failures_left = failures

    def run(self, services: PalServices, inputs: Dict[str, bytes]):
        if self.failures_left:
            self.failures_left -= 1
            raise TpmError(TpmResult.RETRY, "injected transient fault")
        return {"ran": b"1"}


class _KeyWaitingPal(Pal):
    name = "key-waiter"

    def run(self, services: PalServices, inputs: Dict[str, bytes]):
        services.show(["press any key"])
        key = services.read_key(timeout=5.0)
        return {"key": bytes([int(key)]) if key is not None else b""}


def _fail_calls(command: str, failing: Set[int]):
    """A TPM fault hook raising a transient fault on the given (1-based)
    calls of ``command``; like the injector's, it raises before the
    command executes."""
    seen = {"calls": 0}

    def hook(name: str) -> None:
        if name != command:
            return
        seen["calls"] += 1
        if seen["calls"] in failing:
            raise TpmError(TpmResult.RETRY, f"injected transient fault in {name}")

    return hook


@pytest.fixture
def session(simulator, machine) -> FlickerSession:
    return FlickerSession(simulator, machine)


class TestSkinit:
    def test_requires_powered_machine(self, simulator, machine):
        machine.powered_on = False
        slb = SecureLoaderBlock.package(_NoopPal())
        with pytest.raises(LateLaunchError):
            perform_skinit(simulator, machine, slb)

    def test_pcr17_gets_slb_measurement(self, simulator, machine):
        slb = SecureLoaderBlock.package(_NoopPal())
        context = perform_skinit(simulator, machine, slb)
        assert machine.tpm.pcrs.read(PCR_DRTM_CODE) == pcr17_after_launch(
            slb.measurement()
        )
        assert context.measurement == slb.measurement()

    def test_all_dynamic_pcrs_reset(self, simulator, machine):
        perform_skinit(simulator, machine, SecureLoaderBlock.package(_NoopPal()))
        # PCR 18..22 were reset to zero (17 then got the measurement).
        for index in range(18, 23):
            assert machine.tpm.pcrs.read(index) == b"\x00" * 20

    def test_dev_protects_slb(self, simulator, machine):
        slb = SecureLoaderBlock.package(_NoopPal())
        context = perform_skinit(simulator, machine, slb)
        assert machine.chipset.dev.blocks(
            context.slb_region.base, context.slb_region.size
        )

    def test_cpu_enters_late_launch(self, simulator, machine):
        perform_skinit(simulator, machine, SecureLoaderBlock.package(_NoopPal()))
        assert machine.cpu.mode is CpuMode.LATE_LAUNCH
        assert not machine.cpu.interrupts_enabled


class TestSessionLifecycle:
    def test_outputs_returned(self, session):
        record = session.run(_NoopPal(), {})
        assert record.outputs == {"ran": b"1"}
        assert not record.aborted

    def test_pcr17_capped_after_session(self, session, machine):
        record = session.run(_NoopPal(), {})
        in_session = record.pcr17_during_session
        after = machine.tpm.pcrs.read(PCR_DRTM_CODE)
        assert after == sha1(in_session + CAP_MEASUREMENT)
        assert after != in_session

    def test_machine_restored_after_session(self, session, machine):
        session.run(_NoopPal(), {})
        assert machine.cpu.mode is CpuMode.RUNNING_OS
        assert machine.cpu.interrupts_enabled
        assert machine.keyboard.owner == "os"
        assert machine.display.owner == "os"
        assert not machine.chipset.dev.protected_ranges
        assert not any(
            region.name.startswith("slb:") for region in machine.memory.regions()
        )

    def test_pal_sealed_data_unreachable_after_session(self, session, machine):
        record = session.run(_SealingPal(), {})
        assert not record.aborted, record.abort_reason
        with pytest.raises(TpmError):
            machine.chipset.tpm_command_as_os("unseal", blob=_SealingPal.last_blob)

    def test_sealed_data_reachable_in_next_genuine_session(self, session):
        session.run(_SealingPal(), {})
        # The second run unseals the first run's blob internally (the
        # assert inside the PAL) — proving cross-session continuity.
        record = session.run(_SealingPal(), {})
        assert not record.aborted, record.abort_reason

    def test_pal_crash_does_not_wedge_machine(self, session, machine):
        record = session.run(_CrashingPal(), {})
        assert record.aborted
        assert "deliberate PAL crash" in record.abort_reason
        assert machine.cpu.mode is CpuMode.RUNNING_OS
        # And the next session works.
        assert not session.run(_NoopPal(), {}).aborted

    def test_breakdown_has_all_phases(self, session):
        record = session.run(_NoopPal(), {})
        for phase in ("suspend", "skinit", "pal_tpm", "pal_human",
                      "pal_logic", "cap", "resume"):
            assert phase in record.breakdown
        assert record.total_seconds > 0

    def test_sessions_counted(self, session):
        session.run(_NoopPal(), {})
        session.run(_NoopPal(), {})
        assert session.sessions_run == 2

    def test_different_pals_different_pcr17(self, session):
        first = session.run(_NoopPal(), {})
        second = session.run(_SealingPal(), {})
        assert first.pcr17_during_session != second.pcr17_during_session


class TestHumanInteraction:
    def test_human_key_reaches_pal(self, simulator, machine):
        def human(visible, max_wait):
            assert "press any key" in visible
            machine.keyboard.press_physical_key(ScanCode.KEY_Y)
            return 0.8

        session = FlickerSession(simulator, machine, human=human)
        record = session.run(_KeyWaitingPal(), {})
        assert record.outputs["key"] == bytes([int(ScanCode.KEY_Y)])
        assert record.breakdown["pal_human"] >= 0.75

    def test_no_human_times_out(self, session):
        record = session.run(_KeyWaitingPal(), {})
        assert record.outputs["key"] == b""
        assert record.breakdown["pal_human"] >= 5.0

    def test_unresponsive_human_times_out(self, simulator, machine):
        session = FlickerSession(
            simulator, machine, human=lambda visible, max_wait: max_wait
        )
        record = session.run(_KeyWaitingPal(), {})
        assert record.outputs["key"] == b""

    def test_stale_os_keystrokes_drained_before_pal(self, simulator, machine):
        # Keys buffered before the session (e.g. injected while the OS
        # ran) must not satisfy the PAL's prompt.
        machine.keyboard.press_physical_key(ScanCode.KEY_Y)
        session = FlickerSession(simulator, machine)
        record = session.run(_KeyWaitingPal(), {})
        assert record.outputs["key"] == b""

    def test_think_time_overlaps_pal_tpm_work(self, simulator, machine):
        """TPM work issued after show() hides under reading time."""

        class SlowThenWait(Pal):
            name = "overlapper"

            def run(self, services: PalServices, inputs):
                services.show(["press any key"])
                services.tpm("get_random", num_bytes=16)  # near-zero here
                services.charge_logic(2.0)  # 2s of work behind the prompt
                key = services.read_key(timeout=30.0)
                return {"key": bytes([int(key)]) if key else b""}

        def human(visible, max_wait):
            machine.keyboard.press_physical_key(ScanCode.KEY_Y)
            return 3.0  # thinks 3s from the moment the screen appeared

        session = FlickerSession(simulator, machine, human=human)
        record = session.run(SlowThenWait(), {})
        # The human wait the PAL observed is ~1s (3s think - 2s overlap),
        # and the total is ~3s, not ~5s.
        assert record.breakdown["pal_human"] == pytest.approx(1.0, abs=0.05)
        assert record.human_pure_seconds == pytest.approx(3.0)
        assert record.total_seconds < 3.5


class TestOsSuspension:
    def test_os_hooks_called(self, simulator, machine):
        calls = []

        class Hooks:
            def suspend(self):
                calls.append("suspend")

            def resume(self):
                calls.append("resume")

        session = FlickerSession(simulator, machine, os_hooks=Hooks())
        session.run(_NoopPal(), {})
        assert calls == ["suspend", "resume"]


class TestTransientRecovery:
    def test_transient_pal_fault_aborts_without_wedging(self, session, machine):
        record = session.run(_TransientlyFailingPal(), {})
        assert record.aborted and record.abort_transient
        # The machine unwound cleanly: peripherals are back with the OS.
        assert machine.keyboard.owner != "pal"
        assert machine.display.owner != "pal"

    def test_run_with_retry_reruns_transient_abort(self, session):
        record = session.run_with_retry(_TransientlyFailingPal(failures=2), {})
        assert not record.aborted
        assert record.outputs == {"ran": b"1"}
        assert session.transient_retries == 2
        assert session.sessions_run == 3

    def test_run_with_retry_gives_up_after_budget(self, session):
        record = session.run_with_retry(_TransientlyFailingPal(failures=99), {})
        assert record.aborted and record.abort_transient
        assert session.transient_retries == 2  # max_attempts=3 -> 2 retries

    def test_non_transient_abort_is_not_retried(self, session):
        record = session.run_with_retry(_CrashingPal(), {})
        assert record.aborted and not record.abort_transient
        assert session.transient_retries == 0
        assert session.sessions_run == 1

    def test_transient_fault_inside_skinit_unwinds_the_launch(
        self, session, machine
    ):
        machine.tpm.fault_hook = _fail_calls("pcr_reset", {1})
        record = session.run_with_retry(_NoopPal(), {})
        assert not record.aborted, record.abort_reason
        assert record.outputs == {"ran": b"1"}
        assert session.transient_retries == 1
        assert machine.cpu.mode is CpuMode.RUNNING_OS
        assert not machine.chipset.dev.protected_ranges
        assert not any(
            region.name.startswith("slb:") for region in machine.memory.regions()
        )

    def test_transient_fault_on_cap_is_retried_in_place(self, session, machine):
        # Extend #1 is SKINIT's measurement, #2 the session-end cap.
        machine.tpm.fault_hook = _fail_calls("extend", {2})
        record = session.run(_NoopPal(), {})
        assert not record.aborted, record.abort_reason
        after = machine.tpm.pcrs.read(PCR_DRTM_CODE)
        assert after == sha1(record.pcr17_during_session + CAP_MEASUREMENT)
        assert record.breakdown["cap"] >= CAP_RETRY_SECONDS
        assert machine.cpu.mode is CpuMode.RUNNING_OS
        assert machine.keyboard.owner == "os"

    def test_persistent_cap_fault_halts_instead_of_resuming(
        self, session, machine
    ):
        resumed = []

        class Hooks:
            def suspend(self):
                pass

            def resume(self):
                resumed.append(True)

        session.os_hooks = Hooks()
        machine.tpm.fault_hook = _fail_calls("extend", set(range(2, 100)))
        extends_before = machine.tpm.commands_executed["extend"]
        with pytest.raises(LateLaunchError, match="cap failed"):
            session.run(_NoopPal(), {})
        # SKINIT's measurement, then every cap attempt.
        assert machine.tpm.commands_executed["extend"] == (
            extends_before + 1 + CAP_ATTEMPTS
        )
        # PCR 17 still holds the PAL's value, so the OS must never run.
        assert machine.cpu.mode is CpuMode.HALTED
        assert not resumed
        with pytest.raises(HardwareError):
            machine.cpu.os_locality()
