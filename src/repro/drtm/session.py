"""FlickerSession: one complete late-launch cycle.

Phases and their accounting (virtual seconds), reported per session in a
:class:`SessionRecord` — this is the raw material of the paper's session
latency breakdown (experiment T2):

========== ==========================================================
suspend    quiescing the OS before SKINIT
skinit     microcode + dynamic PCR reset + SLB hash into PCR 17
pal_tpm    TPM commands issued by the PAL (quote, unseal, sign, ...)
pal_human  waiting for, and consumed by, the human at the keyboard
pal_logic  explicit PAL compute
cap        the PCR 17 session-end cap extend
resume     OS resume (device re-init)
========== ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.drtm.pal import Pal, PalServices
from repro.drtm.sealing import CAP_MEASUREMENT
from repro.drtm.skinit import (
    OS_RESUME_SECONDS,
    OS_SUSPEND_SECONDS,
    LateLaunchError,
    perform_skinit,
    teardown_launch,
)
from repro.drtm.slb import SecureLoaderBlock
from repro.hardware.machine import Machine
from repro.sim.kernel import Simulator
from repro.tpm.constants import PCR_DRTM_CODE, TpmError

# Human model: a callable taking (visible_screen_text, max_wait_seconds)
# and returning how long it thought before its keypresses landed (it
# injects them into the keyboard itself).  None means "no human present".
HumanActor = Callable[[str, float], float]

#: Attempts at the session-end PCR 17 cap before the platform halts, and
#: the virtual wait before each retry (TPM_RETRY asks the driver to
#: reissue the command after a short delay).
CAP_ATTEMPTS = 5
CAP_RETRY_SECONDS = 0.01

#: span name → SessionRecord.breakdown phase for the launch plumbing.
_PHASE_FOR_SPAN = {
    "drtm.suspend": "suspend",
    "drtm.skinit": "skinit",
    "drtm.cap": "cap",
    "drtm.resume": "resume",
}


def breakdown_from_span(session_span) -> Dict[str, float]:
    """Recover the per-phase breakdown from a ``drtm.session`` span tree.

    The launch phases map one child span each; inside ``drtm.pal`` the
    TPM commands (``tpm.*``) and human waits (``pal.human_wait``) are
    summed and the remainder is PAL logic — the same arithmetic
    :meth:`FlickerSession.run` performs with inline clock marks, so the
    result matches :attr:`SessionRecord.breakdown` to float precision.
    """
    breakdown = {
        "suspend": 0.0, "skinit": 0.0, "pal_tpm": 0.0, "pal_human": 0.0,
        "pal_logic": 0.0, "cap": 0.0, "resume": 0.0,
    }
    for child in session_span.children:
        phase = _PHASE_FOR_SPAN.get(child.name)
        if phase is not None:
            breakdown[phase] += child.duration
        elif child.name == "drtm.pal":
            tpm = sum(
                span.duration
                for span in child.walk()
                if span is not child and span.name.startswith("tpm.")
            )
            human = sum(
                grandchild.duration
                for grandchild in child.children
                if grandchild.name == "pal.human_wait"
            )
            breakdown["pal_tpm"] += tpm
            breakdown["pal_human"] += human
            breakdown["pal_logic"] += child.duration - (tpm + human)
    return breakdown


@dataclass
class SessionRecord:
    """Everything observable about one completed session."""

    outputs: Dict[str, bytes]
    breakdown: Dict[str, float]
    pcr17_during_session: bytes
    slb_measurement: bytes
    aborted: bool = False
    abort_reason: str = ""
    #: True when the abort came from a *transient* TPM fault
    #: (`TpmResult.RETRY`) — the session is safe to rerun as-is.
    abort_transient: bool = False
    #: the human's intrinsic think time (reading + decision + keystroke),
    #: independent of machine latency; see `perceived_overhead`.
    human_pure_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return sum(self.breakdown.values())

    def total_excluding_human(self) -> float:
        return self.total_seconds - self.breakdown.get("pal_human", 0.0)

    @property
    def perceived_overhead(self) -> float:
        """Session time the *machine* added on top of what the human
        would spend reading and deciding anyway.  This is the paper's
        user-facing cost metric: TPM work hidden behind reading time
        does not appear here."""
        return max(self.total_seconds - self.human_pure_seconds, 0.0)


class FlickerSession:
    """Runs PALs on one machine, one at a time.

    Parameters
    ----------
    simulator, machine:
        The platform.
    human:
        Optional human actor consulted when the PAL waits for input.
    os_hooks:
        Optional object with ``suspend()`` / ``resume()`` called around
        the launch (the untrusted OS model registers itself here so its
        malware provably cannot run mid-session).
    """

    def __init__(
        self,
        simulator: Simulator,
        machine: Machine,
        human: Optional[HumanActor] = None,
        os_hooks: Optional[object] = None,
        apply_cap: bool = True,
        protect_dma: bool = True,
        hide_latency: bool = True,
    ) -> None:
        # apply_cap / protect_dma exist for the defense-ablation
        # experiment (A1); production semantics are both True.
        # hide_latency toggles the reading-time overlap optimization
        # (ablation A2): False serializes human think time after all
        # PAL work, as a naive implementation would.
        self.apply_cap = apply_cap
        self.protect_dma = protect_dma
        self.hide_latency = hide_latency
        self.simulator = simulator
        self.machine = machine
        self.human = human
        self.os_hooks = os_hooks
        self.sessions_run = 0
        self.transient_retries = 0
        self._active_services: Optional[PalServices] = None
        self._last_show_at: Optional[float] = None
        self._human_think_accum = 0.0
        self._frames_at_start = 0

    # ------------------------------------------------------------------
    def run(
        self,
        pal: Pal,
        inputs: Dict[str, bytes],
        padded_size: int = 64 * 1024,
    ) -> SessionRecord:
        """Execute one complete late-launch session for ``pal``.

        Under tracing every phase of the launch becomes a child span of
        one ``drtm.session`` span, with the PAL's TPM commands and human
        waits nested below ``drtm.pal`` — the span tree reproduces the
        :class:`SessionRecord` breakdown exactly (see
        :func:`breakdown_from_span`).
        """
        clock = self.simulator.clock
        tracer = self.simulator.tracer
        breakdown: Dict[str, float] = {}

        with tracer.span(
            "drtm.session", pal=pal.name, vendor=self.machine.tpm.profile.vendor
        ) as session_span:
            # -- suspend the OS ---------------------------------------------
            mark = clock.now
            with tracer.span("drtm.suspend"):
                if self.os_hooks is not None:
                    self.os_hooks.suspend()
                clock.advance(OS_SUSPEND_SECONDS)
                self.machine.keyboard.claim("pal")
                self.machine.keyboard.drain("pal")
                self.machine.display.acquire("pal", pin=True)
            breakdown["suspend"] = clock.now - mark

            # -- SKINIT ------------------------------------------------------
            outputs: Dict[str, bytes] = {}
            aborted = False
            abort_reason = ""
            abort_transient = False
            context = None
            self._human_think_accum = 0.0
            mark = clock.now
            with tracer.span("drtm.skinit", padded_size=padded_size):
                slb = SecureLoaderBlock.package(pal, padded_size=padded_size)
                try:
                    context = perform_skinit(
                        self.simulator, self.machine, slb,
                        protect_dma=self.protect_dma,
                    )
                except TpmError as exc:
                    # A *transient* TPM fault during the launch aborts
                    # the session but must not wedge the machine:
                    # perform_skinit has unwound the partial launch, the
                    # claimed keyboard/display are released below and
                    # the caller may simply rerun.  Anything else is a
                    # genuine platform error and propagates as before.
                    if not exc.transient:
                        raise
                    aborted = True
                    abort_reason = f"{type(exc).__name__}: {exc}"
                    abort_transient = True
            breakdown["skinit"] = clock.now - mark
            pcr17 = self.machine.tpm.pcrs.read(PCR_DRTM_CODE)

            if context is not None:
                # -- run the PAL ---------------------------------------------
                services = PalServices(self)
                self._active_services = services
                self._last_show_at = None
                self._human_think_accum = 0.0
                self._frames_at_start = len(self.machine.display.frames)
                mark = clock.now
                with tracer.span("drtm.pal", pal=pal.name):
                    try:
                        outputs = pal.run(services, inputs)
                    except Exception as exc:  # PAL aborts must not wedge the machine
                        aborted = True
                        abort_reason = f"{type(exc).__name__}: {exc}"
                        abort_transient = (
                            isinstance(exc, TpmError) and exc.transient
                        )
                    finally:
                        self._active_services = None
                pal_total = clock.now - mark
                breakdown["pal_tpm"] = services.timings["tpm"]
                breakdown["pal_human"] = services.timings["human"]
                breakdown["pal_logic"] = pal_total - (
                    services.timings["tpm"] + services.timings["human"]
                )

                # -- cap PCR 17 so the resumed OS cannot reuse the PAL's
                # identity
                mark = clock.now
                with tracer.span("drtm.cap", applied=self.apply_cap):
                    if self.apply_cap:
                        self._cap_pcr17()
                breakdown["cap"] = clock.now - mark
            else:
                breakdown["pal_tpm"] = 0.0
                breakdown["pal_human"] = 0.0
                breakdown["pal_logic"] = 0.0
                breakdown["cap"] = 0.0

            # -- teardown + resume -------------------------------------------
            mark = clock.now
            with tracer.span("drtm.resume"):
                if context is not None:
                    teardown_launch(context)
                self.machine.display.release("pal")
                self.machine.keyboard.release_to_os()
                clock.advance(OS_RESUME_SECONDS)
                if self.os_hooks is not None:
                    self.os_hooks.resume()
            breakdown["resume"] = clock.now - mark
            session_span.set("aborted", aborted)

        self.sessions_run += 1
        return SessionRecord(
            outputs=outputs,
            human_pure_seconds=self._human_think_accum,
            breakdown=breakdown,
            pcr17_during_session=pcr17,
            slb_measurement=(
                context.measurement if context is not None else slb.measurement()
            ),
            aborted=aborted,
            abort_reason=abort_reason,
            abort_transient=abort_transient,
        )

    def _cap_pcr17(self) -> None:
        """Extend the session-end cap into PCR 17, retrying transient faults.

        A transient fault is raised before the TPM executes the command,
        so a retry cannot extend the cap twice.  If the cap never lands,
        the platform halts rather than resume the OS with PCR 17 still at
        the PAL's launch value, where it would unseal the PAL's secrets.
        """
        for attempt in range(CAP_ATTEMPTS):
            if attempt:
                self.simulator.clock.advance(CAP_RETRY_SECONDS)
            try:
                self.machine.chipset.tpm_command(
                    self.machine.cpu.pal_locality(),
                    "extend",
                    pcr_index=PCR_DRTM_CODE,
                    measurement=CAP_MEASUREMENT,
                )
                return
            except TpmError as exc:
                failure = exc
                if not exc.transient:
                    break
        self.machine.cpu.halt()
        raise LateLaunchError(
            f"PCR 17 cap failed ({failure}); platform halted"
        ) from failure

    def run_with_retry(
        self,
        pal: Pal,
        inputs: Dict[str, bytes],
        padded_size: int = 64 * 1024,
        max_attempts: int = 3,
    ) -> SessionRecord:
        """Run a session, rerunning it on *transient* TPM faults.

        A `TpmResult.RETRY` fault (injected or real — a busy TPM) aborts
        one session attempt; the launch itself is side-effect-free until
        the PAL commits outputs, so rerunning is always safe.  Permanent
        aborts and hard TPM errors are returned/raised unchanged.  The
        last attempt's record is returned even if still transient, so
        callers observe the fault rather than an infinite loop.
        """
        record = self.run(pal, inputs, padded_size=padded_size)
        for _ in range(max_attempts - 1):
            if not (record.aborted and record.abort_transient):
                break
            self.transient_retries += 1
            record = self.run(pal, inputs, padded_size=padded_size)
        return record

    # ------------------------------------------------------------------
    def visible_to_human(self) -> str:
        """Everything the PAL has shown this session, in page order.

        A human at the machine watches the pages as the PAL presents
        them (pagination for content past 25 rows), so their decision is
        based on the whole sequence, not just the final frame.
        """
        frames = self.machine.display.frames[self._frames_at_start :]
        pal_pages = [
            "\n".join(
                line for line in snapshot.splitlines() if line.strip()
            )
            for owner, snapshot in frames
            if owner == "pal"
        ]
        if not pal_pages:
            return self.machine.display.visible_text()
        return "\n".join(pal_pages)

    def note_show(self) -> None:
        """Record when the PAL last presented a frame.

        The human starts reading at presentation time, so TPM work the
        PAL performs *after* showing the screen overlaps with reading —
        the latency-hiding the paper's practical argument leans on.
        """
        self._last_show_at = self.simulator.clock.now

    def consult_human(self, max_wait: float) -> None:
        """Ask the human actor to look at the screen and (maybe) type.

        Called by PalServices.read_key when the FIFO is empty.  The
        human's think time is anchored at the last `show`, so time the
        PAL already spent (e.g. a TPM_Unseal issued behind the prompt)
        counts against it.  With no human attached, the full wait
        elapses — the PAL will time out.
        """
        clock = self.simulator.clock
        if self.human is None:
            clock.advance(max_wait)
            return
        visible = self.visible_to_human()
        think_seconds = max(self.human(visible, max_wait), 0.0)
        if self.machine.keyboard.pending:
            # The human actually acted: record their intrinsic think
            # time (used by experiments to separate perceived machine
            # overhead from time the user would spend reading anyway).
            self._human_think_accum += think_seconds
        if self.hide_latency and self._last_show_at is not None:
            anchor = self._last_show_at
        else:
            anchor = clock.now
        delay = min(max(anchor + think_seconds - clock.now, 0.0), max_wait)
        if delay == 0.0 and self.machine.keyboard.pending == 0:
            # The human looked but did not act; burn the wait so the
            # PAL's input deadline makes progress.
            delay = max_wait
        clock.advance(delay)
