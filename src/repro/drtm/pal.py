"""The PAL programming interface.

A PAL (Piece of Application Logic) is the only code that runs during a
late-launch session.  It gets a :class:`PalServices` object — a
deliberately narrow capability surface — and returns a dict of output
bytes.  Everything a PAL can observe or affect flows through services,
which also account virtual time per category so the session can report
the breakdown the paper's evaluation tables need.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.crypto.sha1 import sha1
from repro.hardware.keyboard import ScanCode
from repro.tpm.constants import PCR_DRTM_DATA

if TYPE_CHECKING:  # pragma: no cover
    from repro.drtm.session import FlickerSession


class PalAbortError(RuntimeError):
    """The PAL aborted deliberately (e.g. malformed inputs)."""


class PalTimeoutError(RuntimeError):
    """The human did not respond within the PAL's input deadline."""


class Pal(ABC):
    """Base class for PALs.

    Subclasses implement :meth:`run` and may override
    :meth:`config_bytes` to bake static configuration into their
    measured identity (see `repro.drtm.slb.measured_image`).
    """

    #: Human-readable name, shown in traces.
    name: str = "pal"

    def config_bytes(self) -> bytes:
        """Static configuration included in the measured image."""
        return b""

    @abstractmethod
    def run(
        self, services: "PalServices", inputs: Dict[str, bytes]
    ) -> Dict[str, bytes]:
        """Execute the PAL's logic; returns its outputs."""


class PalServices:
    """What a running PAL is allowed to do.

    Categories charged to the timing breakdown:

    * ``tpm``   — virtual time spent inside TPM commands,
    * ``human`` — time waiting for (and consumed by) the human,
    * ``logic`` — everything else the PAL charges explicitly.
    """

    # A PAL's compute is modeled as negligible next to TPM and human
    # time (Flicker PALs are tiny); PALs that hash large inputs charge
    # time explicitly via `charge_logic`.
    HUMAN_POLL_LIMIT = 32

    def __init__(self, session: "FlickerSession") -> None:
        self._session = session
        self.timings: Dict[str, float] = {"tpm": 0.0, "human": 0.0, "logic": 0.0}
        self._extended_outputs: List[bytes] = []

    # -- TPM at locality 2 --------------------------------------------------
    def tpm(self, command: str, **arguments: Any) -> Any:
        """Execute a TPM command at the PAL's locality (2)."""
        machine = self._session.machine
        clock = self._session.simulator.clock
        before = clock.now
        try:
            return machine.chipset.tpm_command(
                machine.cpu.pal_locality(), command, **arguments
            )
        finally:
            self.timings["tpm"] += clock.now - before

    def extend_data(self, data: bytes) -> bytes:
        """Extend SHA1(data) into PCR 18 (the DRTM data register)."""
        digest = sha1(data)
        self._extended_outputs.append(digest)
        return self.tpm(
            "extend", pcr_index=PCR_DRTM_DATA, measurement=digest
        )

    # -- display ------------------------------------------------------------
    def show(self, lines: List[str]) -> None:
        """Present ``lines`` to the human, paginating past 25 rows.

        The VGA text screen holds 25 lines; longer content (e.g. a batch
        confirmation) is committed as successive pages with a
        continuation marker, like the real PAL would scroll.  The
        human-actor protocol exposes every page of the session
        (`FlickerSession.visible_to_human`).

        Marks the human's reading anchor: TPM work issued after `show`
        overlaps with reading time (see FlickerSession.consult_human).
        """
        from repro.hardware.display import ROWS

        display = self._session.machine.display
        page_size = ROWS - 1  # last row reserved for the marker
        pages = [lines[i : i + page_size] for i in range(0, len(lines), page_size)]
        if not pages:
            pages = [[]]
        for index, page in enumerate(pages):
            display.clear("pal")
            display.write_lines("pal", page)
            if index + 1 < len(pages):
                display.write_text(
                    "pal", ROWS - 1, 0,
                    f"--- page {index + 1}/{len(pages)}, continues ---",
                )
            display.commit_frame("pal")
        self._session.note_show()

    # -- keyboard -----------------------------------------------------------
    def read_key(self, timeout: float) -> Optional[ScanCode]:
        """Block (in virtual time) until the human presses a key.

        The session's human model is consulted when the FIFO is empty:
        it reads the current screen and responds after its think time.
        Returns None on timeout.
        """
        session = self._session
        keyboard = session.machine.keyboard
        clock = session.simulator.clock
        started = clock.now
        polls = 0
        while True:
            code = keyboard.read_scancode("pal")
            if code is not None:
                self.timings["human"] += clock.now - started
                return code
            remaining = timeout - (clock.now - started)
            if remaining <= 0 or polls >= self.HUMAN_POLL_LIMIT:
                self.timings["human"] += clock.now - started
                return None
            polls += 1
            session.consult_human(remaining)

    # -- misc ---------------------------------------------------------------
    def random_bytes(self, count: int) -> bytes:
        return self.tpm("get_random", num_bytes=count)

    def charge_logic(self, seconds: float) -> None:
        """Charge explicit PAL compute time (e.g. hashing large inputs)."""
        self._session.simulator.clock.advance(seconds)
        self.timings["logic"] += seconds

    @property
    def extended_outputs(self) -> List[bytes]:
        """Digests this PAL extended into PCR 18, in order."""
        return list(self._extended_outputs)
