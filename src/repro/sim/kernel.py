"""The simulation kernel: an event loop over virtual time.

Design notes
------------
The kernel is deliberately small.  Components interact with it in two ways:

* **Synchronous costs.**  Most of the platform model (TPM commands, SKINIT,
  memory hashing) executes inline in the caller and simply charges time via
  ``simulator.clock.advance(...)``.  This mirrors how those operations block
  the single CPU of the paper's testbed.

* **Asynchronous events.**  The network and concurrent clients schedule
  callbacks, dispatched in deterministic (time, insertion) order.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.clock import VirtualClock
from repro.sim.events import Event, EventQueue
from repro.sim.metrics import MetricRegistry
from repro.sim.randoms import SeededRng


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling in the past)."""


class Simulator:
    """Owns the virtual clock, the event queue, metrics and randomness.

    Parameters
    ----------
    seed:
        Master seed for all named random streams (see :class:`SeededRng`).
        Two simulators built with the same seed and the same schedule of
        operations produce bit-identical results.
    """

    def __init__(self, seed: int = 0) -> None:
        self.clock = VirtualClock()
        self.queue = EventQueue()
        self.metrics = MetricRegistry()
        self.rng = SeededRng(seed)
        self._dispatched = 0
        self._running = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock.now

    def schedule(
        self, delay: float, action: Callable[[], Any], label: str = ""
    ) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        return self.queue.push(self.clock.now + delay, action, label)

    def schedule_at(
        self, time: float, action: Callable[[], Any], label: str = ""
    ) -> Event:
        """Schedule ``action`` at absolute virtual ``time``."""
        if time < self.clock.now:
            raise SimulationError(
                f"cannot schedule event at {time} before now ({self.clock.now})"
            )
        return self.queue.push(time, action, label)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
        inclusive: bool = True,
    ) -> int:
        """Dispatch events until the queue drains or ``until`` is reached.

        ``inclusive`` controls whether events at exactly ``until`` are
        dispatched (the default) or left queued.  The half-open form
        lets a caller slice one long run into consecutive windows
        ``[t0, t1), [t1, t2), ...`` and close with an inclusive final
        ``run(until)``: an event at a slice edge fires exactly once, in
        the next window, so the sliced run dispatches the same events in
        the same order as one uninterrupted ``run(until)``.  The sliced
        benchmark simulator uses this to observe a day in windows
        without perturbing it.

        Returns the number of events dispatched by this call.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        dispatched_before = self._dispatched
        # Hot-loop locals: the loop body runs once per event, millions of
        # times in an open-loop load run, so attribute chains are hoisted.
        clock = self.clock
        pop_due = self.queue.pop_due
        peek_time = self.queue.peek_time
        dispatched = self._dispatched
        budget = dispatched + max_events
        try:
            while True:
                event = pop_due(until, inclusive)
                if event is None:
                    if (
                        inclusive
                        and until is not None
                        and peek_time() is not None
                    ):
                        # Earliest live event lies beyond the horizon.
                        clock.advance_to(until)
                    break
                if event.time > clock._now:
                    clock._now = event.time
                event.action()
                dispatched += 1
                self._dispatched = dispatched
                if dispatched >= budget:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a runaway loop"
                    )
        finally:
            self._running = False
        return self._dispatched - dispatched_before

    @property
    def events_dispatched(self) -> int:
        """Total events dispatched over the simulator's lifetime."""
        return self._dispatched

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.clock.now:.6f}, pending={len(self.queue)}, "
            f"dispatched={self._dispatched})"
        )
