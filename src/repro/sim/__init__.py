"""Discrete-event simulation kernel (system S1).

Every latency-bearing operation in the reproduction — TPM commands, the
SKINIT late launch, network hops, human think time — charges virtual time
on a shared :class:`~repro.sim.clock.VirtualClock` through this kernel.
The paper measured wall-clock seconds on a physical testbed; we measure
deterministic, seedable virtual seconds instead (substitution S1 in
DESIGN.md).

Public API
----------
:class:`Simulator`       — event loop owning the clock and run queue.
:class:`VirtualClock`    — monotonically advancing virtual time source.
:class:`Event`           — a scheduled callback.
:class:`LatencyModel`    — distributions used to sample operation latencies.
:class:`MetricRegistry`  — counters and histograms for experiments.
:class:`SeededRng`       — named, reproducible random streams.

Per-phase session latency is recorded by the DRTM session itself
(:attr:`repro.drtm.session.SessionRecord.breakdown`), not by the kernel.
"""

from repro.sim.clock import VirtualClock
from repro.sim.events import Event, EventQueue
from repro.sim.faults import FaultConfigError, FaultInjector, Window
from repro.sim.kernel import Simulator, SimulationError
from repro.sim.latency import ConstantLatency, LatencyModel, NormalLatency
from repro.sim.metrics import Counter, Histogram, MetricRegistry
from repro.sim.randoms import SeededRng

__all__ = [
    "VirtualClock",
    "Event",
    "EventQueue",
    "Simulator",
    "SimulationError",
    "LatencyModel",
    "ConstantLatency",
    "NormalLatency",
    "MetricRegistry",
    "Counter",
    "Histogram",
    "SeededRng",
    "FaultInjector",
    "FaultConfigError",
    "Window",
]
