"""Deterministic discrete-event simulation engine.

The engine is the substrate every protocol in this repository runs on.  It
provides a virtual clock with microsecond resolution, a deterministic event
queue (ties broken by insertion order), named cancellable timers, and a process
abstraction with a serialised CPU so compute costs (signature verification,
share combination, ...) translate into virtual latency exactly like they
would on a real core.

Determinism contract: given the same seed and the same sequence of
``schedule`` calls, two runs produce identical event orders and therefore
identical protocol outputs.  All randomness must flow through
:mod:`repro.sim.rng`.
"""

from repro.sim.engine import Simulator, Event, SimulationError
from repro.sim.timers import TimerWheel
from repro.sim.process import SimProcess, CpuModel
from repro.sim.rng import RngRegistry, derive_seed

__all__ = [
    "Simulator",
    "Event",
    "SimulationError",
    "TimerWheel",
    "SimProcess",
    "CpuModel",
    "RngRegistry",
    "derive_seed",
]
