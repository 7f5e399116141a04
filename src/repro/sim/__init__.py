"""Deterministic discrete-event simulation substrate.

This package provides the execution substrate that stands in for the
paper's physical 10-node cluster:

* :mod:`repro.sim.engine` — a minimal SimPy-style engine: simulated
  clock, event heap, and generator-based processes.
* :mod:`repro.sim.events` — waitable events (:class:`Event`,
  :class:`Timeout`, :class:`AllOf`, :class:`AnyOf`).
* :mod:`repro.sim.flows` — a fluid-flow bandwidth model: long-running
  data transfers share NIC/switch/media capacity under max–min fairness,
  which is what produces the concurrency effects the paper measures
  (SSD-vs-3×HDD crossover, network congestion decline, etc.).
* :mod:`repro.sim.faults` — deterministic fault injection: declarative
  :class:`FaultSchedule` scenarios, a seeded :class:`ChaosProcess`, and
  the :class:`FaultInjector` whose primitives apply every fault, all
  running as engine processes.
* :mod:`repro.sim.periodic` — a stoppable wait-first periodic callback
  process (the shape shared by heartbeats, the replication monitor, and
  the tiering engine's policy rounds).
"""

from repro.sim.engine import SimulationEngine, TimerHandle
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.periodic import PeriodicProcess
from repro.sim.faults import (
    ChaosProcess,
    FaultEvent,
    FaultInjector,
    FaultRecord,
    FaultSchedule,
)
from repro.sim.flows import (
    DenseFlowSolver,
    Flow,
    FlowScheduler,
    FlowSet,
    IncrementalFlowSolver,
    Resource,
)

__all__ = [
    "SimulationEngine",
    "TimerHandle",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Flow",
    "FlowScheduler",
    "FlowSet",
    "DenseFlowSolver",
    "IncrementalFlowSolver",
    "Resource",
    "ChaosProcess",
    "FaultEvent",
    "FaultInjector",
    "FaultRecord",
    "FaultSchedule",
    "PeriodicProcess",
]
