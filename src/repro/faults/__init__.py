"""Fault injection and fault-tolerance policy (``repro.faults``).

The simulated fabric is perfect by default: no message is ever lost, no
rank ever dies.  This package turns it into a robustness testbed:

- :class:`~repro.faults.spec.FaultSpec` declares a failure scenario —
  fail-stop rank crashes at virtual times, per-link message drop /
  duplication / extra delay probabilities and persistent link
  degradation, and persistently slow nodes.  Specs round-trip through
  JSON (``repro query --faults spec.json`` replays one against any
  experiment).
- :class:`~repro.faults.injector.FaultInjector` enacts a spec inside the
  :class:`~repro.simmpi.engine.Simulation`, advancing the virtual clock
  realistically and logging every perturbation as a
  :class:`~repro.faults.injector.FaultEvent`.
- :class:`~repro.faults.spec.FaultPolicy` configures the fault-*tolerant*
  dispatch path (cost-model-derived timeouts, bounded retry with
  exponential backoff, replica failover, graceful degradation): the
  deadline policy of the coordinator's
  :class:`~repro.core.coordinator.loop.EventLoop`, which serves closed
  batches and open-loop arrivals alike.

See the "Fault model" section of ``docs/simulation.md`` for semantics.
"""

from repro.faults.injector import FaultEvent, FaultInjector
from repro.faults.spec import (
    ANY_NODE,
    FaultPolicy,
    FaultSpec,
    LinkFault,
    RankCrash,
    SlowNode,
)

__all__ = [
    "ANY_NODE",
    "FaultEvent",
    "FaultInjector",
    "FaultPolicy",
    "FaultSpec",
    "LinkFault",
    "RankCrash",
    "SlowNode",
]
