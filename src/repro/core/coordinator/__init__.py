"""The coordinator core: composable master-side dispatch machinery.

The paper's master (Algorithms 3 and 5) is one dispatcher.  Here it is
two loops over four shared pieces:

- :class:`Router` — VP-tree routing plus route-cost accounting,
- :class:`DispatchWindow` — credit-based flow control: at most
  ``dispatch_window`` tasks in flight per core, credits returned as
  results (or one-sided credit acks) come home; ``dispatch_window=0``
  degenerates to the eager send-everything dispatcher bit for bit,
- :class:`ResultMerger` — the two-sided merge and one-sided RMA paths
  behind one streaming consume-one-message interface,
- :class:`MasterReport` — the per-coordinator measurement record;

and the two loops composed from them:

- :class:`CoordinatorPipeline` — the closed-loop fault-free route →
  dispatch → merge → drain of Alg. 3/5 (batching, adaptive second
  waves, End before collect),
- :class:`EventLoop` — every other master-worker mode: one event loop
  with an arrival source (open-loop serving or a closed batch) and an
  optional deadline policy (timeouts, retry, failover, suspicion).

Both share the End broadcast, the thread-exit drain and the report tail.
See docs/pipelining.md for the window/credit model and the
degeneracy-to-eager guarantee the golden tests pin.
"""

from repro.core.coordinator.loop import EventLoop
from repro.core.coordinator.merger import ResultMerger
from repro.core.coordinator.pipeline import CoordinatorPipeline
from repro.core.coordinator.report import MasterReport
from repro.core.coordinator.router import Router
from repro.core.coordinator.window import DispatchWindow

__all__ = [
    "Router",
    "DispatchWindow",
    "ResultMerger",
    "CoordinatorPipeline",
    "EventLoop",
    "MasterReport",
]
