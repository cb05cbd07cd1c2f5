"""Open-loop online serving: arrivals, admission, caching, SLO accounting.

The batch pipeline answers "how fast can the cluster chew through N
queries"; this package answers the serving question — what latency do
*clients* see when queries arrive on their own clock, what happens past
the capacity knee, and how much a hot-query cache buys.  Four pieces:

- :mod:`repro.serving.arrivals` — deterministic arrival processes
  (Poisson / bursty square-wave / trace replay) on the virtual clock;
- :mod:`repro.serving.admission` — bounded ingress queue with explicit,
  accounted overload policies (block / shed-oldest / reject);
- :mod:`repro.serving.cache` — LRU hot-query result cache (exact or
  near-duplicate keys) with hit/miss/stale accounting;
- :mod:`repro.serving.slo` — per-query arrival/dispatch/complete
  timestamps for arrival-to-completion latency and SLO-violation
  accounting.

The coordinator that drives these is the arrival source of
:class:`repro.core.coordinator.loop.EventLoop`; it is deliberately *not*
imported here: ``core.config`` validates arrival specs through this
package root, and the coordinator imports core.
"""

from repro.serving.admission import OVERLOAD_POLICIES, AdmissionQueue
from repro.serving.arrivals import (
    arrival_schedule,
    arrival_source_program,
    parse_arrival_spec,
)
from repro.serving.cache import CACHE_MODES, ResultCache, cache_namespace
from repro.serving.slo import ServingTimeline
from repro.serving.state import ServingState

__all__ = [
    "OVERLOAD_POLICIES",
    "AdmissionQueue",
    "arrival_schedule",
    "arrival_source_program",
    "parse_arrival_spec",
    "CACHE_MODES",
    "ResultCache",
    "cache_namespace",
    "ServingTimeline",
    "ServingState",
]
