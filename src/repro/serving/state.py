"""The bundle of serving-side state one coordinator run owns.

Kept free of any ``repro.core`` import so the ``repro.serving`` package
root can be imported from ``core.config`` validation without a cycle:
the coordinator that consumes it is ``repro.core.coordinator.loop``.
"""

from __future__ import annotations

import numpy as np

from repro.serving.admission import AdmissionQueue
from repro.serving.cache import ResultCache
from repro.serving.slo import ServingTimeline

__all__ = ["ServingState"]


class ServingState:
    """Admission queue + optional result cache + SLO timeline + schedule."""

    def __init__(
        self,
        schedule: np.ndarray,
        queue_depth: int,
        overload_policy: str,
        cache_size: int = 0,
        cache_mode: str = "exact",
        dim: int | None = None,
        seed: int = 0,
        metrics=None,
        cache_namespace: bytes = b"",
    ) -> None:
        self.schedule = np.asarray(schedule, dtype=np.float64)
        n = int(self.schedule.shape[0])
        self.n_queries = n
        self.admission = AdmissionQueue(queue_depth, overload_policy, metrics=metrics)
        self.cache = (
            ResultCache(
                cache_size,
                mode=cache_mode,
                dim=dim,
                seed=seed,
                metrics=metrics,
                namespace=cache_namespace,
            )
            if cache_size > 0
            else None
        )
        self.timeline = ServingTimeline(n)
        self.timeline.arrival[:] = self.schedule
        #: arrivals consumed off the fabric so far (monotone cursor)
        self.consumed = 0
        #: queries dropped by admission (their results must never be served)
        self.dropped: set[int] = set()

    @property
    def offered(self) -> int:
        return self.n_queries

    def drop(self, query_id: int) -> None:
        self.dropped.add(int(query_id))
        # a dropped query never completes: its timeline stays NaN
        self.timeline.dispatch[query_id] = np.nan
        self.timeline.complete[query_id] = np.nan

    def accounted(self) -> bool:
        """The admission invariant: every offered query is in one ledger."""
        a = self.admission
        return a.admitted + a.shed + a.rejected == self.offered
