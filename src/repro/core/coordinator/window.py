"""Credit-based dispatch flow control (the HARMONY-style window).

``SystemConfig.dispatch_window = W`` grants every core W credits; each
in-flight task charges one credit against the core serving it, and the
credit returns when the task's result (two-sided) or credit ack
(one-sided) lands at the coordinator.  Dispatch to a partition whose
whole workgroup is out of credits *blocks* — the coordinator consumes
in-flight results through the :class:`~repro.core.coordinator.merger.
ResultMerger` until a credit frees — so at most ``W * n_cores`` tasks
are ever outstanding and merging overlaps dispatch instead of trailing
it.

At ``W = 0`` every credit structure is inert: no accounting, empty
exclusion sets, zero stall — the dispatcher is the eager
send-everything one, bit-identical to the pre-pipelining golden traces.

Replica selection composes: a blocked core is handed to the selector as
an exclusion, so backpressure steers tasks toward replicas that still
have credit (feedback the open-loop LoadTracker model cannot provide).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SystemConfig
from repro.core.coordinator.report import MasterReport
from repro.core.messages import (
    TAG_TASK,
    batch_task_nbytes,
    filter_payload_nbytes,
    make_batch_task,
    make_filter_batch_task,
    make_filter_task,
    make_task,
    task_nbytes,
)
from repro.loadbalance import ReplicaSelector
from repro.simmpi.engine import Context, Mailbox

__all__ = ["DispatchWindow"]


class _CreditBlocked:
    """Lazy ``exclude`` view: a core is excluded while it lacks credits.

    Handed to ``selector.pick`` so membership is checked only for the
    cores the selector actually considers (the partition's workgroup).
    """

    __slots__ = ("credits", "need")

    def __init__(self, credits: np.ndarray, need: int) -> None:
        self.credits = credits
        self.need = need

    def __contains__(self, core) -> bool:
        return bool(self.credits[core] < self.need)


class DispatchWindow:
    """Per-core credit accounting plus the task send path.

    Both coordinator loops send every task through here: the pipeline
    via :meth:`dispatch` / :meth:`dispatch_batch` (which block on
    credits), the event loop via the lower-level :meth:`send_task` (it
    owns its spans and deadlines and gates its queue head on credits
    instead of blocking, so it keeps settling and sweeping meanwhile).
    """

    def __init__(
        self,
        config: SystemConfig,
        selector: ReplicaSelector,
        report: MasterReport,
        node_mailboxes: list[Mailbox],
        fpayload: dict | None = None,
    ) -> None:
        self.config = config
        self.selector = selector
        self.tracker = selector.tracker
        self.workgroups = selector.workgroups
        self.report = report
        self.node_mailboxes = node_mailboxes
        #: run-wide pushed-down filter description; when set, every task
        #: leaves as an "ftask"/"fbtask" carrying it (and its wire bytes).
        #: None keeps the send path byte-identical to the unfiltered wire.
        self.fpayload = fpayload
        self._fpayload_nbytes = (
            filter_payload_nbytes(fpayload) if fpayload is not None else 0
        )
        self.window = int(config.dispatch_window)
        #: remaining credits per core; None when flow control is off
        self.credits = (
            np.full(config.n_cores, self.window, dtype=np.int64) if self.window else None
        )
        #: (query_id, partition_id) -> core currently charged for the task
        self.charged: dict[tuple[int, int], int] = {}
        self.outstanding = 0
        self.max_outstanding = 0
        #: set by the pipeline to observe dispatched query ids (per-query
        #: outstanding-result accounting for latencies)
        self.on_dispatch = None

    # -- credit accounting ---------------------------------------------------

    def blocked(self, need: int = 1):
        """The ``exclude`` view of credit-starved cores (empty when off)."""
        if self.credits is None:
            return ()
        return _CreditBlocked(self.credits, need)

    def group_has_credit(self, partition_id: int, need: int = 1, exclude=()) -> bool:
        """Whether any non-excluded replica of ``partition_id`` can take
        ``need`` more tasks (always True with flow control off)."""
        if self.credits is None:
            return True
        return any(
            self.credits[c] >= need
            for c in self.workgroups.cores_for_partition(partition_id)
            if c not in exclude
        )

    def _charge(self, core: int, keys) -> None:
        if self.credits is None:
            return
        self.credits[core] -= len(keys)
        for key in keys:
            self.charged[key] = core
        self.outstanding += len(keys)
        if self.outstanding > self.max_outstanding:
            self.max_outstanding = self.outstanding

    def release(self, key: tuple[int, int]) -> int | None:
        """Return the credit held by ``key``; the charged core, or None.

        None means the task holds no credit — flow control is off, or
        the task was already released (an abandoned task whose credit
        failover reclaimed, a late duplicate).  Callers never need to
        distinguish: release is idempotent per charge.
        """
        if self.credits is None:
            return None
        core = self.charged.pop(key, None)
        if core is None:
            return None
        self.credits[core] += 1
        self.outstanding -= 1
        return core

    def _await_credit(self, ctx: Context, merger, partition_id: int, need: int):
        """Block (consuming in-flight results) until the partition's
        workgroup has a core with ``need`` spare credits."""
        stall_start = None
        while not self.group_has_credit(partition_id, need):
            if stall_start is None:
                stall_start = ctx.now
            yield from merger.consume_one(ctx, self)
        if stall_start is not None:
            self.report.credit_stall_seconds += ctx.now - stall_start
            # only actual stalls land in the trace — a zero-width
            # credit_wait on every dispatch would drown the timeline
            ctx.trace_complete(
                "credit_wait", stall_start, ctx.now, partition=int(partition_id)
            )

    # -- send paths ----------------------------------------------------------

    def send_task(self, ctx: Context, query_id: int, partition_id: int, core: int, qvec):
        """Record + charge + ship one (query, partition) task to ``core``.

        No span and no credit *wait* — the callers own both (the
        pipeline blocks up front, the event loop gates its head).
        """
        self.tracker.record_dispatch(core, ctx.now)
        self.report.dispatch_counts[core] += 1
        self.report.tasks_sent += 1
        self.report.batches_sent += 1
        self._charge(core, ((int(query_id), int(partition_id)),))
        if ctx.trace_active:
            ctx.trace_instant(
                "task_send",
                query_id=int(query_id),
                partition=int(partition_id),
                core=int(core),
            )
        node = self.config.node_of_core(core)
        if self.fpayload is not None:
            msg = make_filter_task(query_id, partition_id, qvec, self.fpayload)
        else:
            msg = make_task(query_id, partition_id, qvec)
        yield from ctx.send_to_mailbox(
            self.node_mailboxes[node],
            msg,
            source=ctx.pid,
            tag=TAG_TASK,
            nbytes=task_nbytes(qvec) + self._fpayload_nbytes,
            same_node=False,
        )

    def dispatch(self, ctx: Context, merger, query_id: int, partition_id: int, qvec):
        """One flow-controlled task dispatch (the adaptive path's unit)."""
        if self.credits is not None:
            yield from self._await_credit(ctx, merger, partition_id, 1)
        with ctx.span("dispatch", query_id=int(query_id), partition=int(partition_id)):
            core = self.selector.pick(partition_id, ctx.now, exclude=self.blocked(1))
            if self.on_dispatch is not None:
                self.on_dispatch((query_id,))
            yield from self.send_task(ctx, query_id, partition_id, core, qvec)

    def dispatch_batch(self, ctx: Context, merger, query_ids, partition_id: int, qvecs):
        """Ship B buffered queries for one partition as a single message.

        One selector step, one message, one worker-side
        ``knn_search_batch`` — but B credits against the chosen core, so
        config validation requires ``batch_size <= dispatch_window``
        when flow control is on.  At B = 1 the wire bytes and send
        order are identical to :meth:`dispatch`.
        """
        need = len(query_ids)
        if self.credits is not None:
            yield from self._await_credit(ctx, merger, partition_id, need)
        with ctx.span("dispatch", partition=int(partition_id), n_queries=need):
            core = self.selector.pick(partition_id, ctx.now, exclude=self.blocked(need))
            self.tracker.record_dispatch(core, ctx.now, n_tasks=need)
            self.report.dispatch_counts[core] += need
            self.report.tasks_sent += need
            self.report.batches_sent += 1
            if self.on_dispatch is not None:
                self.on_dispatch(query_ids)
            self._charge(core, [(int(q), int(partition_id)) for q in query_ids])
            if ctx.trace_active:
                ctx.trace_instant(
                    "task_send",
                    query_ids=tuple(int(q) for q in query_ids),
                    partition=int(partition_id),
                    core=int(core),
                )
            node = self.config.node_of_core(core)
            Qb = np.stack(qvecs)
            if self.fpayload is not None:
                msg = make_filter_batch_task(query_ids, partition_id, Qb, self.fpayload)
            else:
                msg = make_batch_task(query_ids, partition_id, Qb)
            yield from ctx.send_to_mailbox(
                self.node_mailboxes[node],
                msg,
                source=ctx.pid,
                tag=TAG_TASK,
                nbytes=batch_task_nbytes(Qb) + self._fpayload_nbytes,
                same_node=False,
            )
