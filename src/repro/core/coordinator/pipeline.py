"""The closed-loop fault-free coordinator (paper Algorithms 3 and 5).

Route → flow-controlled dispatch → streaming merge → drain, composed
from the package's pieces.  Covers every closed-loop fault-free mode
(open-loop arrivals and deadlines run in
:class:`~repro.core.coordinator.loop.EventLoop`, which shares this
module's End broadcast, thread-exit drain and report tail):

- approx routing (fixed ``n_probe``, per-partition dispatch batching)
  and adaptive routing (pilot probe + exact-ball second wave),
- two-sided results (point-to-point merge at the master) and one-sided
  results (worker ``Get_accumulate`` into the master's RMA window).

With ``dispatch_window = 0`` the run is bit-identical to the historical
eager master; with a finite window, dispatch blocks on worker credits
and consumes in-flight results while blocked, which bounds the queue
the cluster ever holds and overlaps merging with dispatch.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.config import SystemConfig
from repro.core.coordinator.merger import ResultMerger
from repro.core.coordinator.report import MasterReport
from repro.core.coordinator.router import Router
from repro.core.coordinator.window import DispatchWindow
from repro.core.messages import TAG_END, TAG_THREAD_DONE
from repro.core.replication import Workgroups
from repro.core.results import GlobalResults
from repro.loadbalance import PrimarySelector, ReplicaSelector
from repro.simmpi.engine import WAIT_TIMED_OUT, Context, Mailbox

__all__ = ["CoordinatorPipeline", "end_of_queries", "await_thread_exits", "close_report"]


def end_of_queries(ctx: Context, config: SystemConfig, node_mailboxes: list[Mailbox]):
    """Broadcast End of Queries to every worker node (Alg. 3 lines 12-14)."""
    for node in range(config.n_nodes):
        yield from ctx.send_to_mailbox(
            node_mailboxes[node], ("end",), source=ctx.pid, tag=TAG_END, nbytes=8, same_node=False
        )


def await_thread_exits(ctx: Context, n: int, timeout: float | None = None):
    """Collect up to ``n`` worker-thread exit notices; returns how many
    landed.  With a ``timeout``, stops at the first notice that does not
    land within it (threads on a crashed node never answer)."""
    for got in range(n):
        req = yield from ctx.post_recv(ctx.mailbox, tag=TAG_THREAD_DONE)
        if timeout is None:
            yield from ctx.wait(req)
            continue
        fired, _ = yield from ctx.wait_any([req], timeout=timeout)
        if fired == WAIT_TIMED_OUT:
            yield from ctx.cancel(req)
            return got
    return n


def close_report(report: MasterReport, window: DispatchWindow) -> MasterReport:
    """The report tail both coordinator loops share: queue depth and
    credit accounting."""
    report.queue_depth_timeline = window.tracker.timeline()
    report.max_outstanding_tasks = window.max_outstanding
    report.credits_leaked = window.outstanding
    return report


class CoordinatorPipeline:
    """One batch search's coordinator, any fault-free mode combination."""

    def __init__(
        self,
        config: SystemConfig,
        router,
        workgroups: Workgroups,
        queries: np.ndarray,
        results: GlobalResults,
        node_mailboxes: list[Mailbox],
        rma_window,
        selector: ReplicaSelector | None = None,
        metrics=None,
        fpayload: dict | None = None,
    ) -> None:
        self.config = config
        self.queries = queries
        self.node_mailboxes = node_mailboxes
        self.rma_window = rma_window
        self.report = MasterReport(config.n_cores, registry=metrics)
        if selector is None:
            selector = PrimarySelector(workgroups)
        self.selector = selector
        self.router = Router(router, self.report, int(queries.shape[1]))
        self.window = DispatchWindow(
            config, selector, self.report, node_mailboxes, fpayload=fpayload
        )
        self.merger = ResultMerger(
            config, results, self.report, one_sided=rma_window is not None
        )
        #: (query_id, dists) completions awaiting adaptive second waves
        self._events: deque = deque()
        self._pending_pilot: dict[int, int] = {}

    def run(self, ctx: Context):
        """The coordinator proc body.  Returns a :class:`MasterReport`."""
        config, report = self.config, self.report
        window, merger = self.window, self.merger
        queries = self.queries
        one_sided = self.rma_window is not None
        batch_start = ctx.now
        outstanding = np.zeros(len(queries), dtype=np.int64)
        latencies = np.full(len(queries), np.nan)

        def note_result(query_id: int) -> None:
            outstanding[query_id] -= 1
            if outstanding[query_id] == 0:
                latencies[query_id] = ctx.now - batch_start
                ctx.trace_instant("complete", query_id=int(query_id))

        def note_dispatch(query_ids) -> None:
            for qid in query_ids:
                outstanding[qid] += 1

        window.on_dispatch = note_dispatch
        if not one_sided:
            merger.note_result = note_result

        if config.routing == "approx":
            yield from self._approx_dispatch(ctx)
        else:  # adaptive, two-sided (collects its own results inline)
            yield from self._adaptive(ctx)

        with ctx.span("drain"):
            yield from end_of_queries(ctx, config, self.node_mailboxes)

        # collection loop (Alg. 3 lines 15-18): whatever is still in
        # flight — everything at W = 0, the uncollected tail at finite W.
        # One-sided runs drain only their credit acks (W > 0); at W = 0
        # nothing passes back through the master.
        if not one_sided or window.credits is not None:
            while merger.tasks_completed < report.tasks_sent:
                yield from merger.consume_one(ctx, window)

        # thread completion notifications: in one-sided mode this is what
        # tells the master every Get_accumulate has landed; in two-sided
        # mode it simply drains the exit messages
        with ctx.span("drain"):
            yield from await_thread_exits(ctx, config.n_nodes * config.threads_per_node)

        if not one_sided:
            report.query_latencies = latencies
        return close_report(report, window)

    # -- approx: route everything, batch per partition, collect after -------

    def _approx_dispatch(self, ctx: Context):
        config, window, merger = self.config, self.window, self.merger
        queries = self.queries
        # per-partition dispatch buffers: a partition's batch flushes as
        # soon as it holds batch_size queries, and stragglers flush in
        # partition order after the last query routes
        batch = config.batch_size
        buffers: dict[int, tuple[list[int], list[np.ndarray]]] = {}
        for qid in range(len(queries)):
            q = queries[qid]
            parts = yield from self.router.route_approx(ctx, q, config.n_probe, query_id=qid)
            self.report.fanouts.append(len(parts))
            for pid_part in parts:
                buf = buffers.get(pid_part)
                if buf is None:
                    buf = buffers[pid_part] = ([], [])
                buf[0].append(qid)
                buf[1].append(q)
                if len(buf[0]) >= batch:
                    del buffers[pid_part]
                    yield from window.dispatch_batch(ctx, merger, buf[0], pid_part, buf[1])
        for pid_part in sorted(buffers):
            qids_b, qvecs_b = buffers[pid_part]
            yield from window.dispatch_batch(ctx, merger, qids_b, pid_part, qvecs_b)
        buffers.clear()

    # -- adaptive: pilot wave, then per-pilot exact second waves -------------

    def _adaptive(self, ctx: Context):
        window, merger = self.window, self.merger
        queries = self.queries
        merger.on_complete = lambda qid, _pid, d: self._events.append((qid, d))
        for qid in range(len(queries)):
            q = queries[qid]
            parts = yield from self.router.route_approx(ctx, q, 1, query_id=qid)
            self._pending_pilot[qid] = parts[0]
            yield from window.dispatch(ctx, merger, qid, parts[0], q)
            # completions consumed while blocked on credits trigger their
            # second waves right away (empty at W = 0: nothing is consumed
            # until dispatch finishes)
            while self._events:
                eqid, d = self._events.popleft()
                yield from self._second_wave(ctx, eqid, d)
        # every result triggers a merge; a *pilot* result additionally
        # triggers the second-wave exact route with its k-th distance
        while self._events or merger.tasks_completed < self.report.tasks_sent:
            if self._events:
                eqid, d = self._events.popleft()
                yield from self._second_wave(ctx, eqid, d)
                continue
            yield from merger.consume_one(ctx, window)

    def _second_wave(self, ctx: Context, qid: int, d):
        pilot = self._pending_pilot.pop(qid, None)
        if pilot is None:
            return
        config, k = self.config, self.config.k
        tau = float(d[k - 1]) if len(d) >= k else float("inf")
        if np.isfinite(tau):
            parts = yield from self.router.route_exact(
                ctx, self.queries[qid], tau, drop=pilot, query_id=qid
            )
        else:
            parts = [p for p in range(config.n_cores) if p != pilot]
        self.report.fanouts.append(len(parts) + 1)
        for pid_part in parts:
            yield from self.window.dispatch(ctx, self.merger, qid, pid_part, self.queries[qid])
