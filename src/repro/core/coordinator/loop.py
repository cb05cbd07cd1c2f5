"""The coordinator event loop: arrivals and deadlines in one discipline.

:class:`CoordinatorPipeline` pushes a closed batch through with no
failures to recover from.  Every other master-worker mode runs here, in
one loop with two plug points, both chosen from the config:

- the *arrival source* — open loop (``config.arrival``): a query becomes
  work when its ``TAG_ARRIVE`` lands and the admission queue lets it
  through, with the result cache probed first; closed loop: every query
  is queued at t = 0, with no ledger and no serving fields in the report;
- the *deadline policy* (``config.fault_policy`` / ``config.fault_spec``):
  every task carries a deadline from the cost model, and a task that
  misses it is retried on the same core or failed over to the next live
  replica with exponential backoff, up to ``policy.max_attempts`` sends.
  A core that times out ``policy.suspect_after`` times is suspected
  dead, and a task with no live replica left is abandoned: its query
  completes degraded (``completeness`` < 1), never hangs.  Late answers
  of abandoned tasks still merge; duplicates are dropped by
  (query, partition) dedup.  Without a policy no deadline is armed and
  nothing is ever swept.

Each pass of the loop

1. settles the receives (arrivals, results or credit acks) that have
   already landed, in virtual-completion order, so the interleaving of
   arrivals and results is causal and deterministic;
2. sweeps expired deadlines;
3. serves the queue head — cache probe, route, then dispatch every
   routed partition, *gated* on every partition's workgroup having a
   spare credit, so service is head-of-line blocking and the bounded
   ingress queue stays the only queue (a task whose credit an earlier
   task of the same query took on a shared core waits ahead of any new
   query);
4. otherwise blocks on the earliest posted receive, or on the earliest
   deadline.

Because the loop keeps sweeping deadlines while the head is gated, a
crashed core's credits come home through the sweep, and flow control
needs no second queue of deferred tasks.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.config import SystemConfig
from repro.core.coordinator.merger import ResultMerger
from repro.core.coordinator.pipeline import (
    await_thread_exits,
    close_report,
    end_of_queries,
)
from repro.core.coordinator.report import MasterReport
from repro.core.coordinator.router import Router
from repro.core.coordinator.window import DispatchWindow
from repro.core.messages import TAG_ARRIVE, TAG_CREDIT, TAG_RESULT
from repro.core.replication import Workgroups
from repro.core.results import GlobalResults
from repro.faults.spec import FaultPolicy
from repro.loadbalance import (
    PrimarySelector,
    ReplicaSelector,
    derive_drain_timeout,
    derive_task_timeout,
)
from repro.serving.slo import ServingTimeline
from repro.serving.state import ServingState
from repro.simmpi.engine import WAIT_TIMED_OUT, Context, Mailbox
from repro.simmpi.errors import SimError

__all__ = ["EventLoop"]


class _ExcludeUnion:
    """Lazy union of two ``exclude`` views (dead/tried sets + credit block)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b) -> None:
        self.a = a
        self.b = b

    def __contains__(self, core) -> bool:
        return core in self.a or core in self.b


class _Task:
    """One dispatched (query, partition) task awaiting its answer."""

    __slots__ = ("core", "attempts", "tried", "deadline")

    def __init__(self, core: int) -> None:
        self.core = core
        self.attempts = 1
        self.tried = {core}
        self.deadline = np.inf


class EventLoop:
    """One search call's coordinator for every mode but the closed-loop
    fault-free one (approx routing, batch_size 1)."""

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
        serving: ServingState | None = None,
        policy: FaultPolicy | None = None,
        task_seconds: float = 0.0,
    ) -> None:
        self.config = config
        self.queries = queries
        self.results = results
        self.node_mailboxes = node_mailboxes
        self.report = MasterReport(config.n_cores, registry=metrics)
        if selector is None:
            selector = PrimarySelector(workgroups)
        self.selector = selector
        self.workgroups = selector.workgroups
        self.router = Router(router, self.report, int(queries.shape[1]))
        self.window = DispatchWindow(
            config, selector, self.report, node_mailboxes, fpayload=fpayload
        )
        self.merger = ResultMerger(
            config, results, self.report, one_sided=rma_window is not None
        )
        n = len(queries)
        # -- the arrival source ----------------------------------------------
        #: open-loop serving state; None = closed loop
        self.serving = serving
        self.cache = serving.cache if serving is not None else None
        self.queue = serving.admission.queue if serving is not None else deque(range(n))
        self.timeline = serving.timeline if serving is not None else ServingTimeline(n)
        # -- the deadline policy ---------------------------------------------
        self.policy = policy
        self.task_seconds = task_seconds
        self.base_timeout = np.inf  # derived from the live network in run()
        self.timeouts_by_core = np.zeros(config.n_cores, dtype=np.int64)
        #: cores suspected dead (always empty without a policy)
        self.dead: set[int] = set()
        # -- per-task and per-query state ------------------------------------
        self.pending: dict[tuple[int, int], _Task] = {}
        #: abandoned tasks, until (if ever) a late answer recovers them
        self.failed: set[tuple[int, int]] = set()
        #: memoized route of a credit-gated head (never re-routed)
        self._routes: dict[int, list[int]] = {}
        #: cache key per probed-and-missed query, for insert at completion
        self._keys: dict[int, bytes] = {}
        #: queries with a failed task: their answers never seed the cache
        self._degraded: set[int] = set()
        self._n_parts = np.zeros(n, dtype=np.int64)
        self._answered = np.zeros(n, dtype=np.int64)
        self._left = np.zeros(n, dtype=np.int64)
        #: the query in service and its partitions still to send
        self._in_service = -1
        self._unsent: deque[int] = deque()

    # -- arrivals ------------------------------------------------------------

    def _arrivals_left(self) -> bool:
        state = self.serving
        return state is not None and state.consumed < state.n_queries

    def _want_arrival(self) -> bool:
        return self._arrivals_left() and self.serving.admission.accepting()

    def _on_arrival(self, ctx: Context, payload) -> None:
        state = self.serving
        _, qid, _t = payload
        state.consumed += 1
        outcome, dropped = state.admission.offer(qid)
        ctx.trace_instant("arrive", query_id=int(qid), outcome=outcome)
        if outcome == "rejected":
            state.drop(qid)
        elif outcome == "shed":
            state.drop(dropped)

    # -- service -------------------------------------------------------------

    def _begin(self, ctx: Context, qid: int) -> None:
        """The queue head enters service."""
        if self.serving is not None:
            self.serving.admission.begin_service()
            ctx.trace_instant("admit", query_id=int(qid))
        else:
            self.queue.popleft()
        self.timeline.note_dispatch(qid, ctx.now)

    def _live(self, pid_part: int) -> bool:
        """Whether ``pid_part`` has a replica not suspected dead."""
        dead = self.dead
        return not dead or any(
            c not in dead for c in self.workgroups.cores_for_partition(pid_part)
        )

    def _serve(self, ctx: Context):
        """Make service progress; False if none was possible.

        Finishes sending the query in service, else takes the queue head
        into service: cache probe first, then route, then the gate —
        every partition with a live replica needs a spare credit on one.
        """
        if self._unsent:
            return (yield from self._send_unsent(ctx))
        qid = self.queue[0]
        q = self.queries[qid]
        cache = self.cache
        if cache is not None and qid not in self._keys:
            key = cache.key(q)
            row = cache.get(key)
            ctx.trace_instant("cache_probe", query_id=int(qid), hit=row is not None)
            if row is not None:
                # hit: the answer is already at the master — serve it
                # without touching the cluster (zero-cost completion)
                self._begin(ctx, qid)
                d, i = row
                self.results[qid] = (d.copy(), i.copy())
                self.timeline.note_complete(qid, ctx.now)
                ctx.trace_instant("complete", query_id=int(qid), cached=True)
                self.report.fanouts.append(0)
                return True
            self._keys[qid] = key
        parts = self._routes.get(qid)
        if parts is None:
            parts = yield from self.router.route_approx(
                ctx, q, self.config.n_probe, query_id=int(qid)
            )
            self._routes[qid] = parts
        window = self.window
        if window.credits is not None and not all(
            window.group_has_credit(p, 1, exclude=self.dead) for p in parts if self._live(p)
        ):
            return False
        del self._routes[qid]
        self._begin(ctx, qid)
        self.report.fanouts.append(len(parts))
        self._n_parts[qid] = self._left[qid] = len(parts)
        self._in_service = qid
        self._unsent.extend(int(p) for p in parts)
        yield from self._send_unsent(ctx)
        return True

    def _exclude(self, base):
        """``base`` extended with credit-starved cores when flow control
        is on (``base`` alone when off)."""
        blocked = self.window.blocked(1)
        if not base:
            return blocked
        if self.window.credits is None:
            return base
        return _ExcludeUnion(base, blocked)

    def _send_unsent(self, ctx: Context):
        """Send the query in service's tasks, failing those whose
        partition has no live replica; False if the first one waits.

        Partitions share cores, so an earlier task of the query can take
        the last credit a later one passed the gate with: the rest then
        waits for a credit, ahead of any new query.
        """
        qid, q, unsent = self._in_service, self.queries[self._in_service], self._unsent
        sent = False
        while unsent:
            pid_part = unsent[0]
            core = self.selector.pick(pid_part, ctx.now, exclude=self._exclude(self.dead))
            if core is None and self._live(pid_part):
                return sent
            unsent.popleft()
            sent = True
            if core is None:
                self._fail(ctx, (qid, pid_part))
                continue
            task = self.pending[(qid, pid_part)] = _Task(core)
            with ctx.span("dispatch", query_id=int(qid), partition=pid_part):
                yield from self.window.send_task(ctx, qid, pid_part, core, q)
            task.deadline = ctx.now + self.base_timeout
        return sent

    # -- settling ------------------------------------------------------------

    def _on_result(self, ctx: Context, payload):
        if self.merger.one_sided:
            # a credit ack: the rows already landed in the RMA window
            _, qids_b, pid_part = payload
            for qid in qids_b:
                self._settle(ctx, (int(qid), int(pid_part)))
            return
        key = (int(payload[1]), int(payload[2]))
        if key not in self.pending and key not in self.failed:
            self.report.duplicate_results += 1  # this task was answered already
            return
        with ctx.span("reduce"):
            yield from self.merger.merge_payload(ctx, payload)
        self._answered[key[0]] += 1
        if key in self.failed:
            self.failed.discard(key)  # a late answer recovered an abandoned task
            return
        # the answering core is evidence of life: reset its suspicion so
        # transient losses cannot snowball into a whole workgroup dead
        core = self.pending[key].core
        self.timeouts_by_core[core] = 0
        self.dead.discard(core)
        self._settle(ctx, key)

    def _settle(self, ctx: Context, key: tuple[int, int]) -> None:
        del self.pending[key]
        self.window.release(key)
        if ctx.trace_active:
            ctx.trace_instant("task_settle", query_id=key[0], partition=key[1])
        self._resolve(ctx, key[0])

    def _fail(self, ctx: Context, key: tuple[int, int]) -> None:
        self.failed.add(key)
        self.report.failed_tasks += 1
        self._degraded.add(key[0])
        self._resolve(ctx, key[0])

    def _resolve(self, ctx: Context, qid: int) -> None:
        """One task of ``qid`` answered or abandoned; at zero left the
        query completes, possibly degraded."""
        self._left[qid] -= 1
        if self._left[qid] != 0:
            return
        self.timeline.note_complete(qid, ctx.now)
        ctx.trace_instant("complete", query_id=int(qid))
        key = self._keys.pop(qid, None)
        if key is not None and qid not in self._degraded:
            slot = self.results[qid]
            if slot is not None:
                d, i = slot
                self.cache.put(key, (d.copy(), i.copy()))

    # -- deadlines -----------------------------------------------------------

    def _next_deadline(self) -> float:
        if self.policy is None or not self.pending:
            return np.inf
        return min(t.deadline for t in self.pending.values())

    def _sweep(self, ctx: Context):
        """Retry, fail over or abandon every task past its deadline."""
        now = ctx.now
        struck: set[int] = set()
        for key in [k for k, t in self.pending.items() if t.deadline <= now]:
            yield from self._expire(ctx, key, struck)

    def _expire(self, ctx: Context, key: tuple[int, int], struck: set[int]):
        qid, pid_part = key
        task = self.pending[key]
        # many tasks expiring together on one core are ONE piece of evidence
        # (a single lost message batch), not many — strike each core at most
        # once per sweep, or a burst would kill the whole cluster
        if task.core not in struck:
            struck.add(task.core)
            self.timeouts_by_core[task.core] += 1
            if (
                task.core not in self.dead
                and self.timeouts_by_core[task.core] >= self.policy.suspect_after
            ):
                self.dead.add(task.core)
                self.report.suspected_dead_cores.append(int(task.core))
                ctx.trace_instant("suspect_core", core=int(task.core))
        # reclaim the timed-out attempt's credit first: the replacement
        # send charges its own, and a crashed core must never pin its
        # workgroup's window (the credits_leaked invariant)
        self.window.release(key)
        if task.attempts >= self.policy.max_attempts:
            del self.pending[key]
            self._fail(ctx, key)
            return
        # prefer an untried live replica with spare credits, then any live
        # one, then anything: suspicion steers dispatch away from dead cores
        # but never forfeits a task's remaining attempts (suspicion can be
        # wrong — lossy links), and flow control yields to fault recovery
        # (the last two levels may over-commit a window)
        pick = self.selector.pick
        nxt = pick(pid_part, ctx.now, exclude=self._exclude(self.dead | task.tried))
        if nxt is None:
            nxt = pick(pid_part, ctx.now, exclude=self._exclude(self.dead))
        if nxt is None:
            nxt = pick(pid_part, ctx.now, exclude=task.tried)
        if nxt is None:
            nxt = pick(pid_part, ctx.now)
        span = "retry" if nxt == task.core else "failover"
        if nxt == task.core:
            self.report.retries += 1
        else:
            self.report.failovers += 1
        task.attempts += 1
        task.tried.add(nxt)
        task.core = nxt
        with ctx.span(span, query_id=int(qid), partition=int(pid_part), core=int(nxt)):
            yield from self.window.send_task(ctx, qid, pid_part, nxt, self.queries[qid])
        task.deadline = ctx.now + self.base_timeout * self.policy.backoff ** (
            task.attempts - 1
        )

    # -- the proc body -------------------------------------------------------

    def run(self, ctx: Context):
        """The coordinator proc body.  Returns a :class:`MasterReport`."""
        policy = self.policy
        if policy is not None:
            self.base_timeout = derive_task_timeout(policy, self.task_seconds, ctx.network)
        if self.serving is None:
            self.timeline.arrival[:] = ctx.now
        result_tag = TAG_CREDIT if self.merger.one_sided else TAG_RESULT

        def post(req, wanted, tag):
            if req is None and wanted:
                req = yield from ctx.post_recv(ctx.mailbox, tag=tag)
            return req

        arrive = result = None
        while self._arrivals_left() or self.queue or self._unsent or self.pending:
            arrive = yield from post(arrive, self._want_arrival(), TAG_ARRIVE)
            result = yield from post(result, self.pending, result_tag)

            # settle everything that has already happened, in virtual-
            # completion order, without advancing the clock
            progressed = False
            while True:
                ready = [
                    r
                    for r in (arrive, result)
                    if r is not None and r.done and r.completion_time <= ctx.now
                ]
                if not ready:
                    break
                req = min(ready, key=lambda r: r.completion_time)
                payload = yield from ctx.wait(req)
                if req is arrive:
                    self._on_arrival(ctx, payload)
                    arrive = yield from post(None, self._want_arrival(), TAG_ARRIVE)
                else:
                    yield from self._on_result(ctx, payload)
                    result = yield from post(None, self.pending, result_tag)
                progressed = True

            if self._next_deadline() <= ctx.now:
                yield from self._sweep(ctx)
                progressed = True
            if self.queue or self._unsent:
                served = yield from self._serve(ctx)
                if served:
                    continue
            if progressed:
                continue

            # nothing ready and the head (if any) is credit-gated: block
            # until the next arrival, settle or deadline.  Requests that
            # are done-but-future are waited directly in completion order —
            # wait_any's immediate-completion check is post-order, which
            # would let a later result overtake an earlier arrival.
            waits = [r for r in (arrive, result) if r is not None]
            if not waits:
                raise SimError(
                    "coordinator stalled with no receive posted "
                    f"(queue {len(self.queue)}, pending {len(self.pending)})"
                )
            done = [r for r in waits if r.done]
            if done:
                req = min(done, key=lambda r: r.completion_time)
                payload = yield from ctx.wait(req)
            else:
                deadline = self._next_deadline()
                budget = None if deadline == np.inf else max(deadline - ctx.now, 0.0)
                idx, payload = yield from ctx.wait_any(waits, timeout=budget)
                if idx == WAIT_TIMED_OUT:
                    continue  # the next pass sweeps the expired deadlines
                req = waits[idx]
            if req is arrive:
                arrive = None
                self._on_arrival(ctx, payload)
            else:
                result = None
                yield from self._on_result(ctx, payload)

        for r in (arrive, result):
            if r is not None:
                yield from ctx.cancel(r)
        yield from self._shutdown(ctx)
        return self._finish_report()

    def _shutdown(self, ctx: Context):
        """End of Queries, then the thread-exit drain.  Under a deadline
        policy the drain is bounded: End is rebroadcast up to
        ``drain_rounds`` times, each round's collection under a timeout,
        because threads on crashed nodes never answer."""
        config, policy = self.config, self.policy
        rounds, timeout = 1, None
        if policy is not None:
            rounds = policy.drain_rounds
            timeout = derive_drain_timeout(policy, self.base_timeout, ctx.network)
        n_threads = config.n_nodes * config.threads_per_node
        got = 0
        with ctx.span("drain"):
            for _round in range(rounds):
                yield from end_of_queries(ctx, config, self.node_mailboxes)
                got += yield from await_thread_exits(ctx, n_threads - got, timeout)
                if got >= n_threads:
                    break

    def _finish_report(self) -> MasterReport:
        report, state = self.report, self.serving
        report.query_latencies = self.timeline.latencies()
        if self.policy is not None:
            # cache hits and dropped queries routed no partitions: they are
            # complete by definition (served from cache) or never served
            report.completeness = np.where(
                self._n_parts > 0, self._answered / np.maximum(self._n_parts, 1), 1.0
            )
        if state is not None:
            adm = state.admission
            if not state.accounted():
                raise SimError(
                    "serving admission ledgers do not cover the offered load: "
                    f"admitted {adm.admitted} + shed {adm.shed} + rejected "
                    f"{adm.rejected} != offered {state.offered}"
                )
            report.offered_queries = state.offered
            report.admitted_queries = adm.admitted
            report.shed_queries = adm.shed
            report.rejected_queries = adm.rejected
            report.max_ingress_depth = adm.max_depth_seen
            if self.cache is not None:
                report.cache_hits = self.cache.hits
                report.cache_misses = self.cache.misses
                report.cache_stale = self.cache.stale
                report.cache_evictions = self.cache.evictions
            report.arrival_times = self.timeline.arrival
            report.dispatch_times = self.timeline.dispatch
            report.complete_times = self.timeline.complete
        return close_report(report, self.window)
