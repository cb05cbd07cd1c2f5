"""Dispatch strategies: who routes queries and how results come home.

A :class:`DispatchStrategy` plugs the coordinator side of a batch search
into a :class:`~repro.runtime.cluster.ClusterRuntime`.  The runtime owns
everything mode-independent (the simulation, node mailboxes, worker thread
pools, report assembly); the strategy owns everything mode-specific:

- which coordinator procs exist (one master vs. one owner per node),
- how the RMA window is wired (one-sided master-worker only),
- where a node's workers send completion notices and default replies.

The three paper modes (Algs. 3-5 and the §IV multiple-owner discussion) map
onto two classes: :class:`MasterWorkerStrategy` covers both the two-sided
and the one-sided result path (chosen by ``config.one_sided``), and
:class:`MultipleOwnerStrategy` is the hash-owner variant.  New sharding or
serving designs implement the same three-method contract.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from repro.core.coordinator import CoordinatorPipeline, EventLoop
from repro.core.owner import owner_node_program
from repro.faults.spec import FaultPolicy
from repro.loadbalance import LoadTracker, estimate_task_seconds, make_selector
from repro.serving import (
    ServingState,
    arrival_schedule,
    arrival_source_program,
    cache_namespace,
)
from repro.simmpi.comm import Comm
from repro.simmpi.engine import Mailbox
from repro.simmpi.rma import Window

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.runtime.cluster import ClusterRuntime, SearchJob

__all__ = [
    "DispatchStrategy",
    "MasterWorkerStrategy",
    "MultipleOwnerStrategy",
    "strategy_for",
]


class DispatchStrategy(ABC):
    """Contract between a query-dispatch design and the ClusterRuntime.

    Lifecycle: the runtime calls :meth:`install` exactly once (before any
    worker procs are added — coordinator pids must come first so the
    engine's deterministic tie-breaking is stable), then
    :meth:`worker_wiring` once per node while spawning the worker pools,
    then reads :attr:`coordinator_pids` to build the report after the run.

    Every coordinator proc must return a
    :class:`~repro.core.coordinator.report.MasterReport` so the
    :class:`~repro.runtime.report.ReportBuilder` can aggregate uniformly.
    """

    #: pids of the coordinator procs, populated by :meth:`install`
    coordinator_pids: list[int]
    #: pids of infrastructure procs that are neither coordinator nor worker
    #: (e.g. the serving arrival source) — excluded from worker stats
    aux_pids: tuple = ()

    @abstractmethod
    def install(self, rt: "ClusterRuntime", job: "SearchJob") -> None:
        """Add coordinator procs to ``rt.sim`` and wire mode-specific state."""

    @abstractmethod
    def worker_wiring(self, rt: "ClusterRuntime", node: int) -> tuple[Mailbox, Window | None]:
        """(control mailbox, RMA window) for ``node``'s worker threads.

        The control mailbox receives thread-completion notices and is the
        default reply target for two-sided results; the window, when not
        None, switches workers to the one-sided accumulate path.
        """


class MasterWorkerStrategy(DispatchStrategy):
    """One master routes and dispatches every query (Algs. 3 and 5).

    Results return two-sided (point-to-point messages merged at the master)
    or one-sided (worker ``Get_accumulate`` into the master's RMA window,
    Fig. 2) according to ``config.one_sided``.
    """

    def __init__(self) -> None:
        self.coordinator_pids: list[int] = []
        self._window: Window | None = None
        self._master_mailbox: Mailbox | None = None

    def install(self, rt: "ClusterRuntime", job: "SearchJob") -> None:
        cfg = rt.config
        master_node = cfg.n_nodes  # the master gets a node of its own
        window_holder: list[Window | None] = [None]

        # the replica-selection policy and its load model: one tracker per
        # run (the master is the only dispatcher in this strategy), in-flight
        # tasks weighted by the cost model's per-search estimate
        task_seconds = estimate_task_seconds(cfg, job)
        tracker = LoadTracker(cfg.n_cores, task_seconds, metrics=rt.metrics)
        selector = make_selector(cfg.replica_selector, job.workgroups, tracker, seed=cfg.seed)

        # open-loop serving: the arrival schedule and the master-side
        # serving state (admission queue, cache, SLO timeline) are built
        # here so both coordinator variants and the arrival source proc
        # share one object; None keeps the closed-loop paths untouched
        serving_state = None
        if cfg.arrival is not None:
            schedule = arrival_schedule(cfg.arrival, len(job.Q), seed=cfg.seed)
            serving_state = ServingState(
                schedule,
                cfg.queue_depth,
                cfg.overload_policy,
                cache_size=cfg.cache_size,
                cache_mode=cfg.cache_mode,
                dim=int(job.Q.shape[1]),
                seed=cfg.seed,
                metrics=rt.metrics,
                # tenant/filter isolation: a (tenant, filter) pair gets its
                # own key namespace; both None = the empty prefix, keeping
                # unfiltered keys byte-identical.  The resolved tenant rides
                # the payload (per-call tenant= overrides the config's).
                cache_namespace=cache_namespace(
                    job.fpayload.get("tenant") if job.fpayload else cfg.tenant,
                    job.fpayload,
                ),
            )

        # the coordinator core (repro.core.coordinator): the closed-loop
        # fault-free pipeline, or the event loop with its two plug points —
        # the arrival source (serving_state; None = closed loop) and the
        # deadline policy (None = fault-free); all share routing, windowed
        # dispatch and result merging
        policy = cfg.fault_policy
        if policy is None and cfg.fault_spec is not None:
            policy = FaultPolicy()

        def master(ctx):
            args = (
                cfg,
                job.router,
                job.workgroups,
                job.Q,
                job.results,
                rt.node_mailboxes,
                window_holder[0],
            )
            kw = dict(selector=selector, metrics=rt.metrics, fpayload=job.fpayload)
            if serving_state is None and policy is None:
                coordinator = CoordinatorPipeline(*args, **kw)
            else:
                coordinator = EventLoop(
                    *args, **kw, serving=serving_state, policy=policy, task_seconds=task_seconds
                )
            return (yield from coordinator.run(ctx))

        pid = rt.sim.add_proc(master, node=master_node, name="master")
        if cfg.one_sided:
            window_holder[0] = Window(
                owner_pid=pid,
                owner_node=master_node,
                slots=job.results,
                combine=job.results.combine,
                name="results",
            )
        self._window = window_holder[0]
        self._master_mailbox = rt.sim.mailbox_of(pid)
        self.coordinator_pids = [pid]

        if serving_state is not None:
            # the ingress frontend: replays the arrival schedule into the
            # master's mailbox.  Registered right after the master (before
            # any workers) so pid order — the engine's deterministic
            # tie-break — stays stable; reported via aux_pids so its idle
            # gaps never pollute the worker time breakdown
            master_mailbox = self._master_mailbox

            def arrivals(ctx):
                yield from arrival_source_program(
                    ctx, master_mailbox, serving_state.schedule
                )

            src_pid = rt.sim.add_proc(arrivals, node=master_node, name="arrivals")
            self.aux_pids = (src_pid,)

    def worker_wiring(self, rt: "ClusterRuntime", node: int) -> tuple[Mailbox, Window | None]:
        return self._master_mailbox, self._window


class MultipleOwnerStrategy(DispatchStrategy):
    """Every node owns a hash slice of the queries (§IV discussion).

    Each node runs an owner proc holding a replica of the router skeleton;
    the owner of query q is node ``q % n_nodes``.  Workers reply directly
    to the owning node's mailbox (always two-sided), and a barrier among
    owners precedes the shutdown broadcast.
    """

    def __init__(self) -> None:
        self.coordinator_pids: list[int] = []

    def install(self, rt: "ClusterRuntime", job: "SearchJob") -> None:
        cfg = rt.config
        # owner of query q is node hash(q) = qid % n_nodes (the paper's hash
        # function is unspecified; modulo over the batch is the natural one)
        owner_of = np.arange(len(job.Q)) % cfg.n_nodes
        owner_comm_holder: list[Comm | None] = [None]
        pids: list[int] = []

        for node in range(cfg.n_nodes):
            my_queries = np.flatnonzero(owner_of == node)

            def owner(ctx, node=node, my_queries=my_queries):
                return (
                    yield from owner_node_program(
                        ctx,
                        cfg,
                        job.router,
                        job.workgroups,
                        job.Q,
                        my_queries,
                        job.results,
                        rt.node_mailboxes,
                        owner_comm_holder[0],
                        job.k,
                        node_id=node,
                        fpayload=job.fpayload,
                    )
                )

            pids.append(rt.sim.add_proc(owner, node=node, name=f"owner_n{node}"))
        owner_comm_holder[0] = Comm(rt.sim, pids, "owners")
        self.coordinator_pids = pids

    def worker_wiring(self, rt: "ClusterRuntime", node: int) -> tuple[Mailbox, Window | None]:
        # each node's workers report thread completion to their own owner;
        # result replies carry an explicit reply-to mailbox in the task
        return rt.sim.mailbox_of(self.coordinator_pids[node]), None


def strategy_for(config) -> DispatchStrategy:
    """The strategy a :class:`~repro.core.config.SystemConfig` selects."""
    if config.owner_strategy == "multiple":
        return MultipleOwnerStrategy()
    return MasterWorkerStrategy()
