"""Multiple-owner search strategy (paper §IV, discussion paragraph).

Instead of one master, every node runs an *owner* process holding a replica
of the VP-tree skeleton; the owner of a query is chosen by a hash.  Each
owner routes and dispatches its queries, workers reply directly to the
owning node, and a final barrier among owners precedes the shutdown
broadcast.  The paper found this slightly faster than the master-worker
design at small scale but worse at large core counts because it cannot be
combined with workgroup-replication load balancing — the ablation bench
``test_ablation_owner_strategy`` reproduces that comparison.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SystemConfig
from repro.core.coordinator.report import MasterReport
from repro.core.messages import (
    TAG_END,
    TAG_RESULT,
    TAG_TASK,
    filter_task_nbytes,
    task_nbytes,
)
from repro.core.replication import Workgroups
from repro.core.results import GlobalResults
from repro.simmpi.comm import Comm
from repro.simmpi.engine import Context, Mailbox
from repro.vptree.router import PartitionRouter

__all__ = ["owner_node_program"]


def owner_node_program(
    ctx: Context,
    config: SystemConfig,
    router: PartitionRouter,
    workgroups: Workgroups,
    Q: np.ndarray,
    my_query_ids: np.ndarray,
    results: GlobalResults,
    node_mailboxes: list[Mailbox],
    owner_comm: Comm,
    k: int,
    node_id: int,
    fpayload: dict | None = None,
):
    """One node's owner proc.  Returns a :class:`MasterReport`."""
    report = MasterReport(config.n_cores)
    expected = 0

    for qid in my_query_ids:
        q = Q[qid]
        with ctx.span("route"):
            before = router.n_dist_evals
            parts = router.route_approx(q, config.n_probe)
            evals = router.n_dist_evals - before
            report.route_dist_evals += evals
            yield from ctx.compute(ctx.cost.distance_cost(evals, Q.shape[1]), kind="route")
        report.fanouts.append(len(parts))
        with ctx.span("dispatch"):
            for pid_part in parts:
                core = workgroups.next_core(pid_part)
                report.dispatch_counts[core] += 1
                report.tasks_sent += 1
                report.batches_sent += 1
                node = config.node_of_core(core)
                if fpayload is not None:
                    # the filtered task shifts the reply mailbox to [5] to
                    # fit the filter payload at [4] (see make_filter_task)
                    msg = ("ftask", int(qid), int(pid_part), q, fpayload, ctx.mailbox)
                    nbytes = filter_task_nbytes(q, fpayload)
                else:
                    msg = ("task", int(qid), int(pid_part), q, ctx.mailbox)
                    nbytes = task_nbytes(q)
                yield from ctx.send_to_mailbox(
                    node_mailboxes[node],
                    msg,
                    source=ctx.pid,
                    tag=TAG_TASK,
                    nbytes=nbytes,
                    same_node=node == node_id,
                )
                expected += 1

    # collect results for this owner's queries
    for _ in range(expected):
        with ctx.span("reduce"):
            req = yield from ctx.post_recv(ctx.mailbox, tag=TAG_RESULT)
            payload = yield from ctx.wait(req)
            _, qid, _pid_part, d, ids = payload
            yield from ctx.compute(ctx.cost.compare_cost(len(d) + k), kind="merge")
            results.update(qid, d, ids)

    # all owners done => all tasks answered => safe to shut workers down
    with ctx.span("drain"):
        yield from owner_comm.barrier(ctx)
        if owner_comm.rank(ctx) == 0:
            for node in range(config.n_nodes):
                for _ in range(config.threads_per_node):
                    yield from ctx.send_to_mailbox(
                        node_mailboxes[node],
                        ("end",),
                        source=ctx.pid,
                        tag=TAG_END,
                        nbytes=8,
                        same_node=False,
                    )
    return report
