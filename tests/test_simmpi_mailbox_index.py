"""The tag-indexed mailbox against a linear-scan reference matcher.

:class:`ReferenceSimulation` keeps each mailbox's queued messages in one
list in delivery order and, on every receive, scans all of it for the
matching message with the smallest ``(arrival, seq)`` — the matcher the
per-tag heaps replaced.  Random traces of sends, receives, waits, cancels,
link delays and a node crash run through both engines; every request must
end with the same message at the same completion time.
"""

from __future__ import annotations

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultSpec, LinkFault, RankCrash
from repro.obs.metrics import MetricsRegistry
from repro.simmpi import Simulation
from repro.simmpi.engine import ANY_SOURCE, ANY_TAG, Request

# a small namespace, so queued messages often compete for one receive
N_MAILBOXES = 2  # mailbox i lives on node i; senders run on node 2
SOURCES = (0, 1)
TAGS = (0, 1, (0, 0), (0, 1), (1, 0))
PATTERNS = TAGS + (ANY_TAG, (0, ANY_TAG), (1, ANY_TAG))
# a grid of delays, so sends from different procs often leave (and arrive)
# at exactly the same virtual time
DELAYS = (0.0, 0.5, 1.0)
# wire sizes whose transfer times (up to 1 s) let a later send overtake an
# earlier one
NBYTES = (8, 4 * 10**9, 10**10)
TIMEOUTS = (0.25, 1.0, 5.0)


class ReferenceSimulation(Simulation):
    """The engine with the pre-index linear-scan message matcher."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.queues: dict[int, list] = {}
        self.peaks: dict[int, int] = {}

    def _deliver(self, mailbox, msg):
        for req in mailbox._pending:
            if req._matches(msg.source, msg.tag):
                mailbox._pending.remove(req)
                req._complete(msg)
                if req._waiter is not None:
                    self._finish_wait_any(req._waiter, req, msg.payload)
                return
        queue = self.queues.setdefault(id(mailbox), [])
        queue.append(msg)
        self.peaks[id(mailbox)] = max(self.peaks.get(id(mailbox), 0), len(queue))

    def _do_recv_post(self, proc, sc):
        req = Request(sc.mailbox, sc.source, sc.tag, proc.clock)
        queue = self.queues.setdefault(id(sc.mailbox), [])
        best_idx, best = -1, None
        for idx, msg in enumerate(queue):
            if req._matches(msg.source, msg.tag):
                if best is None or (msg.arrival, msg.seq) < (best.arrival, best.seq):
                    best_idx, best = idx, msg
        if best is not None:
            del queue[best_idx]
            req._complete(best)
        else:
            sc.mailbox._pending.append(req)
        return req


def sender_ops(rnd):
    ops = []
    for _ in range(rnd.randint(4, 24)):
        if rnd.random() < 0.2:
            ops.append(("compute", rnd.choice(DELAYS)))
        else:
            ops.append((
                "send", rnd.randrange(N_MAILBOXES), rnd.choice(SOURCES), rnd.choice(TAGS),
                rnd.choice(NBYTES), rnd.random() < 0.5,
            ))
    return ops


def receiver_ops(rnd):
    ops = []
    for _ in range(rnd.randint(4, 24)):
        r = rnd.random()
        if r < 0.6:
            ops.append(("post", rnd.choice((ANY_SOURCE,) + SOURCES), rnd.choice(PATTERNS)))
        elif r < 0.75:
            ops.append(("wait", rnd.randrange(20), rnd.choice(TIMEOUTS)))
        elif r < 0.85:
            ops.append(("cancel", rnd.randrange(20)))
        else:
            ops.append(("compute", rnd.choice(DELAYS)))
    return ops


@st.composite
def traces(draw):
    # op lists come from a hypothesis-drawn Random: hypothesis's own list
    # strategies favour short, sparse traces where queued messages rarely
    # compete for a receive
    rnd = draw(st.randoms(use_true_random=False))
    senders = [sender_ops(rnd) for _ in range(draw(st.integers(1, 3)))]
    # a late first post lets a backlog build up, so receives choose among
    # many queued candidates instead of matching each message on arrival
    receivers = [
        (draw(st.integers(0, N_MAILBOXES - 1)), draw(st.sampled_from((3.0, 1.0, 0.0))), receiver_ops(rnd))
        for _ in range(draw(st.integers(1, 3)))
    ]
    crash = draw(st.none() | st.tuples(st.integers(0, N_MAILBOXES), st.sampled_from((0.25, 1.0, 2.0))))
    delay_prob = draw(st.sampled_from((0.5, 0.0)))
    return senders, receivers, crash, delay_prob


def run_trace(sim_cls, trace):
    senders, receivers, crash, delay_prob = trace
    spec = FaultSpec(
        crashes=(RankCrash(node=crash[0], at=crash[1]),) if crash else (),
        links=(LinkFault(delay_prob=delay_prob, delay_seconds=0.5),) if delay_prob else (),
        seed=5,
    )
    metrics = MetricsRegistry()
    sim = sim_cls(faults=FaultInjector(spec), metrics=metrics)
    mailboxes = [sim.new_mailbox(f"mb{i}", node=i) for i in range(N_MAILBOXES)]
    requests: list[list[Request]] = []

    def sender(ctx, ops, who):
        for i, op in enumerate(ops):
            if op[0] == "compute":
                yield from ctx.compute(op[1])
            else:
                _, dst, source, tag, nbytes, same_node = op
                yield from ctx.send_to_mailbox(
                    mailboxes[dst], f"{who}.{i}", source=source, tag=tag,
                    nbytes=nbytes, same_node=same_node,
                )

    def receiver(ctx, start, ops, posted):
        yield from ctx.compute(start)
        woken = []
        for op in ops:
            if op[0] == "compute":
                yield from ctx.compute(op[1])
            elif op[0] == "post":
                posted.append((yield from ctx.post_recv(ctx.mailbox, source=op[1], tag=op[2])))
            elif posted and op[0] == "wait":
                req = posted[op[1] % len(posted)]
                if not req.cancelled:
                    woken.append((yield from ctx.wait_any([req], timeout=op[2])) + (ctx.now,))
            elif posted and op[0] == "cancel":
                yield from ctx.cancel(posted[op[1] % len(posted)])
        return woken

    for who, ops in enumerate(senders):
        sim.add_proc(sender, ops, who, node=N_MAILBOXES)
    for node, start, ops in receivers:
        requests.append([])
        sim.add_proc(receiver, start, ops, requests[-1], node=node, mailbox=mailboxes[node])
    out = sim.run()
    outcome = [
        [(r.done, r.cancelled, r.source, r.tag, r.arrival, r.payload, r.completion_time) for r in reqs]
        for reqs in requests
    ]
    return sim, mailboxes, out, outcome, metrics


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(traces())
def test_indexed_matching_equals_linear_scan(trace):
    _, mailboxes, out, outcome, metrics = run_trace(Simulation, trace)
    ref, ref_mailboxes, ref_out, ref_outcome, _ = run_trace(ReferenceSimulation, trace)
    assert outcome == ref_outcome
    assert out.results == ref_out.results  # every wait woke with the same payload at the same time
    assert out.clocks == ref_out.clocks
    assert out.crashed_pids == ref_out.crashed_pids
    assert out.fault_events == ref_out.fault_events
    assert [len(mb) for mb in mailboxes] == [len(ref.queues.get(id(mb), [])) for mb in ref_mailboxes]
    peaks = [ref.peaks.get(id(mb), 0) for mb in ref_mailboxes]
    assert [mb.peak_queued for mb in mailboxes] == peaks
    assert metrics.gauge("sim.mailbox_peak_queued").value == max(peaks)


def test_wildcard_receive_takes_earliest_arrival_across_tags():
    sim = Simulation()
    box = sim.new_mailbox("box")

    def sender(ctx):
        # the inter-node message is sent first but arrives last
        yield from ctx.send_to_mailbox(box, "slow", source=0, tag=(0, 1), nbytes=8, same_node=False)
        yield from ctx.send_to_mailbox(box, "fast", source=1, tag=(0, 2), nbytes=8, same_node=True)
        yield from ctx.send_to_mailbox(box, "other comm", source=1, tag=(1, 0), nbytes=8, same_node=True)

    def receiver(ctx):
        yield from ctx.compute(1.0)
        queued = len(box)
        first = yield from ctx.post_recv(box, tag=(0, ANY_TAG))
        from_zero = yield from ctx.post_recv(box, source=0, tag=ANY_TAG)
        return queued, first.payload, from_zero.payload, len(box)

    sim.add_proc(sender)
    pid = sim.add_proc(receiver)
    out = sim.run()
    assert out.results[pid] == (3, "fast", "slow", 1)
    assert box.peak_queued == 3


def test_empty_mailbox_passed_to_add_proc_is_used():
    sim = Simulation()
    box = sim.new_mailbox("shared")
    assert len(box) == 0
    pid = sim.add_proc(lambda ctx: (yield from ctx.compute(0.0)), mailbox=box)
    assert sim.mailbox_of(pid) is box
