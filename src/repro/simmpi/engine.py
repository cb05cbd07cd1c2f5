"""Discrete-event engine: procs, mailboxes, requests, events, scheduler.

A *proc* is one simulated execution context — an MPI rank or one OpenMP
thread inside a rank.  Proc code is a generator function taking a
:class:`Context`; every timed interaction is performed with ``yield from``
on a Context/Comm helper, which ultimately yields a syscall object that the
engine services.

Scheduling rule: always resume the runnable proc with the smallest virtual
clock (ties broken by an insertion sequence number).  Because every syscall
returns control to the scheduler, a proc never "runs ahead" and sends a
message into another proc's past — which keeps tag/source matching causally
consistent and the whole simulation deterministic for a fixed seed.

Blocking primitives:

- ``wait(request)``     — block until a posted receive matches,
- ``wait_any(waitables)`` — block until any of several requests/events
  completes (this is how worker threads wait for "a query *or* the
  terminate flag", replacing the paper's MPI_Test busy-poll loop with an
  equivalent that does not need millions of simulated poll iterations),
- ``test(request)``     — non-blocking completion check; charges the
  network model's poll cost so code that *does* poll pays for it,
- collectives and RMA — see :mod:`repro.simmpi.comm` / :mod:`~repro.simmpi.rma`.

``wait_any`` additionally takes an optional virtual-time ``timeout``; a
wait that times out resumes with ``(WAIT_TIMED_OUT, None)`` at exactly the
deadline — the primitive fault-tolerant dispatch builds retries on.

Fault injection: constructed with a :class:`~repro.faults.FaultInjector`,
the engine perturbs the fabric per the injector's spec — procs on a
crashed node stop executing at the crash instant (state ``crashed``, not
``done``), messages to a crashed node are lost, per-link faults drop /
duplicate / delay sends, and slow nodes scale their compute charges.  All
perturbations advance virtual time through the normal cost paths and are
logged in :attr:`SimulationResult.fault_events`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Generator

import numpy as np

from repro.simmpi.costmodel import CostModel
from repro.simmpi.errors import DeadlockError, ProcError, SimConfigError, SimError
from repro.simmpi.network import NetworkModel
from repro.simmpi.trace import ProcStats

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "WAIT_TIMED_OUT",
    "Context",
    "Event",
    "Mailbox",
    "Request",
    "Simulation",
    "SimulationResult",
    "payload_nbytes",
]

ANY_SOURCE = -1
ANY_TAG = -1

#: index returned by ``wait_any(..., timeout=...)`` when the wait timed out
WAIT_TIMED_OUT = -1


def _tag_matches(pattern, tag) -> bool:
    """Tag matching with wildcard support inside tuple tags.

    The comm layer namespaces user tags as ``(comm_id, user_tag)``; a
    receive for "any tag on this comm" uses ``(comm_id, ANY_TAG)``, so
    tuple patterns are compared elementwise with ``ANY_TAG`` as a
    per-element wildcard.
    """
    if pattern == ANY_TAG:
        return True
    if isinstance(pattern, tuple) and isinstance(tag, tuple) and len(pattern) == len(tag):
        return all(p == ANY_TAG or p == t for p, t in zip(pattern, tag))
    return pattern == tag


def _is_wildcard(pattern) -> bool:
    """True if ``pattern`` can match more than one exact tag."""
    return pattern == ANY_TAG or (isinstance(pattern, tuple) and ANY_TAG in pattern)


_RUNNABLE = "runnable"
_BLOCKED = "blocked"
_DONE = "done"
_CRASHED = "crashed"


def payload_nbytes(obj: Any) -> int:
    """Estimate the wire size of a message payload.

    NumPy arrays report their true buffer size; containers recurse; other
    scalars get a small fixed pickle-ish overhead.  Callers that know the
    exact size pass ``nbytes`` explicitly instead.
    """
    if obj is None:
        return 8
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 96
    if isinstance(obj, (bytes, bytearray)):
        return len(obj) + 32
    if isinstance(obj, (tuple, list)):
        return 16 + sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 32 + sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    if isinstance(obj, str):
        return len(obj) + 40
    return 32


# --------------------------------------------------------------------------
# Syscall objects (internal protocol between proc generators and the engine)
# --------------------------------------------------------------------------


@dataclass
class _Compute:
    seconds: float
    kind: str = "compute"


@dataclass
class _SendMsg:
    mailbox: "Mailbox"
    source: int
    tag: int
    payload: Any
    nbytes: int
    same_node: bool


@dataclass
class _RecvPost:
    mailbox: "Mailbox"
    source: int
    tag: int


@dataclass
class _Wait:
    request: "Request"


@dataclass
class _WaitAny:
    waitables: list
    timeout: float | None = None


@dataclass
class _Test:
    request: "Request"


@dataclass
class _Cancel:
    request: "Request"


@dataclass
class _EventSet:
    event: "Event"


@dataclass
class _CollectiveCall:
    key: tuple
    members: tuple
    data: Any
    #: complete(arrivals: {pid: (clock, data)}) -> {pid: (finish_time, result)}
    complete: Callable[[dict], dict]


@dataclass
class _RmaOp:
    seconds: float
    apply: Callable[[], Any]
    nbytes: int


# --------------------------------------------------------------------------
# Waitables
# --------------------------------------------------------------------------


class Request:
    """Handle for a posted non-blocking receive (or internal completion)."""

    __slots__ = (
        "done",
        "completion_time",
        "payload",
        "source",
        "tag",
        "cancelled",
        "arrival",
        "_mailbox",
        "_match_source",
        "_match_tag",
        "_waiter",
        "post_time",
    )

    def __init__(self, mailbox: "Mailbox", source: int, tag: int, post_time: float):
        self.done = False
        self.cancelled = False
        self.completion_time = float("inf")
        self.payload: Any = None
        self.source: int | None = None
        self.tag: int | None = None
        #: wire arrival time of the matched message (None until done) — lets
        #: receivers attribute mailbox queueing delay without wire changes
        self.arrival: float | None = None
        self._mailbox = mailbox
        self._match_source = source
        self._match_tag = tag
        self._waiter: _Proc | None = None
        self.post_time = post_time

    def _matches(self, source: int, tag) -> bool:
        if self._match_source not in (ANY_SOURCE, source):
            return False
        return _tag_matches(self._match_tag, tag)

    def _complete(self, msg: "_Message") -> None:
        self.done = True
        self.completion_time = max(self.post_time, msg.arrival)
        self.payload = msg.payload
        self.source = msg.source
        self.tag = msg.tag
        self.arrival = msg.arrival


class Event:
    """A one-shot condition flag (simulated condition variable).

    Models the shared "Done" flag of Algorithm 4: one thread sets it, every
    thread blocked in ``wait_any`` on it wakes at the set time.
    """

    __slots__ = ("done", "set_time", "_waiters")

    def __init__(self) -> None:
        self.done = False
        self.set_time = float("inf")
        self._waiters: list[_Proc] = []


@dataclass
class _Message:
    arrival: float
    seq: int
    source: int
    tag: int
    payload: Any
    nbytes: int


class Mailbox:
    """A message queue with MPI matching semantics.

    One mailbox per MPI rank; worker threads of one rank share their rank's
    mailbox, which is what gives the paper's dynamic intra-node work
    pulling.

    ``node`` records which compute node the mailbox lives on (None when
    unknown); the fault injector uses it to resolve the (src, dst) link of
    a send and to drop messages addressed to a crashed node.

    Queued messages are indexed by exact tag: each tag owns a heap of
    ``(arrival, seq, msg)``, so a receive for one tag from any source pops
    its earliest message in O(log n) and a wildcard-tag receive compares
    only the heads of the matching tags.  ``len(mailbox)`` is the number
    of queued (unreceived) messages; ``peak_queued`` is the largest it
    has been.
    """

    __slots__ = ("name", "node", "peak_queued", "_buckets", "_n_queued", "_pending")

    def __init__(self, name: str = "", node: int | None = None) -> None:
        self.name = name
        self.node = node
        self.peak_queued = 0
        self._buckets: dict[Any, list[tuple[float, int, _Message]]] = {}
        self._n_queued = 0
        self._pending: list[Request] = []

    def __len__(self) -> int:
        return self._n_queued

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mailbox({self.name!r}, queued={self._n_queued})"

    def _enqueue(self, msg: _Message) -> None:
        bucket = self._buckets.get(msg.tag)
        if bucket is None:
            bucket = self._buckets[msg.tag] = []
        heapq.heappush(bucket, (msg.arrival, msg.seq, msg))
        self._n_queued += 1
        if self._n_queued > self.peak_queued:
            self.peak_queued = self._n_queued

    def _take(self, source: int, tag) -> _Message | None:
        """Dequeue the message matching ``(source, tag)`` with the smallest
        ``(arrival, seq)``; None if no queued message matches."""
        if _is_wildcard(tag):
            keys = [key for key in self._buckets if _tag_matches(tag, key)]
        else:
            keys = [tag] if tag in self._buckets else []
        best = None
        for key in keys:
            bucket = self._buckets[key]
            idx = _earliest_from(bucket, source)
            if idx >= 0 and (best is None or bucket[idx] < best[0]):
                best = (bucket[idx], key, idx)
        if best is None:
            return None
        _, key, idx = best
        bucket = self._buckets[key]
        if idx == 0:
            msg = heapq.heappop(bucket)[2]
        else:
            msg = bucket[idx][2]
            bucket[idx] = bucket[-1]
            bucket.pop()
            heapq.heapify(bucket)
        if not bucket:
            del self._buckets[key]
        self._n_queued -= 1
        return msg


def _earliest_from(bucket: list, source: int) -> int:
    """Index of the earliest entry of a tag heap sent by ``source``
    (-1 if none); the head itself for ``ANY_SOURCE``."""
    if source == ANY_SOURCE:
        return 0
    best = -1
    for idx, entry in enumerate(bucket):
        if entry[2].source == source and (best < 0 or entry < bucket[best]):
            best = idx
    return best


# --------------------------------------------------------------------------
# Proc & context
# --------------------------------------------------------------------------


class _Proc:
    __slots__ = (
        "pid",
        "name",
        "node",
        "gen",
        "mailbox",
        "clock",
        "state",
        "sendval",
        "result",
        "stats",
        "heap_token",
        "timeout_token",
        "_block_start",
        "_wait_entries",
        "_wait_is_any",
    )

    def __init__(self, pid: int, name: str, node: int, mailbox: Mailbox):
        self.pid = pid
        self.name = name
        self.node = node
        self.mailbox = mailbox
        self.gen: Generator | None = None
        self.clock = 0.0
        self.state = _RUNNABLE
        self.sendval: Any = None
        self.result: Any = None
        self.stats = ProcStats(name=name)
        self.heap_token = 0
        self.timeout_token: int | None = None
        self._block_start = 0.0
        self._wait_entries: list = []
        self._wait_is_any = False


class _SpanScope:
    """Context manager recording one named tracing span on a proc.

    Measures the elapsed *virtual* interval between entry and exit — which
    includes any communication blocking inside the block — and charges no
    virtual time itself, so tracing never perturbs the simulation.  Usable
    inside proc generators (``with`` works across ``yield from``).

    When the simulation carries a :class:`~repro.obs.trace.TraceRecorder`,
    the span is mirrored into it (with attributes and parent links); the
    per-proc :class:`~repro.simmpi.trace.ProcStats` accounting is identical
    with or without a recorder.
    """

    __slots__ = ("_proc", "name", "start", "_recorder", "_attrs")

    def __init__(self, proc: _Proc, name: str, recorder=None, attrs: dict | None = None):
        self._proc = proc
        self.name = name
        self.start = proc.clock
        self._recorder = recorder
        self._attrs = attrs

    def __enter__(self) -> "_SpanScope":
        if self._recorder is not None:
            self._recorder.begin_span(self._proc.pid, self.name, self._proc.clock, self._attrs)
        return self

    def __exit__(self, *exc) -> bool:
        self._proc.stats.add_span(self.name, self._proc.clock - self.start)
        if self._recorder is not None:
            self._recorder.end_span(self._proc.pid, self._proc.clock)
        return False


class Context:
    """Per-proc API surface handed to proc generator functions."""

    def __init__(self, sim: "Simulation", proc: _Proc):
        self._sim = sim
        self._proc = proc

    # -- identity ----------------------------------------------------------

    @property
    def pid(self) -> int:
        return self._proc.pid

    @property
    def name(self) -> str:
        return self._proc.name

    @property
    def node(self) -> int:
        return self._proc.node

    @property
    def mailbox(self) -> "Mailbox":
        """This proc's own mailbox (shared with siblings if so created)."""
        return self._proc.mailbox

    @property
    def now(self) -> float:
        """Current virtual time of this proc."""
        return self._proc.clock

    @property
    def cost(self) -> CostModel:
        return self._sim.cost

    @property
    def network(self) -> NetworkModel:
        return self._sim.network

    # -- computation -------------------------------------------------------

    def compute(self, seconds: float, kind: str = "compute"):
        """Charge ``seconds`` of virtual computation time."""
        if seconds < 0:
            raise SimError(f"negative compute time {seconds}")
        yield _Compute(float(seconds), kind)

    def charge_distances(self, n_evals: int, dim: int, kind: str = "compute"):
        """Charge the cost-model time of ``n_evals`` distance evaluations."""
        yield _Compute(self._sim.cost.distance_cost(int(n_evals), int(dim)), kind)

    # -- tracing -------------------------------------------------------------

    def span(self, name: str, **attrs) -> _SpanScope:
        """Open a named tracing span: ``with ctx.span("route"): ...``.

        The elapsed virtual interval lands in this proc's
        :attr:`~repro.simmpi.trace.ProcStats.span_time`; see
        :data:`~repro.simmpi.trace.PHASES` for the standard names.  Keyword
        ``attrs`` (e.g. ``query_id=qid``) are attached to the span in the
        distributed trace when one is being recorded; they never affect the
        ProcStats aggregate.
        """
        return _SpanScope(self._proc, name, self._sim.recorder, attrs or None)

    @property
    def trace_active(self) -> bool:
        """True when a distributed-trace recorder is attached to the run.

        Hot paths use this to skip building attribute dicts when nobody is
        listening.
        """
        return self._sim.recorder is not None

    def trace_instant(self, name: str, **attrs) -> None:
        """Record a zero-width trace marker (no-op without a recorder).

        A plain method, not a syscall: it charges no virtual time and never
        yields, so call sites need no ``yield from``.
        """
        recorder = self._sim.recorder
        if recorder is not None:
            recorder.instant(self._proc.pid, name, self._proc.clock, attrs or None)

    def trace_complete(self, name: str, start: float, end: float, **attrs) -> None:
        """Record an already-elapsed interval (e.g. a measured stall) in the
        distributed trace only — never in ProcStats (no-op without a
        recorder; charges no virtual time)."""
        recorder = self._sim.recorder
        if recorder is not None:
            recorder.complete_span(self._proc.pid, name, start, end, attrs or None)

    # -- events --------------------------------------------------------------

    def make_event(self) -> Event:
        return Event()

    def set_event(self, event: Event):
        yield _EventSet(event)

    # -- low-level messaging (Comm builds on these) -------------------------

    def post_recv(self, mailbox: Mailbox, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Post a non-blocking receive; resumes with a :class:`Request`."""
        req = yield _RecvPost(mailbox, source, tag)
        return req

    def send_to_mailbox(
        self,
        mailbox: Mailbox,
        payload: Any,
        *,
        source: int,
        tag: int,
        nbytes: int | None,
        same_node: bool,
    ):
        if nbytes is None:
            nbytes = payload_nbytes(payload)
        yield _SendMsg(mailbox, source, tag, payload, int(nbytes), same_node)

    def wait(self, request: Request):
        """Block until ``request`` completes; resumes with its payload."""
        payload = yield _Wait(request)
        return payload

    def wait_any(self, waitables: list, timeout: float | None = None):
        """Block until any request/event completes; resumes with
        ``(index, payload)`` (payload is None for events).

        With a ``timeout`` (virtual seconds), resumes with
        ``(WAIT_TIMED_OUT, None)`` at the deadline if nothing completed
        first; the waitables stay registered with their mailboxes, so a
        timed-out receive can be waited on again or cancelled.
        """
        if timeout is not None and timeout < 0:
            raise SimError(f"negative wait_any timeout {timeout}")
        result = yield _WaitAny(list(waitables), timeout)
        return result

    def test(self, request: Request):
        """Non-blocking completion probe; charges the poll cost."""
        done = yield _Test(request)
        return done

    def cancel(self, request: Request):
        yield _Cancel(request)

    def collective(self, key: tuple, members: tuple, data: Any, complete: Callable):
        result = yield _CollectiveCall(key, members, data, complete)
        return result

    def rma(self, seconds: float, apply: Callable[[], Any], nbytes: int):
        result = yield _RmaOp(float(seconds), apply, int(nbytes))
        return result


# --------------------------------------------------------------------------
# Simulation
# --------------------------------------------------------------------------


@dataclass
class SimulationResult:
    """Outcome of a completed simulation run."""

    #: virtual makespan: max final clock over all procs
    makespan: float
    #: per-proc final clocks, keyed by pid
    clocks: dict[int, float]
    #: per-proc return values (StopIteration values), keyed by pid
    results: dict[int, Any]
    #: per-proc stats, keyed by pid
    stats: dict[int, ProcStats]
    #: total number of engine events processed
    n_events: int
    #: pids of procs killed by an injected crash (empty without faults)
    crashed_pids: tuple[int, ...] = ()
    #: fault-injection event log, in virtual-time order (empty without faults)
    fault_events: tuple = ()

    def stats_by_name(self, prefix: str) -> list[ProcStats]:
        return [s for s in self.stats.values() if s.name.startswith(prefix)]


class Simulation:
    """Owns procs, mailboxes, the event loop, and the timing models."""

    def __init__(
        self,
        network: NetworkModel | None = None,
        cost: CostModel | None = None,
        max_events: int = 200_000_000,
        faults=None,
        recorder=None,
        metrics=None,
    ) -> None:
        self.network = network or NetworkModel()
        self.cost = cost or CostModel()
        self.max_events = max_events
        #: optional :class:`~repro.faults.FaultInjector` (duck-typed to
        #: avoid a package cycle); None = perfect fabric
        self.faults = faults
        #: optional :class:`~repro.obs.trace.TraceRecorder`; recording is
        #: pure bookkeeping (no clock/randomness effects), so attaching one
        #: is bit-identity-neutral
        self.recorder = recorder
        #: optional :class:`~repro.obs.metrics.MetricsRegistry`, filled with
        #: engine-level totals (events, messages, bytes) at the end of run()
        self.metrics = metrics
        self._procs: list[_Proc] = []
        self._mailboxes: list[Mailbox] = []
        self._runq: list[tuple[float, int, int]] = []
        self._seq = itertools.count()
        self._collectives: dict[tuple, dict] = {}
        self._started = False

    # -- construction --------------------------------------------------------

    def new_mailbox(self, name: str = "", node: int | None = None) -> Mailbox:
        mailbox = Mailbox(name, node)
        self._mailboxes.append(mailbox)
        return mailbox

    def add_proc(
        self,
        program: Callable[..., Generator],
        *args: Any,
        node: int = 0,
        name: str = "",
        mailbox: Mailbox | None = None,
    ) -> int:
        """Register a proc.  ``program(ctx, *args)`` must be a generator
        function.  Returns the pid."""
        if self._started:
            raise SimError("cannot add procs after run() started")
        pid = len(self._procs)
        if mailbox is None:  # not ``or``: an empty Mailbox is falsy
            mailbox = Mailbox(f"mb{pid}", node)
        proc = _Proc(pid, name or f"proc{pid}", node, mailbox)
        ctx = Context(self, proc)
        gen = program(ctx, *args)
        if not hasattr(gen, "send"):
            raise SimConfigError(
                f"program {program!r} did not return a generator; "
                "proc bodies must be generator functions (use `yield from ctx...`)"
            )
        proc.gen = gen
        self._procs.append(proc)
        if self.recorder is not None:
            self.recorder.register_proc(pid, proc.name, node)
        return pid

    def mailbox_of(self, pid: int) -> Mailbox:
        return self._procs[pid].mailbox

    def node_of(self, pid: int) -> int:
        return self._procs[pid].node

    # -- event loop ------------------------------------------------------------

    def run(self) -> SimulationResult:
        if self._started:
            raise SimError("Simulation.run() may only be called once")
        self._started = True
        for proc in self._procs:
            self._push(proc)
        crash_schedule: list[tuple[int, float]] = []
        if self.faults is not None:
            # crashes are first-class engine events: one marker per crash,
            # with a negative pid, popped at exactly the crash instant
            crash_schedule = self.faults.crash_schedule()
            for i, (_, at) in enumerate(crash_schedule):
                heapq.heappush(self._runq, (at, next(self._seq), -(i + 1)))
        n_events = 0
        while self._runq:
            clock, token, pid = heapq.heappop(self._runq)
            if pid < 0:
                node, at = crash_schedule[-pid - 1]
                self._enact_crash(node, at)
                continue
            proc = self._procs[pid]
            if proc.state == _BLOCKED and token == proc.timeout_token:
                n_events += 1
                self._fire_timeout(proc, clock)
                continue
            if proc.state != _RUNNABLE or token != proc.heap_token:
                continue  # stale heap entry
            n_events += 1
            if n_events > self.max_events:
                raise SimError(
                    f"exceeded max_events={self.max_events}; "
                    "likely a busy-poll loop — use wait/wait_any instead of test loops"
                )
            self._step(proc)
        unfinished = [p for p in self._procs if p.state not in (_DONE, _CRASHED)]
        if unfinished:
            desc = ", ".join(f"{p.name}(pid={p.pid}, state={p.state})" for p in unfinished[:10])
            raise DeadlockError(
                f"{len(unfinished)} proc(s) blocked forever: {desc}"
            )
        result = SimulationResult(
            makespan=max((p.clock for p in self._procs), default=0.0),
            clocks={p.pid: p.clock for p in self._procs},
            results={p.pid: p.result for p in self._procs},
            stats={p.pid: p.stats for p in self._procs},
            n_events=n_events,
            crashed_pids=tuple(p.pid for p in self._procs if p.state == _CRASHED),
            fault_events=tuple(self.faults.events) if self.faults is not None else (),
        )
        if self.metrics is not None:
            # filled once at the end — the event loop itself never touches
            # the registry, so metrics cannot perturb the hot path
            self.metrics.counter("sim.events").value += n_events
            self.metrics.counter("sim.msgs_sent").value += sum(
                s.msgs_sent for s in result.stats.values()
            )
            self.metrics.counter("sim.bytes_sent").value += sum(
                s.bytes_sent for s in result.stats.values()
            )
            self.metrics.counter("sim.rma_ops").value += sum(
                s.rma_ops for s in result.stats.values()
            )
            self.metrics.gauge("sim.makespan_seconds").set(result.makespan)
            self.metrics.gauge("sim.mailbox_peak_queued").set(
                max(
                    (mb.peak_queued for mb in self._mailboxes + [p.mailbox for p in self._procs]),
                    default=0,
                )
            )
        return result

    # -- internals ---------------------------------------------------------------

    def _push(self, proc: _Proc) -> None:
        proc.state = _RUNNABLE
        proc.heap_token = next(self._seq)
        heapq.heappush(self._runq, (proc.clock, proc.heap_token, proc.pid))

    def _block(self, proc: _Proc) -> None:
        proc.state = _BLOCKED
        proc._block_start = proc.clock

    def _unblock(self, proc: _Proc, at_time: float) -> None:
        proc.timeout_token = None  # a pending wait deadline no longer applies
        new_clock = max(proc.clock, at_time)
        proc.stats.comm_wait += new_clock - proc._block_start
        proc.clock = new_clock
        self._push(proc)

    def _fire_timeout(self, proc: _Proc, deadline: float) -> None:
        """A ``wait_any`` deadline passed with nothing completed."""
        entries = proc._wait_entries
        proc._wait_entries = []
        for w in entries:
            # leave requests posted on their mailboxes (the caller may wait
            # again or cancel); only detach this proc as the waiter
            if isinstance(w, Request):
                w._waiter = None
            elif isinstance(w, Event) and proc in w._waiters:
                w._waiters.remove(proc)
        proc.sendval = (WAIT_TIMED_OUT, None)
        self._unblock(proc, deadline)

    # -- fault enactment ---------------------------------------------------------

    def _enact_crash(self, node: int, at: float) -> None:
        """Fail-stop crash of ``node``: every proc on it dies at time ``at``."""
        self.faults.record("crash", at, node=node)
        for proc in self._procs:
            if proc.node == node and proc.state not in (_DONE, _CRASHED):
                self._kill(proc, at)

    def _kill(self, proc: _Proc, at: float) -> None:
        # withdraw every posted receive and wait registration — a dead rank
        # must never consume a message or wake from an event
        for req in list(proc.mailbox._pending):
            if req._waiter is proc:
                proc.mailbox._pending.remove(req)
        for w in proc._wait_entries:
            if isinstance(w, Request):
                w._waiter = None
                if w in w._mailbox._pending:
                    w._mailbox._pending.remove(w)
            elif isinstance(w, Event) and proc in w._waiters:
                w._waiters.remove(proc)
        proc._wait_entries = []
        proc.timeout_token = None
        proc.state = _CRASHED
        proc.clock = max(proc.clock, at)
        try:
            proc.gen.close()
        except Exception:
            pass  # cleanup code in the dying proc must not sink the engine

    def _step(self, proc: _Proc) -> None:
        """Advance one syscall of ``proc``'s generator."""
        try:
            syscall = proc.gen.send(proc.sendval)
        except StopIteration as stop:
            proc.state = _DONE
            proc.result = stop.value
            return
        except SimError:
            raise
        except Exception as exc:
            # annotate failures with simulation context — "which rank died
            # at what virtual time" is the first thing one needs to debug a
            # distributed algorithm
            raise ProcError(
                f"proc {proc.name!r} (pid={proc.pid}, node={proc.node}) raised "
                f"{type(exc).__name__} at virtual t={proc.clock:.6f}: {exc}",
                proc_name=proc.name,
                pid=proc.pid,
                node=proc.node,
                virtual_time=proc.clock,
            ) from exc
        proc.sendval = None
        self._dispatch(proc, syscall)

    def _dispatch(self, proc: _Proc, sc: Any) -> None:
        if isinstance(sc, _Compute):
            seconds = sc.seconds
            if self.faults is not None:
                seconds *= self.faults.compute_factor(proc.node)
            proc.clock += seconds
            proc.stats.add_compute(sc.kind, seconds)
            self._push(proc)
        elif isinstance(sc, _SendMsg):
            self._do_send(proc, sc)
        elif isinstance(sc, _RecvPost):
            proc.sendval = self._do_recv_post(proc, sc)
            self._push(proc)
        elif isinstance(sc, _Wait):
            self._do_wait(proc, sc.request)
        elif isinstance(sc, _WaitAny):
            self._do_wait_any(proc, sc.waitables, sc.timeout)
        elif isinstance(sc, _Test):
            proc.clock += self.network.poll_cost
            proc.stats.poll_time += self.network.poll_cost
            proc.sendval = sc.request.done and not sc.request.cancelled
            if sc.request.done:
                proc.clock = max(proc.clock, sc.request.completion_time)
            self._push(proc)
        elif isinstance(sc, _Cancel):
            req = sc.request
            req.cancelled = True
            if not req.done and req in req._mailbox._pending:
                req._mailbox._pending.remove(req)
            self._push(proc)
        elif isinstance(sc, _EventSet):
            ev = sc.event
            if not ev.done:
                ev.done = True
                ev.set_time = proc.clock
                waiters, ev._waiters = ev._waiters, []
                for waiter in waiters:
                    self._finish_wait_any(waiter, ev, None)
            self._push(proc)
        elif isinstance(sc, _CollectiveCall):
            self._do_collective(proc, sc)
        elif isinstance(sc, _RmaOp):
            proc.clock += sc.seconds
            proc.stats.rma_time += sc.seconds
            proc.stats.rma_ops += 1
            proc.stats.bytes_sent += sc.nbytes
            proc.sendval = sc.apply()
            self._push(proc)
        else:
            raise SimError(f"proc {proc.name} yielded unknown syscall {sc!r}")

    # -- messaging ----------------------------------------------------------------

    def _do_send(self, proc: _Proc, sc: _SendMsg) -> None:
        overhead = self.network.send_overhead()
        proc.clock += overhead
        proc.stats.send_time += overhead
        proc.stats.msgs_sent += 1
        proc.stats.bytes_sent += sc.nbytes
        if self.faults is None:
            transfers = [self.network.p2p_time(sc.nbytes, sc.same_node)]
        else:
            # the sender is always charged its overhead above — a dropped
            # message costs the origin the same CPU time as a delivered one
            transfers = self.faults.transfer_times(
                proc.node, sc.mailbox.node, sc.nbytes, sc.same_node, self.network, proc.clock
            )
        for wire in transfers:
            arrival = proc.clock + wire
            if self.faults is not None and self.faults.node_down(sc.mailbox.node, arrival):
                self.faults.record(
                    "msg_lost_node_down", arrival, src=proc.node, dst=sc.mailbox.node, tag=sc.tag
                )
                continue
            msg = _Message(arrival, next(self._seq), sc.source, sc.tag, sc.payload, sc.nbytes)
            self._deliver(sc.mailbox, msg)
        self._push(proc)

    def _deliver(self, mailbox: Mailbox, msg: _Message) -> None:
        for req in mailbox._pending:
            if req._matches(msg.source, msg.tag):
                mailbox._pending.remove(req)
                req._complete(msg)
                if req._waiter is not None:
                    self._finish_wait_any(req._waiter, req, msg.payload)
                return
        mailbox._enqueue(msg)

    def _do_recv_post(self, proc: _Proc, sc: _RecvPost) -> Request:
        req = Request(sc.mailbox, sc.source, sc.tag, proc.clock)
        msg = sc.mailbox._take(sc.source, sc.tag)
        if msg is not None:
            req._complete(msg)
        else:
            sc.mailbox._pending.append(req)
        return req

    def _do_wait(self, proc: _Proc, req: Request) -> None:
        if req.cancelled:
            raise SimError(f"proc {proc.name} waiting on a cancelled request")
        if req.done:
            proc.clock = max(proc.clock, req.completion_time) + self.network.recv_overhead()
            proc.stats.recv_time += self.network.recv_overhead()
            proc.sendval = req.payload
            self._push(proc)
        else:
            req._waiter = proc
            proc._wait_entries = [req]
            proc._wait_is_any = False
            self._block(proc)

    def _do_wait_any(self, proc: _Proc, waitables: list, timeout: float | None = None) -> None:
        if any(isinstance(w, Request) and w.cancelled for w in waitables):
            raise SimError(f"proc {proc.name} waiting on a cancelled request")
        # immediate completion?
        for idx, w in enumerate(waitables):
            if isinstance(w, Request) and w.done:
                proc.clock = max(proc.clock, w.completion_time) + self.network.recv_overhead()
                proc.stats.recv_time += self.network.recv_overhead()
                proc.sendval = (idx, w.payload)
                self._push(proc)
                return
            if isinstance(w, Event) and w.done:
                proc.clock = max(proc.clock, w.set_time)
                proc.sendval = (idx, None)
                self._push(proc)
                return
        # none ready: register on all
        proc._wait_entries = list(waitables)
        proc._wait_is_any = True
        for w in waitables:
            if isinstance(w, Request):
                w._waiter = proc
            elif isinstance(w, Event):
                w._waiters.append(proc)
            else:
                raise SimError(f"unsupported waitable {w!r}")
        self._block(proc)
        if timeout is not None:
            # arm a deadline: a heap entry keyed to timeout_token; completion
            # of any waitable clears the token, making the entry inert
            proc.timeout_token = next(self._seq)
            heapq.heappush(self._runq, (proc.clock + timeout, proc.timeout_token, proc.pid))

    def _finish_wait_any(self, proc: _Proc, fired: Any, payload: Any) -> None:
        """A registered waitable fired while ``proc`` was blocked."""
        if proc.state != _BLOCKED:
            return
        entries = proc._wait_entries
        proc._wait_entries = []
        idx = next(i for i, w in enumerate(entries) if w is fired)
        # unregister from the others
        for w in entries:
            if w is fired:
                continue
            if isinstance(w, Request):
                w._waiter = None
            elif isinstance(w, Event) and proc in w._waiters:
                w._waiters.remove(proc)
        if isinstance(fired, Request):
            at = fired.completion_time + self.network.recv_overhead()
            proc.stats.recv_time += self.network.recv_overhead()
        else:
            at = fired.set_time
        # wait_any always returns (index, payload) — even for one waitable —
        # so a timeout sentinel (-1, None) stays distinguishable; plain
        # wait() returns the bare payload
        proc.sendval = (idx, payload) if proc._wait_is_any else payload
        self._unblock(proc, at)

    # -- collectives -----------------------------------------------------------------

    def _do_collective(self, proc: _Proc, sc: _CollectiveCall) -> None:
        rec = self._collectives.get(sc.key)
        if rec is None:
            rec = {"members": sc.members, "arrived": {}, "complete": sc.complete}
            self._collectives[sc.key] = rec
        if rec["members"] != sc.members:
            raise SimError(
                f"collective {sc.key} member mismatch: {rec['members']} vs {sc.members}"
            )
        rec["arrived"][proc.pid] = (proc.clock, sc.data)
        self._block(proc)
        if len(rec["arrived"]) == len(rec["members"]):
            del self._collectives[sc.key]
            outcomes = rec["complete"](rec["arrived"])
            for pid, (finish, result) in outcomes.items():
                member = self._procs[pid]
                member.sendval = result
                self._unblock(member, finish)
