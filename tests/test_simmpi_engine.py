"""Unit tests for the discrete-event engine: clocks, matching, blocking."""

import numpy as np
import pytest

from repro.simmpi import DeadlockError, ProcError, SimError, Simulation
from repro.simmpi.engine import ANY_SOURCE, ANY_TAG, Event, payload_nbytes


def run_single(program, *args, **kwargs):
    sim = Simulation()
    pid = sim.add_proc(program, *args, **kwargs)
    out = sim.run()
    return out, pid


class TestBasics:
    def test_compute_advances_clock(self):
        def p(ctx):
            yield from ctx.compute(1.5, kind="work")
            yield from ctx.compute(0.5, kind="other")
            return ctx.now

        out, pid = run_single(p)
        assert out.results[pid] == pytest.approx(2.0)
        assert out.stats[pid].compute == {"work": 1.5, "other": 0.5}

    def test_negative_compute_rejected(self):
        def p(ctx):
            yield from ctx.compute(-1.0)

        sim = Simulation()
        sim.add_proc(p)
        with pytest.raises(Exception, match="negative"):
            sim.run()

    def test_non_generator_program_rejected(self):
        sim = Simulation()
        with pytest.raises(Exception, match="generator"):
            sim.add_proc(lambda ctx: 42)

    def test_run_twice_rejected(self):
        def p(ctx):
            yield from ctx.compute(0.0)

        sim = Simulation()
        sim.add_proc(p)
        sim.run()
        with pytest.raises(Exception, match="once"):
            sim.run()

    def test_makespan_is_max_clock(self):
        sim = Simulation()

        def slow(ctx):
            yield from ctx.compute(3.0)

        def fast(ctx):
            yield from ctx.compute(1.0)

        sim.add_proc(slow)
        sim.add_proc(fast)
        assert sim.run().makespan == pytest.approx(3.0)


class TestMessaging:
    def test_send_recv_payload_and_timing(self):
        sim = Simulation()

        def sender(ctx):
            yield from ctx.compute(1.0)
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(1), {"x": 1}, source=0, tag=5, nbytes=100, same_node=False
            )

        def receiver(ctx):
            req = yield from ctx.post_recv(ctx.mailbox, source=0, tag=5)
            payload = yield from ctx.wait(req)
            return payload, ctx.now

        sim.add_proc(sender, name="s")
        sim.add_proc(receiver, name="r")
        out = sim.run()
        payload, t = out.results[1]
        assert payload == {"x": 1}
        assert t > 1.0  # receiver resumed after the send time plus latency

    def test_tag_mismatch_blocks_until_match(self):
        sim = Simulation()

        def sender(ctx):
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(1), "wrong", source=0, tag=1, nbytes=8, same_node=True
            )
            yield from ctx.compute(1.0)
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(1), "right", source=0, tag=2, nbytes=8, same_node=True
            )

        def receiver(ctx):
            req = yield from ctx.post_recv(ctx.mailbox, tag=2)
            return (yield from ctx.wait(req))

        sim.add_proc(sender)
        sim.add_proc(receiver)
        out = sim.run()
        assert out.results[1] == "right"

    def test_any_source_any_tag(self):
        sim = Simulation()

        def sender(ctx, tag):
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(2), tag, source=ctx.pid, tag=tag, nbytes=8, same_node=True
            )

        def receiver(ctx):
            got = []
            for _ in range(2):
                req = yield from ctx.post_recv(ctx.mailbox, source=ANY_SOURCE, tag=ANY_TAG)
                got.append((yield from ctx.wait(req)))
            return sorted(got)

        sim.add_proc(sender, 10)
        sim.add_proc(sender, 20)
        sim.add_proc(receiver)
        assert sim.run().results[2] == [10, 20]

    def test_earliest_arrival_matched_first(self):
        sim = Simulation()

        def sender(ctx):
            # sent in order; arrivals ordered the same (same route)
            for i in range(3):
                yield from ctx.send_to_mailbox(
                    sim.mailbox_of(1), i, source=0, tag=0, nbytes=8, same_node=True
                )

        def receiver(ctx):
            yield from ctx.compute(1.0)  # let everything queue up
            got = []
            for _ in range(3):
                req = yield from ctx.post_recv(ctx.mailbox)
                got.append((yield from ctx.wait(req)))
            return got

        sim.add_proc(sender)
        sim.add_proc(receiver)
        assert sim.run().results[1] == [0, 1, 2]

    def test_test_reports_completion(self):
        sim = Simulation()

        def sender(ctx):
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(1), "hi", source=0, tag=0, nbytes=8, same_node=True
            )

        def receiver(ctx):
            req = yield from ctx.post_recv(ctx.mailbox)
            polls = 0
            while True:
                done = yield from ctx.test(req)
                polls += 1
                if done:
                    return polls, req.payload

        sim.add_proc(sender)
        sim.add_proc(receiver)
        polls, payload = sim.run().results[1]
        assert payload == "hi" and polls >= 1

    def test_cancel_removes_pending(self):
        sim = Simulation()

        def p(ctx):
            req = yield from ctx.post_recv(ctx.mailbox)
            yield from ctx.cancel(req)
            return req.cancelled

        out, pid = run_single(p)
        assert out.results[pid] is True

    def test_test_reports_false_after_cancel(self):
        def p(ctx):
            req = yield from ctx.post_recv(ctx.mailbox)
            yield from ctx.cancel(req)
            return (yield from ctx.test(req))

        out, pid = run_single(p)
        assert out.results[pid] is False

    def test_wait_on_cancelled_request_raises(self):
        def p(ctx):
            req = yield from ctx.post_recv(ctx.mailbox)
            yield from ctx.cancel(req)
            yield from ctx.wait(req)

        sim = Simulation()
        sim.add_proc(p)
        with pytest.raises(SimError, match="cancelled"):
            sim.run()

    @pytest.mark.parametrize("timeout", [None, 1.0])
    def test_wait_any_on_cancelled_request_raises(self, timeout):
        """wait_any refuses a cancelled request exactly like wait does,
        instead of registering on it and blocking forever."""

        def p(ctx):
            live = yield from ctx.post_recv(ctx.mailbox, tag=8)
            req = yield from ctx.post_recv(ctx.mailbox, tag=7)
            yield from ctx.cancel(req)
            yield from ctx.wait_any([live, req], timeout=timeout)

        sim = Simulation()
        sim.add_proc(p)
        with pytest.raises(SimError, match="waiting on a cancelled request"):
            sim.run()

    def test_cancelled_recv_does_not_consume_message(self):
        """A message sent after cancel must land in the queue, not the
        withdrawn request — a later receive picks it up."""
        sim = Simulation()

        def p(ctx):
            first = yield from ctx.post_recv(ctx.mailbox, tag=7)
            yield from ctx.cancel(first)
            yield from ctx.compute(1.0)  # let the message arrive meanwhile
            second = yield from ctx.post_recv(ctx.mailbox, tag=7)
            payload = yield from ctx.wait(second)
            return first.payload, payload

        def sender(ctx):
            yield from ctx.compute(0.5)  # send strictly after the cancel
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(0), "kept", source=1, tag=7, nbytes=8, same_node=True
            )

        pid = sim.add_proc(p)
        sim.add_proc(sender)
        out = sim.run()
        assert out.results[pid] == (None, "kept")

    def test_test_charges_poll_time(self):
        def p(ctx):
            req = yield from ctx.post_recv(ctx.mailbox)
            yield from ctx.test(req)
            yield from ctx.cancel(req)

        out, pid = run_single(p)
        assert out.stats[pid].poll_time > 0.0


class TestSharedMailbox:
    def test_threads_pull_from_shared_queue(self):
        """Two procs share a mailbox; each message is consumed exactly once."""
        sim = Simulation()
        shared = sim.new_mailbox("shared")

        def sender(ctx):
            for i in range(6):
                yield from ctx.send_to_mailbox(
                    shared, i, source=0, tag=0, nbytes=8, same_node=True
                )

        def worker(ctx):
            got = []
            for _ in range(3):
                req = yield from ctx.post_recv(shared)
                got.append((yield from ctx.wait(req)))
                yield from ctx.compute(0.01)
            return got

        sim.add_proc(sender)
        a = sim.add_proc(worker, mailbox=shared)
        b = sim.add_proc(worker, mailbox=shared)
        out = sim.run()
        all_got = sorted(out.results[a] + out.results[b])
        assert all_got == [0, 1, 2, 3, 4, 5]


class TestEvents:
    def test_wait_any_event_vs_message(self):
        sim = Simulation()
        ev = Event()

        def setter(ctx):
            yield from ctx.compute(2.0)
            yield from ctx.set_event(ev)

        def waiter(ctx):
            req = yield from ctx.post_recv(ctx.mailbox)
            idx, payload = yield from ctx.wait_any([req, ev])
            yield from ctx.cancel(req)
            return idx, ctx.now

        sim.add_proc(setter)
        sim.add_proc(waiter)
        idx, t = sim.run().results[1]
        assert idx == 1 and t == pytest.approx(2.0)

    def test_event_already_set_returns_immediately(self):
        sim = Simulation()
        ev = Event()

        def setter_then_waiter(ctx):
            yield from ctx.set_event(ev)
            idx, _ = yield from ctx.wait_any([ev])
            return idx

        out, pid = run_single_sim(sim, setter_then_waiter)
        assert out.results[pid] == 0

    def test_multiple_waiters_all_wake(self):
        sim = Simulation()
        ev = Event()

        def setter(ctx):
            yield from ctx.compute(1.0)
            yield from ctx.set_event(ev)

        def waiter(ctx):
            yield from ctx.wait_any([ev])
            return ctx.now

        sim.add_proc(setter)
        w = [sim.add_proc(waiter) for _ in range(3)]
        out = sim.run()
        assert all(out.results[pid] == pytest.approx(1.0) for pid in w)


def run_single_sim(sim, program, *args):
    pid = sim.add_proc(program, *args)
    return sim.run(), pid


class TestDeadlock:
    def test_unmatched_recv_raises_deadlock(self):
        sim = Simulation()

        def p(ctx):
            req = yield from ctx.post_recv(ctx.mailbox)
            yield from ctx.wait(req)

        sim.add_proc(p, name="stuck")
        with pytest.raises(DeadlockError, match="stuck"):
            sim.run()

    def test_deadlock_lists_blocked_count(self):
        sim = Simulation()

        def p(ctx):
            req = yield from ctx.post_recv(ctx.mailbox)
            yield from ctx.wait(req)

        sim.add_proc(p)
        sim.add_proc(p)
        with pytest.raises(DeadlockError, match="2 proc"):
            sim.run()


class TestProcError:
    def test_proc_exception_carries_typed_context(self):
        def p(ctx):
            yield from ctx.compute(2.5)
            raise ValueError("boom")

        sim = Simulation()
        sim.add_proc(p, node=3, name="exploder")
        with pytest.raises(ProcError) as exc_info:
            sim.run()
        err = exc_info.value
        assert err.proc_name == "exploder"
        assert err.pid == 0
        assert err.node == 3
        assert err.virtual_time == pytest.approx(2.5)
        assert "ValueError" in str(err) and "boom" in str(err)

    def test_proc_error_is_a_sim_error(self):
        assert issubclass(ProcError, SimError)

    def test_original_exception_chained(self):
        def p(ctx):
            yield from ctx.compute(0.1)
            raise KeyError("missing")

        sim = Simulation()
        sim.add_proc(p)
        with pytest.raises(ProcError) as exc_info:
            sim.run()
        assert isinstance(exc_info.value.__cause__, KeyError)


class TestPayloadNbytes:
    def test_numpy_array_true_size(self):
        x = np.zeros(100, dtype=np.float32)
        assert payload_nbytes(x) >= 400

    def test_containers_recurse(self):
        assert payload_nbytes([np.zeros(10), np.zeros(10)]) > 2 * 40

    def test_none_small(self):
        assert payload_nbytes(None) == 8
