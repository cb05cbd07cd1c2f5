"""Engine-level fault injection: crashes, link faults, slow nodes, timeouts."""

import pytest

from repro.faults import FaultInjector, FaultSpec, LinkFault, RankCrash, SlowNode
from repro.simmpi import Simulation
from repro.simmpi.engine import WAIT_TIMED_OUT
from repro.simmpi.network import NetworkModel


def faulted_sim(**spec_kwargs):
    inj = FaultInjector(FaultSpec(**spec_kwargs))
    return Simulation(faults=inj), inj


class TestWaitAnyTimeout:
    def test_timeout_fires_at_deadline(self):
        sim = Simulation()

        def p(ctx):
            req = yield from ctx.post_recv(ctx.mailbox)
            fired, payload = yield from ctx.wait_any([req], timeout=1.5)
            return fired, payload, ctx.now

        pid = sim.add_proc(p)
        fired, payload, t = sim.run().results[pid]
        assert fired == WAIT_TIMED_OUT and payload is None
        assert t == pytest.approx(1.5)

    def test_request_survives_timeout_and_completes_later(self):
        sim = Simulation()

        def sender(ctx):
            yield from ctx.compute(2.0)
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(1), "late", source=0, tag=0, nbytes=8, same_node=True
            )

        def waiter(ctx):
            req = yield from ctx.post_recv(ctx.mailbox)
            fired, _ = yield from ctx.wait_any([req], timeout=0.5)
            assert fired == WAIT_TIMED_OUT
            # the receive stayed posted; waiting again gets the message
            fired, payload = yield from ctx.wait_any([req])
            return fired, payload, ctx.now

        sim.add_proc(sender)
        w = sim.add_proc(waiter)
        fired, payload, t = sim.run().results[w]
        assert (fired, payload) == (0, "late")
        assert t > 2.0

    def test_completion_beats_timeout(self):
        sim = Simulation()

        def sender(ctx):
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(1), "fast", source=0, tag=0, nbytes=8, same_node=True
            )

        def waiter(ctx):
            req = yield from ctx.post_recv(ctx.mailbox)
            fired, payload = yield from ctx.wait_any([req], timeout=100.0)
            return fired, payload, ctx.now

        sim.add_proc(sender)
        w = sim.add_proc(waiter)
        fired, payload, t = sim.run().results[w]
        assert (fired, payload) == (0, "fast")
        assert t < 100.0  # the stale timer entry never fired

    def test_negative_timeout_rejected(self):
        sim = Simulation()

        def p(ctx):
            req = yield from ctx.post_recv(ctx.mailbox)
            yield from ctx.wait_any([req], timeout=-1.0)

        sim.add_proc(p)
        with pytest.raises(Exception, match="timeout"):
            sim.run()


class TestRankCrashes:
    def test_crash_stops_computing_proc(self):
        sim, _ = faulted_sim(crashes=(RankCrash(node=1, at=1.0),))

        def busy(ctx):
            for _ in range(100):
                yield from ctx.compute(0.25)
            return "finished"

        survivor = sim.add_proc(busy, node=0)
        victim = sim.add_proc(busy, node=1)
        out = sim.run()
        assert out.results[survivor] == "finished"
        assert out.results[victim] is None
        assert out.crashed_pids == (victim,)
        assert any(e.kind == "crash" and e.detail["node"] == 1 for e in out.fault_events)

    def test_crash_of_blocked_proc_is_not_a_deadlock(self):
        sim, _ = faulted_sim(crashes=(RankCrash(node=0, at=1.0),))

        def stuck(ctx):
            req = yield from ctx.post_recv(ctx.mailbox)
            yield from ctx.wait(req)  # nothing will ever arrive

        pid = sim.add_proc(stuck, node=0, name="stuck")
        out = sim.run()  # must NOT raise DeadlockError
        assert out.crashed_pids == (pid,)

    def test_message_to_crashed_node_is_lost(self):
        sim, _ = faulted_sim(crashes=(RankCrash(node=1, at=1.0),))
        sink = sim.new_mailbox("sink", node=1)

        def sender(ctx):
            yield from ctx.compute(2.0)  # well past the crash
            yield from ctx.send_to_mailbox(
                sink, "into the void", source=0, tag=9, nbytes=8, same_node=False
            )

        sim.add_proc(sender, node=0)
        out = sim.run()
        assert len(sink) == 0
        lost = [e for e in out.fault_events if e.kind == "msg_lost_node_down"]
        assert lost and lost[0].detail["dst"] == 1

    def test_message_before_crash_is_delivered(self):
        sim, _ = faulted_sim(crashes=(RankCrash(node=1, at=50.0),))
        sink = sim.new_mailbox("sink", node=1)

        def sender(ctx):
            yield from ctx.send_to_mailbox(
                sink, "in time", source=0, tag=9, nbytes=8, same_node=False
            )

        sim.add_proc(sender, node=0)
        sim.run()
        assert len(sink) == 1


class TestLinkFaults:
    def test_drop_all(self):
        sim, _ = faulted_sim(links=(LinkFault(drop_prob=1.0),))
        sink = sim.new_mailbox("sink")

        def sender(ctx):
            yield from ctx.send_to_mailbox(sink, "x", source=0, tag=0, nbytes=8, same_node=False)

        sim.add_proc(sender, node=0)
        out = sim.run()
        assert len(sink) == 0
        assert [e.kind for e in out.fault_events] == ["msg_drop"]

    def test_duplicate_all(self):
        sim, _ = faulted_sim(links=(LinkFault(dup_prob=1.0),))
        sink = sim.new_mailbox("sink")

        def sender(ctx):
            yield from ctx.send_to_mailbox(sink, "x", source=0, tag=0, nbytes=8, same_node=False)

        sim.add_proc(sender, node=0)
        out = sim.run()
        assert len(sink) == 2
        assert any(e.kind == "msg_dup" for e in out.fault_events)

    def test_delay_postpones_arrival(self):
        sim, _ = faulted_sim(links=(LinkFault(delay_prob=1.0, delay_seconds=5.0),))

        def sender(ctx):
            yield from ctx.send_to_mailbox(
                sim.mailbox_of(1), "slow", source=0, tag=0, nbytes=8, same_node=False
            )

        def receiver(ctx):
            req = yield from ctx.post_recv(ctx.mailbox)
            payload = yield from ctx.wait(req)
            return payload, ctx.now

        sim.add_proc(sender, node=0)
        r = sim.add_proc(receiver, node=1)
        payload, t = sim.run().results[r]
        assert payload == "slow" and t > 5.0

    def test_first_matching_rule_wins(self):
        inj = FaultInjector(
            FaultSpec(links=(LinkFault(src=0, dst=1, drop_prob=1.0), LinkFault(dup_prob=1.0)))
        )
        net = NetworkModel()
        assert inj.transfer_times(0, 1, 100, False, net, 0.0) == []  # specific rule
        assert len(inj.transfer_times(2, 3, 100, False, net, 0.0)) == 2  # wildcard rule

    def test_seeded_rng_is_reproducible(self):
        net = NetworkModel()
        spec = FaultSpec(links=(LinkFault(drop_prob=0.5),), seed=42)
        a = [FaultInjector(spec).transfer_times(0, 1, 8, False, net, 0.0) for _ in range(1)]
        b = [FaultInjector(spec).transfer_times(0, 1, 8, False, net, 0.0) for _ in range(1)]
        assert a == b

    def test_degraded_link_factors_slow_the_wire(self):
        net = NetworkModel()
        clean = net.p2p_time(1_000_000, same_node=False)
        slow = net.p2p_time(1_000_000, same_node=False, latency_factor=3.0, bandwidth_factor=0.5)
        assert slow > clean


class TestSlowNodes:
    def test_compute_charge_scaled(self):
        sim, _ = faulted_sim(slow_nodes=(SlowNode(node=1, factor=3.0),))

        def p(ctx):
            yield from ctx.compute(1.0)
            return ctx.now

        normal = sim.add_proc(p, node=0)
        slow = sim.add_proc(p, node=1)
        out = sim.run()
        assert out.results[normal] == pytest.approx(1.0)
        assert out.results[slow] == pytest.approx(3.0)
