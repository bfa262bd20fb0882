"""Tests for timed fault injection: adversary precision, crash/recovery, chaos.

Covers the two satellite regressions (partition healing must not lift
independent link blocks; ``NetworkConditions.replace`` must keep the live RNG
stream), the simulator's crash/recovery semantics, and the
:class:`~repro.net.chaos.ChaosController`'s network-fault scheduling.
"""

from types import SimpleNamespace

import pytest

from repro.api.spec import ClockSkew, CrashNode, FaultPlan, LossBurst, Partition, RecoverNode
from repro.core.election import FaultThresholds
from repro.net.adversary import Adversary, NetworkConditions
from repro.net.chaos import ChaosController
from repro.net.simulator import Network, SimNode


class EchoNode(SimNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []
        self.timer_fired = 0

    def on_message(self, message):
        self.received.append(message)

    def arm_timer(self, delay):
        self.set_timer(delay, self._on_timer)

    def _on_timer(self):
        self.timer_fired += 1


def make_network(*node_ids, adversary=None, conditions=None):
    network = Network(
        conditions=conditions or NetworkConditions(base_latency=0.001, seed=1),
        adversary=adversary,
    )
    nodes = [EchoNode(node_id) for node_id in node_ids]
    for node in nodes:
        network.register(node)
    return (network, *nodes)


class TestHealPartitionPrecision:
    """Satellite regression: healing a partition must not lift other blocks."""

    def test_heal_links_keeps_independent_blocks(self):
        adversary = Adversary()
        adversary.block_link("a", "b")
        adversary.heal_links(adversary.partition(["a"], ["c"]))
        assert ("a", "b") in adversary.blocked_links
        assert ("a", "c") not in adversary.blocked_links
        assert ("c", "a") not in adversary.blocked_links

    def test_partition_does_not_adopt_existing_blocks(self):
        adversary = Adversary()
        adversary.block_link("a", "b")
        installed = adversary.partition(["a"], ["b", "c"])
        # The pre-existing block is not part of the partition's link set...
        assert ("a", "b") not in installed
        adversary.heal_links(installed)
        # ...so healing leaves it in force.
        assert adversary.blocked_links == {("a", "b")}

    def test_heal_links_heals_exactly_one_partition(self):
        adversary = Adversary()
        first = adversary.partition(["a"], ["b"])
        second = adversary.partition(["c"], ["d"])
        adversary.heal_links(first)
        assert ("a", "b") not in adversary.blocked_links
        assert ("c", "d") in adversary.blocked_links
        adversary.heal_links(second)
        assert adversary.blocked_links == set()


class TestConditionsReplace:
    """Satellite regression: replace() must continue the live RNG stream."""

    def test_replace_keeps_rng_stream(self):
        # Reference: an uninterrupted conditions object.
        reference = NetworkConditions(jitter=0.5, seed=9)
        burn_in = [reference.sample_latency() for _ in range(5)]
        expected = [reference.sample_latency() for _ in range(5)]

        # Same seed, same burn-in, then a replace() mid-stream.
        conditions = NetworkConditions(jitter=0.5, seed=9)
        assert [conditions.sample_latency() for _ in range(5)] == burn_in
        swapped = conditions.replace(drop_rate=0.3)
        assert swapped.drop_rate == 0.3
        assert [swapped.sample_latency() for _ in range(5)] == expected

    def test_dataclasses_replace_would_rewind(self):
        # Documents the bug replace() exists to avoid: the stdlib copy
        # re-seeds and replays the stream from the start.
        import dataclasses

        conditions = NetworkConditions(jitter=0.5, seed=9)
        first = conditions.sample_latency()
        rewound = dataclasses.replace(conditions, drop_rate=0.3)
        assert rewound.sample_latency() == first

    def test_replace_keeps_unchanged_fields(self):
        conditions = NetworkConditions(base_latency=0.02, jitter=0.1, seed=3)
        swapped = conditions.replace(drop_rate=0.5)
        assert swapped.base_latency == 0.02
        assert swapped.jitter == 0.1
        assert swapped.seed == 3


class TestCrashRecovery:
    def test_crashed_node_receives_nothing(self):
        network, a, b = make_network("a", "b")
        network.crash("b")
        a.send("b", "lost")
        network.run_until_idle()
        assert b.received == []
        assert network.messages_dropped == 1

    def test_recovered_node_receives_again(self):
        network, a, b = make_network("a", "b")
        network.crash("b")
        a.send("b", "lost")
        network.run_until_idle()
        network.recover("b")
        a.send("b", "back")
        network.run_until_idle()
        assert [m.payload for m in b.received] == ["back"]

    def test_crashed_node_cannot_send(self):
        network, a, b = make_network("a", "b")
        network.crash("a")
        a.send("b", "from-the-grave")
        network.run_until_idle()
        assert b.received == []

    def test_owned_timer_is_suppressed_while_crashed(self):
        network, a, b = make_network("a", "b")
        a.arm_timer(1.0)
        network.crash("a")
        network.run_until_idle()
        assert a.timer_fired == 0
        assert network.events_suppressed == 1

    def test_timer_fires_after_recovery(self):
        network, a, b = make_network("a", "b")
        a.arm_timer(5.0)
        network.crash("a")
        network.schedule(1.0, lambda: network.recover("a"), description="recover")
        network.run_until_idle()
        assert a.timer_fired == 1

    def test_in_flight_message_survives_a_crash_window(self):
        # Sent before the crash, delivered after recovery: the frame was on
        # the wire the whole time.
        network, a, b = make_network("a", "b")
        a.send("b", "slow")
        network.crash("b")
        network.recover("b")
        network.run_until_idle()
        assert [m.payload for m in b.received] == ["slow"]

    def test_crash_unknown_node_raises(self):
        network, *_ = make_network("a")
        with pytest.raises(ValueError):
            network.crash("ghost")

    def test_is_crashed(self):
        network, a, _ = make_network("a", "b")
        assert not network.is_crashed("a")
        network.crash("a")
        assert network.is_crashed("a")


class TestChaosControllerNetworkFaults:
    """Partition, loss-burst and clock-skew scheduling on a plain network."""

    def controller(self, plan, network):
        return ChaosController(plan, network, vote_collectors=[])

    def test_partition_blocks_then_heals(self):
        plan = FaultPlan(
            events=(Partition(t_start=1.0, t_end=2.0, groups=(("a",), ("b",))),)
        )
        network, a, b = make_network("a", "b")
        controller = self.controller(plan, network)
        controller.install()
        network.schedule(1.5, lambda: a.send("b", "blocked"))
        network.schedule(2.5, lambda: a.send("b", "healed"))
        network.run_until_idle()
        assert [m.payload for m in b.received] == ["healed"]
        assert network.adversary.blocked_links == set()
        kinds = [entry["kind"] for entry in controller.log]
        assert kinds == ["partition", "heal"]

    def test_partition_heal_preserves_independent_block(self):
        plan = FaultPlan(
            events=(Partition(t_start=1.0, t_end=2.0, groups=(("a",), ("b",))),)
        )
        adversary = Adversary()
        adversary.block_link("a", "b")
        network, a, b = make_network("a", "b", adversary=adversary)
        controller = self.controller(plan, network)
        controller.install()
        network.run_until_idle()
        assert ("a", "b") in adversary.blocked_links

    def test_multi_group_partition_blocks_all_cross_links(self):
        plan = FaultPlan(
            events=(
                Partition(t_start=1.0, t_end=2.0, groups=(("a",), ("b",), ("c",))),
            )
        )
        network, a, b, c = make_network("a", "b", "c")
        controller = self.controller(plan, network)
        controller.install()
        network.run(until=1.5)
        assert len(network.adversary.blocked_links) == 6
        network.run_until_idle()
        assert network.adversary.blocked_links == set()

    def test_loss_burst_overrides_and_restores_drop_rate(self):
        plan = FaultPlan(events=(LossBurst(t_start=1.0, t_end=2.0, rate=0.4),))
        network, a, b = make_network("a", "b")
        controller = self.controller(plan, network)
        controller.install()
        network.run(until=1.5)
        assert network.conditions.drop_rate == 0.4
        network.run_until_idle()
        assert network.conditions.drop_rate == 0.0

    def test_loss_burst_keeps_rng_stream(self):
        # The same seeded network with and without a zero-width rate change
        # must sample identical latencies afterwards.
        def latencies(with_burst):
            network, a, b = make_network(
                "a", "b", conditions=NetworkConditions(jitter=0.01, seed=4)
            )
            if with_burst:
                plan = FaultPlan(events=(LossBurst(t_start=0.5, t_end=0.6, rate=0.9),))
                controller = self.controller(plan, network)
                controller.install()
            for i in range(10):
                network.schedule(1.0 + i, lambda: a.send("b", "x"))
            network.run_until_idle()
            return [m.deliver_time - m.send_time for m in b.received]

        assert latencies(with_burst=False) == latencies(with_burst=True)

    def test_clock_skew_sets_drift(self):
        plan = FaultPlan(events=(ClockSkew(node="a", drift=0.25, t=1.0),))
        network, a, b = make_network("a", "b")
        controller = self.controller(plan, network)
        controller.install()
        network.run_until_idle()
        assert network.clocks.clock_of("a").drift == 0.25
        assert a.now == pytest.approx(network.now + 0.25)

    def test_install_twice_raises(self):
        network, *_ = make_network("a")
        controller = self.controller(FaultPlan(), network)
        controller.install()
        with pytest.raises(RuntimeError):
            controller.install()

    def test_report_shape(self):
        plan = FaultPlan(events=(LossBurst(t_start=1.0, t_end=2.0, rate=0.4),))
        network, *_ = make_network("a", "b")
        controller = self.controller(plan, network)
        controller.install()
        network.run_until_idle()
        report = controller.report()
        assert report["expect_failure"] is False
        assert report["planned_events"] == [event.to_dict() for event in plan.events]
        assert [a["kind"] for a in report["actions"]] == ["loss-burst", "loss-restore"]
        assert report["still_crashed"] == []


class StubCollector:
    """The part of a vote collector the crash/recover/catch-up path touches."""

    def __init__(self, node_id, params):
        self.node_id = node_id
        self.params = params
        self.crashes = 0
        self.recovered_at = None
        self.caught_up_from_bb = False
        self.adopted = None

    def snapshot_state(self, codec=None):
        return b"state"

    def restore_state(self, snapshot, codec=None):
        pass

    def adopt_final_vote_set(self, vote_set):
        self.adopted = vote_set
        self.caught_up_from_bb = True


class RaisingBulletinBoard:
    """A Byzantine BB replica whose vote-set read blows up."""

    def __init__(self, params):
        self.params = params

    @property
    def accepted_vote_set(self):
        raise RuntimeError("replica is lying in an unexpected way")


class TestCatchupFromTheBulletinBoard:
    def test_a_raising_bb_replica_is_no_answer(self):
        """The catch-up read is the paper's majority read: one BB that raises
        is skipped, and the two honest replicas (fb + 1 of 3) still agree."""
        params = SimpleNamespace(thresholds=FaultThresholds(4, 3, 3, 2))
        vote_set = ((1, b"code-1"), (2, b"code-2"))
        honest = SimpleNamespace(params=params, accepted_vote_set=vote_set)
        bb_nodes = [honest, RaisingBulletinBoard(params), honest]
        network, _ = make_network("VC-0")
        collector = StubCollector("VC-0", params)
        plan = FaultPlan(events=(CrashNode(t=1.0, node="VC-0"), RecoverNode(t=6.0, node="VC-0")))
        controller = ChaosController(
            plan, network, vote_collectors=[collector], bb_nodes=bb_nodes, election_end=5.0
        )
        controller.install()
        network.run_until_idle()
        assert collector.adopted == vote_set
        assert controller.report()["caught_up_from_bb"] == ["VC-0"]
        assert [entry["kind"] for entry in controller.log] == ["crash", "recover", "catchup"]
