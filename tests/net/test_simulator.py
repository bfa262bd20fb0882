"""Tests for the discrete-event network simulator."""

import pytest

from repro.net.adversary import Adversary, NetworkConditions
from repro.net.channels import Message
from repro.net.simulator import Network, SimNode


class EchoNode(SimNode):
    """Test node that records everything it receives and can reply."""

    def __init__(self, node_id, reply_to=None):
        super().__init__(node_id)
        self.received = []
        self.reply_to = reply_to

    def on_message(self, message: Message) -> None:
        self.received.append(message)
        if self.reply_to is not None:
            self.send(self.reply_to, f"echo:{message.payload}")


def make_network(**kwargs):
    network = Network(conditions=NetworkConditions(base_latency=0.001, seed=1), **kwargs)
    a, b = EchoNode("a"), EchoNode("b")
    network.register(a)
    network.register(b)
    return network, a, b


class TestDelivery:
    def test_message_is_delivered(self):
        network, a, b = make_network()
        a.send("b", "hello")
        network.run_until_idle()
        assert [m.payload for m in b.received] == ["hello"]

    def test_delivery_advances_global_clock(self):
        network, a, b = make_network()
        a.send("b", "hello")
        network.run_until_idle()
        assert network.now > 0

    def test_broadcast_reaches_every_receiver(self):
        network, a, b = make_network()
        c = EchoNode("c")
        network.register(c)
        a.broadcast(["b", "c", "a"], "ping")
        network.run_until_idle()
        assert len(b.received) == 1 and len(c.received) == 1 and len(a.received) == 1

    def test_send_to_unknown_node_is_dropped_silently(self):
        network, a, b = make_network()
        a.send("ghost", "hello")
        network.run_until_idle()
        assert b.received == []

    def test_reply_chain(self):
        network = Network(conditions=NetworkConditions(base_latency=0.001, seed=1))
        a = EchoNode("a")
        b = EchoNode("b", reply_to="a")
        network.register(a)
        network.register(b)
        a.send("b", "ping")
        network.run_until_idle()
        assert [m.payload for m in a.received] == ["echo:ping"]

    def test_duplicate_node_registration_rejected(self):
        network, a, b = make_network()
        with pytest.raises(ValueError):
            network.register(EchoNode("a"))

    def test_statistics_are_tracked(self):
        network, a, b = make_network()
        a.send("b", "one")
        a.send("b", "two")
        network.run_until_idle()
        assert network.messages_sent == 2
        assert network.messages_delivered == 2
        assert network.messages_dropped == 0


class TestTimersAndOrdering:
    def test_timers_fire_in_order(self):
        network, a, b = make_network()
        fired = []
        a.set_timer(0.5, lambda: fired.append("late"))
        a.set_timer(0.1, lambda: fired.append("early"))
        network.run_until_idle()
        assert fired == ["early", "late"]

    def test_simultaneous_events_fire_in_scheduling_order(self):
        """The heap key is (time, sequence): ties never compare the callables."""
        network, a, b = make_network()
        fired = []
        for label in "abcdefgh":
            network.schedule_at(1.0, lambda label=label: fired.append(label))
        network.schedule_at(0.5, lambda: fired.append("first"))
        network.run_until_idle()
        assert fired == ["first", *"abcdefgh"]

    def test_run_until_stops_at_deadline(self):
        network, a, b = make_network()
        fired = []
        a.set_timer(1.0, lambda: fired.append("x"))
        a.set_timer(10.0, lambda: fired.append("y"))
        network.run(until=5.0)
        assert fired == ["x"]
        assert network.pending_events() == 1

    def test_event_budget_guards_against_storms(self):
        network = Network(conditions=NetworkConditions(base_latency=0.0, seed=1))

        class Storm(SimNode):
            def on_message(self, message):
                self.send(self.node_id, "again")

        storm = Storm("s")
        network.register(storm)
        storm.send("s", "go")
        with pytest.raises(RuntimeError):
            network.run(max_events=100)

    def test_budget_hit_on_exactly_the_last_event_is_not_a_storm(self):
        network, a, b = make_network()
        fired = []
        for index in range(5):
            a.set_timer(0.1 * (index + 1), lambda i=index: fired.append(i))
        # The queue drains on exactly the last budgeted event: no error.
        assert network.run(max_events=5) == 5
        assert fired == [0, 1, 2, 3, 4]
        assert network.pending_events() == 0

    def test_budget_hit_with_only_post_deadline_events_is_not_a_storm(self):
        network, a, b = make_network()
        a.set_timer(1.0, lambda: None)
        a.set_timer(2.0, lambda: None)
        a.set_timer(10.0, lambda: None)
        # Two events fit the budget; the only remaining one is past the
        # deadline, which is a normal deadline stop, not a message storm.
        assert network.run(max_events=2, until=5.0) == 2
        assert network.pending_events() == 1

    def test_node_clock_accessible(self):
        network, a, b = make_network()
        assert a.now == network.now


class TestAdversarialConditions:
    def test_drop_rate_one_drops_everything(self):
        network = Network(conditions=NetworkConditions(base_latency=0.001, drop_rate=1.0, seed=1))
        a, b = EchoNode("a"), EchoNode("b")
        network.register(a)
        network.register(b)
        a.send("b", "hello")
        network.run_until_idle()
        assert b.received == []
        assert network.messages_dropped == 1

    def test_dropped_messages_count_as_sent_not_delivered(self):
        network = Network(conditions=NetworkConditions(base_latency=0.001, drop_rate=1.0, seed=1))
        a, b = EchoNode("a"), EchoNode("b")
        network.register(a)
        network.register(b)
        a.send("b", "hello")
        network.run_until_idle()
        assert (network.messages_sent, network.messages_delivered) == (1, 0)
        assert network.payload_copies_sent == {"str": 1}

    def test_duplicate_rate_one_duplicates_everything(self):
        network = Network(
            conditions=NetworkConditions(base_latency=0.001, duplicate_rate=1.0, seed=1)
        )
        a, b = EchoNode("a"), EchoNode("b")
        network.register(a)
        network.register(b)
        a.send("b", "hello")
        network.run_until_idle()
        assert len(b.received) == 2
        assert network.payload_copies_sent == {"str": 1}  # duplicates are not sends

    def test_blocked_link_drops_messages(self):
        adversary = Adversary()
        adversary.block_link("a", "b")
        network = Network(conditions=NetworkConditions(base_latency=0.001, seed=1),
                          adversary=adversary)
        a, b = EchoNode("a"), EchoNode("b")
        network.register(a)
        network.register(b)
        a.send("b", "hello")
        b.send("a", "hi")
        network.run_until_idle()
        assert b.received == []
        assert len(a.received) == 1

    def test_delay_rule_postpones_delivery(self):
        adversary = Adversary()
        adversary.add_delay_rule(lambda m: m.receiver == "b", 5.0)
        network = Network(conditions=NetworkConditions(base_latency=0.001, seed=1),
                          adversary=adversary)
        a, b = EchoNode("a"), EchoNode("b")
        network.register(a)
        network.register(b)
        a.send("b", "hello")
        network.run_until_idle()
        assert len(b.received) == 1
        assert network.now >= 5.0

    def test_partition_and_heal(self):
        adversary = Adversary()
        installed = adversary.partition(["a"], ["b"])
        network = Network(conditions=NetworkConditions(base_latency=0.001, seed=1),
                          adversary=adversary)
        a, b = EchoNode("a"), EchoNode("b")
        network.register(a)
        network.register(b)
        a.send("b", "during-partition")
        network.run_until_idle()
        assert b.received == []
        adversary.heal_links(installed)
        a.send("b", "after-heal")
        network.run_until_idle()
        assert [m.payload for m in b.received] == ["after-heal"]
