"""The Vote Set Consensus engine alone, over a loopback router.

No collector, no cluster: ``n`` :class:`VoteSetConsensus` engines exchange
messages through one FIFO queue (grace timers fire when it drains).  What is
pinned here is what both hosts rely on: junk instance ids leave no state,
traffic for a block that has not started waits and is replayed in order, a
per-ballot message may arrive before the local propose, every serial is
decided once, the counters say which path a block took, and a halted
per-ballot instance leaves only its round and decision behind.
"""

from collections import deque
from functools import partial

import pytest

from repro.consensus.batching import SuperblockConsensus, SuperblockSend, partition_serials
from repro.consensus.bracha import BinaryConsensusInstance
from repro.consensus.interfaces import Aux, BVal, Finish, member_bits
from repro.consensus.vote_set_consensus import HaltedInstance, VoteSetConsensus

NODES = ("N0", "N1", "N2", "N3")


class Loopback:
    """Four engines around one queue; ``decided[i]`` logs node i's ``on_decide`` calls."""

    def __init__(self, per_node_opinions, batch_size):
        self.queue = deque()
        self.timers = []
        self.opinions = [dict(opinions) for opinions in per_node_opinions]
        self.decided = [[] for _ in NODES]
        serials = list(self.opinions[0])
        blocks = partition_serials(serials, batch_size) if batch_size > 1 else ()
        self.engines = [
            VoteSetConsensus(
                node_id=node_id,
                members=member_bits(NODES),
                num_faulty=1,
                serials=opinions,
                blocks=blocks,
                broadcast=partial(self.broadcast, node_id),
                schedule=lambda _delay, callback: self.timers.append(callback),
                opinion_of=opinions.__getitem__,
                on_decide=lambda serial, bit, log=log: log.append((serial, bit)),
            )
            for node_id, opinions, log in zip(NODES, self.opinions, self.decided, strict=True)
        ]

    def broadcast(self, sender, message):
        for index in range(len(NODES)):
            self.queue.append((index, sender, message))

    def run(self):
        while self.queue or self.timers:
            while self.queue:
                index, sender, message = self.queue.popleft()
                self.engines[index].handle(sender, message)
            pending, self.timers = self.timers, []
            for callback in pending:
                callback()


def unanimous(num_serials, first=100):
    opinions = {serial: serial % 2 for serial in range(first, first + num_serials)}
    return [opinions] * len(NODES)


def split_on(opinions, serials):
    """Two nodes against two on ``serials``: no vector can reach the quorum of 3."""
    flipped = {**opinions, **{serial: 1 - opinions[serial] for serial in serials}}
    return [opinions, opinions, flipped, flipped]


class TestRouting:
    @pytest.mark.parametrize("batch_size", [1, 4], ids=["per-ballot", "superblock"])
    def test_junk_instance_ids_are_dropped_and_leave_no_state(self, batch_size):
        engine = Loopback(unanimous(8), batch_size).engines[0]
        untouched = {block_id: [] for block_id in engine.buffered}
        for junk in ("sb|garbage", "sb|999", "sb|-1", "sb|", "x", "", "12x", "99", "-100"):
            for message in (BVal(junk, 1, 1), Aux(junk, 1, 0), Finish(junk, 1),
                            SuperblockSend(junk, "N1", b"\x01")):
                engine.handle("N1", message)
        assert engine.instances == {}
        assert engine.running == {}
        assert engine.buffered == untouched
        assert len(untouched) == (2 if batch_size > 1 else 0)

    @pytest.mark.parametrize("batch_size", [1, 4], ids=["per-ballot", "superblock"])
    def test_a_non_member_is_dropped_before_routing(self, batch_size):
        engine = Loopback(unanimous(8), batch_size).engines[0]
        untouched = {block_id: [] for block_id in engine.buffered}
        for message in (BVal("100", 1, 1), Finish("100", 0), BVal("sb|1", 1, 1),
                        SuperblockSend("sb|1", "BB-0", b"\x00" * 4)):
            engine.handle("BB-0", message)
        assert engine.instances == {}
        assert engine.buffered == untouched

    def test_traffic_for_an_unstarted_own_block_is_replayed_in_arrival_order(self, monkeypatch):
        net = Loopback(unanimous(8), batch_size=4)
        engine = net.engines[0]
        early = [
            ("N2", SuperblockSend("sb|1", "N2", b"\x00\x01\x00\x01")),
            ("N1", BVal("sb|1", 1, 1)),
            ("N3", SuperblockSend("sb|1", "N3", b"\x00\x01\x00\x01")),
            ("N1", Aux("sb|1", 1, 1)),
        ]
        for sender, message in early:
            engine.handle(sender, message)
        assert engine.buffered == {"sb|0": [], "sb|1": early}
        assert engine.running == {}

        handled = []
        original = SuperblockConsensus.handle

        def recording(block, sender, message):
            handled.append((block.block_id, sender, message))
            original(block, sender, message)

        monkeypatch.setattr(SuperblockConsensus, "handle", recording)
        for serial in (104, 105, 106):
            engine.ready(serial)
        assert engine.running == {} and handled == []  # one member still awaited
        engine.ready(107)
        assert list(engine.running) == ["sb|1"]
        assert handled == [("sb|1", sender, message) for sender, message in early]
        assert engine.buffered == {"sb|0": []}
        # From now on the block takes its traffic directly.
        engine.handle("N2", Aux("sb|1", 1, 1))
        assert len(handled) == len(early) + 1

    def test_a_per_ballot_message_may_arrive_before_the_local_propose(self):
        net = Loopback(unanimous(3), batch_size=1)
        late = net.engines[0]
        for engine in net.engines[1:]:
            engine.ready_all()
        net.run()
        # The three peers decided among themselves; N0 heard all of it first.
        assert late.per_ballot_instances == 0
        assert set(late.instances) == {100, 101, 102}
        assert not any(instance.started for instance in late.instances.values())
        late.ready_all()
        net.run()
        assert late.per_ballot_instances == 3
        assert sorted(net.decided[0]) == sorted(net.opinions[0].items())

    def test_every_instance_shares_one_decide_callback(self):
        """Instances are many (one per ballot on every collector); the engine
        binds their decide callback once, and it reports the serial."""
        net = Loopback(unanimous(3), batch_size=1)
        engine = net.engines[0]
        for serial in (100, 101, 102):
            engine.handle("N1", BVal(str(serial), 1, 1))
        callbacks = {id(instance.on_decide) for instance in engine.instances.values()}
        assert len(engine.instances) == 3 and len(callbacks) == 1
        engine.instances[101].on_decide("101", 1)
        assert net.decided[0] == [(101, 1)]


class TestReadiness:
    def test_a_block_starts_with_its_last_member_and_reads_opinions_then(self):
        net = Loopback(unanimous(4), batch_size=2)
        engine, opinions = net.engines[0], net.opinions[0]
        engine.ready(100)
        engine.ready(100)  # again: still one member of two
        assert engine.running == {} and engine.superblocks == 0
        opinions[100] = 1  # the host's opinion may change until the block starts
        engine.ready(101)
        assert list(engine.running) == ["sb|0"]
        assert engine.running["sb|0"].bits == b"\x01\x01"
        engine.ready(101)  # and after: nothing restarts
        assert engine.superblocks == 1

    def test_ready_in_per_ballot_mode_proposes_once(self):
        net = Loopback(unanimous(2), batch_size=1)
        engine = net.engines[0]
        engine.ready(101)
        engine.ready(101)
        assert engine.per_ballot_instances == 1
        assert [(m.instance, m.value) for _, _, m in net.queue if isinstance(m, BVal)] == [
            ("101", 1)
        ] * len(NODES)


class TestDecisionsAndCounters:
    @pytest.mark.parametrize("batch_size", [1, 4, 100], ids=["per-ballot", "blocks", "one-block"])
    def test_every_serial_is_decided_once_as_proposed(self, batch_size):
        net = Loopback(unanimous(10), batch_size)
        for engine in net.engines:
            engine.ready_all()
        net.run()
        for log, opinions in zip(net.decided, net.opinions, strict=True):
            assert sorted(log) == sorted(opinions.items())

    def test_counters_of_a_fast_block_and_an_even_split_block(self):
        opinions = unanimous(8)[0]
        net = Loopback(split_on(opinions, serials=(105,)), batch_size=4)
        for engine in net.engines:
            engine.ready_all()
        net.run()
        for engine, log in zip(net.engines, net.decided, strict=True):
            assert engine.superblocks == 2
            assert engine.superblocks_fast == 1  # sb|0: four identical vectors
            assert engine.superblocks_fallback == 1  # sb|1: two against two
            assert engine.per_ballot_instances == 4  # the members of sb|1
            assert set(engine.instances) == {104, 105, 106, 107}
            assert sorted(serial for serial, _ in log) == sorted(opinions)
        reference = dict(net.decided[0])
        assert all(dict(log) == reference for log in net.decided)
        # Per-ballot validity on the fallback path: undisputed ballots keep their bit.
        assert {s: b for s, b in reference.items() if s != 105} == {
            s: b for s, b in opinions.items() if s != 105
        }

    def test_per_serial_readiness_decides_what_ready_all_decides(self):
        opinions = unanimous(8)
        net = Loopback(opinions, batch_size=4)
        for engine in net.engines:
            for serial in reversed(list(opinions[0])):
                engine.ready(serial)
        net.run()
        assert all(dict(log) == opinions[0] and len(log) == 8 for log in net.decided)
        assert all(engine.superblocks_fast == 2 for engine in net.engines)

    def test_close_drops_blocks_and_instances(self):
        net = Loopback(split_on(unanimous(4)[0], serials=(100,)), batch_size=4)
        for engine in net.engines:
            engine.ready_all()
        net.run()
        engine = net.engines[0]
        assert engine.running and engine.instances
        engine.close()
        assert engine.running == {} and engine.instances == {}
        assert engine.superblocks_fallback == 1  # the counters outlive the state


class TestHaltedInstances:
    def test_a_halted_instance_keeps_its_round_and_decision_and_nothing_else(self, monkeypatch):
        # The rounds the instances reached, read just before they are replaced.
        rounds = {}
        retire = VoteSetConsensus._retire_if_halted

        def spy(engine, serial, instance):
            if instance.halted and instance.started:
                rounds[(engine._member["node_id"], serial)] = instance.round
            retire(engine, serial, instance)

        monkeypatch.setattr(VoteSetConsensus, "_retire_if_halted", spy)
        net = Loopback(unanimous(6), batch_size=1)
        for engine in net.engines:
            engine.ready_all()
        net.run()
        for node_id, engine, log in zip(NODES, net.engines, net.decided, strict=True):
            assert set(engine.instances) == set(net.opinions[0])
            for serial, instance in engine.instances.items():
                assert type(instance) is HaltedInstance
                assert instance.round == rounds[(node_id, serial)] >= 1
                assert (serial, instance.decided) in log
                # Two ints and no ``__dict__``: no callback leads back to the engine.
                assert not hasattr(instance, "__dict__")

    def test_messages_for_a_halted_instance_are_ignored(self):
        net = Loopback(unanimous(2), batch_size=1)
        for engine in net.engines:
            engine.ready_all()
        net.run()
        engine = net.engines[0]
        before = dict(engine.instances)
        for message in (BVal("100", 1, 1), Aux("100", 7, 0), Finish("100", 1)):
            engine.handle("N1", message)
        assert engine.instances == before and not net.queue
        engine.ready(100)  # and a late propose starts nothing
        assert engine.per_ballot_instances == 2 and not net.queue

    def test_an_instance_halted_before_its_propose_is_kept_until_then(self):
        """Its round-1 state decides whether the propose broadcasts BVAL."""
        net = Loopback(unanimous(3), batch_size=1)
        late = net.engines[0]
        for engine in net.engines[1:]:
            engine.ready_all()
        net.run()
        for instance in late.instances.values():
            assert type(instance) is BinaryConsensusInstance
            assert instance.halted and not instance.started
        late.ready_all()
        net.run()
        assert all(type(i) is HaltedInstance for i in late.instances.values())
