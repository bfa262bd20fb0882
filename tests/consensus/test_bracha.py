"""Tests for asynchronous binary Byzantine consensus.

The harness runs one consensus instance per host node on the network
simulator, optionally with Byzantine participants and adversarial message
scheduling, and checks the three properties D-DEMOS relies on: validity
(unanimous honest input decides that input), agreement (all honest nodes
decide the same value) and termination.
"""

import pytest

from repro.consensus.bracha import BinaryConsensusInstance, common_coin
from repro.consensus.interfaces import Aux, BVal, Finish, member_bits
from repro.net.adversary import NetworkConditions
from repro.net.channels import Message
from repro.net.simulator import Network, SimNode


#: the members of a standalone instance named "n"
FOUR = member_bits(("n", "p1", "p2", "p3"))


class ConsensusHost(SimNode):
    """A node hosting a single consensus instance for tests."""

    def __init__(self, node_id, peers, num_faulty, instance_id="test", coin=None):
        super().__init__(node_id)
        self.peers = peers
        self.decisions = {}
        self.instance = BinaryConsensusInstance(
            instance_id=instance_id,
            node_id=node_id,
            members=member_bits(peers),
            num_faulty=num_faulty,
            broadcast=lambda msg: self.broadcast(self.peers, msg),
            on_decide=lambda iid, value: self.decisions.update({iid: value}),
            coin=coin,
        )

    def on_message(self, message: Message) -> None:
        self.instance.handle(message.sender, message.payload)


class SilentHost(ConsensusHost):
    """A Byzantine node that never participates."""

    def on_message(self, message: Message) -> None:
        return


class LyingHost(ConsensusHost):
    """A Byzantine node that floods contradictory BVAL/AUX messages."""

    def on_message(self, message: Message) -> None:
        if message.sender == self.node_id:
            return
        payload = message.payload
        if isinstance(payload, BVal):
            for value in (0, 1):
                self.broadcast(self.peers, BVal(payload.instance, payload.round, value))
            self.broadcast(self.peers, Aux(payload.instance, payload.round, payload.value ^ 1))


def run_consensus(num_nodes, num_faulty, proposals, byzantine=(), coin=None, seed=1,
                  conditions=None):
    """Run one instance across ``num_nodes`` hosts; returns the honest hosts."""
    peers = [f"N{i}" for i in range(num_nodes)]
    network = Network(conditions=conditions or NetworkConditions(base_latency=0.001, jitter=0.002, seed=seed))
    hosts = []
    for i, node_id in enumerate(peers):
        cls = ConsensusHost
        if i in byzantine:
            cls = byzantine[i] if isinstance(byzantine, dict) else SilentHost
        host = cls(node_id, peers, num_faulty, coin=coin)
        hosts.append(host)
        network.register(host)
    for i, host in enumerate(hosts):
        if isinstance(byzantine, dict) and i in byzantine:
            continue
        if not isinstance(byzantine, dict) and i in byzantine:
            continue
        network.schedule(0.0, lambda h=host, p=proposals[i]: h.instance.propose(p))
    network.run_until_idle(max_events=500_000)
    honest = [
        host for i, host in enumerate(hosts)
        if (i not in byzantine if not isinstance(byzantine, dict) else i not in byzantine)
    ]
    return honest, network


class TestValidity:
    @pytest.mark.parametrize("value", [0, 1])
    def test_unanimous_input_decides_that_value(self, value):
        honest, _ = run_consensus(4, 1, [value] * 4)
        assert all(host.instance.decided == value for host in honest)

    @pytest.mark.parametrize("value", [0, 1])
    def test_unanimous_input_with_silent_byzantine(self, value):
        honest, _ = run_consensus(4, 1, [value] * 4, byzantine={3: SilentHost})
        assert all(host.instance.decided == value for host in honest)

    def test_unanimous_with_seven_nodes(self):
        honest, _ = run_consensus(7, 2, [1] * 7)
        assert all(host.instance.decided == 1 for host in honest)


class TestAgreement:
    @pytest.mark.parametrize("proposals", [[0, 1, 0, 1], [1, 1, 0, 0], [1, 0, 0, 0]])
    def test_mixed_inputs_reach_agreement(self, proposals):
        honest, _ = run_consensus(4, 1, proposals)
        decisions = {host.instance.decided for host in honest}
        assert len(decisions) == 1
        assert decisions.pop() in (0, 1)

    def test_agreement_with_lying_byzantine_node(self):
        honest, _ = run_consensus(4, 1, [1, 1, 0, 0], byzantine={3: LyingHost})
        decisions = {host.instance.decided for host in honest}
        assert len(decisions) == 1

    def test_agreement_with_silent_node_and_mixed_inputs(self):
        honest, _ = run_consensus(7, 2, [1, 0, 1, 0, 1, 0, 0], byzantine={6: SilentHost})
        decisions = {host.instance.decided for host in honest}
        assert len(decisions) == 1

    def test_agreement_under_message_reordering(self):
        conditions = NetworkConditions(base_latency=0.001, jitter=0.05, seed=9)
        honest, _ = run_consensus(4, 1, [0, 1, 1, 0], conditions=conditions)
        decisions = {host.instance.decided for host in honest}
        assert len(decisions) == 1


class TestTermination:
    def test_every_honest_node_decides(self):
        honest, _ = run_consensus(4, 1, [0, 1, 1, 0])
        assert all(host.instance.decided is not None for host in honest)

    def test_decision_callback_fires_once(self):
        honest, _ = run_consensus(4, 1, [1, 1, 1, 1])
        for host in honest:
            assert host.decisions == {"test": 1}

    def test_instances_halt_after_finish_quorum(self):
        honest, _ = run_consensus(4, 1, [1, 1, 1, 1])
        assert all(host.instance.halted for host in honest)


class TestHaltedInstanceFreesItsRounds:
    def test_a_halted_proposed_instance_holds_no_rounds(self):
        honest, _ = run_consensus(4, 1, [0, 1, 1, 0])
        for host in honest:
            assert host.instance.halted and host.instance.started
            assert host.instance._rounds == {}

    @pytest.mark.parametrize("proposal", [0, 1])
    def test_halting_before_propose_keeps_what_propose_sends(self, proposal):
        """Round 1 survives the halt until ``propose``, which broadcasts
        BVAL(1, proposal) only if the instance has not echoed that value."""
        sent = []
        instance = BinaryConsensusInstance("x", "n", FOUR, 1, broadcast=sent.append)
        for peer in ("p1", "p2"):
            instance.handle(peer, BVal("x", 1, 1))  # f + 1 supporters: echoed
        for peer in ("p1", "p2", "p3"):
            instance.handle(peer, Finish("x", 1))  # n - f: halted
        assert instance.halted and not instance.started
        assert instance._rounds  # still needed by propose
        before = list(sent)
        instance.propose(proposal)
        expected = [] if proposal == 1 else [BVal("x", 1, 0)]
        assert sent == before + expected
        assert instance._rounds == {}


class TestInterfaceContracts:
    def test_requires_three_f_plus_one(self):
        with pytest.raises(ValueError):
            BinaryConsensusInstance(
                "x", "n", member_bits(("n", "p1", "p2")), 1, broadcast=lambda m: None
            )

    def test_proposal_must_be_binary(self):
        instance = BinaryConsensusInstance("x", "n", FOUR, 1, broadcast=lambda m: None)
        with pytest.raises(ValueError):
            instance.propose(2)

    def test_propose_is_idempotent(self):
        sent = []
        instance = BinaryConsensusInstance("x", "n", FOUR, 1, broadcast=sent.append)
        instance.propose(1)
        count = len(sent)
        instance.propose(0)
        assert len(sent) == count
        assert instance.estimate == 1

    @staticmethod
    def zero_supporters(instance, sent, messages):
        """Feed BVAL(1, 0)-like ``messages`` from p1 and p2, then BVAL(1, 0)
        itself from p3: what the instance sends shows how many of the first
        two it counted (two supporters echo, at ``f + 1``; three deliver 0
        into ``bin_values``, and the instance AUXes)."""
        for peer, message in zip(("p1", "p2"), messages, strict=True):
            instance.handle(peer, message)
        counted_before = list(sent)
        instance.handle("p3", BVal("x", 1, 0))
        return counted_before

    def test_messages_for_other_instances_are_ignored(self):
        sent = []
        instance = BinaryConsensusInstance("x", "n", FOUR, 1, broadcast=sent.append)
        instance.propose(1)
        before = self.zero_supporters(
            instance, sent, [BVal("other-instance", 1, 0), BVal("other-instance", 1, 0)]
        )
        # Neither foreign BVAL counted: one supporter of 0 echoes nothing.
        assert before == sent == [BVal("x", 1, 1)]

    def test_non_binary_values_ignored(self):
        sent = []
        instance = BinaryConsensusInstance("x", "n", FOUR, 1, broadcast=sent.append)
        instance.propose(1)
        before = self.zero_supporters(instance, sent, [BVal("x", 1, 7), BVal("x", 1, 7)])
        assert before == sent == [BVal("x", 1, 1)]
        # The same two senders with value 0 do count: p3 then makes f + 1.
        sent.clear()
        other = BinaryConsensusInstance("x", "n", FOUR, 1, broadcast=sent.append)
        other.propose(1)
        self.zero_supporters(other, sent, [BVal("x", 1, 0), BVal("x", 1, 0)])
        assert sent == [BVal("x", 1, 1), BVal("x", 1, 0), Aux("x", 1, 0)]

    def test_non_members_are_ignored(self):
        """A sender outside the member map has no bit: its BVALs, AUXes and
        FINISHes are never counted, however many names it uses."""
        sent = []
        instance = BinaryConsensusInstance("x", "n", FOUR, 1, broadcast=sent.append)
        instance.propose(1)
        for outsider in ("BB-0", "BB-1", "N0", ""):
            instance.handle(outsider, BVal("x", 1, 0))
            instance.handle(outsider, Aux("x", 1, 0))
            instance.handle(outsider, Finish("x", 0))
        assert sent == [BVal("x", 1, 1)]
        assert instance.decided is None and not instance.halted

    def test_finish_amplification_decides_lagging_node(self):
        """A node that never proposed still decides after f+1 FINISH messages."""
        instance = BinaryConsensusInstance("x", "n", FOUR, 1, broadcast=lambda m: None)
        instance.handle("p1", Finish("x", 1))
        assert instance.decided is None
        instance.handle("p2", Finish("x", 1))
        assert instance.decided == 1

    def test_common_coin_is_deterministic_and_binary(self):
        assert common_coin("abc", 3) == common_coin("abc", 3)
        assert common_coin("abc", 3) in (0, 1)
        coins = {common_coin("abc", r) for r in range(32)}
        assert coins == {0, 1}
