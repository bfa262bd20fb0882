"""Integration tests for batched (superblock) Vote Set Consensus on VC nodes.

The acceptance property of the batching work: for any ``consensus.batch_size``
the final agreed vote set is identical to the per-ballot baseline, batch
size 1 degenerates to the classic protocol, oversized batches collapse to a
single superblock, and a Byzantine node splitting honest opinions inside a
superblock forces the per-ballot fallback / recovery paths without breaking
agreement.
"""

import pytest
from engine_runs import run_spec, small_spec

from repro.consensus.bracha import BinaryConsensusInstance
from repro.core.byzantine import UcertWithholdingVoteCollector
from repro.core.ea import ElectionAuthority
from repro.core.election import ConsensusConfig, ElectionParameters, vc_node_id
from repro.core.messages import Announce, VoteRequest, VscBatch
from repro.core.vote_collector import VoteCollectorNode
from repro.crypto.utils import RandomSource
from repro.net.adversary import NetworkConditions
from repro.net.channels import ChannelKind, Message
from repro.net.simulator import Network, SimNode


CHOICES = ["option-1", "option-2", "option-1", "option-1", "option-2", "option-1"]


def run_outcome(batch_size, seed=11):
    spec = small_spec(
        num_voters=len(CHOICES), num_options=2, election_end=500.0, seed=seed,
        consensus=ConsensusConfig(batch_size),
    )
    # One seed for every batch size: the EA randomness derives from it, so
    # every run sees the *same* ballots (serials, vote codes) and the final
    # vote sets are comparable.
    return run_spec(spec, CHOICES)


class TestBatchedElections:
    @pytest.fixture(scope="class")
    def baseline(self):
        return run_outcome(batch_size=1)

    @pytest.mark.parametrize("batch_size", [2, 3, 100])
    def test_batched_vote_set_identical_to_per_ballot(self, baseline, batch_size):
        base_outcome = baseline
        outcome = run_outcome(batch_size=batch_size)
        reference = base_outcome.vote_collectors[0].final_vote_set
        assert reference is not None and len(reference) == len(CHOICES)
        for node in outcome.vote_collectors:
            assert node.final_vote_set == reference
        assert outcome.tally.as_dict() == base_outcome.tally.as_dict()
        assert outcome.audit_report is not None and outcome.audit_report.passed

    def test_batch_size_one_runs_classic_per_ballot_protocol(self, baseline):
        outcome = baseline
        stats = outcome.consensus_stats
        assert stats["superblocks"] == 0
        assert stats["per_ballot_instances"] == 4 * len(CHOICES)
        # The per-ballot protocol sends its announces and BVAL/AUX/FINISH
        # through the same outbound queue as superblock mode: envelopes are
        # how *every* mode's consensus-phase traffic travels.
        assert stats["envelopes_sent"] > 0
        assert stats["envelope_messages"] > stats["envelopes_sent"]

    def test_batch_larger_than_ballot_count_uses_one_superblock(self):
        outcome = run_outcome(batch_size=10_000)
        stats = outcome.consensus_stats
        assert stats["superblocks"] == 4  # one block per VC node
        assert stats["superblocks_fast"] == 4
        assert stats["superblocks_fallback"] == 0
        assert stats["per_ballot_instances"] == 0

    def test_superblocks_buy_fewer_instances_not_fewer_frames(self, monkeypatch):
        """What a superblock still saves now that per-ballot consensus travels
        in envelopes too: one binary instance per block instead of one per
        ballot, hence fewer messages for the instances to handle.  (Frames no
        longer favour it: its reliable broadcast adds handler steps.)"""
        handled = {"calls": 0}
        original = BinaryConsensusInstance.handle

        def counting(instance, sender, message):
            handled["calls"] += 1
            return original(instance, sender, message)

        monkeypatch.setattr(BinaryConsensusInstance, "handle", counting)
        base_outcome = run_outcome(batch_size=1)
        per_ballot_calls, handled["calls"] = handled["calls"], 0
        outcome = run_outcome(batch_size=100)
        superblock_calls = handled["calls"]

        assert base_outcome.consensus_stats["per_ballot_instances"] == 4 * len(CHOICES)
        stats = outcome.consensus_stats
        assert stats["per_ballot_instances"] == 0
        assert stats["superblocks"] == stats["superblocks_fast"] == 4  # one block per node
        assert 0 < superblock_calls < per_ballot_calls
        reference = base_outcome.vote_collectors[0].final_vote_set
        assert reference is not None and len(reference) == len(CHOICES)
        for node in (*base_outcome.vote_collectors, *outcome.vote_collectors):
            assert node.final_vote_set == reference

    def test_all_blocks_fast_in_honest_run(self):
        outcome = run_outcome(batch_size=3)
        stats = outcome.consensus_stats
        assert stats["superblocks"] == 4 * 2  # two blocks of three ballots per node
        assert stats["superblocks_fast"] == stats["superblocks"]
        assert stats["recover_requests"] == 0


class ProbeVoter(SimNode):
    def on_message(self, message: Message) -> None:
        pass

    def cast(self, target, serial, vote_code):
        self.send(target, VoteRequest(serial, vote_code, self.node_id),
                  channel=ChannelKind.PUBLIC)


SCHEDULES = [23, 1, 2, 3]  # network seeds: the verdicts may not depend on jitter


def carries_announces(message):
    payload = message.payload
    return isinstance(payload, VscBatch) and any(
        isinstance(element, Announce) for element in payload.envelope.messages
    )


def withhold_then_reveal(network, nodes, setup):
    """Vote through the Byzantine responder, then end every node's election at
    once, with the adversary letting VC-0's announces overtake the honest ones.

    An honest node fixes its opinion when its block starts, i.e. once a
    quorum of announces for every ballot is in.  The honest announces all say
    "nothing known" (nobody saw a VOTE_P), so what a node believes by then is
    whether VC-0's selective announce was among its first three -- which is
    up to network jitter unless the adversary, who schedules the network in
    the paper's model, decides it.  Holding the honest announce frames back
    makes "VC-0 revealed the UCERT to exactly these nodes before their blocks
    started" the whole scenario, under any schedule of everything else.
    """
    ballot = setup.ballots[0]
    line = ballot.part_a.lines[0]
    network.nodes["probe-voter"].cast(vc_node_id(0), ballot.serial, line.vote_code)
    network.run_until_idle()
    # No honest node saw VOTE_P: the ballot looks unused everywhere.
    for node in nodes[1:]:
        assert node.ballots[ballot.serial].ucert is None
    network.adversary.add_delay_rule(
        lambda message: message.sender != nodes[0].node_id and carries_announces(message), 1.0
    )
    announced = {node.node_id: [] for node in nodes}
    for node in nodes:
        def on_announce(sender, announce, node=node, handle=node._on_announce):
            if announce.serial == ballot.serial:
                announced[node.node_id].append(sender)
            handle(sender, announce)

        node._on_announce = on_announce
    for node in nodes:
        node.end_election()
    network.run_until_idle(max_events=2_000_000)
    for node in nodes[1:]:
        # VC-0's announce reached every honest node, ahead of the held-back ones.
        assert announced[node.node_id][0] == nodes[0].node_id
    return ballot, line


def build_byzantine_network(batch_size, reveal_to, seed=23):
    """Four VC nodes where VC-0 withholds a UCERT and reveals it selectively."""
    params = ElectionParameters.small_test_election(
        num_voters=4, num_options=2, election_end=500.0,
        consensus=ConsensusConfig(batch_size),
    )
    setup = ElectionAuthority(
        params, rng=RandomSource(31), include_proofs=False, include_trustee_data=False,
    ).setup()
    network = Network(conditions=NetworkConditions(base_latency=0.01, jitter=0.005, seed=seed))
    nodes = []
    for index in range(params.thresholds.num_vc):
        node_id = vc_node_id(index)
        if index == 0:
            node = UcertWithholdingVoteCollector(setup.vc_init[node_id], params)
            node.reveal_to = reveal_to
        else:
            node = VoteCollectorNode(setup.vc_init[node_id], params)
        nodes.append(node)
        network.register(node)
    voter = ProbeVoter("probe-voter")
    network.register(voter)
    return network, nodes, setup


class TestByzantineSuperblock:
    @pytest.mark.parametrize("seed", SCHEDULES)
    def test_byzantine_split_forces_recovery_inside_superblock(self, seed):
        """VC-0 reveals the withheld UCERT to two honest nodes only.

        The third honest node enters the superblock with opinion "not voted",
        is outvoted by the quorum vector, and must recover the winning vote
        code through RECOVER-REQUEST -- all without leaving the fast path for
        the block or breaking agreement.
        """
        network, nodes, setup = build_byzantine_network(
            batch_size=100, reveal_to=(vc_node_id(1), vc_node_id(2)), seed=seed,
        )
        ballot, line = withhold_then_reveal(network, nodes, setup)

        honest = nodes[1:]
        expected = ((ballot.serial, line.vote_code),)
        for node in honest:
            assert node.final_vote_set == expected
        # VC-3 was outvoted: it decided "voted" without the code and recovered.
        outvoted = nodes[3]
        assert outvoted.vsc_stats.recover_requests == 1
        assert outvoted.consensus[ballot.serial].final_vote_code == line.vote_code
        for node in honest:
            assert node.vsc_stats.superblocks_fallback == 0
            assert node.vsc_stats.superblocks_fast == 1

    @pytest.mark.parametrize("seed", SCHEDULES)
    def test_byzantine_even_split_forces_superblock_fallback(self, seed):
        """Revealing to a single honest node yields a 2-2 opinion split.

        No opinion vector can reach the Nv - fv quorum, so the superblock
        decides 0 and every honest node falls back to per-ballot consensus --
        and they still agree on the final vote set.
        """
        network, nodes, setup = build_byzantine_network(
            batch_size=100, reveal_to=(vc_node_id(1),), seed=seed,
        )
        ballot, line = withhold_then_reveal(network, nodes, setup)

        honest = nodes[1:]
        reference = honest[0].final_vote_set
        assert reference is not None
        for node in honest:
            assert node.final_vote_set == reference
            assert node.vsc_stats.superblocks_fallback == 1
            assert node.vsc_stats.per_ballot_instances == len(setup.ballots)
        # If the disputed ballot survived, its recovered code must be genuine.
        if reference:
            assert reference == ((ballot.serial, line.vote_code),)

    def test_junk_instance_ids_do_not_raise_out_of_on_message(self):
        """A frame whose elements name no block of ours and no serial is
        dropped by the engine (``tests/consensus/test_vote_set_consensus.py``
        pins what it keeps); the collector must survive delivering it."""
        from repro.consensus.batching import BatchEnvelope
        from repro.consensus.interfaces import BVal

        network, nodes, setup = build_byzantine_network(batch_size=100, reveal_to=())
        honest = nodes[1]
        junk = tuple(BVal(instance, 1, 1) for instance in ("sb|999", "sb|garbage", "x", ""))
        honest.on_message(
            Message("VC-0", honest.node_id, VscBatch(BatchEnvelope(junk), "VC-0"))
        )
        assert honest.vsc.instances == {} and honest.vsc.running == {}
        assert list(honest.vsc.buffered.values()) == [[]]
