"""Tests for superblock (batched) Vote Set Consensus at the consensus layer.

These use :class:`repro.consensus.cluster.ConsensusCluster`, which exchanges
raw consensus messages without the crypto machinery, so the batching edge
cases (degenerate batch sizes, disagreement, faults) can be exercised at
realistic ballot counts.
"""

import pytest

from repro.consensus.batching import (
    SuperblockConsensus,
    SuperblockEcho,
    SuperblockReady,
    SuperblockSend,
    partition_serials,
    superblock_id,
)
from repro.consensus.cluster import ConsensusCluster
from repro.consensus.interfaces import Finish, member_bits


def opinions_for(num_ballots, voted_every=3):
    """A deterministic opinion vector: every ``voted_every``-th serial unvoted."""
    return {serial: (0 if serial % voted_every == 0 else 1) for serial in range(num_ballots)}


class TestPartition:
    def test_partition_covers_all_serials_in_order(self):
        blocks = partition_serials([5, 3, 1, 4, 2], 2)
        assert blocks == [(1, 2), (3, 4), (5,)]

    def test_batch_size_one_gives_singletons(self):
        assert partition_serials([2, 1], 1) == [(1,), (2,)]

    def test_batch_larger_than_ballot_count_gives_one_block(self):
        assert partition_serials(range(10), 1000) == [tuple(range(10))]

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            partition_serials([1], 0)

    def test_block_ids_are_stable(self):
        assert superblock_id(0) == "sb|0"
        assert superblock_id(12) == "sb|12"


class TestSuperblockAgreement:
    def test_batched_matches_per_ballot_decisions(self):
        opinions = opinions_for(120)
        baseline = ConsensusCluster(num_nodes=4, batch_size=1).run(opinions)
        batched = ConsensusCluster(num_nodes=4, batch_size=32).run(opinions)
        assert baseline.agreed and batched.agreed
        assert baseline.decisions[0] == batched.decisions[0]

    def test_batch_size_one_runs_no_superblocks(self):
        result = ConsensusCluster(num_nodes=4, batch_size=1).run(opinions_for(20))
        assert result.superblocks_fast == 0
        assert result.superblocks_fallback == 0
        assert result.agreed

    def test_batch_larger_than_ballot_count(self):
        opinions = opinions_for(10)
        result = ConsensusCluster(num_nodes=4, batch_size=10_000).run(opinions)
        # One block per node, all on the fast path.
        assert result.superblocks_fast == 4
        assert result.superblocks_fallback == 0
        assert result.agreed
        assert result.decisions[0] == opinions

    def test_unanimous_opinions_decide_as_proposed(self):
        # Binary-consensus validity lifted to blocks: identical vectors must
        # be decided verbatim.
        opinions = opinions_for(64, voted_every=2)
        result = ConsensusCluster(num_nodes=4, batch_size=16).run(opinions)
        assert result.decisions[0] == opinions
        assert result.superblocks_fallback == 0

    def test_larger_cluster(self):
        opinions = opinions_for(40)
        result = ConsensusCluster(num_nodes=7, batch_size=8).run(opinions)
        assert result.agreed
        assert result.decisions[0] == opinions


class TestClusterRunsOnce:
    @pytest.mark.parametrize("batch_size", [1, 16], ids=["per-ballot", "superblock"])
    def test_second_run_raises_before_touching_a_node(self, batch_size):
        """``run`` closes its engines; at 513fed7 a second call died inside a
        released node with an AttributeError on ``None.batch_size``."""
        cluster = ConsensusCluster(num_nodes=4, batch_size=batch_size)
        first = cluster.run(opinions_for(20))
        assert first.agreed
        with pytest.raises(RuntimeError, match="a ConsensusCluster runs once"):
            cluster.run(opinions_for(7))
        assert all(decided == opinions_for(20) for decided in first.decisions)
        assert cluster.messages_sent == first.messages_sent


class TestSuperblockFaults:
    def test_minority_disagreement_resolves_via_quorum_vector(self):
        # One node disagrees on one ballot; the other three still form a
        # quorum of identical vectors, so the block stays on the fast path and
        # the outvoted node adopts the quorum bits.
        opinions = opinions_for(32)
        per_node = [dict(opinions) for _ in range(4)]
        per_node[1][7] = 1 - per_node[1][7]
        result = ConsensusCluster(num_nodes=4, batch_size=32).run(
            opinions, per_node_opinions=per_node
        )
        assert result.agreed
        assert result.decisions[0][7] == opinions[7]
        assert result.superblocks_fallback == 0

    def test_even_split_falls_back_to_per_ballot(self):
        # Two nodes against two: no vector reaches the Nv - fv = 3 quorum, so
        # every node proposes 0 and the block must fall back.
        opinions = opinions_for(16)
        flipped = dict(opinions)
        flipped[3] = 1 - flipped[3]
        per_node = [dict(opinions), dict(opinions), dict(flipped), dict(flipped)]
        result = ConsensusCluster(num_nodes=4, batch_size=16).run(
            opinions, per_node_opinions=per_node
        )
        assert result.superblocks_fallback == 4
        assert result.superblocks_fast == 0
        assert result.agreed
        # Undisputed ballots must decide their common opinion even on the
        # fallback path (per-ballot validity).
        for serial, bit in opinions.items():
            if serial != 3:
                assert result.decisions[0][serial] == bit

    def test_silent_node_does_not_block_fast_path(self):
        # A crashed node (fv = 1) leaves exactly Nv - fv proposers; the
        # remaining nodes still assemble a quorum of identical vectors.
        opinions = opinions_for(48)
        result = ConsensusCluster(num_nodes=4, batch_size=16, silent=[2]).run(opinions)
        assert result.agreed
        assert result.decisions[0] == opinions
        assert result.superblocks_fallback == 0


class TestMembersOnly:
    """A reliable-broadcast step counts only if its sender and its origin are
    members; the inner instance counts only members' FINISHes."""

    ZEROS = b"\x00\x00"

    def block(self):
        sent = []
        block = SuperblockConsensus(
            block_id="sb|0", serials=(1, 2), node_id="N0",
            members=member_bits(("N0", "N1", "N2", "N3")), num_faulty=1,
            bits=b"\x01\x01", broadcast=sent.append, schedule=lambda delay, callback: None,
            on_resolve=lambda block, bits: sent.append(("resolve", bits)),
            on_fallback=lambda block: sent.append("fallback"),
        )
        return block, sent

    def test_a_non_member_neither_proposes_nor_counts(self):
        block, sent = self.block()
        zeros = self.ZEROS
        block.handle("BB-0", SuperblockSend("sb|0", "BB-0", zeros))
        for sender in ("BB-0", "N3"):
            block.handle(sender, SuperblockReady("sb|0", "N1", zeros))  # one member: no f + 1
            block.handle(sender, SuperblockEcho("sb|0", "N1", zeros))
            block.handle(sender, Finish("sb|0", 1))
        for sender in ("N1", "N2", "N3"):  # a member quorum, about a non-member origin
            block.handle(sender, SuperblockEcho("sb|0", "BB-0", zeros))
            block.handle(sender, SuperblockReady("sb|0", "BB-0", zeros))
        assert sent == []
        assert block.proposals == {} and block.decided is None

    def test_the_same_steps_from_members_count(self):
        block, sent = self.block()
        zeros = self.ZEROS
        block.handle("N3", SuperblockSend("sb|0", "N3", zeros))
        for sender in ("N2", "N3"):
            block.handle(sender, SuperblockReady("sb|0", "N1", zeros))
            block.handle(sender, Finish("sb|0", 1))
        assert sent == [
            SuperblockEcho("sb|0", "N3", zeros),
            SuperblockReady("sb|0", "N1", zeros),  # f + 1 READYs amplify
            Finish("sb|0", 1),  # f + 1 FINISHes decide
        ]


class TestMessageReduction:
    def test_batching_reduces_consensus_messages_5x_at_1k_ballots(self):
        """The acceptance-criterion property at a tier-1-friendly scale."""
        opinions = opinions_for(1000)
        baseline = ConsensusCluster(num_nodes=4, batch_size=1).run(opinions)
        batched = ConsensusCluster(num_nodes=4, batch_size=256).run(opinions)
        assert baseline.decisions[0] == batched.decisions[0]
        assert baseline.messages_sent >= 5 * batched.messages_sent
