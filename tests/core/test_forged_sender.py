"""A collector cannot speak for another one by forging or replaying traffic.

No payload names its sender: receivers take the sender from the authenticated
channel (``Message.sender``), a BB node ignores uploads that do not arrive on
one, a collector ignores everything but VOTE requests on the public channel,
and a collector reconstructs a receipt only from ``Nv - fv`` *distinct* share
indices.  Each Byzantine ``VC-3`` below puts other names on the frame, or
replays VOTE_Ps or its own uploads; without those rules it made every BB
accept an empty vote set, or raised ``ValueError: need at least 3 shares`` out
of the run.
"""

import pytest

from repro.analysis.determinism import default_choices, safety_violations
from repro.api import AdversaryProfile, ElectionEngine, ScenarioSpec
from repro.api.spec import ConsensusConfig
from repro.consensus.batching import (
    BatchEnvelope,
    SuperblockReady,
    SuperblockSend,
    partition_serials,
    superblock_id,
)
from repro.consensus.interfaces import Finish
from repro.core.bulletin_board import BulletinBoardNode
from repro.core.byzantine import BB_BEHAVIORS, VC_BEHAVIORS
from repro.core.ea import ElectionAuthority
from repro.core.election import ElectionParameters, vc_node_id
from repro.core.messages import (
    Endorsement,
    MskShareUpload,
    RecoverRequest,
    UniquenessCertificate,
    VotePending,
    VoteSetUpload,
    VscBatch,
)
from repro.core.vote_collector import BallotStatus, VoteCollectorNode, endorsement_message
from repro.crypto.signatures import SignatureScheme
from repro.crypto.utils import RandomSource
from repro.net.channels import ChannelKind, Message
from repro.net.simulator import Network


class EmptySetForger(VoteCollectorNode):
    """Uploads an empty vote set twice, ahead of its real one."""

    def end_election(self) -> None:
        for bb in self.bb_nodes:
            self.send(bb, VoteSetUpload(()))
            self.send(bb, VoteSetUpload(()))
        super().end_election()


class PublicChannelForger(VoteCollectorNode):
    """Puts an empty upload on the wire with VC-0 and VC-1 as the frame sender,
    over the public channel, where the transport does not vouch for senders."""

    def end_election(self) -> None:
        for bb in self.bb_nodes:
            for name in ("VC-0", "VC-1"):
                self.network.submit(name, bb, VoteSetUpload(()), ChannelKind.PUBLIC)
        super().end_election()


class VotePendingRelay(VoteCollectorNode):
    """Re-broadcasts every peer's VOTE_P: another collector's share arrives on
    its own channel."""

    def _on_vote_pending(self, sender: str, pending: VotePending) -> None:
        super()._on_vote_pending(sender, pending)
        if sender != self.node_id:
            self.broadcast(self.peers, pending)


class VotePendingSelfRelay(VoteCollectorNode):
    """Hands every peer's VOTE_P back to that peer: a collector's own share
    arrives on another collector's channel."""

    def _on_vote_pending(self, sender: str, pending: VotePending) -> None:
        super()._on_vote_pending(sender, pending)
        if sender != self.node_id:
            self.send(sender, pending)


class PublicVotePendingForger(VoteCollectorNode):
    """Re-sends every peer's VOTE_P over the public channel with each other
    peer as the frame sender, so the share would land in that peer's slot."""

    def _on_vote_pending(self, sender: str, pending: VotePending) -> None:
        super()._on_vote_pending(sender, pending)
        if sender == self.node_id:
            return
        for name in self.peers:
            if name in (sender, self.node_id):
                continue
            for receiver in self.peers:
                if receiver != self.node_id:
                    self.network.submit(name, receiver, pending, ChannelKind.PUBLIC)


class MskShareMultiplier(VoteCollectorNode):
    """Uploads its one msk share once per collector."""

    def _upload_vote_set(self, vote_set) -> None:
        for bb in self.bb_nodes:
            self.send(bb, VoteSetUpload(vote_set))
            for _ in self.peers:
                self.send(bb, MskShareUpload(self.init.msk_share))


def run_with_byzantine_vc3(monkeypatch, cls):
    monkeypatch.setitem(VC_BEHAVIORS, cls.__name__, cls)
    spec = ScenarioSpec.preset(
        "paper_baseline", num_voters=6, seed=3,
        adversary=AdversaryProfile(vc_behaviors={"VC-3": cls.__name__}),
    )
    outcome = ElectionEngine(spec).run(default_choices(spec))
    return spec, outcome


@pytest.mark.parametrize(
    "cls",
    [EmptySetForger, PublicChannelForger, VotePendingRelay, VotePendingSelfRelay,
     PublicVotePendingForger, MskShareMultiplier],
)
def test_forged_or_replayed_sender_changes_nothing(monkeypatch, cls):
    spec, outcome = run_with_byzantine_vc3(monkeypatch, cls)
    assert type(outcome.vote_collectors[3]) is cls
    # VC-3 is held to the honest collectors' checks: it still decides their vote set.
    assert safety_violations(outcome, spec.derive(adversary=AdversaryProfile())) == []
    assert all(voter.receipt is not None and voter.receipt_valid for voter in outcome.voters)
    assert outcome.tally is not None
    assert sum(outcome.tally.counts) == spec.num_voters
    assert tuple(outcome.tally.counts) == tuple(outcome.expected_tally().counts)
    assert outcome.audit_report.passed
    for bb in outcome.bb_nodes:
        assert len(bb.accepted_vote_set) == spec.num_voters
        assert set(bb.vote_set_submissions) <= {vc.node_id for vc in outcome.vote_collectors}


@pytest.fixture(scope="module")
def replayed(group):
    """VC-1 after VC-3 replayed VC-2's VOTE_P between the honest shares: the
    collector and the ballot line voted."""
    params = ElectionParameters.small_test_election(num_voters=1, num_options=2)
    setup = ElectionAuthority(
        params, group=group, rng=RandomSource(5), include_proofs=False,
        include_trustee_data=False,
    ).setup()
    network = Network()
    nodes = {}
    for index in range(params.thresholds.num_vc):
        node_id = vc_node_id(index)
        nodes[node_id] = VoteCollectorNode(setup.vc_init[node_id], params)
        network.register(nodes[node_id])
    ballot = setup.ballots[0]
    line = ballot.part_a.lines[0]
    serial, code = ballot.serial, line.vote_code
    scheme = SignatureScheme(group)
    ucert = UniquenessCertificate(serial, code, tuple(
        Endorsement(serial, code, node_id, scheme.sign(
            setup.vc_init[node_id].signing_keys, endorsement_message(serial, code)))
        for node_id in ("VC-0", "VC-1", "VC-2")
    ))
    location = setup.vc_init["VC-1"].ballots[serial].find_vote_code(code)
    shares = {
        node_id: setup.vc_init[node_id].ballots[serial].receipt_share_at(*location)
        for node_id in nodes
    }
    node = nodes["VC-1"]
    for channel_sender, share_of in (
        ("VC-0", "VC-0"),
        ("VC-3", "VC-2"),  # the replay
        ("VC-2", "VC-2"),
        ("VC-1", "VC-1"),  # its own, looping back
    ):
        pending = VotePending(serial, code, shares[share_of], ucert)
        node.on_message(Message(channel_sender, node.node_id, pending))
    return node, ballot.serial, line


def test_a_replayed_vote_p_fills_only_the_replayers_slot(replayed):
    """The receipt comes out once the honest quorum's shares are in."""
    node, serial, line = replayed
    record = node.ballots[serial]
    assert sorted(record.receipt_shares) == ["VC-0", "VC-1", "VC-2", "VC-3"]
    assert record.status is BallotStatus.VOTED
    assert record.receipt == line.receipt


def test_a_collector_ignores_peer_traffic_on_the_public_channel(replayed):
    """Only VOTE requests may arrive unauthenticated; a public VOTE_P or
    RECOVER-REQUEST naming a peer as the frame sender changes nothing."""
    node, serial, _line = replayed
    record = node.ballots[serial]
    shares = dict(record.receipt_shares)
    sent = []
    node.send = lambda receiver, payload, channel=ChannelKind.AUTHENTICATED: sent.append(receiver)
    forged = VotePending(serial, record.used_vote_code, shares["VC-2"], record.ucert)
    for payload in (forged, RecoverRequest(serial)):
        node.on_message(Message("VC-0", node.node_id, payload, channel=ChannelKind.PUBLIC))
    assert record.receipt_shares == shares
    assert sent == []


def test_the_recover_response_goes_to_the_channel_sender(replayed):
    """A RECOVER-REQUEST is answered to whoever sent it on the channel."""
    node, serial, _line = replayed
    sent = []
    node.send = lambda receiver, payload, channel=ChannelKind.AUTHENTICATED: sent.append(receiver)
    node.on_message(Message("VC-2", node.node_id, RecoverRequest(serial)))
    assert sent == ["VC-2"]


@pytest.mark.parametrize("foreign", ["another row", "another serial"])
def test_a_signed_receipt_share_of_another_ballot_line_is_dropped(group, foreign):
    """VC-3 sends its dealer-signed share of another ballot line between the
    honest shares.  The signature is valid, but the share belongs to another
    sharing: mixed into the reconstruction it gives a wrong receipt."""
    params = ElectionParameters.small_test_election(num_voters=2, num_options=2)
    setup = ElectionAuthority(
        params, group=group, rng=RandomSource(5), include_proofs=False,
        include_trustee_data=False,
    ).setup()
    network = Network()
    for index in range(params.thresholds.num_vc):
        network.register(VoteCollectorNode(setup.vc_init[vc_node_id(index)], params))
    node = network.nodes["VC-1"]
    ballot, other_ballot = setup.ballots[:2]
    line = ballot.part_a.lines[0]
    serial, code = ballot.serial, line.vote_code
    scheme = SignatureScheme(group)
    ucert = UniquenessCertificate(serial, code, tuple(
        Endorsement(serial, code, node_id, scheme.sign(
            setup.vc_init[node_id].signing_keys, endorsement_message(serial, code)))
        for node_id in ("VC-0", "VC-1", "VC-2")
    ))
    part, row = setup.vc_init["VC-1"].ballots[serial].find_vote_code(code)
    shares = {
        node_id: setup.vc_init[node_id].ballots[serial].receipt_share_at(part, row)
        for node_id in ("VC-0", "VC-1", "VC-2")
    }
    if foreign == "another row":
        shares["VC-3"] = setup.vc_init["VC-3"].ballots[serial].receipt_share_at(part, 1 - row)
    else:
        shares["VC-3"] = setup.vc_init["VC-3"].ballots[other_ballot.serial].receipt_share_at(
            part, row
        )
    for sender in ("VC-0", "VC-3", "VC-2", "VC-1"):
        pending = VotePending(serial, code, shares[sender], ucert)
        node.on_message(Message(sender, node.node_id, pending))
    record = node.ballots[serial]
    assert "VC-3" not in record.receipt_shares
    assert record.status is BallotStatus.VOTED
    assert record.receipt == line.receipt


# ---------------------------------------------------------------------------
# Vote Set Consensus counts collectors only
# ---------------------------------------------------------------------------

#: the collectors the forgers below write to
HONEST_VCS = ("VC-0", "VC-1", "VC-2")


def forged_vsc_batch(sender, serials, batch_size):
    """What ``sender`` sends every honest collector as consensus starts.

    Per ballot: ``FINISH(serial, 0)`` -- with ``f + 1 = 2`` senders that decides
    "not voted" for every ballot.  Per superblock: ``sender`` reliably
    broadcasts an all-zeros vector as its own origin, READYs that vector for
    VC-0, VC-3 and BB-0 (two READYs make every honest collector amplify, so
    the vector is delivered as theirs) and sends ``FINISH(block, 1)``.  Three
    zero vectors are a quorum of proposals: the block "resolves" to "not voted".
    """
    if batch_size == 1:
        elements = tuple(Finish(str(serial), 0) for serial in serials)
    else:
        elements = []
        for index, block in enumerate(partition_serials(serials, batch_size)):
            block_id, zeros = superblock_id(index), bytes(len(block))
            elements.append(SuperblockSend(block_id, sender, zeros))
            elements.extend(
                SuperblockReady(block_id, origin, zeros) for origin in ("VC-0", "VC-3", "BB-0")
            )
            elements.append(Finish(block_id, 1))
    return VscBatch(BatchEnvelope(tuple(elements)))


class FinishForgingCollector(VoteCollectorNode):
    """Sends the forged batch to every honest collector, then runs as usual."""

    def end_election(self) -> None:
        batch = forged_vsc_batch(
            self.node_id, sorted(self.ballots), self.params.consensus.batch_size
        )
        for peer in HONEST_VCS:
            self.send(peer, batch)
        super().end_election()


class FinishForgingBoard(BulletinBoardNode):
    """A Byzantine BB node: authenticated on its channels, but no collector.
    It sends the forged batch to every honest collector at election end."""

    def attach(self, network) -> None:
        super().attach(network)
        network.schedule_at(self.params.election_end, self._forge, owner=self.node_id)

    def _forge(self) -> None:
        batch = forged_vsc_batch(
            self.node_id, sorted(self.init.ballots), self.params.consensus.batch_size
        )
        for peer in HONEST_VCS:
            self.send(peer, batch)


@pytest.mark.parametrize("batch_size", [1, 4], ids=["per-ballot", "superblock"])
@pytest.mark.parametrize("with_board", [False, True], ids=["VC-3", "VC-3+BB-0"])
def test_a_board_node_is_not_counted_in_the_collectors_quorums(
    monkeypatch, batch_size, with_board
):
    """Within the paper's bounds (fv = 1, fb = 1) a Byzantine collector and a
    Byzantine BB node forge Vote Set Consensus traffic together.  Counted as a
    second sender, BB-0 made every collector decide "not voted" on every
    ballot: four empty vote sets, no tally and a failed audit, although all
    ten voters hold valid receipts.  VC-3 alone never could."""
    monkeypatch.setitem(VC_BEHAVIORS, "finish-forging", FinishForgingCollector)
    monkeypatch.setitem(BB_BEHAVIORS, "finish-forging", FinishForgingBoard)
    spec = ScenarioSpec.preset(
        "paper_baseline", num_voters=10, seed=2,
        consensus=ConsensusConfig(batch_size),
        adversary=AdversaryProfile(
            vc_behaviors={"VC-3": "finish-forging"},
            bb_behaviors={"BB-0": "finish-forging"} if with_board else {},
        ),
    )
    outcome = ElectionEngine(spec).run(default_choices(spec))
    assert type(outcome.vote_collectors[3]) is FinishForgingCollector
    assert all(voter.receipt is not None and voter.receipt_valid for voter in outcome.voters)
    assert safety_violations(outcome, spec) == []
    for node in outcome.vote_collectors[:3]:
        assert len(node.final_vote_set) == spec.num_voters
    assert outcome.tally is not None
    assert tuple(outcome.tally.counts) == tuple(outcome.expected_tally().counts)
    assert outcome.audit_report.passed
