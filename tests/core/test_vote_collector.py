"""Protocol-level tests for the Vote Collector subsystem.

These tests run only the VC nodes (plus lightweight probe voters) on the
network simulator, so they can inspect the voting protocol and Vote Set
Consensus without the full end-to-end machinery.
"""

import dataclasses

import pytest

from repro.analysis.determinism import safety_violations
from repro.api import ScenarioSpec
from repro.core.admission import AdmissionStats
from repro.core.ea import ElectionAuthority, vc_node_id
from repro.core.election import AdmissionProfile, ElectionParameters
from repro.core.messages import VoteReceipt, VoteRejected, VoteRequest
from repro.core.outcome import ElectionOutcome
from repro.core.vote_collector import (
    BallotStatus,
    VoteCollectorNode,
    VscStats,
    endorsement_message,
)
from repro.crypto.utils import RandomSource
from repro.net.adversary import NetworkConditions
from repro.net.channels import ChannelKind, Message
from repro.net.simulator import Network, SimNode


class ProbeVoter(SimNode):
    """A minimal voter that records receipts/rejections."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.receipts = []
        self.rejections = []

    def on_message(self, message: Message) -> None:
        if isinstance(message.payload, VoteReceipt):
            self.receipts.append(message.payload)
        elif isinstance(message.payload, VoteRejected):
            self.rejections.append(message.payload)

    def cast(self, target, serial, vote_code):
        self.send(target, VoteRequest(serial, vote_code, self.node_id),
                  channel=ChannelKind.PUBLIC)


@pytest.fixture(scope="module")
def vc_setup(group):
    """EA setup (no proofs/trustee data: the VC protocol does not need them)."""
    params = ElectionParameters.small_test_election(
        num_voters=3, num_options=2, election_end=500.0
    )
    authority = ElectionAuthority(
        params, group=group, rng=RandomSource(21),
        include_proofs=False, include_trustee_data=False,
    )
    return params, authority.setup()


def build_vc_network(params, setup, seed=3):
    network = Network(conditions=NetworkConditions(base_latency=0.001, jitter=0.001, seed=seed))
    nodes = []
    for index in range(params.thresholds.num_vc):
        node = VoteCollectorNode(setup.vc_init[vc_node_id(index)], params)
        nodes.append(node)
        network.register(node)
    voter = ProbeVoter("probe-voter")
    network.register(voter)
    return network, nodes, voter


def test_a_collector_build_validates_the_admission_flags_once(vc_setup, monkeypatch):
    """The profile checks its bounds when it is written down; the parameters,
    the node, the queue and the batcher read the same object and re-check
    nothing (four checks per collector until PR 24)."""
    checks = []
    original = AdmissionProfile.__post_init__

    def counted(self):
        checks.append(self)
        original(self)

    monkeypatch.setattr(AdmissionProfile, "__post_init__", counted)
    _, setup = vc_setup
    profile = AdmissionProfile(queue_depth=3, service_ms=2.0, endorse_batch_size=4)
    params = ElectionParameters.small_test_election(
        num_voters=3, num_options=2, election_end=500.0, admission=profile
    )
    _network, nodes, _voter = build_vc_network(params, setup)
    assert checks == [profile]
    for node in nodes:
        assert node.params.admission is profile
        assert (node._admission.depth, node._admission.service_s) == (3, 0.002)
        assert node._endorse_batcher.batch_size == 4


class TestVotingProtocol:
    def test_valid_vote_yields_correct_receipt(self, vc_setup):
        params, setup = vc_setup
        network, nodes, voter = build_vc_network(params, setup)
        ballot = setup.ballots[0]
        line = ballot.part_a.lines[0]
        voter.cast("VC-0", ballot.serial, line.vote_code)
        network.run_until_idle()
        assert len(voter.receipts) == 1
        assert voter.receipts[0].receipt == line.receipt

    def test_all_honest_nodes_mark_ballot_voted(self, vc_setup):
        params, setup = vc_setup
        network, nodes, voter = build_vc_network(params, setup)
        ballot = setup.ballots[0]
        line = ballot.part_b.lines[1]
        voter.cast("VC-1", ballot.serial, line.vote_code)
        network.run_until_idle()
        for node in nodes:
            record = node.ballots[ballot.serial]
            assert record.status is BallotStatus.VOTED
            assert record.used_vote_code == line.vote_code
            assert record.receipt == line.receipt

    def test_unknown_vote_code_is_rejected(self, vc_setup):
        params, setup = vc_setup
        network, nodes, voter = build_vc_network(params, setup)
        voter.cast("VC-0", setup.ballots[0].serial, b"\x00" * 20)
        network.run_until_idle()
        assert voter.receipts == []
        assert len(voter.rejections) == 1
        assert voter.rejections[0].reason == "invalid vote code"

    def test_unknown_serial_is_rejected(self, vc_setup):
        params, setup = vc_setup
        network, nodes, voter = build_vc_network(params, setup)
        voter.cast("VC-0", 999_999, setup.ballots[0].part_a.lines[0].vote_code)
        network.run_until_idle()
        assert voter.rejections and voter.rejections[0].reason == "unknown ballot"

    def test_revote_with_same_code_returns_same_receipt(self, vc_setup):
        params, setup = vc_setup
        network, nodes, voter = build_vc_network(params, setup)
        ballot = setup.ballots[1]
        line = ballot.part_a.lines[0]
        voter.cast("VC-0", ballot.serial, line.vote_code)
        network.run_until_idle()
        voter.cast("VC-2", ballot.serial, line.vote_code)
        network.run_until_idle()
        assert len(voter.receipts) == 2
        assert voter.receipts[0].receipt == voter.receipts[1].receipt == line.receipt

    def test_second_vote_code_for_same_ballot_is_rejected(self, vc_setup):
        params, setup = vc_setup
        network, nodes, voter = build_vc_network(params, setup)
        ballot = setup.ballots[2]
        voter.cast("VC-0", ballot.serial, ballot.part_a.lines[0].vote_code)
        network.run_until_idle()
        voter.cast("VC-0", ballot.serial, ballot.part_a.lines[1].vote_code)
        network.run_until_idle()
        assert len(voter.receipts) == 1
        assert any(r.reason == "ballot already used" for r in voter.rejections)

    @pytest.mark.parametrize("endorse_batch", [1, 4], ids=["single", "batcher"])
    def test_two_codes_of_one_ballot_racing_for_one_collector(self, vc_setup, endorse_batch):
        """Two VOTE requests naming different valid codes of one ballot reach
        VC-0 before its endorsement quorum (a voter's own client can do this).
        At 513fed7 the second overwrote ``record.location`` while the round
        stayed open for the first, so every endorsement was dropped: no
        receipt, no rejection, and the ballot NOT_VOTED on every node."""
        _, setup = vc_setup
        params = ElectionParameters.small_test_election(
            num_voters=3, num_options=2, election_end=500.0,
            admission=AdmissionProfile(endorse_batch_size=endorse_batch),
        )
        network, nodes, first = build_vc_network(params, setup)
        second = ProbeVoter("probe-voter-2")
        network.register(second)
        ballot = setup.ballots[2]
        line, other_line = ballot.part_a.lines[0], ballot.part_b.lines[1]
        for voter, code in ((first, line.vote_code), (second, other_line.vote_code)):
            nodes[0].on_message(Message(
                sender=voter.node_id, receiver=nodes[0].node_id,
                payload=VoteRequest(ballot.serial, code, voter.node_id),
            ))
        assert nodes[0].ballots[ballot.serial].status is BallotStatus.NOT_VOTED
        network.run_until_idle()
        assert [r.receipt for r in first.receipts] == [line.receipt]
        assert first.rejections == []
        assert second.receipts == []
        assert [r.reason for r in second.rejections] == ["ballot already used"]
        for node in nodes:
            record = node.ballots[ballot.serial]
            assert record.status is BallotStatus.VOTED
            assert record.used_vote_code == line.vote_code
        for node in nodes:
            node.end_election()
        network.run_until_idle(max_events=2_000_000)
        assert all(
            node.final_vote_set == ((ballot.serial, line.vote_code),) for node in nodes
        )
        outcome = ElectionOutcome(
            setup=setup, network=network, vote_collectors=nodes, bb_nodes=[], trustees=[],
            voters=[], tally=None, audit_report=None,
        )
        spec = ScenarioSpec(options=tuple(params.options), num_voters=3, num_vc=4)
        assert safety_violations(outcome, spec) == []

    def test_same_code_twice_before_the_quorum_answers_both_voters(self, vc_setup):
        """A repeat of the code the open round is for only joins the waiters."""
        params, setup = vc_setup
        network, nodes, first = build_vc_network(params, setup)
        second = ProbeVoter("probe-voter-2")
        network.register(second)
        ballot = setup.ballots[2]
        line = ballot.part_a.lines[0]
        first.cast("VC-0", ballot.serial, line.vote_code)
        second.cast("VC-0", ballot.serial, line.vote_code)
        network.run_until_idle()
        for voter in (first, second):
            assert [r.receipt for r in voter.receipts] == [line.receipt]
            assert voter.rejections == []

    def test_vote_outside_election_hours_rejected(self, group):
        params = ElectionParameters.small_test_election(
            num_voters=1, num_options=2, election_end=0.5
        )
        setup = ElectionAuthority(
            params, group=group, rng=RandomSource(5),
            include_proofs=False, include_trustee_data=False,
        ).setup()
        network, nodes, voter = build_vc_network(params, setup)
        ballot = setup.ballots[0]
        # Move simulated time past the election end before the vote arrives.
        network.schedule_at(1.0, lambda: voter.cast("VC-0", ballot.serial,
                                                    ballot.part_a.lines[0].vote_code))
        network.run_until_idle()
        assert voter.receipts == []
        assert voter.rejections and voter.rejections[0].reason == "outside voting hours"

    def test_endorsement_message_is_canonical(self):
        assert endorsement_message(1, b"code") == endorsement_message(1, b"code")
        assert endorsement_message(1, b"code") != endorsement_message(2, b"code")

    def test_ucert_requires_quorum_of_valid_signatures(self, vc_setup):
        params, setup = vc_setup
        network, nodes, voter = build_vc_network(params, setup)
        ballot = setup.ballots[0]
        line = ballot.part_a.lines[0]
        voter.cast("VC-0", ballot.serial, line.vote_code)
        network.run_until_idle()
        record = nodes[0].ballots[ballot.serial]
        assert record.ucert is not None
        assert nodes[0].verify_ucert(record.ucert)
        assert len(record.ucert.endorsements) >= params.thresholds.vc_honest_quorum
        # A certificate trimmed below the quorum no longer verifies.
        from repro.core.messages import UniquenessCertificate

        trimmed = UniquenessCertificate(
            record.ucert.serial, record.ucert.vote_code, record.ucert.endorsements[:1]
        )
        assert not nodes[0].verify_ucert(trimmed)


class TestVoteSetConsensus:
    def test_voted_ballot_survives_into_final_vote_set(self, vc_setup):
        params, setup = vc_setup
        network, nodes, voter = build_vc_network(params, setup)
        ballot = setup.ballots[0]
        line = ballot.part_a.lines[1]
        voter.cast("VC-3", ballot.serial, line.vote_code)
        network.run_until_idle()
        for node in nodes:
            node.end_election()
        network.run_until_idle(max_events=2_000_000)
        expected = ((ballot.serial, line.vote_code),)
        for node in nodes:
            assert node.final_vote_set == expected

    def test_unvoted_ballots_are_excluded(self, vc_setup):
        params, setup = vc_setup
        network, nodes, voter = build_vc_network(params, setup)
        for node in nodes:
            node.end_election()
        network.run_until_idle(max_events=2_000_000)
        for node in nodes:
            assert node.final_vote_set == ()

    def test_all_nodes_agree_on_final_vote_set(self, vc_setup):
        params, setup = vc_setup
        network, nodes, voter = build_vc_network(params, setup, seed=17)
        for index, ballot in enumerate(setup.ballots[:2]):
            line = ballot.part_a.lines[index % 2]
            voter.cast(vc_node_id(index), ballot.serial, line.vote_code)
        network.run_until_idle()
        for node in nodes:
            node.end_election()
        network.run_until_idle(max_events=2_000_000)
        reference = nodes[0].final_vote_set
        assert reference is not None and len(reference) == 2
        assert all(node.final_vote_set == reference for node in nodes)

    def test_voting_messages_ignored_after_election_end(self, vc_setup):
        params, setup = vc_setup
        network, nodes, voter = build_vc_network(params, setup)
        for node in nodes:
            node.end_election()
        network.run_until_idle(max_events=2_000_000)
        ballot = setup.ballots[0]
        voter.cast("VC-0", ballot.serial, ballot.part_a.lines[0].vote_code)
        network.run_until_idle(max_events=2_000_000)
        assert voter.receipts == []


class TestCrashSnapshot:
    """Durable-state snapshot/restore through the wire codec."""

    def run_one_vote(self, vc_setup, seed=3):
        params, setup = vc_setup
        network, nodes, voter = build_vc_network(params, setup, seed=seed)
        ballot = setup.ballots[0]
        line = ballot.part_a.lines[0]
        voter.cast("VC-0", ballot.serial, line.vote_code)
        network.run_until_idle()
        return params, setup, network, nodes, ballot, line

    def test_snapshot_restore_round_trips_ballot_state(self, vc_setup):
        params, setup, network, nodes, ballot, line = self.run_one_vote(vc_setup)
        node = nodes[0]
        snapshot = node.snapshot_state()
        before = node.ballots[ballot.serial]
        node.restore_state(snapshot)
        after = node.ballots[ballot.serial]
        assert after.status is BallotStatus.VOTED
        assert after.used_vote_code == line.vote_code
        assert after.receipt == line.receipt
        assert after.ucert == before.ucert
        assert after.receipt_shares == before.receipt_shares
        assert after.location == before.location
        assert node.endorsed[ballot.serial] == line.vote_code

    def test_snapshot_skips_untouched_ballots(self, vc_setup):
        params, setup, network, nodes, ballot, line = self.run_one_vote(vc_setup)
        from repro.net.codec import default_codec

        decoded = default_codec().decode(nodes[0].snapshot_state())
        assert [entry.serial for entry in decoded.entries] == [ballot.serial]

    def test_restore_resets_volatile_consensus_state(self, vc_setup):
        params, setup, network, nodes, ballot, line = self.run_one_vote(vc_setup)
        node = nodes[0]
        snapshot = node.snapshot_state()
        node.end_election()
        assert node.vsc_started
        node.restore_state(snapshot)
        assert not node.vsc_started
        assert node.consensus == {}
        assert node.final_vote_set is None
        assert not node.uploaded

    def test_counters_describe_the_process_since_its_last_start(self, vc_setup):
        """After a restore every counter restarts at zero (the node booted
        again); the crash bookkeeping is about the process and carries over."""
        params, setup, network, nodes, ballot, line = self.run_one_vote(vc_setup)
        node, voter = nodes[0], network.nodes["probe-voter"]
        voter.cast("VC-0", ballot.serial, b"\x00" * 20)
        network.run_until_idle()
        snapshot = node.snapshot_state()
        # Decided "voted" on a ballot it holds no code for: one RECOVER-REQUEST.
        node._on_consensus_decision(setup.ballots[1].serial, 1)
        for peer in nodes:
            peer.end_election()
        network.run_until_idle(max_events=2_000_000)
        # Per-ballot mode: the superblock counters are zero either way.
        per_ballot = {"superblocks", "superblocks_fast", "superblocks_fallback"}
        before = node.vsc_stats.as_dict()
        assert sorted(before) == sorted(f.name for f in dataclasses.fields(VscStats))
        assert all(before[name] for name in before if name not in per_ballot), before
        assert (node.receipts_issued, node.votes_rejected) == (1, 1)
        assert node.admission_stats.requests == 2
        node.crashes, node.caught_up_from_bb = 1, True

        node.restore_state(snapshot)
        assert node.vsc_stats == VscStats()
        assert (node.receipts_issued, node.votes_rejected, node.recover_requests) == (0, 0, 0)
        assert node.admission_stats == AdmissionStats()
        assert (node.crashes, node.caught_up_from_bb) == (1, True)
        assert node.recovered_at == network.now

    def test_a_restart_drops_the_admission_backlog(self, vc_setup):
        """A VOTE queued before a crash is lost with the process, even when
        the node is back before the queue's drain timer would have fired."""
        params, setup = vc_setup
        params = dataclasses.replace(params, admission=AdmissionProfile(service_ms=50.0))
        network, nodes, voter = build_vc_network(params, setup)
        node, ballot = nodes[0], setup.ballots[0]
        voter.cast("VC-0", ballot.serial, ballot.part_a.lines[0].vote_code)
        network.run(until=0.01)
        assert (node.admission_stats.requests, node.admission_stats.admitted) == (1, 0)

        snapshot = node.snapshot_state()
        network.crash("VC-0")
        node.restore_state(snapshot)
        network.recover("VC-0")
        network.run_until_idle()
        assert node.admission_stats.admitted == 0
        assert node.ballots[ballot.serial].status is BallotStatus.NOT_VOTED
        assert voter.receipts == [] and voter.rejections == []

    def test_restore_rejects_foreign_snapshot(self, vc_setup):
        params, setup, network, nodes, *_ = self.run_one_vote(vc_setup)
        snapshot = nodes[0].snapshot_state()
        with pytest.raises(ValueError, match="belongs to"):
            nodes[1].restore_state(snapshot)

    def test_restore_rejects_wrong_frame_type(self, vc_setup):
        params, setup, network, nodes, ballot, line = self.run_one_vote(vc_setup)
        from repro.net.codec import default_codec

        frame = default_codec().encode(VoteRequest(1, b"x", "v"))
        with pytest.raises(TypeError):
            nodes[0].restore_state(frame)

    def test_endorsed_code_survives_restart(self, vc_setup):
        # Safety across restarts: a recovered node must remember which code
        # it endorsed, or it could sign a second code for the same ballot.
        params, setup, network, nodes, ballot, line = self.run_one_vote(vc_setup)
        node = nodes[0]
        node.restore_state(node.snapshot_state())
        other_line = ballot.part_b.lines[0]
        assert node.endorsed.get(ballot.serial) == line.vote_code
        assert node.endorsed.get(ballot.serial) != other_line.vote_code

    def test_adopt_final_vote_set_uploads_once(self, vc_setup):
        params, setup, network, nodes, ballot, line = self.run_one_vote(vc_setup)
        node = nodes[0]
        vote_set = ((ballot.serial, line.vote_code),)
        node.adopt_final_vote_set(vote_set)
        assert node.final_vote_set == vote_set
        assert node.uploaded
        assert node.caught_up_from_bb
        # Idempotent: a second adoption does not overwrite or re-upload.
        node.adopt_final_vote_set(())
        assert node.final_vote_set == vote_set
