"""Tests for message/channel data structures and the channels the protocol uses."""

import pytest

from repro.core.bulletin_board import BulletinBoardNode
from repro.core.messages import VoteSetUpload
from repro.core.voter import VoterClient
from repro.net.channels import ChannelKind, Message
from repro.net.simulator import Network, SimNode


class TestMessage:
    def test_message_ids_are_unique(self):
        first = Message("a", "b", "x")
        second = Message("a", "b", "x")
        assert first.message_id != second.message_id

    def test_duplicate_preserves_payload_but_changes_id(self):
        original = Message("a", "b", {"k": 1}, send_time=3.0)
        copy = original.duplicate()
        assert copy.payload == original.payload
        assert copy.sender == original.sender
        assert copy.send_time == original.send_time
        assert copy.message_id != original.message_id

    def test_default_channel_is_authenticated(self):
        assert Message("a", "b", "x").channel is ChannelKind.AUTHENTICATED


class Inbox(SimNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


class TestChannelUse:
    """Voters reach the VC subsystem over the public channel; the BB accepts
    writes only over the authenticated one."""

    def test_voter_requests_travel_on_the_public_channel(self, small_setup):
        network = Network()
        collector = network.register(Inbox("VC-0"))
        voter = network.register(
            VoterClient("V-0", small_setup.ballots[0], ["VC-0"], "option-1", seed=1)
        )
        voter.start_voting()
        network.run(until=1.0)
        (request,) = collector.received
        assert request.channel is ChannelKind.PUBLIC
        assert request.payload.vote_code == voter.vote_code

    @pytest.mark.parametrize(
        "channel, accepted",
        [(ChannelKind.AUTHENTICATED, True), (ChannelKind.PUBLIC, False)],
        ids=["authenticated", "public"],
    )
    def test_bb_takes_uploads_only_over_the_authenticated_channel(
        self, small_setup, small_params, small_outcome, group, channel, accepted
    ):
        bb = BulletinBoardNode("BB-test", small_setup.bb_init, small_params, group)
        vote_set = small_outcome.vote_collectors[0].final_vote_set
        for sender in ("VC-0", "VC-1"):
            bb.on_message(
                Message(sender, bb.node_id, VoteSetUpload(vote_set, sender), channel=channel)
            )
        assert (bb.accepted_vote_set == vote_set) is accepted
        assert (bb.accepted_vote_set is None) is not accepted
