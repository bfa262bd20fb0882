"""Vote Set Consensus through one outbound queue per collector.

Everything a collector sends to all of its peers during Vote Set Consensus --
announces, BVAL/AUX/FINISH, superblock reliable-broadcast steps -- leaves as
one ``VscBatch`` frame per handler step.  These tests pin what follows from
that: frames follow the protocol's steps and not the ballots, chunked
envelopes decide what one envelope decides, and hostile envelopes neither
break agreement nor stall the honest nodes.
"""

import pytest

from repro.analysis.determinism import safety_violations
from repro.api import (
    AdversaryProfile,
    AuditConfig,
    ConsensusConfig,
    ElectionEngine,
    ScenarioSpec,
)
from repro.consensus import bracha
from repro.consensus.batching import BatchEnvelope, SuperblockSend
from repro.consensus.interfaces import Aux, BVal, Finish
from repro.core.byzantine import VC_BEHAVIORS, register_vc_behavior
from repro.core.ea import ElectionAuthority
from repro.core.election import ElectionParameters, vc_node_id
from repro.core.messages import (
    Announce,
    RecoverResponse,
    VoteReceipt,
    VoteRequest,
    VscBatch,
)
from repro.core.vote_collector import VoteCollectorNode
from repro.crypto.utils import RandomSource
from repro.net.adversary import NetworkConditions
from repro.net.channels import ChannelKind, Message
from repro.net.codec import MessageCodec
from repro.net.simulator import Network, SimNode
from repro.net.transport import InProcessTransport


class ProbeVoter(SimNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.receipts = {}

    def on_message(self, message: Message) -> None:
        if isinstance(message.payload, VoteReceipt):
            self.receipts[message.payload.serial] = message.payload.receipt

    def cast(self, target, serial, vote_code):
        self.send(target, VoteRequest(serial, vote_code, self.node_id),
                  channel=ChannelKind.PUBLIC)


def make_setup(group, num_ballots, num_vc, batch_size=1):
    params = ElectionParameters.small_test_election(
        num_voters=num_ballots, num_options=2, num_vc=num_vc, election_end=500.0,
        consensus=ConsensusConfig(batch_size),
    )
    setup = ElectionAuthority(
        params, group=group, rng=RandomSource(77),
        include_proofs=False, include_trustee_data=False,
    ).setup()
    return params, setup


def run_collectors(params, setup, voted, *, prepare=None, seed=5):
    """Honest collectors over the wire format: vote, close, run to quiescence.

    Returns the nodes, the probe voter and the ``VscBatch`` frames sent after
    the election ended (one per destination).
    """
    network = Network(
        conditions=NetworkConditions(base_latency=0.002, jitter=0.001, seed=seed),
        transport=InProcessTransport(codec=MessageCodec()),
    )
    nodes = [
        VoteCollectorNode(setup.vc_init[vc_node_id(index)], params)
        for index in range(params.thresholds.num_vc)
    ]
    network.register_all(nodes)
    voter = ProbeVoter("probe-voter")
    network.register(voter)
    for index, ballot in enumerate(setup.ballots[:voted]):
        line = ballot.part_a.lines[index % 2]
        voter.cast(vc_node_id(index % len(nodes)), ballot.serial, line.vote_code)
    network.run_until_idle()
    assert len(voter.receipts) == voted
    if prepare is not None:
        prepare(nodes)
    sent_before = network.payload_copies_sent.get("VscBatch", 0)
    for node in nodes:
        node.end_election()
    network.run_until_idle(max_events=5_000_000)
    return nodes, voter, network.payload_copies_sent["VscBatch"] - sent_before


def slowest_round(nodes):
    return max(
        instance.round for node in nodes for instance in node.vsc.instances.values()
    )


class TestFramesFollowStepsNotBallots:
    """At the parent every ballot's ANNOUNCE, BVAL, AUX and FINISH was a frame
    of its own, so these counts grew fivefold from 20 to 100 ballots."""

    @pytest.mark.parametrize("num_vc", [4, 7])
    def test_equal_at_20_and_100_ballots_when_the_rounds_are(self, group, monkeypatch, num_vc):
        # Every instance flips its own coin, so the *slowest* ballot's round
        # count (not the ballot count) moves the frame count.  With a coin
        # that lets every instance decide in round 1 the count is exact:
        # announces, BVAL, AUX, FINISH -- four frames from each node to each.
        monkeypatch.setattr(bracha, "common_coin", lambda instance, round_number: 1)
        counts = {}
        for num_ballots in (20, 100):
            params, setup = make_setup(group, num_ballots, num_vc)
            nodes, _voter, frames = run_collectors(params, setup, voted=num_ballots)
            assert all(len(node.final_vote_set) == num_ballots for node in nodes)
            assert sum(n.vsc_stats.per_ballot_instances for n in nodes) == num_vc * num_ballots
            counts[num_ballots] = frames
        assert counts[20] == counts[100] == 4 * num_vc * num_vc

    @pytest.mark.parametrize("num_vc", [4, 7])
    def test_bounded_by_the_slowest_ballots_rounds(self, group, num_vc):
        # The real coin: two frames per round until the slowest ballot has
        # decided, plus the announces and the last FINISH.
        for num_ballots in (20, 100):
            params, setup = make_setup(group, num_ballots, num_vc)
            nodes, _voter, frames = run_collectors(params, setup, voted=num_ballots)
            assert all(len(node.final_vote_set) == num_ballots for node in nodes)
            per_node = frames / (num_vc * num_vc)
            assert 4 <= per_node <= 2 * slowest_round(nodes) + 2
            assert frames < num_vc * num_vc * num_ballots  # the parent's announces alone

    def test_superblock_frames_do_not_follow_the_ballots_either(self, group, monkeypatch):
        monkeypatch.setattr(bracha, "common_coin", lambda instance, round_number: 1)
        counts = []
        for num_ballots in (20, 100):
            params, setup = make_setup(group, num_ballots, 4, batch_size=16)
            nodes, _voter, frames = run_collectors(params, setup, voted=num_ballots)
            assert all(len(node.final_vote_set) == num_ballots for node in nodes)
            assert all(n.vsc_stats.superblocks_fallback == 0 for n in nodes)
            counts.append(frames)
        assert counts[0] == counts[1]


class TestChunkedEnvelopes:
    def test_small_max_batch_decides_what_one_frame_decides(self, group):
        params, setup = make_setup(group, 10, 4)

        def chunk(nodes):
            for node in nodes:
                node._batcher.max_batch = 3

        whole_nodes, whole_voter, whole_frames = run_collectors(params, setup, voted=7)
        nodes, voter, frames = run_collectors(params, setup, voted=7, prepare=chunk)
        assert frames > whole_frames  # 10 announces really went out as 3+3+3+1
        reference = whole_nodes[0].final_vote_set
        assert reference is not None and len(reference) == 7
        for node in (*whole_nodes, *nodes):
            assert node.final_vote_set == reference
        assert voter.receipts == whole_voter.receipts
        assert all(
            voter.receipts[ballot.serial] == ballot.part_a.lines[index % 2].receipt
            for index, ballot in enumerate(setup.ballots[:7])
        )


# ---------------------------------------------------------------------------
# Hostile envelopes (one Byzantine collector, fv = 1 of Nv = 4)
# ---------------------------------------------------------------------------


class HostileCollector(VoteCollectorNode):
    """Runs the honest protocol, and sends ``hostile_elements`` to everyone
    ahead of its announces when the election ends."""

    def hostile_elements(self):
        raise NotImplementedError

    def end_election(self) -> None:
        if not self.vsc_started:
            self.broadcast(
                self.peers, VscBatch(BatchEnvelope(tuple(self.hostile_elements())), self.node_id)
            )
        super().end_election()


class UnknownSerialAnnouncer(HostileCollector):
    """Any of these used to leave a consensus record that never resolves."""

    def hostile_elements(self):
        yield Announce(999_999_999, b"no-such-ballot", None, self.node_id)
        yield BVal("999999999", 1, 1)

    def end_election(self) -> None:
        if not self.vsc_started:
            self.broadcast(
                self.peers, RecoverResponse(999_999_998, b"no-such-ballot", None, self.node_id)
            )
        super().end_election()


class DuplicateSerialAnnouncer(HostileCollector):
    def hostile_elements(self):
        for serial in self.ballots:
            yield Announce(serial, None, None, self.node_id)
            yield Announce(serial, b"second-opinion", None, self.node_id)


class MixedEnvelopeSender(HostileCollector):
    def hostile_elements(self):
        serials = tuple(self.ballots)
        yield SuperblockSend("sb|0", self.node_id, bytes(len(serials)))
        for serial in serials:
            yield Announce(serial, None, None, self.node_id)
            yield BVal(str(serial), 1, 0)
        yield SuperblockSend("sb|7", self.node_id, b"\x01")


class NonNumericInstanceSender(VoteCollectorNode):
    """Instance ids that are neither a superblock id nor a serial, at the head
    of the one frame that carries this node's announces."""

    def end_election(self) -> None:
        if not self.vsc_started:
            for junk in (BVal("not-a-serial", 1, 1), Aux("", 1, 1), Finish("12x", 1)):
                self._batcher.enqueue(junk)
        super().end_election()


class ImpersonatingAnnouncer(HostileCollector):
    """Names VC-0 in every ``sender`` field a frame has."""

    def end_election(self) -> None:
        if not self.vsc_started:
            forged = tuple(Announce(serial, None, None, "VC-0") for serial in self.ballots)
            self.broadcast(self.peers, VscBatch(BatchEnvelope(forged), "VC-0"))
        VoteCollectorNode.end_election(self)


class FragmentingCollector(VoteCollectorNode):
    """The old traffic shape: every element in a frame of its own."""

    def __init__(self, init, params):
        super().__init__(init, params)
        self._batcher.max_batch = 1


HOSTILE = {
    "unknown-serial": UnknownSerialAnnouncer,
    "duplicate-serial": DuplicateSerialAnnouncer,
    "mixed-envelope": MixedEnvelopeSender,
    "non-numeric-instance": NonNumericInstanceSender,
    "impersonating": ImpersonatingAnnouncer,
    "fragmenting": FragmentingCollector,
}
CHOICES = ["option-1", "option-2", "option-2", "option-1", "option-1"]


@pytest.fixture(scope="module", autouse=True)
def hostile_behaviors():
    for name, cls in HOSTILE.items():
        register_vc_behavior(f"hostile-{name}", cls)
    yield
    for name in HOSTILE:
        del VC_BEHAVIORS[f"hostile-{name}"]


class TestHostileEnvelopes:
    @pytest.mark.parametrize("batch_size", [1, 4], ids=["per-ballot", "superblock"])
    @pytest.mark.parametrize("behavior", sorted(HOSTILE))
    def test_safety_and_liveness_survive(self, behavior, batch_size):
        spec = ScenarioSpec(
            options=("option-1", "option-2"),
            num_voters=len(CHOICES),
            election_end=400.0,
            seed=9,
            consensus=ConsensusConfig(batch_size=batch_size),
            audit=AuditConfig(enabled=False),
            adversary=AdversaryProfile(vc_behaviors={"VC-3": f"hostile-{behavior}"}),
        )
        outcome = ElectionEngine(spec).run(CHOICES)
        assert safety_violations(outcome, spec) == []
        honest = [node for node in outcome.vote_collectors if node.node_id != "VC-3"]
        for node in honest:
            assert node.final_vote_set is not None
            assert len(node.final_vote_set) == len(CHOICES)
            assert set(node.consensus) == set(node.ballots)  # no record for junk serials
        assert outcome.tally is not None
        assert outcome.tally.as_dict() == {"option-1": 3, "option-2": 2}

    def test_a_junk_instance_id_does_not_hide_the_rest_of_its_frame(self):
        spec = ScenarioSpec(
            options=("option-1", "option-2"),
            num_voters=len(CHOICES),
            election_end=400.0,
            seed=9,
            audit=AuditConfig(enabled=False),
            adversary=AdversaryProfile(vc_behaviors={"VC-3": "hostile-non-numeric-instance"}),
        )
        outcome = ElectionEngine(spec).run(CHOICES)
        for node in outcome.vote_collectors[:3]:
            for state in node.consensus.values():
                # VC-3's announces sit behind the junk in the same frame.
                assert state.announces["VC-3"].ucert is not None

    def test_the_channel_names_the_sender_not_the_frame(self):
        spec = ScenarioSpec(
            options=("option-1", "option-2"),
            num_voters=len(CHOICES),
            election_end=400.0,
            seed=9,
            audit=AuditConfig(enabled=False),
            adversary=AdversaryProfile(vc_behaviors={"VC-3": "hostile-impersonating"}),
        )
        outcome = ElectionEngine(spec).run(CHOICES)
        for node in outcome.vote_collectors[:3]:
            for serial, state in node.consensus.items():
                # VC-3's forgery can only ever take VC-3's own slot (where it
                # races VC-3's real announce); VC-0's holds what VC-0 sent.
                forged = Announce(serial, None, None, "VC-0")
                assert state.announces["VC-0"] != forged
                assert state.announces["VC-0"].ucert is not None
                assert state.announces["VC-3"].sender in ("VC-0", "VC-3")
                assert set(state.announces) <= {"VC-0", "VC-1", "VC-2", "VC-3"}
