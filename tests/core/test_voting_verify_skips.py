"""The checks the voting phase no longer pays for, and the ones it must keep
paying for.

* A VOTE_P for a ballot whose receipt already exists cannot change state, so
  it returns before the UCERT's signature checks and the share's digest
  check.  Before the receipt exists both checks still gate every share: the
  share must be the one the EA dealt for the row to the index it names
  (:meth:`VcBallotView.share_matches`), one refusal per way it can miss.
* A responder that assembled a UCERT from endorsements it verified one by one
  records the certificate as verified, so its own VOTE_P looping back is a
  memo hit.  Nothing else may put a certificate in that memo.
* An endorsement in a collector's own name is checked by comparing it with
  the signature that collector issued; only an equal one is spared the
  verification, and a restarted node, which has no record, verifies.
"""

import pytest

from repro.analysis.determinism import safety_violations
from repro.api import AdmissionProfile, AdversaryProfile, ElectionEngine, ScenarioSpec
from repro.core.ballot import VcBallotView
from repro.core.byzantine import VC_BEHAVIORS
from repro.core.ea import ElectionAuthority
from repro.core.election import ElectionParameters, vc_node_id
from repro.core.messages import (
    Endorse,
    Endorsement,
    UniquenessCertificate,
    VotePending,
    VoteRequest,
)
from repro.core.vote_collector import BallotStatus, VoteCollectorNode, endorsement_message
from repro.crypto.shamir import Share
from repro.crypto.signatures import SchnorrSignature, SignatureScheme
from repro.crypto.utils import RandomSource
from repro.net.adversary import NetworkConditions
from repro.net.channels import ChannelKind, Message
from repro.net.simulator import Network, SimNode


class ProbeVoter(SimNode):
    def on_message(self, message: Message) -> None:
        pass


def make_params(endorse_batch_size=1):
    return ElectionParameters.small_test_election(
        num_voters=2, num_options=2, election_end=500.0,
        admission=AdmissionProfile(endorse_batch_size=endorse_batch_size),
    )


@pytest.fixture(scope="module")
def setup(group):
    """One EA set-up for the module: its node keys sign every certificate."""
    return ElectionAuthority(
        make_params(), group=group, rng=RandomSource(41),
        include_proofs=False, include_trustee_data=False,
    ).setup()


def build(setup, endorse_batch_size=1, only=None):
    """Collectors on a simulated network (``only``: register just these)."""
    params = make_params(endorse_batch_size)
    network = Network(conditions=NetworkConditions(base_latency=0.001, jitter=0.001, seed=3))
    nodes = {}
    for index in range(params.thresholds.num_vc):
        node_id = vc_node_id(index)
        if only is None or node_id in only:
            nodes[node_id] = VoteCollectorNode(setup.vc_init[node_id], params)
            network.register(nodes[node_id])
    voter = ProbeVoter("probe-voter")
    network.register(voter)
    return network, nodes, voter


def cast(voter, target, ballot, line):
    voter.send(target, VoteRequest(ballot.serial, line.vote_code),
               channel=ChannelKind.PUBLIC)


def deliver(node, sender, payload):
    node.on_message(Message(sender=sender, receiver=node.node_id, payload=payload))


@pytest.fixture(scope="module")
def voted(setup):
    """A finished vote: its UCERT and every node's genuine VOTE_P share."""
    network, nodes, voter = build(setup)
    ballot = setup.ballots[0]
    line = ballot.part_a.lines[0]
    cast(voter, "VC-0", ballot, line)
    network.run_until_idle()
    record = nodes["VC-1"].ballots[ballot.serial]
    assert record.status is BallotStatus.VOTED
    part, index = record.location
    shares = {
        node_id: setup.vc_init[node_id].ballots[ballot.serial].receipt_share_at(part, index)
        for node_id in nodes
    }
    return ballot, line, record.ucert, shares


def corrupted(share: Share) -> Share:
    return Share(share.index, share.value + 1)


def forged(ucert: UniquenessCertificate) -> UniquenessCertificate:
    first, *rest = ucert.endorsements
    bad = SchnorrSignature(
        first.signature.challenge, first.signature.response + 1, first.signature.commitment
    )
    return UniquenessCertificate(
        ucert.serial, ucert.vote_code,
        (Endorsement(first.serial, first.vote_code, first.signer, bad), *rest),
    )


def other_row_share(setup, ballot, line, sender):
    """``sender``'s genuine share of another row of the same ballot part."""
    part, index = setup.vc_init[sender].ballots[ballot.serial].find_vote_code(line.vote_code)
    return setup.vc_init[sender].ballots[ballot.serial].receipt_share_at(part, 1 - index)


def other_serial_share(setup, ballot, line, sender):
    """``sender``'s genuine share of the same row of another ballot."""
    part, index = setup.vc_init[sender].ballots[ballot.serial].find_vote_code(line.vote_code)
    other = setup.ballots[1].serial
    return setup.vc_init[sender].ballots[other].receipt_share_at(part, index)


#: one way each for a disclosed share to miss the row's digest; each is red
#: with ``VcBallotView.share_matches`` stubbed to accept
MISSES = {
    "value-off-by-one": lambda setup, ballot, line, share: corrupted(share),
    "index-0": lambda setup, ballot, line, share: Share(0, share.value),
    "index-Nv+1": lambda setup, ballot, line, share: Share(
        setup.params.thresholds.num_vc + 1, share.value
    ),
    "another-row-of-the-ballot": lambda setup, ballot, line, share: other_row_share(
        setup, ballot, line, "VC-2"
    ),
    "same-row-of-another-serial": lambda setup, ballot, line, share: other_serial_share(
        setup, ballot, line, "VC-2"
    ),
}


class TestVotePendingBeforeTheReceipt:
    """Both checks still gate every share while the ballot is open."""

    @pytest.mark.parametrize("miss", sorted(MISSES))
    def test_share_that_misses_the_digest_is_rejected(self, setup, voted, miss):
        ballot, line, ucert, shares = voted
        _network, nodes, _voter = build(setup)
        node = nodes["VC-1"]
        share = MISSES[miss](setup, ballot, line, shares["VC-2"])
        assert share != shares["VC-2"]
        deliver(node, "VC-2", VotePending(ballot.serial, line.vote_code, share, ucert))
        record = node.ballots[ballot.serial]
        assert record.status is BallotStatus.NOT_VOTED
        assert record.receipt_shares == {} and record.ucert is None
        # The genuine share under the same certificate is taken.
        deliver(node, "VC-2",
                VotePending(ballot.serial, line.vote_code, shares["VC-2"], ucert))
        assert record.receipt_shares == {"VC-2": shares["VC-2"]}

    def test_forged_ucert_is_rejected(self, setup, voted):
        ballot, line, ucert, shares = voted
        _network, nodes, _voter = build(setup)
        node = nodes["VC-1"]
        bad = VotePending(ballot.serial, line.vote_code, shares["VC-2"], forged(ucert))
        deliver(node, "VC-2", bad)
        record = node.ballots[ballot.serial]
        assert record.status is BallotStatus.NOT_VOTED
        assert record.receipt_shares == {} and record.ucert is None

    def test_corrupted_shares_cannot_complete_a_receipt(self, setup, voted):
        """Two genuine shares + any number of corrupted ones stay below the
        quorum of three: the receipt must not exist."""
        ballot, line, ucert, shares = voted
        _network, nodes, _voter = build(setup)
        node = nodes["VC-1"]
        for sender in ("VC-0", "VC-2"):
            deliver(node, sender,
                    VotePending(ballot.serial, line.vote_code, shares[sender], ucert))
        deliver(node, "VC-3", VotePending(
            ballot.serial, line.vote_code, corrupted(shares["VC-3"]), ucert))
        record = node.ballots[ballot.serial]
        assert record.status is BallotStatus.PENDING and record.receipt is None
        assert sorted(record.receipt_shares) == ["VC-0", "VC-2"]
        # The genuine third share completes it, with the printed receipt.
        deliver(node, "VC-3",
                VotePending(ballot.serial, line.vote_code, shares["VC-3"], ucert))
        assert record.status is BallotStatus.VOTED and record.receipt == line.receipt


class TestVotePendingAfterTheReceipt:
    """Red at the parent: it verified and stored every late share."""

    @pytest.mark.parametrize("kind", ["genuine", "corrupted-share", "forged-ucert"])
    def test_late_share_is_a_no_op(self, setup, voted, kind, monkeypatch):
        ballot, line, ucert, shares = voted
        network, nodes, voter = build(setup)
        # VC-3 stays silent so that VC-1 builds its receipt from exactly three
        # shares and VC-3's is the late one.
        network.crash("VC-3")
        cast(voter, "VC-0", ballot, line)
        network.run_until_idle()
        node = nodes["VC-1"]
        record = node.ballots[ballot.serial]
        assert record.status is BallotStatus.VOTED
        assert sorted(record.receipt_shares) == ["VC-0", "VC-1", "VC-2"]
        before = node.snapshot_state()
        hits = node.admission_stats.ucert_cache_hits

        def must_not_verify(*args, **kwargs):
            raise AssertionError("a late VOTE_P reached a signature or digest check")

        monkeypatch.setattr(SignatureScheme, "verify", must_not_verify)
        monkeypatch.setattr(VcBallotView, "share_matches", must_not_verify)
        late = {
            "genuine": VotePending(ballot.serial, line.vote_code, shares["VC-3"], ucert),
            "corrupted-share": VotePending(
                ballot.serial, line.vote_code, corrupted(shares["VC-3"]), ucert),
            "forged-ucert": VotePending(
                ballot.serial, line.vote_code, shares["VC-3"], forged(ucert)),
        }[kind]
        deliver(node, "VC-3", late)
        assert sorted(record.receipt_shares) == ["VC-0", "VC-1", "VC-2"]
        assert node.admission_stats.ucert_cache_hits == hits  # not even a memo lookup
        assert node.snapshot_state() == before
        assert record.receipt == line.receipt


def sign_endorsement(setup, signer, serial, vote_code):
    """``signer``'s genuine signature over (serial, vote_code)."""
    signature = SignatureScheme().sign(
        setup.vc_init[signer].signing_keys, endorsement_message(serial, vote_code)
    )
    return Endorsement(serial, vote_code, signer, signature)


@pytest.mark.parametrize("endorse_batch_size", [1, 4], ids=["single", "batcher"])
class TestResponderMarksItsOwnUcertVerified:
    def responder(self, setup, endorse_batch_size):
        """VC-0 alone on the network (it endorses its own request): the test
        plays its three peers, two of whom complete the quorum of three."""
        network, nodes, voter = build(
            setup, endorse_batch_size=endorse_batch_size, only={"VC-0"}
        )
        ballot = setup.ballots[0]
        line = ballot.part_a.lines[0]
        cast(voter, "VC-0", ballot, line)
        network.run_until_idle()
        node = nodes["VC-0"]
        assert sorted(node.ballots[ballot.serial].endorsements) == ["VC-0"]
        return network, node, ballot, line

    def test_own_vote_p_is_a_memo_hit(self, setup, endorse_batch_size, monkeypatch):
        network, nodes, voter = build(setup, endorse_batch_size=endorse_batch_size)
        checked = []
        original = VoteCollectorNode._verify_endorsement

        def recording(node, endorsement, message):
            checked.append(node.node_id)
            return original(node, endorsement, message)

        monkeypatch.setattr(VoteCollectorNode, "_verify_endorsement", recording)
        ballot = setup.ballots[1]
        cast(voter, "VC-0", ballot, ballot.part_b.lines[1])
        network.run_until_idle()
        responder = nodes["VC-0"]
        record = responder.ballots[ballot.serial]
        assert record.status is BallotStatus.VOTED
        assert responder._ucert_cache[responder._ucert_key(record.ucert)] is True
        # The responder checked endorsements as they came in and never again;
        # at the parent it re-checked the quorum of three on its own VOTE_P.
        if endorse_batch_size == 1:
            assert 3 <= checked.count("VC-0") <= 4
        else:
            assert checked.count("VC-0") == 0  # all through the batch equation
        # Three VOTE_Ps are looked at before the receipt exists.  For the
        # responder all three are memo hits; any other node verifies the
        # certificate itself on the first and reaches the same verdict.
        assert responder.admission_stats.ucert_cache_hits == 3
        other = nodes["VC-2"]
        assert other.admission_stats.ucert_cache_hits == 2
        assert other._ucert_cache[other._ucert_key(record.ucert)] is True

    def test_forged_endorsement_never_enters_the_certificate(self, setup, endorse_batch_size):
        network, node, ballot, line = self.responder(setup, endorse_batch_size)
        genuine = {
            signer: sign_endorsement(setup, signer, ballot.serial, line.vote_code)
            for signer in ("VC-1", "VC-2")
        }
        signature = genuine["VC-2"].signature
        forged_second = Endorsement(
            ballot.serial, line.vote_code, "VC-2",
            SchnorrSignature(signature.challenge, signature.response + 1, signature.commitment),
        )
        for endorsement in (genuine["VC-1"], forged_second):
            deliver(node, endorsement.signer, endorsement)
        network.run_until_idle()
        record = node.ballots[ballot.serial]
        assert record.ucert is None and node._ucert_cache == {}
        assert sorted(record.endorsements) == ["VC-0", "VC-1"]
        # The genuine one completes a certificate that every node accepts.
        deliver(node, "VC-2", genuine["VC-2"])
        network.run_until_idle()
        assert record.ucert is not None
        assert sorted(e.signer for e in record.ucert.endorsements) == ["VC-0", "VC-1", "VC-2"]
        assert node._ucert_cache == {node._ucert_key(record.ucert): True}
        fresh = VoteCollectorNode(setup.vc_init["VC-1"], node.params)
        assert fresh.verify_ucert(record.ucert)

    @pytest.mark.parametrize("foreign", ["another-code-of-the-ballot", "no-code-at-all"])
    def test_mixed_code_quorum_is_not_marked(self, setup, endorse_batch_size, foreign):
        """An equivocating peer validly signs a *different* code of the ballot.

        Its endorsement passes the signature check, but it is not the
        (serial, code) this node asked its peers to endorse, so it does not
        count: the certificate forms from the honest quorum alone, is
        recorded as verified, and every node accepts it.  At 868e6e2 the
        foreign endorsement filled the quorum and gave the certificate its
        code, so the responder assembled a UCERT that everyone rejected.
        """
        network, node, ballot, line = self.responder(setup, endorse_batch_size)
        other = {
            "another-code-of-the-ballot": ballot.part_a.lines[1].vote_code,
            "no-code-at-all": b"no-code-of-any-ballot",
        }[foreign]
        for endorsement in (
            sign_endorsement(setup, "VC-2", ballot.serial, other),
            sign_endorsement(setup, "VC-1", ballot.serial, line.vote_code),
        ):
            deliver(node, endorsement.signer, endorsement)
        network.run_until_idle()
        record = node.ballots[ballot.serial]
        assert sorted(record.endorsements) == ["VC-0", "VC-1"]  # VC-2's is ignored
        assert record.ucert is None and record.status is BallotStatus.NOT_VOTED
        # The foreign one as the *last* arrival must not name the code either.
        deliver(node, "VC-3", sign_endorsement(setup, "VC-3", ballot.serial, other))
        network.run_until_idle()
        assert record.ucert is None
        deliver(node, "VC-3", sign_endorsement(setup, "VC-3", ballot.serial, line.vote_code))
        network.run_until_idle()
        ucert = record.ucert
        assert ucert is not None and ucert.vote_code == line.vote_code
        assert record.used_vote_code == line.vote_code
        assert sorted(e.signer for e in ucert.endorsements) == ["VC-0", "VC-1", "VC-3"]
        assert all(e.vote_code == line.vote_code for e in ucert.endorsements)
        assert node._ucert_cache[node._ucert_key(ucert)] is True
        fresh = VoteCollectorNode(setup.vc_init["VC-1"], node.params)
        assert fresh.verify_ucert(ucert)

    def test_the_certificate_is_for_the_requested_code_whoever_completes_it(
        self, setup, endorse_batch_size, monkeypatch
    ):
        """The certificate's code is the one the ENDORSE round asked about, by
        construction and not only because ``_endorsement_wanted`` filters what
        arrives: with that guard stubbed to accept, a validly signed
        endorsement of another code of the ballot arriving last named the
        certificate's (and the ballot's) code at eb94cf0."""
        monkeypatch.setattr(VoteCollectorNode, "_endorsement_wanted", lambda node, e: True)
        network, node, ballot, line = self.responder(setup, endorse_batch_size)
        other = ballot.part_a.lines[1].vote_code
        for endorsement in (
            sign_endorsement(setup, "VC-1", ballot.serial, line.vote_code),
            sign_endorsement(setup, "VC-2", ballot.serial, other),
        ):
            deliver(node, endorsement.signer, endorsement)
        network.run_until_idle()
        record = node.ballots[ballot.serial]
        assert record.ucert is not None  # the stubbed guard let the quorum fill
        assert record.ucert.vote_code == line.vote_code
        assert record.used_vote_code == line.vote_code

    def test_relabelled_endorsement_does_not_share_a_memo_entry(self, setup, endorse_batch_size):
        """The memo key covers every field ``verify_ucert`` reads: a certificate
        whose inner endorsement is relabelled to another code is another key."""
        network, node, ballot, line = self.responder(setup, endorse_batch_size)
        for signer in ("VC-1", "VC-2"):
            deliver(node, signer, sign_endorsement(setup, signer, ballot.serial, line.vote_code))
        network.run_until_idle()
        ucert = node.ballots[ballot.serial].ucert
        assert node._ucert_cache[node._ucert_key(ucert)] is True
        first, *rest = ucert.endorsements
        relabelled = UniquenessCertificate(
            ucert.serial, ucert.vote_code,
            (Endorsement(first.serial, b"another-code", first.signer, first.signature), *rest),
        )
        assert node._ucert_key(relabelled) != node._ucert_key(ucert)
        assert not node.verify_ucert(relabelled)


class ForeignCodeEndorser(VoteCollectorNode):
    """Answers every ENDORSE with its valid signature over another code."""

    def _on_endorse(self, sender, request):
        other = b"not-" + request.vote_code
        signature = self.signature_scheme.sign(
            self.init.signing_keys, endorsement_message(request.serial, other)
        )
        self.send(sender, Endorsement(request.serial, other, self.node_id, signature))


@pytest.fixture()
def foreign_code_behavior(monkeypatch):
    monkeypatch.setitem(VC_BEHAVIORS, "foreign-code-endorser", ForeignCodeEndorser)
    return "foreign-code-endorser"


@pytest.mark.parametrize("endorse_batch", [1, 4], ids=["single", "batcher"])
def test_one_foreign_code_endorser_denies_nobody_a_receipt(foreign_code_behavior, endorse_batch):
    """Four collectors, one of them endorsing a code nobody asked about.  At
    868e6e2 every responder whose first three endorsements included the
    foreign one built a certificate its peers rejected, and that voter got no
    receipt from it."""
    choices = ["option-1", "option-2", "option-1", "option-2", "option-1", "option-1"]
    spec = ScenarioSpec(
        options=("option-1", "option-2"),
        num_voters=len(choices),
        num_vc=4,
        election_end=400.0,
        seed=13,
        admission=AdmissionProfile.batched(endorse_batch) if endorse_batch > 1
        else AdmissionProfile(),
        adversary=AdversaryProfile(vc_behaviors={"VC-1": foreign_code_behavior}),
    )
    outcome = ElectionEngine(spec).run(choices)
    assert safety_violations(outcome, spec) == []
    assert all(voter.receipt is not None and voter.receipt_valid for voter in outcome.voters)
    assert all(voter.attempts == 1 for voter in outcome.voters)  # from the first collector asked
    assert outcome.tally.as_dict() == {"option-1": 4, "option-2": 2}
    for node in outcome.vote_collectors:
        if node.node_id == "VC-1":
            continue
        fresh = VoteCollectorNode(node.init, node.params)
        for record in node.ballots.values():
            assert record.status is BallotStatus.VOTED
            assert "VC-1" not in {e.signer for e in record.ucert.endorsements}
            assert fresh.verify_ucert(record.ucert)


def test_voting_checks_nv_times_quorum_signatures_per_cast_ballot(monkeypatch):
    """Seven collectors, quorum five, every ballot cast.  Per ballot the
    responder takes the five endorsements that complete its certificate and
    each of the six other collectors checks the certificate's five signatures
    once (the memo answers every later VOTE_P): ``Nv * quorum`` = 35 checks.
    One of each node's five is its own signature, which it compares with the
    one it issued instead of verifying: the responder's own endorsement, and
    for each of the other four signers its entry in the certificate.  That
    removes ``quorum`` = 5 checks, leaving ``Nv * quorum - quorum =
    (Nv - 1) * quorum`` = 30 per ballot, 180 for six ballots; in this run
    every responder is among its own certificate's signers.  Verifying one's
    own signatures too made it 35 per ballot; ca2940a also checked the EA's
    signature on every receipt share a collector took, 70 in all."""
    spec = ScenarioSpec.preset("paper_baseline", num_voters=6, seed=3).derive(
        num_vc=7, options=("yes", "no"), stagger=0.005
    )
    engine = ElectionEngine(spec)
    ctx = engine.begin(["yes", "no", "yes", "yes", "no", "yes"])
    original = SignatureScheme.verify
    calls = {}

    def counted(scheme, public, message, signature):
        calls[phase] = calls.get(phase, 0) + 1
        return original(scheme, public, message, signature)

    monkeypatch.setattr(SignatureScheme, "verify", counted)
    try:
        for driver in engine.drivers:
            phase = driver.name
            if driver.should_run(ctx):
                engine.run_phase(driver, ctx)
    finally:
        engine.close()
    outcome = engine.outcome()
    assert sum(node.receipts_issued for node in outcome.vote_collectors) == 6
    num_vc, quorum = 7, 5
    assert spec.to_election_parameters().thresholds.vc_honest_quorum == quorum
    assert calls["voting"] == 6 * (num_vc - 1) * quorum


def counting_verifies(monkeypatch):
    """Patch ``SignatureScheme.verify`` to record each signer's key it checks."""
    checked = []
    original = SignatureScheme.verify

    def counted(scheme, public, message, signature):
        checked.append(public)
        return original(scheme, public, message, signature)

    monkeypatch.setattr(SignatureScheme, "verify", counted)
    return checked


@pytest.mark.parametrize("endorse_batch_size", [1, 4], ids=["single", "batcher"])
class TestOwnSignatureIsComparedNotVerified:
    """A collector accepts an endorsement in its own name without verifying it
    only if it equals the signature it issued for that message."""

    def endorsing(self, setup, endorse_batch_size):
        """VC-1 after endorsing ballot 0's first code for VC-0."""
        _network, nodes, _voter = build(setup, endorse_batch_size=endorse_batch_size)
        ballot = setup.ballots[0]
        vote_code = ballot.part_a.lines[0].vote_code
        node = nodes["VC-1"]
        deliver(node, "VC-0", Endorse(ballot.serial, vote_code))
        assert node.endorsed == {ballot.serial: vote_code}
        genuine = {
            signer: sign_endorsement(setup, signer, ballot.serial, vote_code)
            for signer in ("VC-0", "VC-1", "VC-2", "VC-3")
        }
        return node, ballot.serial, vote_code, genuine

    @pytest.mark.parametrize("kind", ["wrong", "relabelled"])
    def test_a_certificate_with_a_bad_own_endorsement_is_refused(
        self, setup, endorse_batch_size, kind, monkeypatch
    ):
        node, serial, vote_code, genuine = self.endorsing(setup, endorse_batch_size)
        own = genuine["VC-1"].signature
        bad = {
            "wrong": SchnorrSignature(own.challenge, own.response + 1, own.commitment),
            # VC-3's valid signature over the same bytes, under VC-1's name
            "relabelled": genuine["VC-3"].signature,
        }[kind]
        ucert = UniquenessCertificate(serial, vote_code, (
            genuine["VC-0"], Endorsement(serial, vote_code, "VC-1", bad), genuine["VC-2"],
        ))
        assert not node.verify_ucert(ucert)
        # The genuine certificate is accepted; the node's own entry in it is
        # the one signature it does not verify.
        checked = counting_verifies(monkeypatch)
        keys = setup.vc_init["VC-1"].vc_public_keys
        honest = UniquenessCertificate(
            serial, vote_code, (genuine["VC-0"], genuine["VC-1"], genuine["VC-2"])
        )
        assert node.verify_ucert(honest)
        assert checked == [keys["VC-0"], keys["VC-2"]]

    def test_its_own_signature_under_another_name_is_refused(self, setup, endorse_batch_size):
        node, serial, vote_code, genuine = self.endorsing(setup, endorse_batch_size)
        ucert = UniquenessCertificate(serial, vote_code, (
            genuine["VC-0"],
            genuine["VC-2"],
            Endorsement(serial, vote_code, "VC-3", genuine["VC-1"].signature),
        ))
        assert not node.verify_ucert(ucert)

    def test_a_bad_endorsement_in_the_responders_name_is_not_collected(
        self, setup, endorse_batch_size
    ):
        """VC-0 endorses its own request; a second endorsement in its name
        with VC-1's signature must not replace that one in the certificate."""
        network, nodes, voter = build(
            setup, endorse_batch_size=endorse_batch_size, only={"VC-0"}
        )
        ballot = setup.ballots[0]
        line = ballot.part_a.lines[0]
        cast(voter, "VC-0", ballot, line)
        network.run_until_idle()
        node = nodes["VC-0"]
        record = node.ballots[ballot.serial]
        issued = record.endorsements["VC-0"]
        genuine = {
            signer: sign_endorsement(setup, signer, ballot.serial, line.vote_code)
            for signer in ("VC-1", "VC-2")
        }
        relabelled = Endorsement(
            ballot.serial, line.vote_code, "VC-0", genuine["VC-1"].signature
        )
        for endorsement in (relabelled, genuine["VC-1"], genuine["VC-2"]):
            deliver(node, "VC-0" if endorsement is relabelled else endorsement.signer,
                    endorsement)
            network.run_until_idle()
        assert record.ucert is not None
        assert {e.signer: e for e in record.ucert.endorsements}["VC-0"] == issued
        fresh = VoteCollectorNode(setup.vc_init["VC-3"], node.params)
        assert fresh.verify_ucert(record.ucert)

    def test_a_restored_node_verifies_its_own_endorsement(
        self, setup, endorse_batch_size, monkeypatch
    ):
        node, serial, vote_code, genuine = self.endorsing(setup, endorse_batch_size)
        snapshot = node.snapshot_state()
        ucert = UniquenessCertificate(
            serial, vote_code, (genuine["VC-0"], genuine["VC-1"], genuine["VC-2"])
        )
        keys = setup.vc_init["VC-1"].vc_public_keys
        checked = counting_verifies(monkeypatch)
        assert node.verify_ucert(ucert)
        assert keys["VC-1"] not in checked and len(checked) == 2
        node.restore_state(snapshot)
        assert node.endorsed == {serial: vote_code}  # durable; the signature is not
        checked.clear()
        assert node.verify_ucert(ucert)
        assert checked == [keys["VC-0"], keys["VC-1"], keys["VC-2"]]
        wrong = genuine["VC-1"].signature
        forged_own = UniquenessCertificate(serial, vote_code, (
            genuine["VC-0"],
            Endorsement(serial, vote_code, "VC-1", SchnorrSignature(
                wrong.challenge, wrong.response + 1, wrong.commitment)),
            genuine["VC-2"],
        ))
        assert not node.verify_ucert(forged_own)


def test_a_certificate_seen_before_is_found_by_identity(setup, monkeypatch):
    """The content key is built only for an object the memo has not held;
    an equal certificate in another object is a content hit.  Both count as
    memo hits."""
    _network, nodes, _voter = build(setup)
    node = nodes["VC-1"]
    ballot = setup.ballots[0]
    vote_code = ballot.part_a.lines[0].vote_code
    ucert = UniquenessCertificate(ballot.serial, vote_code, tuple(
        sign_endorsement(setup, signer, ballot.serial, vote_code)
        for signer in ("VC-0", "VC-2", "VC-3")
    ))
    assert node.verify_ucert(ucert)
    assert node.admission_stats.ucert_cache_hits == 0

    def no_key(ucert):
        raise AssertionError("content key built for a certificate held by identity")

    with monkeypatch.context() as patch:
        patch.setattr(VoteCollectorNode, "_ucert_key", staticmethod(no_key))
        assert node.verify_ucert(ucert)
    assert node.admission_stats.ucert_cache_hits == 1
    copy = UniquenessCertificate(ucert.serial, ucert.vote_code, ucert.endorsements)
    checked = counting_verifies(monkeypatch)
    assert node.verify_ucert(copy)
    assert checked == [] and node.admission_stats.ucert_cache_hits == 2
