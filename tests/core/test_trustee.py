"""Tests for the trustee tabulation protocol."""

import dataclasses
import hashlib
from dataclasses import replace

import pytest

from repro.core.bulletin_board import BulletinBoardNode, MajorityReader
from repro.core.trustee import BbElectionView, TrusteeSubmission
from repro.crypto.shamir import scalar_width


@pytest.fixture(scope="module")
def bb_view(small_outcome, small_params):
    return MajorityReader(small_outcome.bb_nodes, small_params).election_view()


@pytest.fixture(scope="module")
def width(group):
    """Bytes per scalar of a block."""
    return scalar_width(group.order)


@pytest.fixture()
def fresh_bb(small_outcome, small_params, group):
    """``fresh_bb(name)``: a BB node that has agreed on the election's vote
    set and decrypted the codes -- without that it cannot say which parts a
    submission must open and prove, and keeps none."""

    def build(name):
        bb = BulletinBoardNode(name, small_outcome.setup.bb_init, small_params, group)
        for vc in small_outcome.vote_collectors:
            bb.receive_vote_set(vc.node_id, vc.final_vote_set)
            bb.receive_msk_share(vc.node_id, vc.init.msk_share)
        return bb

    return build


@pytest.fixture(scope="module")
def submissions(small_outcome, small_params, bb_view):
    return {
        trustee.trustee_id: trustee.produce_submission(bb_view)
        for trustee in small_outcome.trustees
    }


class TestSubmissions:
    def test_every_trustee_produces_a_signed_submission(self, submissions, small_outcome, group):
        from repro.crypto.signatures import SignatureScheme

        scheme = SignatureScheme(group)
        keys = small_outcome.setup.bb_init.trustee_public_keys
        for trustee_id, submission in submissions.items():
            assert submission.signature is not None
            assert scheme.verify(keys[trustee_id], submission.digest(), submission.signature)

    def test_all_trustees_derive_the_same_challenge(self, submissions):
        challenges = {s.challenge for s in submissions.values()}
        assert len(challenges) == 1

    def test_used_parts_receive_proof_shares(self, submissions, small_outcome):
        locations = small_outcome.bb_nodes[0].cast_row_locations()
        for submission in submissions.values():
            for serial, (part, _) in locations.items():
                assert (serial, part) in submission.proof_shares
                assert (serial, part) not in submission.opening_shares

    def test_unused_parts_receive_opening_shares(self, submissions, small_outcome):
        locations = small_outcome.bb_nodes[0].cast_row_locations()
        for submission in submissions.values():
            for serial, (part, _) in locations.items():
                other = "B" if part == "A" else "A"
                assert (serial, other) in submission.opening_shares

    def test_unvoted_ballots_have_both_parts_opened(self, submissions, small_outcome):
        voted = {serial for serial, _ in small_outcome.bb_nodes[0].accepted_vote_set}
        unvoted = set(small_outcome.setup.bb_init.ballots) - voted
        for submission in submissions.values():
            for serial in unvoted:
                assert (serial, "A") in submission.opening_shares
                assert (serial, "B") in submission.opening_shares

    def test_tally_shares_present_when_votes_were_cast(self, submissions, small_params, width):
        """One opening row: per option a value pair and a randomness pair."""
        for submission in submissions.values():
            assert len(submission.tally_share) == 4 * small_params.num_options * width

    def test_digest_changes_with_content(self, submissions):
        submission = next(iter(submissions.values()))
        changed = replace(submission, challenge=submission.challenge + 1)
        assert changed.digest() != submission.digest()

    def test_digest_detects_scalars_moved_across_block_boundaries(
        self, submissions, width, fresh_bb
    ):
        """Every block is length-prefixed: moving one scalar from the end of
        one block to the start of the next (the same bytes in the same order)
        must change the digest, or a signature could be replayed over a
        structurally different submission.  The BB refuses the moved
        submission under the old signature."""
        submission = next(iter(submissions.values()))
        first, second = sorted(submission.opening_shares)[:2]
        opened = submission.opening_shares
        last_proved = max(submission.proof_shares)
        proved = submission.proof_shares[last_proved]
        assert submission.tally_share  # fixture casts votes, so a tally block exists
        moves = {
            "between two opening blocks": replace(submission, opening_shares={
                **opened,
                first: opened[first][:-width],
                second: opened[first][-width:] + opened[second],
            }),
            "from the last proof block into the tally block": replace(
                submission,
                proof_shares={**submission.proof_shares, last_proved: proved[:-width]},
                tally_share=proved[-width:] + submission.tally_share,
            ),
        }
        for name, moved in moves.items():
            assert moved.digest() != submission.digest(), name
            assert moved.signature == submission.signature
            bb = fresh_bb("BB-moved")
            bb.receive_trustee_submission(moved)
            assert bb.trustee_submissions == {}, name
        moved_back = replace(
            moves["between two opening blocks"], opening_shares=dict(opened)
        )
        assert moved_back.digest() == submission.digest()

    def test_nothing_submitted_twice_is_harmless(self, small_outcome, submissions):
        """Feeding a duplicate submission does not change the published result."""
        bb = small_outcome.bb_nodes[0]
        tally_before = bb.result.tally
        bb.receive_trustee_submission(next(iter(submissions.values())))
        assert bb.result.tally == tally_before


class TestInvalidBallotHandling:
    def test_double_voted_ballot_is_discarded(self, small_outcome, small_params, group):
        """A vote set listing two codes for one ballot makes the trustee discard it."""
        bb = small_outcome.bb_nodes[0]
        serial, code = bb.accepted_vote_set[0]
        decrypted = bb.decrypted_vote_codes
        other_code = next(
            c for c in decrypted[serial]["A"] + decrypted[serial]["B"] if c != code
        )
        tampered_view = BbElectionView(
            vote_set=bb.accepted_vote_set + ((serial, other_code),),
            decrypted_vote_codes=decrypted,
        )
        trustee = small_outcome.trustees[0]
        submission = trustee.produce_submission(tampered_view)
        assert serial in submission.discarded

    def test_unknown_code_is_discarded(self, small_outcome):
        bb = small_outcome.bb_nodes[0]
        serial = next(iter(small_outcome.setup.bb_init.ballots))
        tampered_view = BbElectionView(
            vote_set=((serial, b"\x00" * 20),),
            decrypted_vote_codes=bb.decrypted_vote_codes,
        )
        submission = small_outcome.trustees[0].produce_submission(tampered_view)
        assert serial in submission.discarded
        assert submission.tally_share == b""


class TestThresholdBehaviour:
    def test_result_available_with_exactly_threshold_trustees(
        self, small_outcome, small_params, fresh_bb, submissions
    ):
        bb = fresh_bb("BB-fresh")
        threshold = small_params.thresholds.trustee_threshold
        for submission in list(submissions.values())[:threshold]:
            bb.receive_trustee_submission(submission)
        assert bb.result is not None
        assert bb.result.tally.as_dict() == small_outcome.expected_tally().as_dict()

    def test_no_result_below_threshold(self, small_params, fresh_bb, submissions):
        bb = fresh_bb("BB-fresh2")
        threshold = small_params.thresholds.trustee_threshold
        for submission in list(submissions.values())[: threshold - 1]:
            bb.receive_trustee_submission(submission)
        assert bb.result is None

    def test_unsigned_submission_rejected(self, fresh_bb, submissions):
        bb = fresh_bb("BB-fresh3")
        submission = next(iter(submissions.values()))
        bb.receive_trustee_submission(replace(submission, signature=None))
        assert bb.trustee_submissions == {}
        bb.receive_trustee_submission(submission)
        assert list(bb.trustee_submissions) == [submission.trustee_id]

    def test_nothing_is_kept_before_the_vote_set_is_agreed(
        self, small_outcome, small_params, group, submissions
    ):
        """What must be opened and proved follows from the node's own agreed
        vote set; until it has one (and the decrypted codes) it keeps no
        submission, and raises on none."""
        bb = BulletinBoardNode("BB-early", small_outcome.setup.bb_init, small_params, group)
        for submission in submissions.values():
            bb.receive_trustee_submission(submission)
        assert bb.trustee_submissions == {} and bb.result is None
        # ... nor one shaped for "nothing was cast": every part opened, no
        # tally.  Stored, it would sit among the first ``ht`` once the vote
        # set arrives, without the proof blocks the result then needs.
        honest = submissions["T-0"]
        view = small_outcome.trustees[0].init.ballots
        everything = replace(
            honest,
            opening_shares={
                (serial, part): block
                for serial, ballot in view.items() for part, block in ballot.opening.items()
            },
            proof_shares={},
            tally_share=b"",
        )
        keys = small_outcome.trustees[0].init.signing_keys
        everything = everything.signed(bb.signature_scheme.sign(keys, everything.digest()))
        bb.receive_trustee_submission(everything)
        assert bb.trustee_submissions == {} and bb.result is None


#: ``TrusteeSubmission.digest()`` of the three trustees of the shared seeded
#: election (``small_spec``, seed 5).  Re-pinned when the submission became
#: packed scalar blocks: the signed bytes are a different, still injective,
#: encoding of the same shares (one length-prefixed block per ballot part where
#: there was one encoded ``Share`` / ``PedersenShare`` per scalar), so the values
#: pinned at 868e6e2 (92e12a8e..., 94f3c395..., cb50796c...) could not be kept.
#: The shares themselves are pinned by ``PUBLISHED_RESULT`` below.
GOLDEN_DIGESTS = {
    "T-0": "7d42e2940fc46b5d0e7f4fb7b197d16240cd025842bd521a544adc1433f43753",
    "T-1": "5a555e96d270ee0948d6e69c356e05bf3a221b9d789c7be94cda4bd0efc2ad0e",
    "T-2": "897b061f370a8b9e30bec34d385d062594d9e98679b2e25c65b660a1de1226a9",
}

#: SHA-256 of ``repr`` of what every BB node of that election publishes
#: (sorted openings, sorted proof responses, tally opening, challenge, tally),
#: captured at 1b95dde -- the commit before the blocks.
PUBLISHED_RESULT = "3f20d966fbe08042269762c067d3c885f8200261d0df2941c02b395283b72016"


def altered(block, width):
    """The same block with another first scalar."""
    bumped = int.from_bytes(block[:width], "big") + 1
    return bumped.to_bytes(width, "big") + block[width:]


def covered_field_changes(submission, width):
    """One ``replace`` per field the digest covers, each a different content."""
    opened_key, opened = next(iter(submission.opening_shares.items()))
    proved_key, proved = next(iter(submission.proof_shares.items()))
    return {
        "trustee_id": "T-1" if submission.trustee_id != "T-1" else "T-2",
        "challenge": submission.challenge + 1,
        "opening_shares": {**submission.opening_shares, opened_key: altered(opened, width)},
        "proof_shares": {**submission.proof_shares, proved_key: altered(proved, width)},
        "tally_share": altered(submission.tally_share, width),
        "discarded": (7,),
    }


class TestSubmissionIsAnImmutableValue:
    """Red at the parent, where a submission was a plain mutable dataclass
    that re-encoded itself on every ``digest()`` call."""

    @pytest.fixture()
    def submission(self, submissions):
        return submissions["T-0"]

    @pytest.fixture()
    def encodings(self, monkeypatch):
        """Counts the calls of ``signing_bytes``: one per run of the digest body."""
        import repro.net.codec as codec

        calls = []
        original = codec.signing_bytes

        def counting(domain, *parts):
            calls.append(domain)
            return original(domain, *parts)

        monkeypatch.setattr(codec, "signing_bytes", counting)
        return calls

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TrusteeSubmission)])
    def test_no_field_can_be_assigned(self, submission, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(submission, field, getattr(submission, field))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(submission, field)

    def test_no_nested_mapping_can_be_mutated(self, submission):
        for mapping in (submission.opening_shares, submission.proof_shares):
            key = next(iter(mapping))
            with pytest.raises(TypeError):
                mapping[key] = b""
            with pytest.raises(TypeError):
                del mapping[key]
            with pytest.raises((TypeError, AttributeError)):
                mapping.clear()
            assert type(mapping[key]) is bytes  # nothing below the map can change either
        assert type(submission.tally_share) is bytes
        assert isinstance(submission.discarded, tuple)

    def test_the_maps_are_private_copies(self):
        proofs = {(1, "A"): b"\x05"}
        openings = {}
        discarded = [4]
        built = TrusteeSubmission("T-0", 3, openings, proofs, b"\x02\x03", discarded)
        before = built.digest()
        proofs[(1, "A")] = b"\x06"
        proofs[(2, "A")] = b"\x05"
        openings[(1, "B")] = b""
        discarded.append(5)
        assert dict(built.proof_shares) == {(1, "A"): b"\x05"}
        assert dict(built.opening_shares) == {}
        assert built.tally_share == b"\x02\x03"
        assert built.discarded == (4,)
        assert replace(built).digest() == before

    def test_digest_equals_the_pinned_one(self, submissions):
        assert {tid: s.digest().hex() for tid, s in submissions.items()} == GOLDEN_DIGESTS
        # ... and so does a fresh encoding of the same content.
        assert {
            tid: replace(s).digest().hex() for tid, s in submissions.items()
        } == GOLDEN_DIGESTS

    def test_published_result_equals_the_parents(self, small_outcome):
        """The blocks carry the parent's shares: every BB node reconstructs
        and publishes the parent's openings, proof responses and tally
        opening, value for value."""
        for bb in small_outcome.bb_nodes:
            result = bb.result
            text = repr((
                sorted(result.openings.items()),
                sorted(result.proof_responses.items()),
                result.tally_opening,
                result.challenge,
                result.tally,
            ))
            assert hashlib.sha256(text.encode()).hexdigest() == PUBLISHED_RESULT

    def test_digest_body_runs_once_per_object(self, submission, encodings):
        fresh = replace(submission)
        assert encodings == []
        digests = {fresh.digest() for _ in range(4)}
        assert encodings == [b"trustee-submission"]
        assert digests == {submission.digest()}

    def test_a_trustee_encodes_its_submission_once(self, small_outcome, bb_view, encodings,
                                                   fresh_bb):
        """Sign once; every BB node that verifies asks for the digest itself
        and gets the stored one."""
        readers = [fresh_bb(f"BB-reader-{index}") for index in range(3)]
        del encodings[:]  # the msk shares the readers checked
        produced = small_outcome.trustees[0].produce_submission(bb_view)
        assert encodings == [b"trustee-submission"]
        for bb in readers:
            bb.receive_trustee_submission(produced)
            assert list(bb.trustee_submissions) == [produced.trustee_id]
        assert encodings == [b"trustee-submission"]

    def test_attaching_a_signature_keeps_the_digest_and_the_memo(self, submission, encodings):
        other_signature = replace(
            submission.signature, response=submission.signature.response + 1
        )
        resigned = submission.signed(other_signature)
        assert resigned.signature == other_signature and resigned is not submission
        assert resigned.digest() == submission.digest()
        assert encodings == []  # carried over, not re-encoded
        # Without a stored digest there is nothing to carry, and nothing is encoded early.
        unsigned = replace(submission, signature=None)
        late = unsigned.signed(other_signature)
        assert encodings == []
        assert late.digest() == unsigned.digest() == submission.digest()

    def test_replacing_any_covered_field_drops_the_memo_and_the_signature_with_it(
        self, submission, width, fresh_bb
    ):
        changes = covered_field_changes(submission, width)
        covered = {f.name for f in dataclasses.fields(TrusteeSubmission)} - {"signature"}
        assert set(changes) == covered
        for field, value in changes.items():
            changed = replace(submission, **{field: value})
            assert changed.digest() != submission.digest(), field
            assert changed.signature == submission.signature
            bb = fresh_bb("BB-memo")
            # Every change keeps the shape: it is the signature that refuses it.
            assert bb._well_formed(changed), field
            bb.receive_trustee_submission(changed)
            assert bb.trustee_submissions == {}, field
        bb.receive_trustee_submission(submission)
        assert list(bb.trustee_submissions) == [submission.trustee_id]
