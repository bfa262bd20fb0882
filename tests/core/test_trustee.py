"""Tests for the trustee tabulation protocol."""

import dataclasses
from dataclasses import replace

import pytest

from repro.core.bulletin_board import BulletinBoardNode, MajorityReader
from repro.core.trustee import BbElectionView, RowProofShares, TrusteeSubmission
from repro.crypto.pedersen_vss import PedersenShare
from repro.crypto.shamir import Share


@pytest.fixture(scope="module")
def bb_view(small_outcome, small_params):
    return MajorityReader(small_outcome.bb_nodes, small_params).election_view()


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

    def test_tally_shares_present_when_votes_were_cast(self, submissions, small_params):
        for submission in submissions.values():
            assert len(submission.tally_value_shares) == small_params.num_options
            assert len(submission.tally_randomness_shares) == small_params.num_options

    def test_digest_changes_with_content(self, submissions):
        submission = next(iter(submissions.values()))
        changed = replace(submission, challenge=submission.challenge + 1)
        assert changed.digest() != submission.digest()

    def test_digest_detects_shares_moved_across_sequence_boundaries(self, submissions):
        """The flattened share lists are length-prefixed: moving a share from
        the value sequence to the randomness sequence (same flattened order)
        must change the digest, or a signature could be replayed over a
        structurally different submission."""
        submission = next(iter(submissions.values()))
        values, randomness = submission.tally_value_shares, submission.tally_randomness_shares
        assert values  # fixture casts votes, so tally shares exist
        moved = replace(
            submission,
            tally_value_shares=values[:-1],
            tally_randomness_shares=(values[-1],) + randomness,
        )
        assert moved.digest() != submission.digest()
        moved_back = replace(
            moved, tally_value_shares=values, tally_randomness_shares=randomness
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
        assert submission.tally_value_shares == ()


class TestThresholdBehaviour:
    def test_result_available_with_exactly_threshold_trustees(
        self, small_outcome, small_params, group, submissions
    ):
        bb = BulletinBoardNode("BB-fresh", small_outcome.setup.bb_init, small_params, group)
        for vc in small_outcome.vote_collectors:
            bb.receive_vote_set(vc.node_id, vc.final_vote_set)
            bb.receive_msk_share(vc.node_id, vc.init.msk_share)
        threshold = small_params.thresholds.trustee_threshold
        for submission in list(submissions.values())[:threshold]:
            bb.receive_trustee_submission(submission)
        assert bb.result is not None
        assert bb.result.tally.as_dict() == small_outcome.expected_tally().as_dict()

    def test_no_result_below_threshold(self, small_outcome, small_params, group, submissions):
        bb = BulletinBoardNode("BB-fresh2", small_outcome.setup.bb_init, small_params, group)
        for vc in small_outcome.vote_collectors:
            bb.receive_vote_set(vc.node_id, vc.final_vote_set)
            bb.receive_msk_share(vc.node_id, vc.init.msk_share)
        threshold = small_params.thresholds.trustee_threshold
        for submission in list(submissions.values())[: threshold - 1]:
            bb.receive_trustee_submission(submission)
        assert bb.result is None

    def test_unsigned_submission_rejected(self, small_outcome, small_params, group, submissions):
        bb = BulletinBoardNode("BB-fresh3", small_outcome.setup.bb_init, small_params, group)
        submission = next(iter(submissions.values()))
        bb.receive_trustee_submission(replace(submission, signature=None))
        assert bb.trustee_submissions == {}
        bb.receive_trustee_submission(submission)
        assert list(bb.trustee_submissions) == [submission.trustee_id]


#: ``TrusteeSubmission.digest()`` of the three trustees of the shared seeded
#: election (``small_spec``, seed 5), captured at 868e6e2 -- the commit before
#: the submission became a frozen value that encodes itself once.
GOLDEN_DIGESTS = {
    "T-0": "92e12a8edc3537e63d66222070eb525463abf85aa1f1072f320643694f5c262d",
    "T-1": "94f3c395adff8ea21197133c72a198134bbcf1256e9f8c5990cd889a80154d7c",
    "T-2": "cb50796c82bf59d4854d8569ffbe89b6b3434540c75e17dca2fb37861573b2f5",
}


def altered(share):
    """The same share with another value."""
    return replace(share, value=share.value + 1)


def covered_field_changes(submission):
    """One ``replace`` per field the digest covers, each a different content."""
    opened_key, opened_rows = next(iter(submission.opening_shares.items()))
    first_row = opened_rows[0]
    proved_key, proved_rows = next(iter(submission.proof_shares.items()))
    name, share = next(iter(proved_rows[0].component_shares.items()))
    return {
        "trustee_id": "T-1" if submission.trustee_id != "T-1" else "T-2",
        "challenge": submission.challenge + 1,
        "opening_shares": {
            **submission.opening_shares,
            opened_key: (
                replace(
                    first_row,
                    value_shares=(altered(first_row.value_shares[0]), *first_row.value_shares[1:]),
                ),
                *opened_rows[1:],
            ),
        },
        "proof_shares": {
            **submission.proof_shares,
            proved_key: (
                RowProofShares({**proved_rows[0].component_shares, name: altered(share)}),
                *proved_rows[1:],
            ),
        },
        "tally_value_shares": (
            altered(submission.tally_value_shares[0]), *submission.tally_value_shares[1:]
        ),
        "tally_randomness_shares": (
            altered(submission.tally_randomness_shares[0]),
            *submission.tally_randomness_shares[1:],
        ),
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
                mapping[key] = ()
            with pytest.raises(TypeError):
                del mapping[key]
            with pytest.raises((TypeError, AttributeError)):
                mapping.clear()
            assert isinstance(mapping[key], tuple)
        row = next(iter(submission.proof_shares.values()))[0]
        with pytest.raises(TypeError):
            row.component_shares["or0:c0"] = Share(1, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.component_shares = {}
        opened = next(iter(submission.opening_shares.values()))[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            opened.value_shares = ()
        assert isinstance(opened.value_shares, tuple)
        assert isinstance(opened.randomness_shares, tuple)

    def test_the_maps_are_private_copies(self):
        components = {"sum:s": Share(1, 5)}
        row = RowProofShares(components)
        proofs = {(1, "A"): [row]}
        openings = {}
        built = TrusteeSubmission("T-0", 3, openings, proofs, [PedersenShare(1, 2, 3)])
        before = built.digest()
        components["sum:s"] = Share(1, 6)
        proofs[(1, "A")].append(row)
        proofs[(2, "A")] = (row,)
        openings[(1, "B")] = ()
        assert dict(row.component_shares) == {"sum:s": Share(1, 5)}
        assert dict(built.proof_shares) == {(1, "A"): (row,)}
        assert dict(built.opening_shares) == {}
        assert built.tally_value_shares == (PedersenShare(1, 2, 3),)
        assert replace(built).digest() == before

    def test_digest_equals_the_parents(self, submissions):
        assert {tid: s.digest().hex() for tid, s in submissions.items()} == GOLDEN_DIGESTS
        # ... and so does a fresh encoding of the same content.
        assert {
            tid: replace(s).digest().hex() for tid, s in submissions.items()
        } == GOLDEN_DIGESTS

    def test_digest_body_runs_once_per_object(self, submission, encodings):
        fresh = replace(submission)
        assert encodings == []
        digests = {fresh.digest() for _ in range(4)}
        assert encodings == [b"trustee-submission"]
        assert digests == {submission.digest()}

    def test_a_trustee_encodes_its_submission_once(self, small_outcome, bb_view, encodings,
                                                   small_params, group):
        """Sign once; every BB node that verifies asks for the digest itself
        and gets the stored one."""
        produced = small_outcome.trustees[0].produce_submission(bb_view)
        assert encodings == [b"trustee-submission"]
        for index in range(3):
            bb = BulletinBoardNode(
                f"BB-reader-{index}", small_outcome.setup.bb_init, small_params, group
            )
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
        self, submission, small_outcome, small_params, group
    ):
        changes = covered_field_changes(submission)
        covered = {f.name for f in dataclasses.fields(TrusteeSubmission)} - {"signature"}
        assert set(changes) == covered
        for field, value in changes.items():
            changed = replace(submission, **{field: value})
            assert changed.digest() != submission.digest(), field
            assert changed.signature == submission.signature
            bb = BulletinBoardNode("BB-memo", small_outcome.setup.bb_init, small_params, group)
            bb.receive_trustee_submission(changed)
            assert bb.trustee_submissions == {}, field
        bb.receive_trustee_submission(submission)
        assert list(bb.trustee_submissions) == [submission.trustee_id]
