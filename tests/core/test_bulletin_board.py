"""Tests for Bulletin Board nodes and the majority reader."""

from dataclasses import replace

import pytest

from repro.core.ballot import PART_A
from repro.core.bulletin_board import BulletinBoardNode, MajorityReader
from repro.core.byzantine import WithholdingBulletinBoard
from repro.core.ea import ElectionAuthority
from repro.core.election import ElectionParameters
from repro.crypto.registry import get_group
from repro.crypto.utils import RandomSource


@pytest.fixture()
def fresh_bb(small_setup, small_params, group):
    """A BB node not yet fed by the VC subsystem."""
    return BulletinBoardNode("BB-test", small_setup.bb_init, small_params, group)


class TestVoteSetAcceptance:
    def test_vote_set_needs_fv_plus_one_identical_copies(self, fresh_bb, small_outcome):
        vote_set = small_outcome.vote_collectors[0].final_vote_set
        fresh_bb.receive_vote_set("VC-0", vote_set)
        assert fresh_bb.accepted_vote_set is None
        fresh_bb.receive_vote_set("VC-1", vote_set)
        assert fresh_bb.accepted_vote_set == vote_set

    def test_divergent_submissions_do_not_reach_quorum(self, fresh_bb, small_outcome):
        vote_set = small_outcome.vote_collectors[0].final_vote_set
        fresh_bb.receive_vote_set("VC-0", vote_set)
        fresh_bb.receive_vote_set("VC-1", vote_set[:1])
        assert fresh_bb.accepted_vote_set is None

    def test_unknown_vc_node_ignored(self, fresh_bb, small_outcome):
        vote_set = small_outcome.vote_collectors[0].final_vote_set
        fresh_bb.receive_vote_set("VC-999", vote_set)
        fresh_bb.receive_vote_set("intruder", vote_set)
        assert fresh_bb.accepted_vote_set is None

    def test_first_quorum_wins_and_sticks(self, fresh_bb, small_outcome):
        vote_set = small_outcome.vote_collectors[0].final_vote_set
        for node in ("VC-0", "VC-1"):
            fresh_bb.receive_vote_set(node, vote_set)
        fresh_bb.receive_vote_set("VC-2", vote_set[:1])
        fresh_bb.receive_vote_set("VC-3", vote_set[:1])
        assert fresh_bb.accepted_vote_set == vote_set


class TestMskReconstruction:
    def test_msk_needs_quorum_of_shares(self, fresh_bb, small_setup, small_params):
        inits = list(small_setup.vc_init.values())
        quorum = small_params.thresholds.vc_honest_quorum
        for init in inits[: quorum - 1]:
            fresh_bb.receive_msk_share(init.node_id, init.msk_share)
        assert fresh_bb.msk is None
        fresh_bb.receive_msk_share(inits[quorum - 1].node_id, inits[quorum - 1].msk_share)
        assert fresh_bb.msk is not None
        assert small_setup.bb_init.key_commitment.matches(fresh_bb.msk)

    def test_decrypted_codes_published_after_reconstruction(self, fresh_bb, small_setup):
        for init in small_setup.vc_init.values():
            fresh_bb.receive_msk_share(init.node_id, init.msk_share)
        ballot = small_setup.ballots[0]
        decrypted = fresh_bb.decrypted_vote_codes[ballot.serial]
        published = {code for codes in decrypted.values() for code in codes}
        assert published == set(ballot.all_vote_codes())

    def test_corrupted_share_rejected_by_signature_check(self, fresh_bb, small_setup):
        from repro.crypto.shamir import Share, SignedShare

        init = next(iter(small_setup.vc_init.values()))
        genuine = init.msk_share
        corrupted = SignedShare(
            Share(genuine.share.index, genuine.share.value + 1),
            genuine.context,
            genuine.signature,
        )
        fresh_bb.receive_msk_share(init.node_id, corrupted)
        assert fresh_bb.msk_shares == {}


class TestPublishedResult:
    def test_result_published_after_trustee_threshold(self, small_outcome):
        for bb in small_outcome.bb_nodes:
            assert bb.result is not None
            assert bb.result.tally is not None

    def test_published_tally_matches_expected(self, small_outcome):
        expected = small_outcome.expected_tally().as_dict()
        for bb in small_outcome.bb_nodes:
            assert bb.result.tally.as_dict() == expected

    def test_cast_row_locations_match_vote_set(self, small_outcome):
        bb = small_outcome.bb_nodes[0]
        locations = bb.cast_row_locations()
        assert set(locations) == {serial for serial, _ in bb.accepted_vote_set}

    def test_published_proofs_verify(self, small_outcome):
        assert small_outcome.bb_nodes[0].verify_proofs()

    def test_used_parts_get_proofs_and_unused_parts_get_openings(self, small_outcome):
        bb = small_outcome.bb_nodes[0]
        locations = bb.cast_row_locations()
        for serial, (part, _) in locations.items():
            assert (serial, part) in bb.result.proof_responses
            other = "B" if part == "A" else "A"
            assert (serial, other) in bb.result.openings
            assert (serial, part) not in bb.result.openings

    def test_snapshot_contains_tally(self, small_outcome):
        snapshot = small_outcome.bb_nodes[0].snapshot()
        assert snapshot["tally"] is not None
        assert snapshot["msk_reconstructed"] is True


class TestMajorityReader:
    def test_reader_returns_majority_value(self, small_outcome, small_params):
        reader = MajorityReader(small_outcome.bb_nodes, small_params)
        tally = reader.tally()
        assert tally.as_dict() == small_outcome.expected_tally().as_dict()

    def test_reader_tolerates_withholding_minority(self, small_outcome, small_params, group):
        lying = WithholdingBulletinBoard(
            "BB-evil", small_outcome.setup.bb_init, small_params, group
        )
        nodes = list(small_outcome.bb_nodes[:2]) + [lying]
        reader = MajorityReader(nodes, small_params)
        view = reader.read(lambda node: node.snapshot()["vote_set"])
        assert view == small_outcome.bb_nodes[0].accepted_vote_set

    def test_reader_raises_without_majority(self, small_outcome, small_params, group):
        lying = [
            WithholdingBulletinBoard(f"BB-evil-{i}", small_outcome.setup.bb_init,
                                     small_params, group)
            for i in range(2)
        ]
        reader = MajorityReader([small_outcome.bb_nodes[0]] + lying, small_params)
        # The two withholding nodes have no result at all; only one (honest)
        # answer exists, which is below the fb + 1 = 2 majority requirement.
        with pytest.raises(ValueError):
            reader.read(lambda node: node.result.tally)

    def test_election_view_exposes_vote_set_and_codes(self, small_outcome, small_params):
        reader = MajorityReader(small_outcome.bb_nodes, small_params)
        view = reader.election_view()
        assert view.vote_set == small_outcome.bb_nodes[0].accepted_vote_set
        assert set(view.decrypted_vote_codes) == set(small_outcome.setup.bb_init.ballots)


def _alter_last_byte(point):
    """Another valid ed25519 point whose 32-byte encoding differs only in the
    last byte (the sign bit of x), far past anything a printed form shows."""
    encoded = bytearray(point.serialize())
    encoded[-1] ^= 0x80
    return point.group.deserialize(bytes(encoded))


class TestMajorityReaderComparesByEquality:
    """A Byzantine BB node that is first in node order alters one point of its
    reply; the reader must not count it with the honest replies."""

    @pytest.fixture(scope="class")
    def election(self):
        group = get_group("ed25519")
        params = ElectionParameters.small_test_election(num_voters=1, num_options=2)
        setup = ElectionAuthority(params, group=group, rng=RandomSource(4)).setup()
        return group, params, setup.bb_init

    @pytest.fixture(scope="class")
    def forged_init(self, election):
        _, _, init = election
        serial, view = next(iter(init.ballots.items()))
        row = view.rows[PART_A][0]
        first = row.commitment.ciphertexts[0]
        forged_commitment = replace(
            row.commitment,
            ciphertexts=(replace(first, a=_alter_last_byte(first.a)),)
            + row.commitment.ciphertexts[1:],
        )
        forged_rows = (replace(row, commitment=forged_commitment),) + view.rows[PART_A][1:]
        forged_view = replace(view, rows={**view.rows, PART_A: forged_rows})
        return replace(
            init,
            commitment_public_key=_alter_last_byte(init.commitment_public_key),
            ballots={**init.ballots, serial: forged_view},
        )

    def test_first_node_lying_past_the_printed_prefix_is_outvoted(self, election, forged_init):
        group, params, init = election
        nodes = [BulletinBoardNode("BB-evil", forged_init, params, group)] + [
            BulletinBoardNode(f"BB-{i}", init, params, group) for i in range(2)
        ]
        reader = MajorityReader(nodes, params)
        key = reader.read(lambda node: node.init.commitment_public_key)
        assert key.serialize() == init.commitment_public_key.serialize()
        ballots = reader.read(lambda node: node.init.ballots)
        assert ballots == init.ballots and ballots != forged_init.ballots

    def test_three_different_replies_still_raise(self, election, forged_init):
        group, params, init = election
        third = replace(
            init, commitment_public_key=init.commitment_public_key * group.generator()
        )
        nodes = [
            BulletinBoardNode(f"BB-{i}", data, params, group)
            for i, data in enumerate((forged_init, init, third))
        ]
        with pytest.raises(ValueError):
            MajorityReader(nodes, params).read(lambda node: node.init.commitment_public_key)
