"""Tests for ballot data structures and per-subsystem views."""

import pytest

from repro.core.ballot import PART_A, PART_B, Ballot, BallotLine, BallotPart


@pytest.fixture()
def ballot():
    def make_part(name, offset):
        lines = tuple(
            BallotLine(
                vote_code=bytes([offset + i]) * 20,
                option=f"option-{i + 1}",
                receipt=bytes([100 + offset + i]) * 8,
            )
            for i in range(3)
        )
        return BallotPart(name, lines)

    return Ballot(1234, make_part(PART_A, 0), make_part(PART_B, 10))


class TestBallotStructure:
    def test_part_lookup(self, ballot):
        assert ballot.part(PART_A).name == PART_A
        assert ballot.part(PART_B).name == PART_B

    def test_unknown_part_raises(self, ballot):
        with pytest.raises(KeyError):
            ballot.part("C")

    def test_line_for_option(self, ballot):
        line = ballot.part_a.line_for_option("option-2")
        assert line.option == "option-2"

    def test_unknown_option_raises(self, ballot):
        with pytest.raises(KeyError):
            ballot.part_a.line_for_option("option-9")

    def test_vote_code_for_option(self, ballot):
        assert ballot.part_b.vote_code_for_option("option-1") == bytes([10]) * 20

    def test_receipt_for_vote_code(self, ballot):
        code = ballot.part_a.vote_code_for_option("option-3")
        assert ballot.part_a.receipt_for_vote_code(code) == bytes([102]) * 8

    def test_receipt_for_unknown_code_is_none(self, ballot):
        assert ballot.part_a.receipt_for_vote_code(b"\xff" * 20) is None

    def test_all_vote_codes(self, ballot):
        codes = ballot.all_vote_codes()
        assert len(codes) == 6
        assert len(set(codes)) == 6

    def test_locate_vote_code(self, ballot):
        code = ballot.part_b.vote_code_for_option("option-2")
        assert ballot.locate_vote_code(code) == (PART_B, 1)

    def test_locate_unknown_code(self, ballot):
        assert ballot.locate_vote_code(b"\x00" * 19 + b"\xff") is None


class TestSetupViews:
    """The per-subsystem views produced by the EA for the shared setup."""

    def test_vc_view_locates_every_vote_code(self, small_setup):
        node = next(iter(small_setup.vc_init.values()))
        for ballot in small_setup.ballots:
            view = node.ballots[ballot.serial]
            for part in ballot.parts:
                for line in part.lines:
                    location = view.find_vote_code(line.vote_code)
                    assert location is not None
                    assert location[0] == part.name

    def test_vc_view_rejects_unknown_code(self, small_setup):
        node = next(iter(small_setup.vc_init.values()))
        view = next(iter(node.ballots.values()))
        assert view.find_vote_code(b"\x00" * 20) is None

    def test_shuffle_maps_view_rows_to_ballot_lines(self, small_setup):
        """Row j of a view corresponds to ballot line permutation[j]."""
        node = next(iter(small_setup.vc_init.values()))
        ballot = small_setup.ballots[0]
        view = node.ballots[ballot.serial]
        for part in ballot.parts:
            permutation = small_setup.permutations[(ballot.serial, part.name)]
            for row_index, source_index in enumerate(permutation):
                line = part.lines[source_index]
                assert view.rows[part.name][row_index].code_commitment.matches(line.vote_code)

    def test_bb_view_has_same_shuffle_as_vc_view(self, small_setup):
        """The encrypted code in BB row j must be the code hashed in VC row j."""
        from repro.crypto.symmetric import VoteCodeCipher

        # Reconstruct msk from the VC shares (test-only shortcut).
        from repro.crypto.shamir import ShamirSecretSharing
        from repro.crypto.utils import int_to_bytes

        thresholds = small_setup.params.thresholds
        shares = [init.msk_share for init in small_setup.vc_init.values()]
        msk = int_to_bytes(
            ShamirSecretSharing(thresholds.vc_honest_quorum, thresholds.num_vc).reconstruct(shares),
            16,
        )
        cipher = VoteCodeCipher(msk)
        vc_view = next(iter(small_setup.vc_init.values())).ballots
        for serial, bb_ballot in small_setup.bb_init.ballots.items():
            for part_name, rows in bb_ballot.rows.items():
                for row_index, row in enumerate(rows):
                    code = cipher.decrypt(row.encrypted_vote_code)
                    assert vc_view[serial].rows[part_name][row_index].code_commitment.matches(code)
