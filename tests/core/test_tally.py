"""Tests for tally helpers and the voter-coin challenge."""

import pytest

from repro.core.ballot import PART_A, PART_B
from repro.core.tally import (
    TallyResult,
    expected_tally,
    open_tally,
    part_coin,
    voter_coin_challenge,
)
from repro.crypto.commitments import CommitmentOpening, OptionEncodingScheme


@pytest.fixture(scope="module")
def scheme(group, elgamal_keys):
    return OptionEncodingScheme(3, elgamal_keys.public, group)


class TestTallyResult:
    def test_as_dict(self):
        result = TallyResult((3, 1), ("yes", "no"), 4)
        assert result.as_dict() == {"yes": 3, "no": 1}

    def test_winner(self):
        assert TallyResult((3, 1), ("yes", "no"), 4).winner() == "yes"
        assert TallyResult((1, 5, 2), ("a", "b", "c"), 8).winner() == "b"

    def test_winner_tie_prefers_first(self):
        assert TallyResult((2, 2), ("a", "b"), 4).winner() == "a"

    def test_expected_tally_helper(self):
        result = expected_tally(["a", "b"], ["a", "a", "b"])
        assert result.counts == (2, 1)
        assert result.total_votes == 3


class TestVoterCoins:
    def test_part_coins(self):
        assert part_coin(PART_A) == 0
        assert part_coin(PART_B) == 1

    def test_unknown_part_raises(self):
        with pytest.raises(ValueError):
            part_coin("C")

    def test_challenge_depends_on_cast_parts(self, group):
        a = voter_coin_challenge(group, {1: PART_A, 2: PART_B})
        b = voter_coin_challenge(group, {1: PART_B, 2: PART_B})
        assert a != b

    def test_challenge_is_order_independent(self, group):
        """Ballots are ordered by serial, not by dict insertion order."""
        a = voter_coin_challenge(group, {2: PART_B, 1: PART_A})
        b = voter_coin_challenge(group, {1: PART_A, 2: PART_B})
        assert a == b

    def test_challenge_with_no_votes_is_defined(self, group):
        assert isinstance(voter_coin_challenge(group, {}), int)


class TestHomomorphicOpening:
    def test_open_tally_counts_votes(self, scheme):
        votes = [0, 0, 2, 1, 0]
        commitments, openings = zip(*(scheme.commit_option(v) for v in votes), strict=True)
        combined = scheme.combine(commitments)
        opening = scheme.combine_openings(list(openings))
        result = open_tally(scheme, combined, opening, ["a", "b", "c"])
        assert result.counts == (3, 1, 1)
        assert result.total_votes == 5

    def test_open_tally_rejects_bad_opening(self, scheme):
        commitments, openings = zip(*(scheme.commit_option(v) for v in (0, 1)), strict=True)
        combined = scheme.combine(commitments)
        bad_opening = openings[0]
        with pytest.raises(ValueError):
            open_tally(scheme, combined, bad_opening, ["a", "b", "c"])

    def test_open_tally_rejects_truncated_randomness(self, scheme):
        """Every coordinate is checked: a short randomness vector is no opening."""
        commitments, openings = zip(*(scheme.commit_option(v) for v in (0, 1)), strict=True)
        opening = scheme.combine_openings(list(openings))
        truncated = CommitmentOpening(opening.values, opening.randomness[:1])
        with pytest.raises(ValueError):
            open_tally(scheme, scheme.combine(commitments), truncated, ["a", "b", "c"])

    def test_open_tally_of_single_vote(self, scheme):
        commitment, opening = scheme.commit_option(2)
        combined = scheme.combine([commitment])
        result = open_tally(scheme, combined, opening, ["a", "b", "c"])
        assert result.counts == (0, 0, 1)
