"""Tests for option-encoding commitments."""

import pytest

from repro.crypto.commitments import OptionEncodingScheme
from repro.crypto.elgamal import LiftedElGamal
from repro.crypto.utils import RandomSource


@pytest.fixture(scope="module")
def scheme(group, elgamal_keys):
    return OptionEncodingScheme(3, elgamal_keys.public, group)


class TestUnitVectors:
    def test_unit_vector_encoding(self, scheme):
        assert scheme.unit_vector(0) == [1, 0, 0]
        assert scheme.unit_vector(2) == [0, 0, 1]

    def test_unit_vector_out_of_range(self, scheme):
        with pytest.raises(ValueError):
            scheme.unit_vector(3)

    def test_scheme_requires_at_least_one_option(self, group, elgamal_keys):
        with pytest.raises(ValueError):
            OptionEncodingScheme(0, elgamal_keys.public, group)


class TestCommitOpen:
    def test_commit_option_opens_correctly(self, scheme, elgamal_keys):
        commitment, opening = scheme.commit_option(elgamal_keys, 1)
        assert scheme.verify_opening(commitment, opening)

    def test_opening_is_unit_vector(self, scheme, elgamal_keys):
        _, opening = scheme.commit_option(elgamal_keys, 2)
        assert scheme.is_valid_option_encoding(opening)
        assert opening.values == (0, 0, 1)

    def test_wrong_opening_rejected(self, scheme, elgamal_keys):
        commitment, _ = scheme.commit_option(elgamal_keys, 1)
        _, other_opening = scheme.commit_option(elgamal_keys, 0)
        assert not scheme.verify_opening(commitment, other_opening)

    def test_commit_arbitrary_vector(self, scheme, elgamal_keys):
        commitment, opening = scheme.commit_vector(elgamal_keys, [2, 0, 5])
        assert scheme.verify_opening(commitment, opening)
        assert not scheme.is_valid_option_encoding(opening)

    def test_commit_vector_length_mismatch(self, scheme, elgamal_keys):
        with pytest.raises(ValueError):
            scheme.commit_vector(elgamal_keys, [1, 0])

    def test_commit_under_another_key_pair_is_refused(self, scheme, group):
        other = LiftedElGamal(group).keygen(RandomSource(2))
        with pytest.raises(ValueError, match="public key"):
            scheme.commit_option(other, 0)

    def test_non_binary_opening_not_valid_encoding(self, scheme, elgamal_keys):
        _, opening = scheme.commit_vector(elgamal_keys, [0, 2, 0])
        assert not scheme.is_valid_option_encoding(opening)

    def test_two_ones_not_valid_encoding(self, scheme, elgamal_keys):
        _, opening = scheme.commit_vector(elgamal_keys, [1, 1, 0])
        assert not scheme.is_valid_option_encoding(opening)

    def test_commit_in_g_is_the_encryption_under_the_public_key(self, scheme, elgamal_keys):
        """``(g^r, g^(v + x r))`` are the elements of ``(g^r, g^v y^r)``, byte for byte."""
        commitment, opening = scheme.commit_vector(elgamal_keys, [1, 0, 5], rng=RandomSource(3))
        assert commitment.ciphertexts == tuple(
            scheme.elgamal.encrypt(elgamal_keys.public, value, randomness=r)
            for value, r in zip(opening.values, opening.randomness, strict=True)
        )
        assert commitment.serialize() == b"".join(c.serialize() for c in commitment.ciphertexts)

    def test_commitments_are_randomised(self, scheme, elgamal_keys):
        first, _ = scheme.commit_option(elgamal_keys, 1)
        second, _ = scheme.commit_option(elgamal_keys, 1)
        assert first.serialize() != second.serialize()

    def test_deterministic_with_seeded_rng(self, scheme, elgamal_keys):
        first, _ = scheme.commit_option(elgamal_keys, 1, rng=RandomSource(7))
        second, _ = scheme.commit_option(elgamal_keys, 1, rng=RandomSource(7))
        assert first.serialize() == second.serialize()


class TestHomomorphicTally:
    def test_combined_commitment_opens_to_sum(self, scheme, elgamal_keys):
        votes = [0, 1, 1, 2, 1]
        commitments, openings = [], []
        for vote in votes:
            commitment, opening = scheme.commit_option(elgamal_keys, vote)
            commitments.append(commitment)
            openings.append(opening)
        combined = scheme.combine(commitments)
        total_opening = scheme.combine_openings(openings)
        assert scheme.verify_opening(combined, total_opening)
        assert list(total_opening.values) == [1, 3, 1]

    def test_empty_combine_yields_zero_tally(self, scheme):
        combined = scheme.combine([])
        opening = scheme.combine_openings([])
        assert scheme.verify_opening(combined, opening)
        assert list(opening.values) == [0, 0, 0]

    def test_combining_mismatched_lengths_fails(self, scheme, group, elgamal_keys):
        other = OptionEncodingScheme(2, elgamal_keys.public, group)
        a, _ = scheme.commit_option(elgamal_keys, 0)
        b, _ = other.commit_option(elgamal_keys, 0)
        with pytest.raises(ValueError):
            _ = a * b

    def test_opening_addition_requires_same_length(self, scheme, group, elgamal_keys):
        other = OptionEncodingScheme(2, elgamal_keys.public, group)
        _, a = scheme.commit_option(elgamal_keys, 0)
        _, b = other.commit_option(elgamal_keys, 0)
        with pytest.raises(ValueError):
            _ = a + b

    def test_partial_tally_then_more_votes(self, scheme, elgamal_keys):
        first_batch = [scheme.commit_option(elgamal_keys, 0) for _ in range(2)]
        second_batch = [scheme.commit_option(elgamal_keys, 1) for _ in range(3)]
        combined = scheme.combine(
            [c for c, _ in first_batch] + [c for c, _ in second_batch]
        )
        opening = scheme.combine_openings(
            [o for _, o in first_batch] + [o for _, o in second_batch]
        )
        assert list(opening.values) == [2, 3, 0]
        assert scheme.verify_opening(combined, opening)
