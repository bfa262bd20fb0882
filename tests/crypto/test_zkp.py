"""Tests for the Chaum-Pedersen ballot-correctness proofs."""

from dataclasses import replace

import pytest

from repro.crypto.batch_verify import BatchVerifier, ProofItem
from repro.crypto.commitments import OptionEncodingScheme
from repro.crypto.elgamal import LiftedElGamal
from repro.crypto.registry import available_backends, get_group
from repro.crypto.utils import RandomSource
from repro.crypto.zkp import (
    BallotCorrectnessProver,
    BallotCorrectnessVerifier,
    BallotProofAnnouncement,
    BallotProofResponse,
    OrProofAnnouncement,
    SumProofAnnouncement,
    challenge_from_voter_coins,
    fiat_shamir_challenge,
)


@pytest.fixture(scope="module")
def scheme(group, elgamal_keys):
    return OptionEncodingScheme(3, elgamal_keys.public, group)


@pytest.fixture(scope="module")
def prover(group, elgamal_keys):
    return BallotCorrectnessProver(elgamal_keys, group)


@pytest.fixture(scope="module")
def verifier(group, elgamal_keys):
    return BallotCorrectnessVerifier(elgamal_keys.public, group)


def _prove(scheme, prover, group, option_index, challenge=None):
    commitment, opening = scheme.commit_option(prover.keys, option_index)
    announcement, state = prover.first_move(commitment, opening)
    if challenge is None:
        challenge = fiat_shamir_challenge(group, commitment, announcement)
    response = prover.respond(state, challenge)
    return commitment, announcement, challenge, response


class TestHonestProofs:
    @pytest.mark.parametrize("option_index", [0, 1, 2])
    def test_valid_unit_vector_verifies(self, scheme, prover, verifier, group, option_index):
        commitment, announcement, challenge, response = _prove(
            scheme, prover, group, option_index
        )
        assert verifier.verify(commitment, announcement, challenge, response)

    def test_proof_verifies_under_voter_coin_challenge(self, scheme, prover, verifier, group):
        commitment, opening = scheme.commit_option(prover.keys, 1)
        announcement, state = prover.first_move(commitment, opening)
        challenge = challenge_from_voter_coins(group, [0, 1, 1, 0, 1])
        response = prover.respond(state, challenge)
        assert verifier.verify(commitment, announcement, challenge, response)

    def test_proof_fails_with_wrong_challenge(self, scheme, prover, verifier, group):
        commitment, announcement, challenge, response = _prove(scheme, prover, group, 0)
        assert not verifier.verify(commitment, announcement, challenge + 1, response)

    def test_proof_fails_against_different_commitment(self, scheme, prover, verifier, group):
        commitment, announcement, challenge, response = _prove(scheme, prover, group, 0)
        other_commitment, _ = scheme.commit_option(prover.keys, 0)
        assert not verifier.verify(other_commitment, announcement, challenge, response)

    def test_first_move_rejects_non_binary_opening(self, scheme, prover):
        commitment, opening = scheme.commit_vector(prover.keys, [2, 0, 0])
        with pytest.raises(ValueError):
            prover.first_move(commitment, opening)


def textbook_first_move(group, public_key, commitment, opening, rng):
    """The first move as the Sigma-OR proof is written down: the simulated
    branch is computed from the ciphertext, ``g^s / a^c`` and ``y^s / (b/g^m)^c``,
    with plain ``**`` and ``inverse()``.  Reference for ``first_move``, which
    computes the same elements in the exponents the opening gives it."""
    g, y, q = group.generator(), public_key, group.order
    or_announcements, or_state = [], []
    for ciphertext, bit, randomness in zip(
        commitment.ciphertexts, opening.values, opening.randomness, strict=True
    ):
        nonce = group.random_scalar(rng)
        fake_challenge = group.random_scalar(rng)
        fake_response = group.random_scalar(rng)
        if bit == 0:
            a0, b0 = g ** nonce, y ** nonce
            a1 = (g ** fake_response) * (ciphertext.a ** fake_challenge).inverse()
            b_over_g = ciphertext.b * g.inverse()
            b1 = (y ** fake_response) * (b_over_g ** fake_challenge).inverse()
        else:
            a1, b1 = g ** nonce, y ** nonce
            a0 = (g ** fake_response) * (ciphertext.a ** fake_challenge).inverse()
            b0 = (y ** fake_response) * (ciphertext.b ** fake_challenge).inverse()
        or_announcements.append(OrProofAnnouncement(a0, b0, a1, b1))
        or_state.append((bit, randomness % q, nonce, fake_challenge, fake_response))
    sum_nonce = group.random_scalar(rng)
    sum_announcement = SumProofAnnouncement(g ** sum_nonce, y ** sum_nonce)
    return BallotProofAnnouncement(tuple(or_announcements), sum_announcement), or_state, sum_nonce


#: (options, committed option): every row count from 1 to 4, the 1-row in the
#: first and in the last position, so bit-0 rows precede and follow the bit-1 row.
_SHAPES = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 2), (4, 0), (4, 3)]


@pytest.mark.parametrize("backend", available_backends())
class TestProverMatchesTextbook:
    @pytest.fixture()
    def keys(self, backend):
        return LiftedElGamal(get_group(backend)).keygen(RandomSource(3))

    @pytest.mark.parametrize("num_options,option_index", _SHAPES)
    def test_same_announcements_and_state(self, backend, keys, num_options, option_index):
        group = get_group(backend)
        scheme = OptionEncodingScheme(num_options, keys.public, group)
        commitment, opening = scheme.commit_option(keys, option_index, rng=RandomSource(7))
        expected, or_state, sum_nonce = textbook_first_move(
            group, keys.public, commitment, opening, RandomSource(9)
        )
        announcement, state = BallotCorrectnessProver(keys, group).first_move(
            commitment, opening, rng=RandomSource(9)
        )
        for got, want in zip(
            announcement.or_announcements, expected.or_announcements, strict=True
        ):
            assert (got.a0, got.b0, got.a1, got.b1) == (want.a0, want.b0, want.a1, want.b1)
        assert announcement.sum_announcement == expected.sum_announcement
        assert announcement.serialize() == expected.serialize()
        assert (state.opening, state.or_state, state.sum_nonce) == (opening, or_state, sum_nonce)

    def test_verifiers_accept_it_and_reject_a_flipped_response(self, backend, keys):
        group = get_group(backend)
        scheme = OptionEncodingScheme(2, keys.public, group)
        prover = BallotCorrectnessProver(keys, group)
        commitment, opening = scheme.commit_option(keys, 1, rng=RandomSource(7))
        announcement, state = prover.first_move(commitment, opening, rng=RandomSource(9))
        challenge = fiat_shamir_challenge(group, commitment, announcement)
        response = prover.respond(state, challenge)
        first = response.or_responses[0]
        flipped = BallotProofResponse(
            (replace(first, response1=first.response1 ^ 1),) + response.or_responses[1:],
            response.sum_response,
        )
        single = BallotCorrectnessVerifier(keys.public, group)
        batch = BatchVerifier(group, rng=RandomSource(5))
        assert single.verify(commitment, announcement, challenge, response)
        assert not single.verify(commitment, announcement, challenge, flipped)
        item = ProofItem(commitment, announcement, challenge, response)
        assert batch.verify_proofs(keys.public, [item]).ok
        bad_item = replace(item, response=flipped)
        assert batch.verify_proofs(keys.public, [bad_item]).bad_indices == (0,)

    def test_opening_of_another_length_is_refused(self, backend, keys):
        group = get_group(backend)
        commitment, _ = OptionEncodingScheme(2, keys.public, group).commit_option(keys, 0)
        _, opening = OptionEncodingScheme(3, keys.public, group).commit_option(keys, 0)
        with pytest.raises(ValueError):
            BallotCorrectnessProver(keys, group).first_move(commitment, opening)


class TestSoundness:
    def test_non_unit_vector_cannot_fake_sum_proof(self, scheme, prover, verifier, group):
        """A commitment to (1,1,0) has valid 0/1 entries but a bad sum.

        The prover's first move only requires 0/1 entries, so a cheating EA
        could produce the OR proofs; the sum-is-one proof must then fail for
        any honestly derived challenge.
        """
        commitment, opening = scheme.commit_vector(prover.keys, [1, 1, 0])
        announcement, state = prover.first_move(commitment, opening)
        challenge = fiat_shamir_challenge(group, commitment, announcement)
        response = prover.respond(state, challenge)
        assert not verifier.verify(commitment, announcement, challenge, response)

    def test_all_zero_vector_fails(self, scheme, prover, verifier, group):
        commitment, opening = scheme.commit_vector(prover.keys, [0, 0, 0])
        announcement, state = prover.first_move(commitment, opening)
        challenge = fiat_shamir_challenge(group, commitment, announcement)
        response = prover.respond(state, challenge)
        assert not verifier.verify(commitment, announcement, challenge, response)

    def test_tampered_response_rejected(self, scheme, prover, verifier, group):
        commitment, announcement, challenge, response = _prove(scheme, prover, group, 1)
        tampered = response.or_responses[0]
        bad = type(tampered)(
            tampered.challenge0, tampered.challenge1,
            tampered.response0 + 1, tampered.response1,
        )
        bad_response = type(response)((bad,) + response.or_responses[1:], response.sum_response)
        assert not verifier.verify(commitment, announcement, challenge, bad_response)

    def test_mismatched_lengths_rejected(self, scheme, prover, verifier, group):
        commitment, announcement, challenge, response = _prove(scheme, prover, group, 1)
        truncated = type(response)(response.or_responses[:-1], response.sum_response)
        assert not verifier.verify(commitment, announcement, challenge, truncated)


class TestChallenges:
    def test_voter_coin_challenge_depends_on_coins(self, group):
        a = challenge_from_voter_coins(group, [0, 0, 1])
        b = challenge_from_voter_coins(group, [0, 1, 1])
        assert a != b

    def test_voter_coin_challenge_deterministic(self, group):
        assert challenge_from_voter_coins(group, [1, 0, 1]) == challenge_from_voter_coins(
            group, [1, 0, 1]
        )

    def test_voter_coin_challenge_rejects_non_bits(self, group):
        with pytest.raises(ValueError):
            challenge_from_voter_coins(group, [0, 2])

    def test_coin_order_matters(self, group):
        assert challenge_from_voter_coins(group, [1, 0]) != challenge_from_voter_coins(
            group, [0, 1]
        )

    def test_fiat_shamir_is_deterministic(self, scheme, prover, group):
        commitment, opening = scheme.commit_option(prover.keys, 0)
        announcement, _ = prover.first_move(commitment, opening)
        assert fiat_shamir_challenge(group, commitment, announcement) == fiat_shamir_challenge(
            group, commitment, announcement
        )
