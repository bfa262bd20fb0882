"""Tests for the symmetric layer (hash commitments + vote-code encryption)."""

import pytest

from repro.crypto.symmetric import (
    MSK_BITS,
    RECEIPT_BITS,
    SERIAL_BITS,
    VOTE_CODE_BITS,
    VoteCodeCipher,
    commit_vote_code,
    random_receipt,
    random_serial,
    random_vote_code,
)
from repro.crypto.utils import RandomSource


class TestHashCommitments:
    def test_commit_and_verify(self, rng):
        code = random_vote_code(rng)
        commitment = commit_vote_code(code, rng=rng)
        assert commitment.matches(code)

    def test_wrong_code_rejected(self, rng):
        commitment = commit_vote_code(random_vote_code(rng), rng=rng)
        assert not commitment.matches(random_vote_code(rng))

    def test_salt_makes_commitments_differ(self, rng):
        code = random_vote_code(rng)
        first = commit_vote_code(code, rng=rng)
        second = commit_vote_code(code, rng=rng)
        assert first.digest != second.digest

    def test_explicit_salt_is_deterministic(self, rng):
        code = random_vote_code(rng)
        salt = b"\x01" * 8
        assert commit_vote_code(code, salt=salt).digest == commit_vote_code(code, salt=salt).digest

    def test_salt_has_64_bits(self, rng):
        commitment = commit_vote_code(random_vote_code(rng), rng=rng)
        assert len(commitment.salt) == 8


class TestVoteCodeCipher:
    def test_encrypt_decrypt_roundtrip(self, rng):
        cipher = VoteCodeCipher(VoteCodeCipher.generate_key(rng))
        code = random_vote_code(rng)
        assert cipher.decrypt(cipher.encrypt(code, rng=rng)) == code

    def test_ciphertexts_are_randomised(self, rng):
        cipher = VoteCodeCipher(VoteCodeCipher.generate_key(rng))
        code = random_vote_code(rng)
        first = cipher.encrypt(code, rng=rng)
        second = cipher.encrypt(code, rng=rng)
        assert first.serialize() != second.serialize()

    def test_wrong_key_garbles_plaintext(self, rng):
        code = random_vote_code(rng)
        encrypted = VoteCodeCipher(VoteCodeCipher.generate_key(rng)).encrypt(code, rng=rng)
        other = VoteCodeCipher(VoteCodeCipher.generate_key(rng))
        assert other.decrypt(encrypted) != code

    def test_key_must_be_128_bits(self):
        with pytest.raises(ValueError):
            VoteCodeCipher(b"short")

    def test_key_commitment_matches_key(self, rng):
        key = VoteCodeCipher.generate_key(rng)
        cipher = VoteCodeCipher(key)
        commitment = cipher.key_commitment(rng=rng)
        assert commitment.matches(key)

    def test_key_commitment_rejects_other_key(self, rng):
        cipher = VoteCodeCipher(VoteCodeCipher.generate_key(rng))
        commitment = cipher.key_commitment(rng=rng)
        assert not commitment.matches(VoteCodeCipher.generate_key(rng))

    def test_explicit_iv_is_deterministic(self, rng):
        key = VoteCodeCipher.generate_key(rng)
        cipher = VoteCodeCipher(key)
        code = random_vote_code(rng)
        iv = b"\x02" * 16
        assert cipher.encrypt(code, iv=iv).ciphertext == cipher.encrypt(code, iv=iv).ciphertext


class TestRandomValues:
    def test_bit_lengths_match_paper(self):
        assert VOTE_CODE_BITS == 160
        assert RECEIPT_BITS == 64
        assert SERIAL_BITS == 64
        assert MSK_BITS == 128

    def test_vote_code_length(self, rng):
        assert len(random_vote_code(rng)) == 20

    def test_receipt_length(self, rng):
        assert len(random_receipt(rng)) == 8

    def test_serial_fits_in_64_bits(self, rng):
        for _ in range(50):
            assert 0 <= random_serial(rng) < 2 ** 64

    def test_seeded_rng_reproducible(self):
        assert random_vote_code(RandomSource(5)) == random_vote_code(RandomSource(5))
