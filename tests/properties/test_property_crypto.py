"""Property-based tests (hypothesis) for the cryptographic substrates."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.commitments import OptionEncodingScheme
from repro.crypto.elgamal import LiftedElGamal
from repro.crypto.registry import get_group
from repro.crypto.shamir import ShamirSecretSharing
from repro.crypto.signatures import SignatureScheme
from repro.crypto.symmetric import VoteCodeCipher, commit_vote_code
from repro.crypto.utils import RandomSource, bytes_to_int, hash_to_scalar, int_to_bytes

GROUP = get_group("schnorr")
ELGAMAL = LiftedElGamal(GROUP)
KEYS = ELGAMAL.keygen(RandomSource(1))
SIGNER = SignatureScheme(GROUP)
SIGNING_KEYS = SIGNER.keygen(RandomSource(2))

relaxed = settings(max_examples=25, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


class TestGroupProperties:
    @relaxed
    @given(a=st.integers(min_value=1, max_value=2 ** 64),
           b=st.integers(min_value=1, max_value=2 ** 64))
    def test_exponentiation_is_homomorphic(self, a, b):
        g = GROUP.generator()
        assert (g ** a) * (g ** b) == g ** (a + b)

    @relaxed
    @given(a=st.integers(min_value=1, max_value=2 ** 64))
    def test_inverse_cancels(self, a):
        element = GROUP.generator() ** a
        assert element * element.inverse() == GROUP.identity()

    @relaxed
    @given(data=st.binary(min_size=0, max_size=64))
    def test_hash_to_scalar_stays_in_range(self, data):
        scalar = hash_to_scalar(GROUP.order, data)
        assert 0 <= scalar < GROUP.order


class TestElGamalProperties:
    @relaxed
    @given(message=st.integers(min_value=0, max_value=200))
    def test_encrypt_decrypt_roundtrip(self, message):
        ciphertext = ELGAMAL.encrypt(KEYS.public, message)
        assert ELGAMAL.decrypt(KEYS, ciphertext, max_message=250) == message

    @relaxed
    @given(a=st.integers(min_value=0, max_value=100),
           b=st.integers(min_value=0, max_value=100))
    def test_homomorphic_addition(self, a, b):
        combined = ELGAMAL.encrypt(KEYS.public, a) * ELGAMAL.encrypt(KEYS.public, b)
        assert ELGAMAL.decrypt(KEYS, combined, max_message=250) == a + b


class TestCommitmentProperties:
    @relaxed
    @given(votes=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=8))
    def test_homomorphic_tally_counts_every_vote(self, votes):
        scheme = OptionEncodingScheme(3, KEYS.public, GROUP)
        commitments, openings = zip(*(scheme.commit_option(v) for v in votes), strict=True)
        combined = scheme.combine(list(commitments))
        opening = scheme.combine_openings(list(openings))
        assert scheme.verify_opening(combined, opening)
        tally = list(opening.values)
        assert sum(tally) == len(votes)
        for option in range(3):
            assert tally[option] == votes.count(option)


class TestShamirProperties:
    @relaxed
    @given(
        secret=st.integers(min_value=0, max_value=2 ** 128),
        threshold=st.integers(min_value=1, max_value=5),
        extra=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2 ** 16),
    )
    def test_any_threshold_subset_reconstructs(self, secret, threshold, extra, seed):
        num_shares = threshold + extra
        sss = ShamirSecretSharing(threshold, num_shares)
        shares = sss.share(secret, rng=RandomSource(seed))
        # Pick a "random" but deterministic subset of exactly threshold shares.
        subset = sorted(shares, key=lambda s: (s.value + seed) % 7)[:threshold]
        assert sss.reconstruct(subset) == secret

    @relaxed
    @given(secret=st.integers(min_value=0, max_value=2 ** 64),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_share_values_differ_from_secret_with_high_probability(self, secret, seed):
        sss = ShamirSecretSharing(3, 5)
        shares = sss.share(secret, rng=RandomSource(seed))
        # The polynomial is random; shares leaking the secret verbatim for
        # every share would indicate a broken implementation.
        assert any(share.value != secret for share in shares)


class TestSymmetricProperties:
    @relaxed
    @given(plaintext=st.binary(min_size=1, max_size=64),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_cipher_roundtrip(self, plaintext, seed):
        rng = RandomSource(seed)
        cipher = VoteCodeCipher(VoteCodeCipher.generate_key(rng))
        assert cipher.decrypt(cipher.encrypt(plaintext, rng=rng)) == plaintext

    @relaxed
    @given(code=st.binary(min_size=20, max_size=20),
           other=st.binary(min_size=20, max_size=20),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_hash_commitment_binds_to_code(self, code, other, seed):
        commitment = commit_vote_code(code, rng=RandomSource(seed))
        assert commitment.matches(code)
        if other != code:
            assert not commitment.matches(other)

    @relaxed
    @given(value=st.integers(min_value=0, max_value=2 ** 128 - 1))
    def test_int_bytes_roundtrip(self, value):
        assert bytes_to_int(int_to_bytes(value, 16)) == value


class TestSignatureProperties:
    @relaxed
    @given(message=st.binary(min_size=0, max_size=128))
    def test_signatures_verify_for_any_message(self, message):
        signature = SIGNER.sign(SIGNING_KEYS, message)
        assert SIGNER.verify(SIGNING_KEYS.public, message, signature)

    @relaxed
    @given(message=st.binary(min_size=1, max_size=64),
           suffix=st.binary(min_size=1, max_size=16))
    def test_signature_does_not_transfer_to_extended_message(self, message, suffix):
        signature = SIGNER.sign(SIGNING_KEYS, message)
        assert not SIGNER.verify(SIGNING_KEYS.public, message + suffix, signature)
