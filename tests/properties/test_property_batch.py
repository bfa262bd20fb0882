"""Property-based tests (hypothesis) for batch verification.

The defining property of a sound batch verifier: a batch is accepted if and
only if every item verifies individually -- and when it is rejected, the
bisection names exactly the items an individual verifier would reject.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.batch_verify import BatchVerifier, OpeningItem, SignatureItem, merge_outcomes
from repro.crypto.commitments import CommitmentOpening, OptionEncodingScheme
from repro.crypto.elgamal import LiftedElGamal
from repro.crypto.registry import get_group
from repro.crypto.signatures import SignatureScheme
from repro.crypto.utils import RandomSource

GROUP = get_group("schnorr")
SIGNER = SignatureScheme(GROUP)
SIGNING_KEYS = SIGNER.keygen(RandomSource(31))
ELGAMAL = LiftedElGamal(GROUP)
COMMITMENT_KEYS = ELGAMAL.keygen(RandomSource(32))
SCHEME = OptionEncodingScheme(2, COMMITMENT_KEYS.public, GROUP)

BATCH_SIZE = 10

_RNG = RandomSource(33)
SIGNATURE_ITEMS = tuple(
    SignatureItem(
        SIGNING_KEYS.public, f"ballot-{i}".encode(), SIGNER.sign(SIGNING_KEYS, f"ballot-{i}".encode())
    )
    for i in range(BATCH_SIZE)
)
OPENING_ITEMS = tuple(
    OpeningItem(*SCHEME.commit_option(COMMITMENT_KEYS, i % 2, _RNG)) for i in range(BATCH_SIZE)
)

relaxed = settings(max_examples=20, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def corrupt_signature(item: SignatureItem) -> SignatureItem:
    return SignatureItem(
        item.public, item.message, replace(item.signature, response=item.signature.response + 1)
    )


def corrupt_opening(item: OpeningItem) -> OpeningItem:
    bad = CommitmentOpening(item.opening.values, (item.opening.randomness[0] + 1,) + item.opening.randomness[1:])
    return OpeningItem(item.commitment, bad)


class TestBatchEquivalence:
    @relaxed
    @given(corrupted=st.sets(st.integers(min_value=0, max_value=BATCH_SIZE - 1), max_size=3),
           seed=st.integers(min_value=0, max_value=2 ** 32))
    def test_signature_batch_accepts_iff_all_individuals_accept(self, corrupted, seed):
        items = [
            corrupt_signature(item) if index in corrupted else item
            for index, item in enumerate(SIGNATURE_ITEMS)
        ]
        individually_ok = [
            SIGNER.verify(item.public, item.message, item.signature) for item in items
        ]
        verifier = BatchVerifier(GROUP, rng=RandomSource(seed))
        outcome = verifier.verify_signatures(items)
        assert outcome.ok == all(individually_ok)
        assert outcome.bad_indices == tuple(sorted(corrupted))

    @relaxed
    @given(corrupted=st.sets(st.integers(min_value=0, max_value=BATCH_SIZE - 1), max_size=3),
           seed=st.integers(min_value=0, max_value=2 ** 32))
    def test_opening_batch_accepts_iff_all_individuals_accept(self, corrupted, seed):
        items = [
            corrupt_opening(item) if index in corrupted else item
            for index, item in enumerate(OPENING_ITEMS)
        ]
        individually_ok = [
            SCHEME.verify_opening(item.commitment, item.opening) for item in items
        ]
        verifier = BatchVerifier(GROUP, rng=RandomSource(seed))
        outcome = verifier.verify_openings(COMMITMENT_KEYS.public, items)
        assert outcome.ok == all(individually_ok)
        assert outcome.bad_indices == tuple(sorted(corrupted))

    @relaxed
    @given(seed=st.integers(min_value=0, max_value=2 ** 32),
           bits=st.integers(min_value=8, max_value=128))
    def test_honest_batch_accepts_for_any_security_parameter(self, seed, bits):
        verifier = BatchVerifier(GROUP, security_bits=bits, rng=RandomSource(seed))
        assert verifier.verify_signatures(SIGNATURE_ITEMS).ok


class TestChunkedEquivalence:
    @relaxed
    @given(corrupted=st.sets(st.integers(min_value=0, max_value=BATCH_SIZE - 1), max_size=3),
           size=st.integers(min_value=1, max_value=BATCH_SIZE + 1),
           seed=st.integers(min_value=0, max_value=2 ** 32))
    def test_chunks_merged_name_what_one_batch_names(self, corrupted, size, seed):
        """Verifying in chunks of any size and merging the outcomes (the
        auditor's walk) names the same global indices as one batch."""
        items = [
            corrupt_signature(item) if index in corrupted else item
            for index, item in enumerate(SIGNATURE_ITEMS)
        ]
        verifier = BatchVerifier(GROUP, rng=RandomSource(seed))
        merged = merge_outcomes([
            verifier.verify_signatures(items[start : start + size])
            for start in range(0, BATCH_SIZE, size)
        ])
        assert merged.checked == BATCH_SIZE
        assert merged.ok == (not corrupted)
        assert merged.bad_indices == tuple(sorted(corrupted))
