"""Tests for randomized small-exponent batch verification and its bisection."""

from dataclasses import replace

import pytest

from repro.crypto.batch_verify import (
    BatchOutcome,
    BatchVerifier,
    OpeningItem,
    ProofItem,
    SignatureItem,
    merge_outcomes,
)
from repro.crypto.commitments import CommitmentOpening, OptionEncodingScheme
from repro.crypto.elgamal import LiftedElGamal
from repro.crypto.group import SchnorrElement
from repro.crypto.registry import available_backends, get_group
from repro.crypto.signatures import SignatureScheme
from repro.crypto.utils import RandomSource
from repro.crypto.zkp import (
    BallotCorrectnessProver,
    BallotCorrectnessVerifier,
    BallotProofResponse,
    fiat_shamir_challenge,
)

NUM_SIGNATURES = 24
NUM_PROOFS = 8
NUM_OPTIONS = 3


@pytest.fixture(scope="module")
def signature_batch(group):
    scheme = SignatureScheme(group)
    rng = RandomSource(21)
    keys = scheme.keygen(rng)
    items = [
        SignatureItem(keys.public, f"msg-{i}".encode(), scheme.sign(keys, f"msg-{i}".encode()))
        for i in range(NUM_SIGNATURES)
    ]
    return keys, items


@pytest.fixture(scope="module")
def proof_batch(group, elgamal_keys):
    scheme = OptionEncodingScheme(NUM_OPTIONS, elgamal_keys.public, group)
    prover = BallotCorrectnessProver(elgamal_keys, group)
    rng = RandomSource(22)
    proof_items, opening_items = [], []
    for i in range(NUM_PROOFS):
        commitment, opening = scheme.commit_option(elgamal_keys, i % NUM_OPTIONS, rng)
        announcement, state = prover.first_move(commitment, opening, rng)
        challenge = fiat_shamir_challenge(group, commitment, announcement)
        response = prover.respond(state, challenge)
        proof_items.append(ProofItem(commitment, announcement, challenge, response))
        opening_items.append(OpeningItem(commitment, opening))
    return scheme, proof_items, opening_items


@pytest.fixture()
def verifier(group):
    return BatchVerifier(group, rng=RandomSource(5))


def forge_signature(item: SignatureItem) -> SignatureItem:
    """Tamper with the response scalar: the group equation must break."""
    bad = replace(item.signature, response=item.signature.response + 1)
    return SignatureItem(item.public, item.message, bad)


class TestSignatureBatch:
    def test_honest_batch_accepts_with_one_equation(self, verifier, signature_batch):
        _, items = signature_batch
        outcome = verifier.verify_signatures(items)
        assert outcome.ok
        assert outcome.checked == NUM_SIGNATURES
        assert outcome.bad_indices == ()
        assert outcome.equations == 1

    def test_single_forgery_is_rejected_and_located(self, verifier, signature_batch):
        _, items = signature_batch
        forged = list(items)
        forged[17] = forge_signature(items[17])
        outcome = verifier.verify_signatures(forged)
        assert not outcome.ok
        assert outcome.bad_indices == (17,)
        # Bisection needs logarithmically many extra equations, not N.
        assert outcome.equations < NUM_SIGNATURES

    def test_multiple_forgeries_all_located(self, verifier, signature_batch):
        _, items = signature_batch
        forged = list(items)
        for index in (0, 9, 23):
            forged[index] = forge_signature(items[index])
        outcome = verifier.verify_signatures(forged)
        assert outcome.bad_indices == (0, 9, 23)

    def test_tampered_challenge_caught_by_hash_precheck(self, verifier, signature_batch):
        _, items = signature_batch
        forged = list(items)
        bad = replace(items[3].signature, challenge=items[3].signature.challenge + 1)
        forged[3] = SignatureItem(items[3].public, items[3].message, bad)
        outcome = verifier.verify_signatures(forged)
        assert outcome.bad_indices == (3,)

    def test_signature_without_commitment_falls_back_to_exact_verify(
        self, verifier, signature_batch
    ):
        _, items = signature_batch
        legacy = list(items)
        legacy[7] = SignatureItem(
            items[7].public, items[7].message, replace(items[7].signature, commitment=None)
        )
        assert verifier.verify_signatures(legacy).ok
        legacy[7] = SignatureItem(
            items[7].public,
            items[7].message,
            replace(forge_signature(items[7]).signature, commitment=None),
        )
        outcome = verifier.verify_signatures(legacy)
        assert outcome.bad_indices == (7,)

    def test_wrong_message_is_rejected(self, verifier, signature_batch):
        _, items = signature_batch
        forged = list(items)
        forged[11] = SignatureItem(items[11].public, b"a different message", items[11].signature)
        outcome = verifier.verify_signatures(forged)
        assert outcome.bad_indices == (11,)

    def test_empty_batch_accepts(self, verifier):
        outcome = verifier.verify_signatures([])
        assert outcome.ok and outcome.checked == 0 and outcome.equations == 0


class TestProofBatch:
    def test_honest_batch_accepts(self, verifier, proof_batch, elgamal_keys):
        _, proof_items, _ = proof_batch
        outcome = verifier.verify_proofs(elgamal_keys.public, proof_items)
        assert outcome.ok and outcome.equations == 1

    def test_single_bad_dleq_response_located(self, verifier, proof_batch, elgamal_keys):
        _, proof_items, _ = proof_batch
        item = proof_items[5]
        or_responses = list(item.response.or_responses)
        or_responses[1] = replace(or_responses[1], response0=or_responses[1].response0 + 1)
        bad = ProofItem(
            item.commitment,
            item.announcement,
            item.challenge,
            BallotProofResponse(tuple(or_responses), item.response.sum_response),
        )
        forged = list(proof_items)
        forged[5] = bad
        outcome = verifier.verify_proofs(elgamal_keys.public, forged)
        assert not outcome.ok
        assert outcome.bad_indices == (5,)

    def test_bad_sum_proof_located(self, verifier, proof_batch, elgamal_keys):
        _, proof_items, _ = proof_batch
        item = proof_items[2]
        bad_sum = replace(item.response.sum_response, response=item.response.sum_response.response + 1)
        forged = list(proof_items)
        forged[2] = ProofItem(
            item.commitment,
            item.announcement,
            item.challenge,
            BallotProofResponse(item.response.or_responses, bad_sum),
        )
        outcome = verifier.verify_proofs(elgamal_keys.public, forged)
        assert outcome.bad_indices == (2,)

    def test_challenge_split_mismatch_is_structural(self, verifier, proof_batch, elgamal_keys):
        """c0 + c1 != c is caught before any equation is evaluated."""
        _, proof_items, _ = proof_batch
        item = proof_items[0]
        or_responses = list(item.response.or_responses)
        or_responses[0] = replace(or_responses[0], challenge0=or_responses[0].challenge0 + 1)
        forged = list(proof_items)
        forged[0] = ProofItem(
            item.commitment,
            item.announcement,
            item.challenge,
            BallotProofResponse(tuple(or_responses), item.response.sum_response),
        )
        outcome = verifier.verify_proofs(elgamal_keys.public, forged)
        assert outcome.bad_indices == (0,)

    def test_wrong_challenge_rejected(self, verifier, proof_batch, elgamal_keys):
        _, proof_items, _ = proof_batch
        item = proof_items[4]
        forged = list(proof_items)
        forged[4] = ProofItem(item.commitment, item.announcement, item.challenge + 1, item.response)
        assert not verifier.verify_proofs(elgamal_keys.public, forged).ok


class TestOpeningBatch:
    def test_honest_batch_accepts(self, verifier, proof_batch, elgamal_keys):
        _, _, opening_items = proof_batch
        outcome = verifier.verify_openings(elgamal_keys.public, opening_items)
        assert outcome.ok and outcome.equations == 1

    def test_bad_randomness_located(self, verifier, proof_batch, elgamal_keys):
        _, _, opening_items = proof_batch
        item = opening_items[6]
        bad = CommitmentOpening(
            item.opening.values, tuple(r + 1 for r in item.opening.randomness)
        )
        forged = list(opening_items)
        forged[6] = OpeningItem(item.commitment, bad)
        outcome = verifier.verify_openings(elgamal_keys.public, forged)
        assert outcome.bad_indices == (6,)

    def test_wrong_value_located(self, verifier, proof_batch, elgamal_keys):
        _, _, opening_items = proof_batch
        item = opening_items[1]
        values = list(item.opening.values)
        values[0] += 1
        forged = list(opening_items)
        forged[1] = OpeningItem(item.commitment, CommitmentOpening(tuple(values), item.opening.randomness))
        outcome = verifier.verify_openings(elgamal_keys.public, forged)
        assert outcome.bad_indices == (1,)

    def test_length_mismatch_is_structural(self, verifier, proof_batch, elgamal_keys):
        _, _, opening_items = proof_batch
        item = opening_items[0]
        truncated = CommitmentOpening(item.opening.values[:-1], item.opening.randomness[:-1])
        forged = list(opening_items)
        forged[0] = OpeningItem(item.commitment, truncated)
        outcome = verifier.verify_openings(elgamal_keys.public, forged)
        assert outcome.bad_indices == (0,)


def in_chunks(items, size):
    return [items[start : start + size] for start in range(0, len(items), size)]


class TestChunkedOutcomes:
    def test_chunked_outcome_indices_are_global(self, group, signature_batch):
        _, items = signature_batch
        forged = list(items)
        forged[20] = forge_signature(items[20])
        outcomes = [
            BatchVerifier(group).verify_signatures(chunk) for chunk in in_chunks(forged, 8)
        ]
        merged = merge_outcomes(outcomes)
        assert len(outcomes) == 3
        assert merged.checked == NUM_SIGNATURES
        assert merged.bad_indices == (20,)

    def test_proofs_and_openings_verify_per_chunk(self, group, proof_batch, elgamal_keys):
        _, proof_items, opening_items = proof_batch
        merged = merge_outcomes([
            BatchVerifier(group).verify_proofs(elgamal_keys.public, chunk)
            for chunk in in_chunks(proof_items, 3)
        ])
        assert merged.ok and merged.checked == NUM_PROOFS
        merged = merge_outcomes([
            BatchVerifier(group).verify_openings(elgamal_keys.public, chunk)
            for chunk in in_chunks(opening_items, 3)
        ])
        assert merged.ok

    def test_merge_outcomes_of_nothing(self):
        merged = merge_outcomes([])
        assert merged.ok and merged.checked == 0

    def test_offset_shifts_bad_indices(self):
        outcome = BatchOutcome(ok=False, checked=4, bad_indices=(1, 3), equations=2)
        assert outcome.offset(10).bad_indices == (11, 13)


class TestParameters:
    def test_security_bits_floor(self, group):
        with pytest.raises(ValueError):
            BatchVerifier(group, security_bits=4)

    def test_exponents_must_fit_under_group_order(self, group):
        with pytest.raises(ValueError):
            BatchVerifier(group, security_bits=300)


LARGE = 200  # items; every aggregated equation over them has >= 400 terms


def forge_opening(item: OpeningItem) -> OpeningItem:
    values = (item.opening.values[0] + 1, *item.opening.values[1:])
    return OpeningItem(item.commitment, CommitmentOpening(values, item.opening.randomness))


def forge_proof(item: ProofItem) -> ProofItem:
    first, *rest = item.response.or_responses
    bad = replace(first, response1=first.response1 + 1)
    return ProofItem(
        item.commitment, item.announcement, item.challenge,
        BallotProofResponse((bad, *rest), item.response.sum_response),
    )


class TestBatchesAboveTheBucketCrossover:
    """More terms than ``BUCKET_MIN_TERMS``: the first equation and the first
    halvings of a bisection fill buckets, the deeper ones scan bits, and the
    verdict must be the one the exact per-item checks give."""

    @pytest.fixture(scope="class")
    def large(self, group, elgamal_keys):
        signer = SignatureScheme(group)
        rng = RandomSource(31)
        keys = [signer.keygen(rng) for _ in range(3)]
        signatures = [
            SignatureItem(
                keys[i % 3].public, f"large-{i}".encode(),
                signer.sign(keys[i % 3], f"large-{i}".encode()),
            )
            for i in range(LARGE)
        ]
        scheme = OptionEncodingScheme(NUM_OPTIONS, elgamal_keys.public, group)
        prover = BallotCorrectnessProver(elgamal_keys, group)
        proofs, openings = [], []
        for i in range(LARGE):
            commitment, opening = scheme.commit_option(elgamal_keys, i % NUM_OPTIONS, rng)
            announcement, state = prover.first_move(commitment, opening, rng)
            challenge = fiat_shamir_challenge(group, commitment, announcement)
            proofs.append(
                ProofItem(commitment, announcement, challenge, prover.respond(state, challenge))
            )
            openings.append(OpeningItem(commitment, opening))
        return {"signatures": signatures, "proofs": proofs, "openings": openings}

    @pytest.fixture()
    def evaluations(self, group, monkeypatch):
        """Which evaluation each ``multi_power`` call of the test ran."""
        ran = []
        for method in ("_scan_multi_power", "_bucket_multi_power"):
            original = getattr(type(group), method)

            def spy(self, bases, exponents, _original=original, _method=method):
                ran.append(_method)
                return _original(self, bases, exponents)

            monkeypatch.setattr(type(group), method, spy)
        return ran

    def run(self, verifier, kind, items, elgamal_keys):
        if kind == "signatures":
            return verifier.verify_signatures(items)
        if kind == "proofs":
            return verifier.verify_proofs(elgamal_keys.public, items)
        return verifier.verify_openings(elgamal_keys.public, items)

    def individually_bad(self, group, kind, items, elgamal_keys):
        """Positions the exact one-at-a-time verifiers reject."""
        if kind == "signatures":
            scheme = SignatureScheme(group)
            ok = [scheme.verify(i.public, i.message, i.signature) for i in items]
        elif kind == "proofs":
            exact = BallotCorrectnessVerifier(elgamal_keys.public, group)
            ok = [
                exact.verify(i.commitment, i.announcement, i.challenge, i.response)
                for i in items
            ]
        else:
            elgamal = LiftedElGamal(group)
            ok = [
                all(
                    elgamal.open(elgamal_keys.public, c, v, r)
                    for c, v, r in zip(
                        i.commitment.ciphertexts, i.opening.values, i.opening.randomness,
                        strict=True,
                    )
                )
                for i in items
            ]
        return tuple(index for index, verdict in enumerate(ok) if not verdict)

    @pytest.mark.parametrize("kind,forge", [
        ("signatures", forge_signature), ("proofs", forge_proof), ("openings", forge_opening),
    ])
    def test_one_corrupted_item_is_named_and_the_rest_passes(
        self, kind, forge, large, verifier, evaluations, group, elgamal_keys
    ):
        honest = large[kind]
        outcome = self.run(verifier, kind, honest, elgamal_keys)
        assert outcome.ok and outcome.checked == LARGE and outcome.equations == 1
        assert set(evaluations) == {"_bucket_multi_power"}
        del evaluations[:]

        culprit = 137
        items = list(honest)
        items[culprit] = forge(honest[culprit])
        outcome = self.run(verifier, kind, items, elgamal_keys)
        assert not outcome.ok and outcome.bad_indices == (culprit,)
        # 1 + 2 per halving: logarithmic, and both evaluations took part.
        assert outcome.equations <= 1 + 2 * LARGE.bit_length()
        assert set(evaluations) == {"_bucket_multi_power", "_scan_multi_power"}
        assert outcome.bad_indices == self.individually_bad(group, kind, items, elgamal_keys)

    def test_culprits_on_both_sides_of_the_crossover(self, large, verifier, group,
                                                     elgamal_keys):
        items = list(large["signatures"])
        culprits = (0, 99, 100, 199)
        for index in culprits:
            items[index] = forge_signature(items[index])
        outcome = verifier.verify_signatures(items)
        assert outcome.bad_indices == culprits
        assert outcome.bad_indices == self.individually_bad(
            group, "signatures", items, elgamal_keys
        )


AGREEMENT_ITEMS = 32
AGREEMENT_CULPRIT = 11
#: fresh batching RNGs per backend and kind: 200, but one on secp256k1.  A
#: tampered batch there bisects in pure-python affine arithmetic (0.6 s for 32
#: openings, 4.3 s for 32 proofs), and its tampered element is another group
#: element, which only the 2^-64 soundness bound of each equation lets through.
AGREEMENT_RUNS = {"secp256k1": 1}
#: fresh batching RNGs for a Schnorr batch whose culprit carries the inverse
#: of an element: every run bisects.
INVERSE_RUNS = 20


def other_encoding(element):
    """What an adversary can carry in place of ``element`` while every
    encoding stays valid: on the Schnorr backends the other sign ``p - x``,
    which is the same class of ``Z_p^*/{±1}`` and so the same element; on
    ``secp256k1`` the point's negation, another element of the group."""
    if isinstance(element, SchnorrElement):
        return type(element)(element.group.p - element.value, element.group)
    return element.inverse()


def tamper(kind, items, substitute):
    """``items`` with one carried element of the culprit replaced by
    ``substitute(element)``: a signature's commitment, an opening's first
    ``ciphertext.a``, or a proof's first ``a0`` announcement."""
    item = items[AGREEMENT_CULPRIT]
    if kind == "signatures":
        signature = replace(item.signature, commitment=substitute(item.signature.commitment))
        tampered = replace(item, signature=signature)
    elif kind == "openings":
        first, *rest = item.commitment.ciphertexts
        first = replace(first, a=substitute(first.a))
        tampered = replace(item, commitment=replace(item.commitment, ciphertexts=(first, *rest)))
    else:
        first, *rest = item.announcement.or_announcements
        first = replace(first, a0=substitute(first.a0))
        announcement = replace(item.announcement, or_announcements=(first, *rest))
        tampered = replace(item, announcement=announcement)
    items = list(items)
    items[AGREEMENT_CULPRIT] = tampered
    return items


@pytest.fixture(scope="module")
def agreement_batches():
    """``backend -> (public key, {kind: honest items})``."""
    batches = {}
    for backend in available_backends():
        group = get_group(backend)
        rng = RandomSource(31)
        keys = LiftedElGamal(group).keygen(rng)
        scheme = OptionEncodingScheme(2, keys.public, group)
        prover = BallotCorrectnessProver(keys, group)
        signer = SignatureScheme(group).keygen(rng)
        honest = {"signatures": [], "openings": [], "proofs": []}
        for i in range(AGREEMENT_ITEMS):
            message = f"msg-{i}".encode()
            honest["signatures"].append(
                SignatureItem(signer.public, message, SignatureScheme(group).sign(signer, message))
            )
            commitment, opening = scheme.commit_option(keys, i % 2, rng)
            honest["openings"].append(OpeningItem(commitment, opening))
            announcement, state = prover.first_move(commitment, opening, rng)
            challenge = fiat_shamir_challenge(group, commitment, announcement)
            response = prover.respond(state, challenge)
            honest["proofs"].append(ProofItem(commitment, announcement, challenge, response))
        batches[backend] = (keys.public, honest)
    return batches


class TestBatchAgreesWithTheSingleCheck:
    """One carried element of 32 honest items replaced by its negation (on the
    Schnorr backends: by the other encoding of its class): over fresh RNGs the
    batch names exactly the items the per-item check refuses.  At the parent of
    signed quadratic residues the Schnorr batch accepted a negated opening in
    198 of 200 runs that ``verify_opening`` refused."""

    @staticmethod
    def single(kind, public, item):
        group = public.group
        if kind == "signatures":
            return SignatureScheme(group).verify(item.public, item.message, item.signature)
        if kind == "openings":
            return OptionEncodingScheme(2, public, group).verify_opening(
                item.commitment, item.opening
            )
        return BallotCorrectnessVerifier(public, group).verify(
            item.commitment, item.announcement, item.challenge, item.response
        )

    @staticmethod
    def batch(kind, public, items, seed):
        verifier = BatchVerifier(public.group, rng=RandomSource(seed))
        if kind == "signatures":
            return verifier.verify_signatures(items)
        if kind == "openings":
            return verifier.verify_openings(public, items)
        return verifier.verify_proofs(public, items)

    def disagreements(self, kind, public, items, runs):
        """The indices the per-item check refuses, and in how many of
        ``runs`` fresh batching RNGs the batch names others."""
        refused = tuple(
            index for index, item in enumerate(items) if not self.single(kind, public, item)
        )
        differing = sum(
            self.batch(kind, public, items, seed).bad_indices != refused for seed in range(runs)
        )
        return refused, differing

    @pytest.mark.parametrize("kind", ["signatures", "openings", "proofs"])
    @pytest.mark.parametrize("backend", available_backends())
    def test_verdicts_agree_over_fresh_rngs(self, agreement_batches, backend, kind):
        public, honest = agreement_batches[backend]
        items = tamper(kind, honest[kind], other_encoding)
        runs = AGREEMENT_RUNS.get(backend, 200)
        refused, differing = self.disagreements(kind, public, items, runs)
        assert differing == 0, f"{differing} of {runs} batch verdicts differ"
        # Schnorr: the other sign is the same element; secp256k1: another one.
        assert refused == (() if backend.startswith("schnorr") else (AGREEMENT_CULPRIT,))

    @pytest.mark.parametrize("kind", ["signatures", "openings", "proofs"])
    @pytest.mark.parametrize("backend", ["schnorr", "schnorr-gmpy2"])
    def test_an_inverted_element_is_named_by_both(self, agreement_batches, backend, kind):
        """On the Schnorr backends the other sign is harmless, so the element
        an adversary must carry to change a verdict is another one: here the
        inverse, which the batch bisects down to the culprit."""
        public, honest = agreement_batches[backend]
        items = tamper(kind, honest[kind], lambda element: element.inverse())
        refused, differing = self.disagreements(kind, public, items, INVERSE_RUNS)
        assert differing == 0, f"{differing} of {INVERSE_RUNS} batch verdicts differ"
        assert refused == (AGREEMENT_CULPRIT,)
