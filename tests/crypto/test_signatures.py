"""Tests for Schnorr signatures."""

from dataclasses import replace

import pytest

from repro.crypto.batch_verify import BatchVerifier, SignatureItem
from repro.crypto.registry import available_backends, get_group
from repro.crypto.signatures import SchnorrSignature, SignatureScheme
from repro.crypto.utils import RandomSource


@pytest.fixture(scope="module")
def scheme(group):
    return SignatureScheme(group)


@pytest.fixture(scope="module")
def keys(scheme):
    return scheme.keygen(RandomSource(11))


class TestSignatures:
    def test_sign_verify_roundtrip(self, scheme, keys):
        signature = scheme.sign(keys, b"hello world")
        assert scheme.verify(keys.public, b"hello world", signature)

    def test_verify_rejects_different_message(self, scheme, keys):
        signature = scheme.sign(keys, b"hello")
        assert not scheme.verify(keys.public, b"goodbye", signature)

    def test_verify_rejects_wrong_key(self, scheme, keys):
        other = scheme.keygen(RandomSource(12))
        signature = scheme.sign(keys, b"msg")
        assert not scheme.verify(other.public, b"msg", signature)

    def test_verify_rejects_tampered_signature(self, scheme, keys):
        signature = scheme.sign(keys, b"msg")
        tampered = type(signature)(signature.challenge, signature.response + 1)
        assert not scheme.verify(keys.public, b"msg", tampered)

    def test_verify_rejects_tampered_challenge(self, scheme, keys):
        signature = scheme.sign(keys, b"msg")
        tampered = type(signature)(signature.challenge + 1, signature.response)
        assert not scheme.verify(keys.public, b"msg", tampered)

    def test_signing_empty_message(self, scheme, keys):
        signature = scheme.sign(keys, b"")
        assert scheme.verify(keys.public, b"", signature)

    def test_nonces_are_derived_from_key_and_message(self, scheme, keys):
        """One key signs one message one way; another message or another key
        gets another nonce (a repeated nonce over two messages would reveal
        the secret key)."""
        first = scheme.sign(keys, b"msg")
        assert scheme.sign(keys, b"msg") == first
        assert scheme.sign(keys, b"msg2").commitment != first.commitment
        other = scheme.keygen(RandomSource(12))
        assert scheme.sign(other, b"msg").commitment != first.commitment

    def test_keygen_relationship(self, scheme, group):
        keys = scheme.keygen(RandomSource(13))
        assert keys.public == group.generator() ** keys.secret

    def test_signature_serialization(self, scheme, keys):
        signature = scheme.sign(keys, b"msg")
        data = signature.serialize()
        assert isinstance(data, bytes) and len(data) == 64

    def test_cross_message_replay_fails(self, scheme, keys):
        """A signature on one endorsement cannot be replayed for another."""
        endorsement_a = b"endorse|" + (1).to_bytes(8, "big") + b"|code-a"
        endorsement_b = b"endorse|" + (1).to_bytes(8, "big") + b"|code-b"
        signature = scheme.sign(keys, endorsement_a)
        assert scheme.verify(keys.public, endorsement_a, signature)
        assert not scheme.verify(keys.public, endorsement_b, signature)


@pytest.mark.parametrize("backend", available_backends())
class TestVerifyOnEveryBackend:
    """``verify`` recomputes ``R = g^s * X^(q - c)``; same verdicts as ``g^s / X^c``."""

    @pytest.fixture()
    def signed(self, backend):
        scheme = SignatureScheme(get_group(backend))
        keys = scheme.keygen(RandomSource(21))
        return scheme, keys, scheme.sign(keys, b"msg")

    def test_accepts_sign_output(self, signed):
        scheme, keys, signature = signed
        assert scheme.verify(keys.public, b"msg", signature)
        assert scheme.verify(keys.public, b"msg", replace(signature, commitment=None))

    def test_rejects_tampering(self, signed):
        scheme, keys, signature = signed
        other = scheme.keygen(RandomSource(23))
        bad_response = replace(signature, response=signature.response + 1)
        bad_challenge = replace(signature, challenge=signature.challenge + 1)
        assert not scheme.verify(keys.public, b"msg", bad_response)
        assert not scheme.verify(keys.public, b"msg", bad_challenge)
        assert not scheme.verify(keys.public, b"msh", signature)
        assert not scheme.verify(other.public, b"msg", signature)

    @pytest.mark.parametrize("response", [
        lambda s, q: s + q, lambda s, q: s - q, lambda s, q: -1, lambda s, q: q,
    ], ids=["s+q", "s-q", "-1", "q"])
    def test_refuses_a_response_outside_zero_to_q(self, signed, response):
        """Every residue of ``s`` satisfies ``g^s == R * X^c``; only ``s``
        itself is the signature, in the single and the batch path alike."""
        scheme, keys, signature = signed
        q = keys.public.group.order
        value = response(signature.response, q)
        honest = SignatureItem(keys.public, b"msg", signature)
        verifier = BatchVerifier(keys.public.group, rng=RandomSource(5))
        for commitment in (signature.commitment, None):
            bad = replace(signature, response=value, commitment=commitment)
            assert not scheme.verify(keys.public, b"msg", bad)
            outcome = verifier.verify_signatures([honest, SignatureItem(keys.public, b"msg", bad)])
            assert outcome.bad_indices == (1,)
        assert scheme.verify(keys.public, b"msg", signature)
        assert verifier.verify_signatures([honest, honest]).ok

    def test_refuses_a_carried_commitment_other_than_r(self, signed):
        """The batch path hashes the carried ``R``; the single path must not
        accept a signature whose carried ``R`` is junk either."""
        scheme, keys, signature = signed
        group = keys.public.group
        junk = replace(signature, commitment=signature.commitment * group.generator())
        assert not scheme.verify(keys.public, b"msg", junk)
        honest = SignatureItem(keys.public, b"msg", signature)
        outcome = BatchVerifier(group, rng=RandomSource(6)).verify_signatures(
            [honest, SignatureItem(keys.public, b"msg", junk)]
        )
        assert outcome.bad_indices == (1,)

    def test_challenge_congruent_to_zero(self, signed, monkeypatch):
        """``X^(q - c)`` is the identity for ``c = 0`` and ``c = q``: the hashed
        commitment is ``g^s``, and neither value is accepted or raises."""
        scheme, keys, _ = signed
        group = keys.public.group
        hashed = []
        original = group.hash_to_scalar

        def recording(*parts):
            hashed.append(parts[2])
            return original(*parts)

        monkeypatch.setattr(group, "hash_to_scalar", recording)
        for challenge in (0, group.order):
            assert not scheme.verify(keys.public, b"msg", SchnorrSignature(challenge, 5))
        assert hashed == [group.power_g(5).serialize()] * 2
