"""Schnorr digital signatures over the shared group abstraction.

The paper has the EA generate all public/private key pairs for the system
components (no external PKI).  VC nodes sign ENDORSEMENT messages and
trustee writes to the BB are verified by trustee keys; the Shamir shares the
EA deals are authenticated by hash commitments, not signatures
(:mod:`repro.crypto.shamir`).  Any EUF-CMA signature scheme satisfies the
model; we use Schnorr signatures because they reuse the group code already
present for ElGamal and Pedersen commitments.

Nonces are derived, not drawn (deterministic nonces in the manner of RFC
6979): ``k`` hashes the secret key, the public key and the message, so one
key signs one message one way, a signature never depends on an RNG, and a
seeded run's frames are the same bytes on every run.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.group import Group, GroupElement, default_group
from repro.crypto.utils import RandomSource, default_random, int_to_bytes
from repro.values import frozen_value


@frozen_value
class SchnorrKeyPair:
    """A Schnorr signing key pair ``(x, X = g^x)``."""

    secret: int
    public: GroupElement


@frozen_value(weakref_slot=True)
class SchnorrSignature:
    """A Schnorr signature ``(challenge, response)``.

    ``commitment`` carries the nonce commitment ``R = g^k`` the challenge was
    derived from.  It is redundant for single verification (which recomputes
    it), but it is part of the wire format -- an optional field of the framed
    signature, one serialized group element -- because the *receiver's*
    :mod:`repro.crypto.batch_verify` needs it to check ``g^s == R * X^c`` for
    many signatures with one multi-exponentiation instead of recomputing
    every ``R`` individually.
    """

    challenge: int
    response: int
    commitment: Optional[GroupElement] = None

    def serialize(self) -> bytes:
        return self.challenge.to_bytes(32, "big") + self.response.to_bytes(32, "big")


class SignatureScheme:
    """Schnorr signatures with Fiat-Shamir challenges."""

    def __init__(self, group: Optional[Group] = None):
        self.group = group or default_group()

    def keygen(self, rng: Optional[RandomSource] = None) -> SchnorrKeyPair:
        """Generate a fresh signing key pair."""
        rng = rng or default_random()
        secret = self.group.random_scalar(rng)
        return SchnorrKeyPair(secret, self.group.power_g(secret))

    def sign(self, keys: SchnorrKeyPair, message: bytes) -> SchnorrSignature:
        """Sign ``message`` with the secret key.

        The arithmetic runs in the *key's* group, not the scheme's default:
        keys are minted by the EA in the scenario's backend group and then
        verified by nodes that may have been constructed without one, so the
        key is the authoritative backend carrier.  The nonce is a hash of the
        secret key, the public key and the message (see the module docs).
        """
        group = keys.public.group
        public = keys.public.serialize()
        nonce = group.hash_to_scalar(
            b"d-demos-schnorr-nonce", int_to_bytes(int(keys.secret)), public, message
        )
        commitment = group.power_g(nonce)
        challenge = group.hash_to_scalar(
            b"d-demos-schnorr-sig",
            public,
            commitment.serialize(),
            message,
        )
        response = (nonce + challenge * keys.secret) % group.order
        return SchnorrSignature(challenge, response, commitment)

    def verify(
        self, public: GroupElement, message: bytes, signature: SchnorrSignature
    ) -> bool:
        """Verify a signature on ``message`` under ``public``.

        Each signer's key verifies many signatures per election (one per
        endorsement and trustee submission), so ``X^c`` goes through a
        per-key fixed-base table just like ``g^s`` -- built lazily once the
        key proves hot, so one-shot keys keep plain ``pow`` speed.  As in
        :meth:`sign`, the group comes from the public key.  Only the canonical
        response in ``[0, q)`` is accepted: every other residue of it would
        verify too, giving one signature many encodings.  A carried
        ``commitment`` must be the recomputed ``R``: the batch verifier hashes
        the carried one, so accepting any other here would let the two paths
        disagree.
        """
        group = public.group
        if not 0 <= signature.response < group.order:
            return False
        # Recompute the commitment R = g^s / X^c as g^s * X^(q - c): negating
        # the exponent costs nothing, inverting the power is a modular inversion.
        commitment = group.power_g(signature.response) * group.cached_power(
            public, group.order - signature.challenge
        )
        if signature.commitment is not None and signature.commitment != commitment:
            return False
        expected = group.hash_to_scalar(
            b"d-demos-schnorr-sig",
            public.serialize(),
            commitment.serialize(),
            message,
        )
        return expected == signature.challenge
