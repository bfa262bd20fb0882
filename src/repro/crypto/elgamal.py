"""Lifted (exponential) ElGamal encryption.

The paper commits to option encodings with "a vector of (lifted) ElGamal
ciphertexts over elliptic curve, that element-wise encrypts a unit vector" and
relies on the additive homomorphism of the scheme to tally.  A lifted ElGamal
ciphertext of message ``m`` under public key ``y = g^x`` is::

    (a, b) = (g^r, g^m * y^r)

Multiplying ciphertexts component-wise adds the plaintexts, which is exactly
what the trustees exploit when they homomorphically sum the cast ballots.
Decryption recovers ``g^m``; recovering ``m`` itself requires a small discrete
logarithm, which is fine because tallies are bounded by the number of voters.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.group import Group, GroupElement, default_group
from repro.crypto.utils import RandomSource, default_random
from repro.values import frozen_value


@frozen_value(weakref_slot=True)
class ElGamalCiphertext:
    """A lifted ElGamal ciphertext ``(a, b) = (g^r, g^m y^r)``."""

    a: GroupElement
    b: GroupElement

    def __mul__(self, other: "ElGamalCiphertext") -> "ElGamalCiphertext":
        """Homomorphic addition of plaintexts (component-wise product)."""
        return ElGamalCiphertext(self.a * other.a, self.b * other.b)

    def serialize(self) -> bytes:
        return self.a.serialize() + self.b.serialize()


@frozen_value
class ElGamalKeyPair:
    """An ElGamal key pair ``(x, y = g^x)``."""

    secret: int
    public: GroupElement


class LiftedElGamal:
    """Lifted ElGamal over an abstract prime-order group.

    Powers of the generator (``g^r``, ``g^m``) go through the group's windowed
    fixed-base table (:meth:`repro.crypto.group.Group.fixed_base`); powers of
    a public key (``y^r``) through :meth:`repro.crypto.group.Group.cached_power`,
    which uses the key's table when one is built (the commitment scheme builds
    its key's) and otherwise builds one only for a key used many times.  EA
    set-up does not encrypt here: it holds ``x`` and commits in ``g`` alone
    (:meth:`repro.crypto.commitments.OptionEncodingScheme.commit_vector`).
    """

    def __init__(self, group: Optional[Group] = None):
        self.group = group or default_group()

    def keygen(self, rng: Optional[RandomSource] = None) -> ElGamalKeyPair:
        """Generate a fresh key pair."""
        rng = rng or default_random()
        secret = self.group.random_scalar(rng)
        public = self.group.power_g(secret)
        return ElGamalKeyPair(secret, public)

    def encrypt(
        self,
        public: GroupElement,
        message: int,
        randomness: Optional[int] = None,
        rng: Optional[RandomSource] = None,
    ) -> ElGamalCiphertext:
        """Encrypt the integer ``message`` in the exponent."""
        rng = rng or default_random()
        r = randomness if randomness is not None else self.group.random_scalar(rng)
        a = self.group.power_g(r)
        b = self.group.power_g(message) * self.group.cached_power(public, r)
        return ElGamalCiphertext(a, b)

    def decrypt_to_element(
        self, keypair: ElGamalKeyPair, ciphertext: ElGamalCiphertext
    ) -> GroupElement:
        """Decrypt to ``g^m`` without solving the discrete log."""
        return ciphertext.b * ciphertext.a ** (self.group.order - keypair.secret)

    def decrypt(
        self,
        keypair: ElGamalKeyPair,
        ciphertext: ElGamalCiphertext,
        max_message: int = 1 << 20,
    ) -> int:
        """Decrypt and solve the small discrete log by brute force.

        ``max_message`` bounds the search; election tallies are bounded by the
        number of voters so this stays cheap.
        """
        target = self.decrypt_to_element(keypair, ciphertext)
        return self.discrete_log(target, max_message)

    def discrete_log(self, target: GroupElement, max_message: int = 1 << 20) -> int:
        """Find ``m`` with ``g^m == target`` for small ``m`` (linear scan)."""
        g = self.group.generator()
        accumulator = self.group.identity()
        for m in range(max_message + 1):
            if accumulator == target:
                return m
            accumulator = accumulator * g
        raise ValueError("discrete log not found within bound")

    def open(
        self,
        public: GroupElement,
        ciphertext: ElGamalCiphertext,
        message: int,
        randomness: int,
    ) -> bool:
        """Verify an opening ``(message, randomness)`` of a ciphertext."""
        expected = self.encrypt(public, message, randomness=randomness)
        return expected.a == ciphertext.a and expected.b == ciphertext.b
