"""Option-encoding commitments.

The EA encodes option ``i`` (out of ``m``) as the unit vector ``e_i`` and
commits to it with a vector of lifted ElGamal ciphertexts, one ciphertext per
coordinate.  The commitment is additively homomorphic component-wise, so the
sum of all cast option encodings can be computed on the bulletin board without
opening anything; trustees only open the final homomorphic total.

An *opening* of a commitment is the pair (plaintext vector, randomness vector);
openings themselves are additive, which is what lets the trustees hold Pedersen
shares of openings and combine them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.crypto.elgamal import ElGamalCiphertext, ElGamalKeyPair, LiftedElGamal
from repro.crypto.group import Group, GroupElement, default_group
from repro.crypto.utils import RandomSource, default_random


@dataclass(frozen=True, slots=True, weakref_slot=True)
class CommitmentOpening:
    """Plaintext vector and per-coordinate randomness of a commitment."""

    values: Tuple[int, ...]
    randomness: Tuple[int, ...]

    def __add__(self, other: "CommitmentOpening") -> "CommitmentOpening":
        if len(self.values) != len(other.values):
            raise ValueError("cannot add openings of different lengths")
        values = tuple(a + b for a, b in zip(self.values, other.values, strict=True))
        randomness = tuple(a + b for a, b in zip(self.randomness, other.randomness, strict=True))
        return CommitmentOpening(values, randomness)


@dataclass(frozen=True, slots=True, weakref_slot=True)
class OptionCommitment:
    """A committed option encoding: one ciphertext per option coordinate."""

    ciphertexts: Tuple[ElGamalCiphertext, ...]

    def __len__(self) -> int:
        return len(self.ciphertexts)

    def __mul__(self, other: "OptionCommitment") -> "OptionCommitment":
        """Homomorphically add two committed vectors."""
        if len(self) != len(other):
            raise ValueError("cannot combine commitments of different lengths")
        combined = tuple(a * b for a, b in zip(self.ciphertexts, other.ciphertexts, strict=True))
        return OptionCommitment(combined)

    def serialize(self) -> bytes:
        return b"".join(c.serialize() for c in self.ciphertexts)


class OptionEncodingScheme:
    """Commit to option encodings and open/verify/tally them.

    The scheme is parameterised by the number of options ``m`` and an ElGamal
    public key whose secret is never used during the election (openings are
    revealed via the randomness, not via decryption), exactly as a commitment
    scheme should behave.  Only the committer -- the EA during set-up --
    holds the key pair, and it commits in the exponents it knows:
    ``(g^r, g^v y^r) = (g^r, g^(v + x r))``, two lookups in ``g``'s table.
    Everyone else checks openings against the public key.
    """

    def __init__(
        self,
        num_options: int,
        public_key: GroupElement,
        group: Optional[Group] = None,
    ):
        if num_options < 1:
            raise ValueError("an election needs at least one option")
        self.num_options = num_options
        self.group = group or default_group()
        self.public_key = public_key
        self.elgamal = LiftedElGamal(self.group)
        # Verifiers raise the key to each opening's randomness: warm its
        # fixed-base table once, so none of those powers is a plain ``pow``.
        self.group.fixed_base(public_key)

    # -- commitment creation ---------------------------------------------------

    def unit_vector(self, option_index: int) -> List[int]:
        """Return the unit-vector encoding ``e_i`` of an option."""
        if not 0 <= option_index < self.num_options:
            raise ValueError("option index out of range")
        vector = [0] * self.num_options
        vector[option_index] = 1
        return vector

    def commit_vector(
        self, keys: ElGamalKeyPair, vector: Sequence[int], rng: Optional[RandomSource] = None
    ) -> tuple:
        """Commit to an arbitrary integer vector under ``keys``, the pair of
        this scheme's public key; returns (commitment, opening)."""
        rng = rng or default_random()
        if len(vector) != self.num_options:
            raise ValueError("vector length does not match the number of options")
        if keys.public != self.public_key:
            raise ValueError("keys are not the pair of this scheme's public key")
        g_power = self.group.fixed_base(self.group.generator()).power
        secret = keys.secret
        randomness = tuple(self.group.random_scalar(rng) for _ in vector)
        ciphertexts = tuple(
            ElGamalCiphertext(g_power(r), g_power(value + secret * r))
            for value, r in zip(vector, randomness, strict=True)
        )
        commitment = OptionCommitment(ciphertexts)
        opening = CommitmentOpening(tuple(vector), randomness)
        return commitment, opening

    def commit_option(
        self, keys: ElGamalKeyPair, option_index: int, rng: Optional[RandomSource] = None
    ) -> tuple:
        """Commit to the unit-vector encoding of ``option_index`` under ``keys``."""
        return self.commit_vector(keys, self.unit_vector(option_index), rng=rng)

    # -- verification ----------------------------------------------------------

    def verify_opening(
        self, commitment: OptionCommitment, opening: CommitmentOpening
    ) -> bool:
        """Check that (values, randomness) opens the commitment."""
        if not len(commitment) == len(opening.values) == len(opening.randomness):
            return False
        for ciphertext, value, randomness in zip(
            commitment.ciphertexts, opening.values, opening.randomness, strict=True
        ):
            if not self.elgamal.open(self.public_key, ciphertext, value, randomness):
                return False
        return True

    def is_valid_option_encoding(self, opening: CommitmentOpening) -> bool:
        """Check the opening is a unit vector (each entry 0/1, summing to 1)."""
        if any(value not in (0, 1) for value in opening.values):
            return False
        return sum(opening.values) == 1

    # -- homomorphic tally -----------------------------------------------------

    def combine(self, commitments: Sequence[OptionCommitment]) -> OptionCommitment:
        """Homomorphically add a sequence of committed option encodings."""
        if not commitments:
            identity = ElGamalCiphertext(self.group.identity(), self.group.identity())
            return OptionCommitment(tuple(identity for _ in range(self.num_options)))
        total = commitments[0]
        for commitment in commitments[1:]:
            total = total * commitment
        return total

    def combine_openings(
        self, openings: Sequence[CommitmentOpening]
    ) -> CommitmentOpening:
        """Add openings; the result opens the combined commitment."""
        if not openings:
            zeros = tuple(0 for _ in range(self.num_options))
            return CommitmentOpening(zeros, zeros)
        total = openings[0]
        for opening in openings[1:]:
            total = total + opening
        return total
