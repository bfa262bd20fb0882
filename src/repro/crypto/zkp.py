"""Chaum-Pedersen zero-knowledge proofs of ballot correctness.

A malicious Election Authority could place an arbitrary vector (say, 9000
votes for option 1) inside an option-encoding commitment.  To prevent this the
EA proves, in zero knowledge, that

* every lifted ElGamal ciphertext in a committed vector encrypts 0 or 1
  (a Sigma-OR of two Chaum-Pedersen proofs), and
* the component-wise product of the vector encrypts exactly 1
  (a plain Chaum-Pedersen proof), i.e. the vector is a unit vector.

D-DEMOS splits the Sigma protocol across the election timeline: the EA posts
the *first moves* (announcements) on the BB during setup, the voters' A/B part
choices are collected as the *challenge* (a min-entropy source), and the
trustees jointly produce the *final moves* (responses) after the election.
This module supports exactly that three-phase flow, plus a Fiat-Shamir variant
used by unit tests and auditors who want a non-interactive check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.crypto.commitments import CommitmentOpening, OptionCommitment
from repro.crypto.elgamal import ElGamalCiphertext, ElGamalKeyPair
from repro.crypto.group import Group, GroupElement, default_group
from repro.crypto.utils import RandomSource, default_random


@dataclass(frozen=True, slots=True)
class OrProofAnnouncement:
    """First move of a single 0/1 Sigma-OR proof (four group elements)."""

    a0: GroupElement
    b0: GroupElement
    a1: GroupElement
    b1: GroupElement

    def serialize(self) -> bytes:
        return (
            self.a0.serialize()
            + self.b0.serialize()
            + self.a1.serialize()
            + self.b1.serialize()
        )


@dataclass(frozen=True, slots=True)
class OrProofResponse:
    """Final move of a single 0/1 Sigma-OR proof."""

    challenge0: int
    challenge1: int
    response0: int
    response1: int


@dataclass(frozen=True, slots=True)
class SumProofAnnouncement:
    """First move of the plain Chaum-Pedersen proof that the sum is 1."""

    a: GroupElement
    b: GroupElement

    def serialize(self) -> bytes:
        return self.a.serialize() + self.b.serialize()


@dataclass(frozen=True, slots=True)
class SumProofResponse:
    """Final move of the sum-is-one proof."""

    response: int


@dataclass(frozen=True, slots=True)
class BallotProofAnnouncement:
    """All first moves for one committed option encoding."""

    or_announcements: tuple
    sum_announcement: SumProofAnnouncement

    def serialize(self) -> bytes:
        data = b"".join(a.serialize() for a in self.or_announcements)
        return data + self.sum_announcement.serialize()


@dataclass(frozen=True, slots=True)
class BallotProofResponse:
    """All final moves for one committed option encoding."""

    or_responses: tuple
    sum_response: SumProofResponse


@dataclass
class _ProverState:
    """Secret state the prover keeps between the first and final move."""

    opening: CommitmentOpening
    or_state: list
    sum_nonce: int


class BallotCorrectnessProver:
    """Produces the EA-side proofs that committed encodings are unit vectors.

    It holds the commitment key pair ``(x, y = g^x)``, as the EA does until
    set-up ends, so every power of ``y`` it announces is a power of ``g``.
    """

    def __init__(self, keys: ElGamalKeyPair, group: Optional[Group] = None):
        self.group = group or default_group()
        self.keys = keys

    # -- first move --------------------------------------------------------

    def first_move(
        self,
        commitment: OptionCommitment,
        opening: CommitmentOpening,
        rng: Optional[RandomSource] = None,
    ) -> tuple:
        """Return ``(announcement, state)`` for a committed unit vector.

        ``opening`` must open ``commitment``: every announcement is computed
        in the exponents the prover knows, never from the ciphertexts.  With
        ``(a, b) = (g^r, g^bit y^r)`` and ``t = s - r c (mod q)``, the
        simulated branch ``g^s / a^c``, ``y^s / (b / g^m)^c`` of the textbook
        proof is ``g^t``, ``y^t g^((m - bit) c) = g^(x t + (m - bit) c)``, and
        the ``y^nonce`` of the real branch and of the sum proof is
        ``g^(x nonce)`` -- the same group elements, one lookup in ``g``'s
        table each.
        """
        rng = rng or default_random()
        q = self.group.order
        if len(commitment.ciphertexts) != len(opening.values):
            raise ValueError("opening does not match the commitment length")
        g_power = self.group.fixed_base(self.group.generator()).power
        secret = self.keys.secret

        or_announcements = []
        or_state = []
        for bit, randomness in zip(opening.values, opening.randomness, strict=True):
            if bit not in (0, 1):
                raise ValueError("ballot proof requires 0/1 plaintexts")
            # Real branch uses a fresh nonce; the other branch is simulated.
            nonce = self.group.random_scalar(rng)
            fake_challenge = self.group.random_scalar(rng)
            fake_response = self.group.random_scalar(rng)
            a_real, b_real = g_power(nonce), g_power(secret * nonce)
            t = (fake_response - randomness * fake_challenge) % q
            a_fake = g_power(t)
            if bit == 0:
                # Simulated m=1 branch: m - bit = 1.
                b_fake = g_power(secret * t + fake_challenge)
                announcement = OrProofAnnouncement(a_real, b_real, a_fake, b_fake)
            else:
                # Simulated m=0 branch: m - bit = -1.
                b_fake = g_power(secret * t - fake_challenge)
                announcement = OrProofAnnouncement(a_fake, b_fake, a_real, b_real)
            or_announcements.append(announcement)
            or_state.append((bit, randomness % q, nonce, fake_challenge, fake_response))

        # Sum proof: the product ciphertext encrypts 1 with randomness sum(r_i).
        sum_nonce = self.group.random_scalar(rng)
        sum_announcement = SumProofAnnouncement(g_power(sum_nonce), g_power(secret * sum_nonce))

        announcement = BallotProofAnnouncement(tuple(or_announcements), sum_announcement)
        state = _ProverState(opening, or_state, sum_nonce)
        return announcement, state

    # -- final move --------------------------------------------------------

    def respond(self, state: _ProverState, challenge: int) -> BallotProofResponse:
        """Produce the final move for a given challenge scalar."""
        q = self.group.order
        challenge %= q
        or_responses = []
        for bit, randomness, nonce, fake_challenge, fake_response in state.or_state:
            real_challenge = (challenge - fake_challenge) % q
            real_response = (nonce + real_challenge * randomness) % q
            if bit == 0:
                or_responses.append(
                    OrProofResponse(real_challenge, fake_challenge, real_response, fake_response)
                )
            else:
                or_responses.append(
                    OrProofResponse(fake_challenge, real_challenge, fake_response, real_response)
                )
        total_randomness = sum(state.opening.randomness) % q
        sum_response = SumProofResponse((state.sum_nonce + challenge * total_randomness) % q)
        return BallotProofResponse(tuple(or_responses), sum_response)


class BallotCorrectnessVerifier:
    """Verifies the ballot-correctness proofs published on the BB."""

    def __init__(self, public_key: GroupElement, group: Optional[Group] = None):
        self.group = group or default_group()
        self.public_key = public_key

    def verify(
        self,
        commitment: OptionCommitment,
        announcement: BallotProofAnnouncement,
        challenge: int,
        response: BallotProofResponse,
    ) -> bool:
        """Check every OR proof and the sum proof against the challenge.

        The ``m=1`` equations are checked with ``g^c`` moved to the left-hand
        side (``y^s g^c == b1 b^c``), which needs no inverse of ``g``; powers
        of ``g`` and ``y`` go through their tables, ``a^c`` and ``b^c`` are
        genuinely variable-base.
        """
        g_power = self.group.power_g
        cached_power = self.group.cached_power
        y = self.public_key
        q = self.group.order
        challenge %= q

        if len(announcement.or_announcements) != len(commitment.ciphertexts):
            return False
        if len(response.or_responses) != len(commitment.ciphertexts):
            return False

        for ciphertext, ann, resp in zip(
            commitment.ciphertexts, announcement.or_announcements, response.or_responses,
            strict=True,
        ):
            if (resp.challenge0 + resp.challenge1) % q != challenge:
                return False
            # Branch m=0: g^s0 == a0 * a^c0  and  y^s0 == b0 * b^c0.
            if g_power(resp.response0) != ann.a0 * (ciphertext.a ** resp.challenge0):
                return False
            if cached_power(y, resp.response0) != ann.b0 * (ciphertext.b ** resp.challenge0):
                return False
            # Branch m=1: g^s1 == a1 * a^c1  and  y^s1 * g^c1 == b1 * b^c1.
            if g_power(resp.response1) != ann.a1 * (ciphertext.a ** resp.challenge1):
                return False
            if cached_power(y, resp.response1) * g_power(resp.challenge1) != ann.b1 * (
                ciphertext.b ** resp.challenge1
            ):
                return False

        # Sum proof over the product ciphertext (A, B): B must encrypt 1.
        product = self._product(commitment.ciphertexts)
        s = response.sum_response.response
        if g_power(s) != announcement.sum_announcement.a * (product.a ** challenge):
            return False
        if cached_power(y, s) * g_power(challenge) != announcement.sum_announcement.b * (
            product.b ** challenge
        ):
            return False
        return True

    @staticmethod
    def _product(ciphertexts: Sequence[ElGamalCiphertext]) -> ElGamalCiphertext:
        total = ciphertexts[0]
        for ciphertext in ciphertexts[1:]:
            total = total * ciphertext
        return total


def challenge_from_voter_coins(group: Group, coins: Sequence[int]) -> int:
    """Derive the proof challenge from the voters' A/B part choices.

    Each voter contributes one bit (0 for part A, 1 for part B).  The bits are
    packed and hashed into a scalar.  The paper's min-entropy Schwartz-Zippel
    argument bounds the soundness error by ``2^-theta`` where ``theta`` is the
    number of honest voters contributing coins.
    """
    packed = bytearray()
    for index, coin in enumerate(coins):
        if coin not in (0, 1):
            raise ValueError("voter coins must be bits")
        if index % 8 == 0:
            packed.append(0)
        packed[-1] |= coin << (index % 8)
    return group.hash_to_scalar(b"d-demos-voter-coins", bytes(packed), len(coins).to_bytes(8, "big"))


def fiat_shamir_challenge(
    group: Group,
    commitment: OptionCommitment,
    announcement: BallotProofAnnouncement,
) -> int:
    """Non-interactive challenge used by unit tests and standalone audits."""
    return group.hash_to_scalar(
        b"d-demos-fiat-shamir", commitment.serialize(), announcement.serialize()
    )
