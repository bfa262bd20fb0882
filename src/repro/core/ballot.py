"""Ballot data structures.

A ballot (Section III-D) consists of a unique 64-bit serial number and two
functionally equivalent parts, A and B.  Each part lists, for every election
option, a ``<vote-code, option, receipt>`` tuple: the vote code is a 160-bit
random number unique within the ballot, the receipt a 64-bit random number.
The voter uses one part (chosen at random) to vote and the other to audit.

This module also defines the per-node *views* of a ballot that the EA derives
from it:

* :class:`VcBallotView` -- what a VC node stores: salted hash commitments to
  the vote codes and its signed Shamir share of each receipt (rows shuffled).
* :class:`BbBallotView` -- what a BB node publishes: encrypted vote codes and
  the cryptographic payload (option-encoding commitment + ZK first move),
  rows shuffled with the same permutation.
* :class:`TrusteeBallotView` -- a trustee's shares of the commitment openings
  and of the zero-knowledge prover state, as two packed scalar blocks per
  part (the layout is on the class).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

PART_A = "A"
PART_B = "B"
PARTS = (PART_A, PART_B)


@dataclass(frozen=True)
class BallotLine:
    """One ``<vote-code, option, receipt>`` tuple of a ballot part."""

    vote_code: bytes
    option: str
    receipt: bytes


@dataclass(frozen=True)
class BallotPart:
    """One of the two functionally equivalent halves of a ballot."""

    name: str
    lines: Tuple[BallotLine, ...]

    def line_for_option(self, option: str) -> BallotLine:
        """Return the line for a given option label."""
        for line in self.lines:
            if line.option == option:
                return line
        raise KeyError(f"option {option!r} not present in ballot part {self.name}")

    def vote_code_for_option(self, option: str) -> bytes:
        return self.line_for_option(option).vote_code

    def receipt_for_vote_code(self, vote_code: bytes) -> Optional[bytes]:
        """Return the receipt printed next to a vote code, if present."""
        for line in self.lines:
            if line.vote_code == vote_code:
                return line.receipt
        return None


@dataclass(frozen=True)
class Ballot:
    """A complete voter ballot: serial number plus parts A and B."""

    serial: int
    part_a: BallotPart
    part_b: BallotPart

    def part(self, name: str) -> BallotPart:
        if name == PART_A:
            return self.part_a
        if name == PART_B:
            return self.part_b
        raise KeyError(f"unknown ballot part {name!r}")

    @property
    def parts(self) -> Tuple[BallotPart, BallotPart]:
        return (self.part_a, self.part_b)

    def all_vote_codes(self) -> List[bytes]:
        """Every vote code printed on the ballot (both parts)."""
        return [line.vote_code for part in self.parts for line in part.lines]

    def locate_vote_code(self, vote_code: bytes) -> Optional[Tuple[str, int]]:
        """Return ``(part name, line index)`` of a vote code, if present."""
        for part in self.parts:
            for index, line in enumerate(part.lines):
                if line.vote_code == vote_code:
                    return part.name, index
        return None


# ---------------------------------------------------------------------------
# Per-subsystem views produced by the EA
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VcBallotRow:
    """One shuffled row of a VC node's view: hash commitment + receipt share."""

    code_commitment: "SaltedHashCommitment"
    receipt_share: "SignedShare"


@dataclass(frozen=True)
class VcBallotView:
    """A VC node's initialization data for one ballot."""

    serial: int
    rows: Dict[str, Tuple[VcBallotRow, ...]]  # part name -> shuffled rows

    def find_vote_code(self, vote_code: bytes) -> Optional[Tuple[str, int]]:
        """Locate a submitted vote code by checking every hash commitment.

        Mirrors ``Ballot::VerifyVoteCode`` of Algorithm 1: iterate all rows of
        both parts and test ``H == SHA256(vote_code, salt)``.
        """
        for part_name, rows in self.rows.items():
            for index, row in enumerate(rows):
                if row.code_commitment.matches(vote_code):
                    return part_name, index
        return None

    def receipt_share_at(self, part: str, index: int) -> "SignedShare":
        return self.rows[part][index].receipt_share


@dataclass(frozen=True)
class BbBallotRow:
    """One shuffled row of the BB view: encrypted vote code + crypto payload."""

    encrypted_vote_code: "EncryptedVoteCode"
    commitment: "OptionCommitment"
    proof_announcement: "BallotProofAnnouncement"


@dataclass(frozen=True)
class BbBallotView:
    """A BB node's initialization data for one ballot (identical on all BBs)."""

    serial: int
    rows: Dict[str, Tuple[BbBallotRow, ...]]


@dataclass(frozen=True)
class TrusteeBallotView:
    """A trustee's initialization data for one ballot: two blocks per part.

    A block is the trustee's evaluations ``f(i)`` of the EA's sharing
    polynomials as fixed-width big-endian scalars mod ``q``
    (:func:`repro.crypto.shamir.pack_scalars`), the part's shuffled rows one
    after the other.  The evaluation point ``i`` is stored nowhere: it is the
    trustee's position in ``BbInitData.trustee_public_keys``.  Per row of an
    ``m``-option election:

    * ``opening`` -- ``4m`` scalars, the Pedersen pairs ``f(i), r(i)`` of the
      commitment opening: per option the plaintext coordinate's pair, then
      per option the randomness coordinate's pair;
    * ``zk`` -- ``8m + 2`` scalars, the Shamir shares of the affine
      coefficients ``const, lin`` of every final-move component of the
      Chaum-Pedersen proof, in the order of
      :meth:`repro.core.ea.ElectionAuthority._zk_affine_coefficients`
      (empty when the election publishes no proofs).
    """

    serial: int
    opening: Dict[str, bytes]  # part name -> rows * 4m scalars
    zk: Dict[str, bytes]  # part name -> rows * (8m + 2) scalars, or b""


# The forward-referenced types are imported lazily to avoid import cycles in
# documentation tools; runtime users always construct these via the EA.
from repro.crypto.commitments import OptionCommitment  # noqa: E402  (re-export for typing)
from repro.crypto.shamir import SignedShare  # noqa: E402
from repro.crypto.symmetric import EncryptedVoteCode, SaltedHashCommitment  # noqa: E402
from repro.crypto.zkp import BallotProofAnnouncement  # noqa: E402
