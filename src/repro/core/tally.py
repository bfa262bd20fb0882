"""Tally-related helpers shared by the Bulletin Board, trustees and auditors.

The final election result is obtained by homomorphically multiplying the
option-encoding commitments of every cast ballot row (the tally set
``E_tally``) and opening only that product, never an individual commitment.
The opening itself is reconstructed from the trustees' Pedersen shares.
Every party folds the product with :meth:`OptionEncodingScheme.combine`
(openings with ``combine_openings``) and checks the opening with
:func:`open_tally`: the BB, the auditor's check (h) and the cross-shard
merge all redo the same computation.

This module also derives the zero-knowledge challenge from the voters' A/B
part choices: each voted ballot contributes one coin (0 for part A, 1 for
part B), and the coins -- ordered by serial number -- are hashed into the
challenge scalar.  The min-entropy of the coins of honest voters is what
bounds the soundness error (Theorem 3).
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from repro.core.ballot import PART_A, PART_B
from repro.crypto.commitments import CommitmentOpening, OptionCommitment, OptionEncodingScheme
from repro.crypto.group import Group
from repro.crypto.zkp import challenge_from_voter_coins
from repro.values import frozen_value


@frozen_value
class TallyResult:
    """The published election result."""

    counts: Tuple[int, ...]
    options: Tuple[str, ...]
    total_votes: int

    def as_dict(self) -> Dict[str, int]:
        """Return ``{option label: count}``."""
        return dict(zip(self.options, self.counts, strict=True))

    def winner(self) -> str:
        """Return the label of the option with the most votes (ties: first)."""
        best = max(range(len(self.counts)), key=lambda i: (self.counts[i], -i))
        return self.options[best]


def part_coin(part_name: str) -> int:
    """Map a ballot part to its challenge coin (A -> 0, B -> 1)."""
    if part_name == PART_A:
        return 0
    if part_name == PART_B:
        return 1
    raise ValueError(f"unknown ballot part {part_name!r}")


def voter_coin_challenge(group: Group, cast_parts: Mapping[int, str]) -> int:
    """Derive the ZK challenge from which part each voted ballot used.

    ``cast_parts`` maps the serial number of every *voted* ballot to the name
    of the part the cast vote code belongs to.  Ballots are ordered by serial
    so every party derives the same challenge.
    """
    coins = [part_coin(cast_parts[serial]) for serial in sorted(cast_parts)]
    if not coins:
        # No votes cast: fall back to a fixed public challenge.
        coins = [0]
    return challenge_from_voter_coins(group, coins)


def open_tally(
    scheme: OptionEncodingScheme,
    combined: OptionCommitment,
    opening: CommitmentOpening,
    options: Sequence[str],
) -> TallyResult:
    """Verify the reconstructed opening of the combined commitment and return the tally.

    Raises ``ValueError`` if the opening does not match the combined
    commitment -- which would indicate corrupted trustee shares or a corrupted
    BB state, and must never be silently accepted.
    """
    if not scheme.verify_opening(combined, opening):
        raise ValueError("tally opening does not verify against the combined commitment")
    counts = tuple(int(value) for value in opening.values)
    return TallyResult(counts=counts, options=tuple(options), total_votes=sum(counts))


def expected_tally(options: Sequence[str], choices: Sequence[str]) -> TallyResult:
    """Compute the plaintext tally of a list of option labels (test helper)."""
    counts = [0] * len(options)
    index = {option: i for i, option in enumerate(options)}
    for choice in choices:
        counts[index[choice]] += 1
    return TallyResult(tuple(counts), tuple(options), len(choices))
