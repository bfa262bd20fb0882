"""O(num_options) homomorphic tally accumulator for one shard.

Instead of producing one ElGamal commitment per ballot (two exponentiations
each), :class:`StreamingTally` accumulates the plaintext unit vectors and the
per-coordinate randomness as integer sums, a block of votes at a time (a count
per option and a randomness sum per coordinate), and flushes to a *single*
commitment per shard at the end, using
``Enc(pk, Σv, Σr) = Π Enc(pk, v_i, r_i)`` — O(num_options) exponentiations
for the whole shard.  Group multiplication is exact and associative, so that
commitment is the bit-identical element ``OptionEncodingScheme.combine``
computes over the shard's per-ballot commitments; the merge layer folds the
shard commitments with the same ``combine``.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.commitments import (
    CommitmentOpening,
    OptionCommitment,
    OptionEncodingScheme,
)


class StreamingTally:
    """O(num_options) accumulator for a shard's homomorphic tally.

    Each cast ballot contributes its option's unit vector and one fresh
    randomness scalar per coordinate.  Votes arrive in blocks: the block's
    option indices and, per coordinate, the sum of the block's randomness, so
    a block is a count per option plus one integer addition per coordinate
    (the randomness sums are reduced modulo the group order when they are
    read, not per block).  ``commit()`` flushes the sums to one deterministic
    ElGamal commitment — exactly the element the per-ballot commitment
    product would produce, without ever materializing per-ballot ciphertexts.
    """

    def __init__(self, scheme: OptionEncodingScheme):
        self._scheme = scheme
        self._order = scheme.group.order
        self._values = [0] * scheme.num_options
        self._randomness = [0] * scheme.num_options

    def add_vote(self, option_indices: Sequence[int], randomness_sums: Sequence[int]) -> None:
        """Record a block of votes: each one's option index, and per coordinate
        the sum of the block's randomness (unreduced sums are fine)."""
        if len(randomness_sums) != self._scheme.num_options:
            raise ValueError("randomness vector length mismatch")
        counts = [option_indices.count(option) for option in range(self._scheme.num_options)]
        # An index counted under no option is out of range.
        if sum(counts) != len(option_indices):
            raise ValueError("option index out of range")
        self._values = [total + n for total, n in zip(self._values, counts, strict=True)]
        self._randomness = [
            total + r for total, r in zip(self._randomness, randomness_sums, strict=True)
        ]

    @property
    def counts(self) -> tuple:
        return tuple(self._values)

    def opening(self) -> CommitmentOpening:
        # Builtin ints (gmpy2 gives ``mpz``): the opening has a wire form.
        return CommitmentOpening(
            tuple(self._values), tuple(int(r % self._order) for r in self._randomness)
        )

    def commit(self) -> OptionCommitment:
        """One deterministic encryption per coordinate of the summed vector."""
        elgamal = self._scheme.elgamal
        public = self._scheme.public_key
        opening = self.opening()
        ciphertexts = tuple(
            elgamal.encrypt(public, value, randomness=r)
            for value, r in zip(opening.values, opening.randomness, strict=True)
        )
        return OptionCommitment(ciphertexts)
