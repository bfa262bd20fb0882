"""Incremental tally/commitment combination.

Group multiplication is exact and associative, so folding commitments one at a
time (or shard-product by shard-product) yields the *bit-identical* element
that ``core.tally.combine_tally_commitments`` computes over the full list.
That identity is what lets shards report one combined commitment each and the
merge layer fold them as they complete, keeping memory O(shard).

``StreamingTally`` goes one step further for the scale pipeline: instead of
producing one ElGamal commitment per ballot (two exponentiations each), it
accumulates the plaintext unit vectors and the per-coordinate randomness as
integer sums and flushes to a *single* commitment per shard at the end, using
``Enc(pk, Σv, Σr) = Π Enc(pk, v_i, r_i)`` — O(num_options) exponentiations for
the whole shard.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.commitments import (
    CommitmentOpening,
    OptionCommitment,
    OptionEncodingScheme,
)


class StreamingCommitmentCombiner:
    """Fold option commitments homomorphically, one at a time."""

    def __init__(self, scheme: OptionEncodingScheme):
        self._scheme = scheme
        self._total: Optional[OptionCommitment] = None
        self.count = 0

    def add(self, commitment: OptionCommitment) -> None:
        if len(commitment) != self._scheme.num_options:
            raise ValueError(
                f"commitment has {len(commitment)} coordinates, "
                f"scheme expects {self._scheme.num_options}"
            )
        self._total = commitment if self._total is None else self._total * commitment
        self.count += 1

    def result(self) -> OptionCommitment:
        """The combined commitment (the homomorphic identity when empty)."""
        if self._total is None:
            return self._scheme.combine([])
        return self._total


class StreamingOpeningCombiner:
    """Fold commitment openings additively, one at a time."""

    def __init__(self, scheme: OptionEncodingScheme):
        self._scheme = scheme
        self._total: Optional[CommitmentOpening] = None
        self.count = 0

    def add(self, opening: CommitmentOpening) -> None:
        if len(opening.values) != self._scheme.num_options:
            raise ValueError(
                f"opening has {len(opening.values)} coordinates, "
                f"scheme expects {self._scheme.num_options}"
            )
        self._total = opening if self._total is None else self._total + opening
        self.count += 1

    def result(self) -> CommitmentOpening:
        if self._total is None:
            return self._scheme.combine_openings([])
        return self._total


class StreamingTally:
    """O(num_options) accumulator for a shard's homomorphic tally.

    Each cast ballot contributes its option's unit vector and one fresh
    randomness scalar per coordinate; both are plain integer additions here
    (the randomness sums are reduced modulo the group order when they are
    read, not per vote).  ``commit()`` flushes the sums to one deterministic
    ElGamal commitment — exactly the element the per-ballot commitment
    product would produce, without ever materializing per-ballot ciphertexts.
    """

    def __init__(self, scheme: OptionEncodingScheme):
        self._scheme = scheme
        self._order = scheme.group.order
        self._values = [0] * scheme.num_options
        self._randomness = [0] * scheme.num_options
        self.count = 0

    def add_vote(self, option_index: int, randomness) -> None:
        """Record one vote for ``option_index`` with its randomness vector."""
        if not 0 <= option_index < self._scheme.num_options:
            raise ValueError("option index out of range")
        if len(randomness) != self._scheme.num_options:
            raise ValueError("randomness vector length mismatch")
        self._values[option_index] += 1
        for coordinate, r in enumerate(randomness):
            self._randomness[coordinate] += r
        self.count += 1

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
