"""O(num_options) homomorphic tally accumulator for one shard.

Instead of producing one ElGamal commitment per ballot (two exponentiations
each), :class:`StreamingTally` accumulates the plaintext unit vectors and the
per-coordinate randomness as integer sums and flushes to a *single*
commitment per shard at the end, using
``Enc(pk, Σv, Σr) = Π Enc(pk, v_i, r_i)`` — O(num_options) exponentiations
for the whole shard.  Group multiplication is exact and associative, so that
commitment is the bit-identical element ``OptionEncodingScheme.combine``
computes over the shard's per-ballot commitments; the merge layer folds the
shard commitments with the same ``combine``.
"""

from __future__ import annotations

from repro.crypto.commitments import (
    CommitmentOpening,
    OptionCommitment,
    OptionEncodingScheme,
)


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
