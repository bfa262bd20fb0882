"""Shamir secret sharing with an honest dealer that commits to every share.

The paper secret-shares two kinds of values across the VC nodes:

* the 64-bit receipts printed on each ballot, with an ``(Nv - fv, Nv)``
  threshold, so a receipt can only be reconstructed when a strong majority of
  VC nodes cooperates; and
* the 128-bit master key ``msk`` protecting the encrypted vote codes on the BB.

The paper's prototype has the dealer (the EA) sign each share, a "verifiable
secret sharing with honest dealer".  Here the dealer commits to each share
instead (:func:`share_digest`) and hands every holder the digests of all
``Nv`` shares in its trusted initialization data, as Algorithm 1 already
authenticates vote codes by hash commitments.  A node accepts a share another
node sends iff :func:`share_matches` its digest, which is what lets receipt
and ``msk`` reconstruction reject garbage shares injected by Byzantine nodes
(see "Deviations from the paper" in ``docs/ARCHITECTURE.md``).

The trustees' shares (thousands per trustee, never committed to one by one)
take another form: *blocks*, fixed-width big-endian scalars packed into
``bytes`` with no evaluation point (:func:`pack_scalars`,
:func:`reconstruct_scalars`).  :meth:`ShamirSecretSharing.evaluations` is the
one dealing loop under both forms; :meth:`ShamirSecretSharing.reconstruct` is
the per-share reference the block routine is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.utils import RandomSource, default_random, sha256

#: A prime slightly above 2^255; the field in which shares live.  It is large
#: enough to hold 64-bit receipts, 128-bit keys and 160-bit vote codes.
DEFAULT_PRIME = 2 ** 255 + 95


@lru_cache(maxsize=256)
def lagrange_at_zero(indices: Tuple[int, ...], prime: int) -> Tuple[int, ...]:
    """Coefficients ``l_i(0)`` with ``f(0) = sum(l_i(0) * f(x_i))`` over ``GF(prime)``.

    They depend on the evaluation points alone, and a result phase
    reconstructs thousands of secrets from the same two or three trustees, so
    the one modular inversion per point is paid once per index tuple and
    field (both are in the memo key) instead of once per share.  ``indices``
    must be distinct modulo ``prime``.
    """
    coefficients = []
    for i, xi in enumerate(indices):
        numerator, denominator = 1, 1
        for j, xj in enumerate(indices):
            if i == j:
                continue
            numerator = (numerator * (-xj)) % prime
            denominator = (denominator * (xi - xj)) % prime
        coefficients.append(numerator * pow(denominator, -1, prime) % prime)
    return tuple(coefficients)


def polynomial_evaluations(coefficients: Sequence[int], num_points: int, prime: int) -> List[int]:
    """``f(1), ..., f(num_points)`` for ``f(x) = sum(coefficients[j] * x^j)`` over
    ``GF(prime)``: Horner's rule on plain integers, one reduction per point."""
    highest_first = coefficients[::-1]
    values = []
    for x in range(1, num_points + 1):
        value = 0
        for coefficient in highest_first:
            value = value * x + coefficient
        values.append(value % prime)
    return values


def scalar_width(prime: int) -> int:
    """Bytes of one fixed-width big-endian scalar of ``GF(prime)``."""
    return (prime.bit_length() + 7) // 8


def pack_scalars(values: Iterable[int], width: int) -> bytes:
    """A *block*: the scalars as fixed-width big-endian bytes, in order.

    ``int()`` because a gmpy2-backed group hands out ``mpz`` scalars.
    """
    return b"".join([int(value).to_bytes(width, "big") for value in values])


def unpack_scalars(block: bytes, width: int, step: int = 1) -> List[int]:
    """The scalars of a block, in order; every ``step``-th from the first."""
    from_bytes = int.from_bytes
    return [
        from_bytes(block[at:at + width], "big") for at in range(0, len(block), width * step)
    ]


def reconstruct_scalars(
    points: Sequence[int], blocks: Sequence[bytes], width: int, prime: int, step: int = 1
) -> List[int]:
    """The secrets of position-aligned blocks of evaluations.

    ``blocks[k]`` holds ``f_0(x_k), f_1(x_k), ...`` for the evaluation point
    ``x_k = points[k]``; the result is ``f_0(0), f_1(0), ...``, or with
    ``step`` only ``f_0(0), f_step(0), f_2step(0), ...``: the other
    positions are not summed.  The points are carried by no block: a
    holder's point is its position among the holders.  Every point counts,
    so pass exactly the threshold's worth.
    """
    coefficients = lagrange_at_zero(tuple(points), prime)
    columns = [unpack_scalars(block, width, step) for block in blocks]
    return [
        sum(map(mul, coefficients, evaluations)) % prime
        for evaluations in zip(*columns, strict=True)
    ]


@dataclass(frozen=True, slots=True, weakref_slot=True)
class Share:
    """A single Shamir share ``(x, f(x))`` of some secret."""

    index: int
    value: int

    def serialize(self) -> bytes:
        return self.index.to_bytes(4, "big") + self.value.to_bytes(32, "big")


class ShamirSecretSharing:
    """Threshold secret sharing over ``GF(prime)``."""

    def __init__(self, threshold: int, num_shares: int, prime: int = DEFAULT_PRIME):
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        if num_shares < threshold:
            raise ValueError("cannot have fewer shares than the threshold")
        if prime <= num_shares:
            raise ValueError("field too small for the number of shares")
        self.threshold = threshold
        self.num_shares = num_shares
        self.prime = prime

    # -- sharing ------------------------------------------------------------

    def evaluations(self, secret: int, rng: Optional[RandomSource] = None) -> List[int]:
        """``f(1), ..., f(num_shares)`` of a fresh sharing polynomial of ``secret``."""
        rng = rng or default_random()
        prime = self.prime
        draw = rng.randint_below
        coefficients = [secret % prime] + [draw(prime) for _ in range(self.threshold - 1)]
        return polynomial_evaluations(coefficients, self.num_shares, prime)

    def share(self, secret: int, rng: Optional[RandomSource] = None) -> List[Share]:
        """Split ``secret`` into ``num_shares`` shares of threshold ``threshold``."""
        return [
            Share(index, value)
            for index, value in enumerate(self.evaluations(secret, rng), start=1)
        ]

    # -- reconstruction ------------------------------------------------------

    def reconstruct(self, shares: Sequence[Share]) -> int:
        """Recover the secret from at least ``threshold`` distinct shares."""
        unique: Dict[int, int] = {}
        for share in shares:
            unique[share.index] = share.value
        if len(unique) < self.threshold:
            raise ValueError(
                f"need at least {self.threshold} shares, got {len(unique)}"
            )
        # The first ``threshold`` shares to arrive, in index order: the memo
        # of ``lagrange_at_zero`` then sees one key per subset, not per order.
        indices = tuple(sorted(tuple(unique)[: self.threshold]))
        coefficients = lagrange_at_zero(indices, self.prime)
        return sum(
            unique[index] * coefficient
            for index, coefficient in zip(indices, coefficients, strict=True)
        ) % self.prime


def share_digest(context: bytes, share: Share) -> bytes:
    """The dealer's commitment to one share: SHA-256 over a domain tag, the
    ``context`` and the share's fixed-width encoding (length-prefixed parts,
    so no two inputs collide).  The share must be encodable: an index below
    ``2**32`` and a value below ``2**256``, as every dealt share is."""
    return sha256(b"dealer-share", context, share.serialize())


def share_matches(context: bytes, digests: Sequence[bytes], share: Share) -> bool:
    """Whether ``share`` is the dealt share its index names: ``digests[i - 1]``
    is the dealer's digest of share ``i``.  An index outside ``1..len(digests)``
    or a value no dealt share can have is refused before anything is hashed."""
    index = share.index
    return (
        0 < index <= len(digests)
        and 0 <= share.value < 1 << 256
        and share_digest(context, share) == digests[index - 1]
    )


class ShareDealer:
    """EA-side helper that shares secrets and commits to every share."""

    def __init__(self, threshold: int, num_shares: int, prime: int = DEFAULT_PRIME):
        self.sss = ShamirSecretSharing(threshold, num_shares, prime)

    def deal(
        self, secret: int, context: bytes, rng: Optional[RandomSource] = None
    ) -> Tuple[List[Share], Tuple[bytes, ...]]:
        """Share a secret; return the shares and their digests under
        ``context``, which names what a share is a share *of* (for example
        ``b"receipt|serial|part"``)."""
        shares = self.sss.share(secret, rng=rng)
        return shares, tuple(share_digest(context, share) for share in shares)

    def reconstruct(
        self, shares: Sequence[Share], context: bytes, digests: Sequence[bytes]
    ) -> int:
        """Reconstruct from the shares that match their digests, ignoring the rest."""
        return self.sss.reconstruct(
            [share for share in shares if share_matches(context, digests, share)]
        )


# ``benchmarks/e2e/trace.py`` traces ``SigningDealer.reconstruct`` under this,
# the class's name while it signed every share; the alias goes with the next
# change to that benchmark.
SigningDealer = ShareDealer
