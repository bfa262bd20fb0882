"""Shamir secret sharing with a signing dealer.

The paper secret-shares two kinds of values across the VC nodes:

* the 64-bit receipts printed on each ballot, with an ``(Nv - fv, Nv)``
  threshold, so a receipt can only be reconstructed when a strong majority of
  VC nodes cooperates; and
* the 128-bit master key ``msk`` protecting the encrypted vote codes on the BB.

The implementation follows the paper's own prototype: plain Shamir sharing
over a prime field where the dealer (the EA) signs each share, yielding a
"verifiable secret sharing with honest dealer".  A share carries the dealer's
signature so any node can check that a share it receives from another node was
genuinely produced by the EA, which is what lets the receipt-reconstruction
step reject garbage shares injected by Byzantine nodes.

The trustees' shares (thousands per trustee, never signed one by one) take
another form: *blocks*, fixed-width big-endian scalars packed into ``bytes``
with no evaluation point (:func:`pack_scalars`, :func:`reconstruct_scalars`).
:meth:`ShamirSecretSharing.evaluations` is the one dealing loop under both
forms; :meth:`ShamirSecretSharing.reconstruct` is the per-share reference the
block routine is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.signatures import SchnorrKeyPair, SchnorrSignature, SignatureScheme
from repro.crypto.utils import RandomSource, default_random

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


def scalar_width(prime: int) -> int:
    """Bytes of one fixed-width big-endian scalar of ``GF(prime)``."""
    return (prime.bit_length() + 7) // 8


def pack_scalars(values: Iterable[int], width: int) -> bytes:
    """A *block*: the scalars as fixed-width big-endian bytes, in order.

    ``int()`` because a gmpy2-backed group hands out ``mpz`` scalars.
    """
    return b"".join([int(value).to_bytes(width, "big") for value in values])


def unpack_scalars(block: bytes, width: int) -> List[int]:
    """The scalars of a block, in order."""
    from_bytes = int.from_bytes
    return [from_bytes(block[at:at + width], "big") for at in range(0, len(block), width)]


def reconstruct_scalars(
    points: Sequence[int], blocks: Sequence[bytes], width: int, prime: int
) -> List[int]:
    """The secrets of position-aligned blocks of evaluations.

    ``blocks[k]`` holds ``f_0(x_k), f_1(x_k), ...`` for the evaluation point
    ``x_k = points[k]``; the result is ``f_0(0), f_1(0), ...``.  The points
    are carried by no block: a holder's point is its position among the
    holders.  Every point counts, so pass exactly the threshold's worth.
    """
    coefficients = lagrange_at_zero(tuple(points), prime)
    columns = [unpack_scalars(block, width) for block in blocks]
    return [
        sum(map(mul, coefficients, evaluations)) % prime
        for evaluations in zip(*columns, strict=True)
    ]


@dataclass(frozen=True)
class Share:
    """A single Shamir share ``(x, f(x))`` of some secret."""

    index: int
    value: int

    def serialize(self) -> bytes:
        return self.index.to_bytes(4, "big") + self.value.to_bytes(32, "big")


@dataclass(frozen=True)
class SignedShare:
    """A Shamir share together with the dealer's signature and a context tag."""

    share: Share
    context: bytes
    signature: SchnorrSignature

    @property
    def index(self) -> int:
        return self.share.index

    @property
    def value(self) -> int:
        return self.share.value

    @cached_property
    def signing_message(self) -> bytes:
        """The bytes the dealer signed, built once per object (every receiver
        of a VOTE_P verifies the same decoded share).  ``cached_property``
        writes the instance ``__dict__``, not a field: equality, hashing and
        the wire encoding do not see the memo."""
        return share_signing_message(self.context, self.share)


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
        secret %= self.prime
        coefficients = [secret] + [
            rng.randint_below(self.prime) for _ in range(self.threshold - 1)
        ]
        return [self._evaluate(coefficients, x) for x in range(1, self.num_shares + 1)]

    def share(self, secret: int, rng: Optional[RandomSource] = None) -> List[Share]:
        """Split ``secret`` into ``num_shares`` shares of threshold ``threshold``."""
        return [
            Share(index, value)
            for index, value in enumerate(self.evaluations(secret, rng), start=1)
        ]

    def _evaluate(self, coefficients: Sequence[int], x: int) -> int:
        result = 0
        for coefficient in reversed(coefficients):
            result = (result * x + coefficient) % self.prime
        return result

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
        indices = tuple(unique)[: self.threshold]
        coefficients = lagrange_at_zero(indices, self.prime)
        return sum(
            unique[index] * coefficient
            for index, coefficient in zip(indices, coefficients, strict=True)
        ) % self.prime


def share_signing_message(context: bytes, share: Share) -> bytes:
    """Canonical byte string the dealer signs for one share.

    Built from the wire codec's canonical encoding (domain tag + typed,
    length-prefixed parts), so the signed bytes are unambiguous -- the old
    ``context + b"|" + share.serialize()`` concatenation could collide when a
    context itself contained a ``b"|"``.  Imported lazily because the codec
    package registers this module's dataclasses.
    """
    from repro.net.codec import signing_bytes

    return signing_bytes(b"dealer-share", context, share)


class SigningDealer:
    """EA-side helper that shares secrets and signs every share."""

    def __init__(
        self,
        threshold: int,
        num_shares: int,
        dealer_keys: Optional[SchnorrKeyPair] = None,
        prime: int = DEFAULT_PRIME,
        group=None,
    ):
        self.sss = ShamirSecretSharing(threshold, num_shares, prime)
        self.scheme = SignatureScheme(group)
        self.keys = dealer_keys or self.scheme.keygen()

    @property
    def public_key(self):
        """The dealer's public verification key, handed to every node."""
        return self.keys.public

    def deal(
        self, secret: int, context: bytes, rng: Optional[RandomSource] = None
    ) -> List[SignedShare]:
        """Share a secret and sign each share under a context tag.

        The ``context`` binds a share to what it is a share *of* (for example
        ``b"receipt|serial|part|row"``), preventing share-mixing attacks.
        """
        shares = self.sss.share(secret, rng=rng)
        signed = []
        for share in shares:
            message = share_signing_message(context, share)
            signature = self.scheme.sign(self.keys, message)
            signed.append(SignedShare(share, context, signature))
        return signed

    @staticmethod
    def verify_share(
        scheme: SignatureScheme, dealer_public, signed_share: SignedShare
    ) -> bool:
        """Check the dealer's signature on a share."""
        return scheme.verify(dealer_public, signed_share.signing_message, signed_share.signature)

    def reconstruct(self, shares: Sequence[SignedShare]) -> int:
        """Reconstruct from signed shares, ignoring invalid signatures."""
        valid = [
            signed.share
            for signed in shares
            if self.verify_share(self.scheme, self.keys.public, signed)
        ]
        return self.sss.reconstruct(valid)
