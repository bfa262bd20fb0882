"""Pedersen verifiable secret sharing (VSS).

Trustee initialization data contains ``(ht, Nt)``-VSS shares of the openings
of every option-encoding commitment.  Pedersen's scheme [Pedersen 1991] is
used because it is *verifiable* (each share can be checked against public
polynomial commitments, so a malicious dealer or a corrupted trustee cannot
slip in a bad share) and *additively homomorphic* (a share of ``a + b`` is the
sum of a share of ``a`` and a share of ``b``), which is exactly what lets each
trustee locally compute its share of the homomorphic tally total and submit
only that.

What is and is not computed.  :meth:`PedersenVSS.deal` evaluates the shares
and nothing else: the check values ``g^a_j * h^b_j`` (``2 * threshold``
fixed-base table lookups per dealing) are computed the first time someone
reads :attr:`PedersenDealing.commitments`, once.  Pedersen's check values mean
something only where they are published, and this reproduction's EA
distributes none (``docs/ARCHITECTURE.md``, "Deviations from the paper"), so
its set-up, which deals ``2 * m`` secrets per ballot row, pays for no
commitment it then drops.  Until it dies a dealing holds its two sharing
polynomials; a dealer keeps the shares it delivers, not the dealing.

:meth:`PedersenVSS.evaluations` is the one dealing loop and returns bare
scalars; :meth:`PedersenVSS.deal` boxes its output.  The EA calls the former
and packs the pairs ``f(i), r(i)`` into per-trustee ``bytes`` blocks
(:func:`repro.crypto.shamir.pack_scalars`), which a BB node reconstructs by
position (:func:`repro.crypto.shamir.reconstruct_scalars`);
:meth:`PedersenVSS.reconstruct` stays as the per-share reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.group import Group, GroupElement, default_group
from repro.crypto.shamir import lagrange_at_zero
from repro.crypto.utils import RandomSource, default_random


@dataclass(frozen=True)
class PedersenShare:
    """One trustee's share: evaluation point, secret share and blinding share."""

    index: int
    value: int
    blinding: int

    def __add__(self, other: "PedersenShare") -> "PedersenShare":
        if self.index != other.index:
            raise ValueError("can only add shares held by the same trustee")
        return PedersenShare(self.index, self.value + other.value, self.blinding + other.blinding)


@dataclass(frozen=True)
class PedersenCommitments:
    """Public commitments to the sharing polynomials' coefficients."""

    commitments: tuple

    def __mul__(self, other: "PedersenCommitments") -> "PedersenCommitments":
        """Homomorphically add the underlying secrets/polynomials."""
        if len(self.commitments) != len(other.commitments):
            raise ValueError("mismatched polynomial degrees")
        return PedersenCommitments(
            tuple(a * b for a, b in zip(self.commitments, other.commitments, strict=True))
        )


class PedersenDealing:
    """Everything produced when dealing one secret: shares + public commitments."""

    def __init__(
        self,
        shares: tuple,
        coefficients: Tuple[Tuple[int, int], ...],
        commit: Callable[[int, int], GroupElement],
    ):
        self.shares = shares
        #: ``(a_j, b_j)``: the coefficients of ``f`` and ``r`` at each degree.
        self._coefficients = coefficients
        self._commit = commit

    @cached_property
    def commitments(self) -> PedersenCommitments:
        """The public check values, computed on first read and then kept."""
        return PedersenCommitments(tuple(self._commit(a, b) for a, b in self._coefficients))


class PedersenVSS:
    """(k, n) Pedersen verifiable secret sharing over a prime-order group."""

    def __init__(self, threshold: int, num_shares: int, group: Optional[Group] = None):
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        if num_shares < threshold:
            raise ValueError("cannot have fewer shares than the threshold")
        self.threshold = threshold
        self.num_shares = num_shares
        self.group = group or default_group()
        self.g = self.group.generator()
        self.h = self.group.second_generator()
        self.q = self.group.order

    # -- dealing -------------------------------------------------------------

    def evaluations(
        self, secret: int, rng: Optional[RandomSource] = None
    ) -> Tuple[List[Tuple[int, int]], Tuple[Tuple[int, int], ...]]:
        """Fresh sharing polynomials ``f`` (of ``secret``) and ``r`` (of a random
        blinding value): the pairs ``(f(i), r(i))`` for ``i = 1..num_shares``,
        and the coefficient pairs ``(a_j, b_j)`` the check values commit to."""
        rng = rng or default_random()
        secret %= self.q
        blinding = self.group.random_scalar(rng)
        f_coeffs = [secret] + [self.group.random_scalar(rng) for _ in range(self.threshold - 1)]
        r_coeffs = [blinding] + [self.group.random_scalar(rng) for _ in range(self.threshold - 1)]
        pairs = [
            (self._evaluate(f_coeffs, i), self._evaluate(r_coeffs, i))
            for i in range(1, self.num_shares + 1)
        ]
        return pairs, tuple(zip(f_coeffs, r_coeffs, strict=True))

    def deal(self, secret: int, rng: Optional[RandomSource] = None) -> PedersenDealing:
        """Share ``secret`` among ``num_shares`` parties."""
        pairs, coefficients = self.evaluations(secret, rng)
        shares = tuple(
            PedersenShare(index, value, blinding)
            for index, (value, blinding) in enumerate(pairs, start=1)
        )
        return PedersenDealing(shares, coefficients, self._pedersen_commit)

    def _evaluate(self, coefficients: Sequence[int], x: int) -> int:
        result = 0
        for coefficient in reversed(coefficients):
            result = (result * x + coefficient) % self.q
        return result

    def _pedersen_commit(self, value: int, blinding: int) -> GroupElement:
        """``g^value * h^blinding`` through the cached fixed-base tables."""
        return self.group.power_g(value) * self.group.power_h(blinding)

    # -- verification ----------------------------------------------------------

    def verify_share(self, share: PedersenShare, commitments: PedersenCommitments) -> bool:
        """Check a share against the public polynomial commitments.

        The left side reuses the fixed-base tables for ``g`` and ``h``; the
        right side is a variable-base product (the polynomial commitments are
        fresh per dealing), evaluated as one simultaneous multi-exponentiation
        instead of ``threshold`` separate ones.
        """
        lhs = self._pedersen_commit(share.value, share.blinding)
        power = 1
        pairs = []
        for commitment in commitments.commitments:
            pairs.append((commitment, power))
            power = (power * share.index) % self.q
        return lhs == self.group.multi_power(pairs)

    # -- reconstruction ---------------------------------------------------------

    def reconstruct(self, shares: Sequence[PedersenShare]) -> int:
        """Recover the secret from at least ``threshold`` distinct shares."""
        unique: Dict[int, PedersenShare] = {}
        for share in shares:
            unique[share.index] = share
        if len(unique) < self.threshold:
            raise ValueError(
                f"need at least {self.threshold} shares, got {len(unique)}"
            )
        indices = tuple(unique)[: self.threshold]
        coefficients = lagrange_at_zero(indices, self.q)
        return sum(
            unique[index].value * coefficient
            for index, coefficient in zip(indices, coefficients, strict=True)
        ) % self.q

    # -- homomorphism -----------------------------------------------------------

    @staticmethod
    def add_shares(shares: Sequence[PedersenShare]) -> PedersenShare:
        """Sum the shares one trustee holds for several secrets.

        The result is that trustee's share of the sum of the secrets, which is
        how a trustee contributes its share of the homomorphic tally total.
        """
        if not shares:
            raise ValueError("cannot add an empty list of shares")
        total = shares[0]
        for share in shares[1:]:
            total = total + share
        return total
