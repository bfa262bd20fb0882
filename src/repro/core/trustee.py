"""Trustees: result tabulation without ever holding a full secret.

After the election each trustee (Section III-H):

1. fetches the election data from the BB subsystem (via a majority read) and
   verifies it: for every ballot either exactly one part is voted, or none;
   ballots violating this (both parts voted, or more cast rows than allowed)
   are discarded;
2. for the *voted* part of each voted ballot, posts its share of the final
   move of each row's Chaum-Pedersen proof (the commitments stay closed) and
   collects the cast rows' commitments into the tally set ``E_tally``;
3. for the *unused* part of each voted ballot and for both parts of unvoted
   ballots, posts its share of each commitment opening;
4. adds, coordinate-wise, its shares of the openings of all commitments in
   ``E_tally`` and posts the result ``T_l`` -- its share of the opening of the
   homomorphic total.

The zero-knowledge final moves are computed from the affine-coefficient
shares dealt by the EA: every transcript component is an affine function of
the challenge, so a trustee's share of the component is simply
``share(const) + challenge * share(lin)`` -- see
:meth:`repro.core.ea.ElectionAuthority._zk_affine_coefficients`.

What a trustee posts is a :class:`TrusteeSubmission`: an immutable value that
is built in one constructor call, signed by attaching the signature to a copy,
and encodes its canonical bytes once however many BB nodes ask for the digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.ballot import PARTS
from repro.core.ea import TrusteeInitData
from repro.core.election import ElectionParameters
from repro.core.tally import voter_coin_challenge
from repro.crypto.group import Group
from repro.crypto.pedersen_vss import PedersenShare
from repro.crypto.shamir import Share
from repro.crypto.signatures import SignatureScheme
from repro.crypto.utils import sha256


@dataclass(frozen=True)
class RowOpeningShares:
    """A trustee's opening shares for one ballot row (one share per coordinate)."""

    value_shares: Tuple[PedersenShare, ...]
    randomness_shares: Tuple[PedersenShare, ...]


@dataclass(frozen=True)
class RowProofShares:
    """A trustee's shares of the ZK final-move components for one ballot row."""

    component_shares: Mapping[str, Share]

    def __post_init__(self) -> None:
        # A read-only view of a private copy: see TrusteeSubmission.
        object.__setattr__(
            self, "component_shares", MappingProxyType(dict(self.component_shares))
        )


@dataclass(frozen=True)
class TrusteeSubmission:
    """Everything one trustee posts to the BB nodes after the election.

    An immutable value: the fields cannot be assigned, the two maps are
    read-only views of private copies, and everything below them is a tuple
    or a frozen dataclass.  That is what lets :meth:`digest` encode the
    submission once per object -- by the trustee that signs it -- while every
    BB node that verifies the signature still asks for the digest itself.
    Change a submission with :func:`dataclasses.replace`; the new object has
    no stored digest.
    """

    trustee_id: str
    challenge: int
    #: (serial, part) -> per-row opening shares, for parts that get opened
    opening_shares: Mapping[Tuple[int, str], Tuple[RowOpeningShares, ...]] = field(
        default_factory=dict
    )
    #: (serial, part) -> per-row proof-component shares, for used parts
    proof_shares: Mapping[Tuple[int, str], Tuple[RowProofShares, ...]] = field(
        default_factory=dict
    )
    #: the trustee's share of the opening of the homomorphic total
    tally_value_shares: Tuple[PedersenShare, ...] = ()
    tally_randomness_shares: Tuple[PedersenShare, ...] = ()
    #: ballots the trustee discarded as invalid
    discarded: Tuple[int, ...] = ()
    #: over :meth:`digest`, which does not cover it
    signature: Optional[object] = None

    def __post_init__(self) -> None:
        for name in ("opening_shares", "proof_shares"):
            rows = {key: tuple(value) for key, value in getattr(self, name).items()}
            object.__setattr__(self, name, MappingProxyType(rows))
        for name in ("tally_value_shares", "tally_randomness_shares", "discarded"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def shares(self) -> Iterator[object]:
        """Every share the submission carries, lazily (chained in C: a BB node
        looks at each of the ~10^4 shares of each submission it receives)."""
        opened = chain.from_iterable(self.opening_shares.values())
        proved = chain.from_iterable(self.proof_shares.values())
        return chain(
            chain.from_iterable(
                side for row in opened for side in (row.value_shares, row.randomness_shares)
            ),
            chain.from_iterable(row.component_shares.values() for row in proved),
            self.tally_value_shares,
            self.tally_randomness_shares,
        )

    def signed(self, signature: object) -> "TrusteeSubmission":
        """A copy carrying ``signature``, with this object's stored digest if
        it has one: the signature is the one field the digest does not cover."""
        copy = replace(self, signature=signature)
        if "_digest" in self.__dict__:
            copy.__dict__["_digest"] = self.__dict__["_digest"]
        return copy

    def digest(self) -> bytes:
        """Deterministic digest of the submission, used for signing.

        The digest hashes the canonical wire encoding of every share (via
        :func:`repro.net.codec.signing_bytes`), interleaved with typed section
        markers, so two structurally different submissions can never produce
        the same byte string -- the old ``:``/``|``-joined text rendering gave
        no such guarantee for adversarially chosen components.

        Encoded on the first call and kept on the object.
        """
        return self._digest

    @cached_property
    def _digest(self) -> bytes:
        """``cached_property`` writes the instance ``__dict__``, not a field:
        equality and :func:`dataclasses.replace` do not see the stored value."""
        # Imported lazily: the codec registers this package's message types.
        from repro.net.codec import signing_bytes

        # Every variable-length share sequence is length-prefixed, so the
        # flattened part list parses deterministically left to right: a share
        # can never silently migrate across a row / value-vs-randomness /
        # section boundary while keeping the same digest.
        parts: List[object] = [self.trustee_id, self.challenge]
        for key in sorted(self.opening_shares):
            serial, part = key
            rows = self.opening_shares[key]
            parts.extend(("open", serial, part, len(rows)))
            for row in rows:
                parts.append(len(row.value_shares))
                parts.extend(row.value_shares)
                parts.append(len(row.randomness_shares))
                parts.extend(row.randomness_shares)
        for key in sorted(self.proof_shares):
            serial, part = key
            rows = self.proof_shares[key]
            parts.extend(("proof", serial, part, len(rows)))
            for row in rows:
                parts.append(len(row.component_shares))
                for name in sorted(row.component_shares):
                    parts.extend((name, row.component_shares[name]))
        parts.extend(("tally", len(self.tally_value_shares)))
        parts.extend(self.tally_value_shares)
        parts.append(len(self.tally_randomness_shares))
        parts.extend(self.tally_randomness_shares)
        parts.extend(("discarded", len(self.discarded)))
        parts.extend(sorted(self.discarded))
        return sha256(signing_bytes(b"trustee-submission", *parts))


@dataclass(frozen=True)
class BbElectionView:
    """The subset of BB state a trustee needs (obtained via a majority read)."""

    #: accepted final vote set: tuples of (serial, vote_code)
    vote_set: Tuple[Tuple[int, bytes], ...]
    #: serial -> part name -> tuple of decrypted vote codes (in shuffled row order)
    decrypted_vote_codes: Mapping[int, Mapping[str, Tuple[bytes, ...]]]


class Trustee:
    """One trustee of the election."""

    def __init__(
        self,
        init: TrusteeInitData,
        params: ElectionParameters,
        group: Group,
    ):
        self.init = init
        self.params = params
        self.group = group
        self.trustee_id = init.trustee_id
        self.signature_scheme = SignatureScheme(group)
        self.q = group.order

    # -- the main entry point ----------------------------------------------------

    def produce_submission(self, bb_view: BbElectionView) -> TrusteeSubmission:
        """Verify the BB data and compute this trustee's complete submission."""
        cast_rows, cast_parts, discarded = self._locate_cast_rows(bb_view)
        challenge = voter_coin_challenge(self.group, cast_parts)
        opening_shares: Dict[Tuple[int, str], Tuple[RowOpeningShares, ...]] = {}
        proof_shares: Dict[Tuple[int, str], Tuple[RowProofShares, ...]] = {}
        tally_value_shares: Optional[List[PedersenShare]] = None
        tally_randomness_shares: Optional[List[PedersenShare]] = None

        for serial, view in self.init.ballots.items():
            if serial in discarded:
                continue
            cast = cast_rows.get(serial)
            for part_name in PARTS:
                rows = view.rows[part_name]
                if cast is not None and cast[0] == part_name:
                    # Used part: complete the ZK proofs; the cast row joins E_tally.
                    proof_shares[(serial, part_name)] = tuple(
                        self._proof_shares_for_row(row, challenge) for row in rows
                    )
                    cast_row = rows[cast[1]]
                    value_shares = list(cast_row.opening_value_shares)
                    randomness_shares = list(cast_row.opening_randomness_shares)
                    if tally_value_shares is None:
                        tally_value_shares = value_shares
                        tally_randomness_shares = randomness_shares
                    else:
                        tally_value_shares = [
                            a + b for a, b in zip(tally_value_shares, value_shares, strict=True)
                        ]
                        tally_randomness_shares = [
                            a + b
                            for a, b in zip(
                                tally_randomness_shares, randomness_shares, strict=True
                            )
                        ]
                else:
                    # Unused part (or unvoted ballot): open every row.
                    opening_shares[(serial, part_name)] = tuple(
                        RowOpeningShares(row.opening_value_shares, row.opening_randomness_shares)
                        for row in rows
                    )

        unsigned = TrusteeSubmission(
            self.trustee_id,
            challenge,
            opening_shares,
            proof_shares,
            tuple(tally_value_shares or ()),
            tuple(tally_randomness_shares or ()),
            tuple(sorted(discarded)),
        )
        return unsigned.signed(
            self.signature_scheme.sign(self.init.signing_keys, unsigned.digest())
        )

    # -- helpers -------------------------------------------------------------------

    def _locate_cast_rows(
        self, bb_view: BbElectionView
    ) -> Tuple[Dict[int, Tuple[str, int]], Dict[int, str], List[int]]:
        """Map each voted serial to (part, row index) of the cast vote code.

        Returns ``(cast_rows, cast_parts, discarded_serials)``.  A ballot is
        discarded when the vote set contains more than one entry for it or the
        cast code cannot be located/matched consistently.
        """
        entries: Dict[int, List[bytes]] = {}
        for serial, vote_code in bb_view.vote_set:
            entries.setdefault(serial, []).append(vote_code)

        cast_rows: Dict[int, Tuple[str, int]] = {}
        cast_parts: Dict[int, str] = {}
        discarded: List[int] = []
        for serial, codes in entries.items():
            if len(codes) != 1 or serial not in self.init.ballots:
                discarded.append(serial)
                continue
            code = codes[0]
            decrypted = bb_view.decrypted_vote_codes.get(serial, {})
            matches = [
                (part_name, index)
                for part_name, part_codes in decrypted.items()
                for index, candidate in enumerate(part_codes)
                if candidate == code
            ]
            if len(matches) != 1:
                # The cast code either does not exist in the ballot or appears
                # in more than one row -- both indicate a corrupted setup.
                discarded.append(serial)
                continue
            cast_rows[serial] = matches[0]
            cast_parts[serial] = matches[0][0]
        return cast_rows, cast_parts, discarded

    def _proof_shares_for_row(self, row, challenge: int) -> RowProofShares:
        """Evaluate the affine coefficient shares at the challenge."""
        shares: Dict[str, Share] = {}
        grouped: Dict[str, Dict[str, Share]] = {}
        for name, share in row.zk_state_shares.items():
            component, kind = name.rsplit(":", 1)
            grouped.setdefault(component, {})[kind] = share
        for component, parts in grouped.items():
            const_share = parts["const"]
            lin_share = parts["lin"]
            value = (const_share.value + challenge * lin_share.value) % self.q
            shares[component] = Share(const_share.index, value)
        return RowProofShares(shares)
