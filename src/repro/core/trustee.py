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

Everything a trustee holds and posts is a *block*: fixed-width big-endian
scalars mod ``q``, the rows of a ballot part one after the other, with no
evaluation point (it is the trustee's position in the BB's key list).  Per row
of an ``m``-option election:

* an *opening* block (step 3) is the ``4m`` scalars the EA dealt
  (:class:`repro.core.ballot.TrusteeBallotView`), posted by reference;
* a *proof* block (step 2) holds ``4m + 1`` scalars -- per option ``c0, c1,
  s0, s1``, then the sum proof's ``s``.  Every transcript component is an
  affine function of the challenge, so a trustee's share of it is
  ``share(const) + challenge * share(lin)``: adjacent scalars of the dealt zk
  block, see :meth:`repro.core.ea.ElectionAuthority._zk_affine_coefficients`;
* the *tally* block (step 4) is one opening row: the position-wise sum mod
  ``q`` of the cast rows' ``4m`` scalars.

What a trustee posts is a :class:`TrusteeSubmission`: an immutable value that
is built in one constructor call, signed by attaching the signature to a copy,
and hashes the bytes it holds once however many BB nodes ask for the digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import add
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.ballot import PARTS
from repro.core.ea import TrusteeInitData
from repro.core.election import ElectionParameters
from repro.core.tally import voter_coin_challenge
from repro.crypto.group import Group
from repro.crypto.shamir import pack_scalars, scalar_width, unpack_scalars
from repro.crypto.signatures import SignatureScheme
from repro.crypto.utils import sha256

#: ``(serial, part name)``: the key of a block
PartKey = Tuple[int, str]


@dataclass(frozen=True)
class TrusteeSubmission:
    """Everything one trustee posts to the BB nodes after the election.

    An immutable value: the fields cannot be assigned, the two maps are
    read-only views of private copies, and what they hold is ``bytes``.  That
    is what lets :meth:`digest` hash the submission once per object -- by the
    trustee that signs it -- while every BB node that verifies the signature
    still asks for the digest itself.  Change a submission with
    :func:`dataclasses.replace`; the new object has no stored digest.
    """

    trustee_id: str
    challenge: int
    #: (serial, part) -> the part's opening block, for parts that get opened
    opening_shares: Mapping[PartKey, bytes] = field(default_factory=dict)
    #: (serial, part) -> the part's proof block, for used parts
    proof_shares: Mapping[PartKey, bytes] = field(default_factory=dict)
    #: the trustee's share of the opening of the homomorphic total: one
    #: opening row, or empty when nothing was cast
    tally_share: bytes = b""
    #: ballots the trustee discarded as invalid
    discarded: Tuple[int, ...] = ()
    #: over :meth:`digest`, which does not cover it
    signature: Optional[object] = None

    def __post_init__(self) -> None:
        for name in ("opening_shares", "proof_shares"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        object.__setattr__(self, "discarded", tuple(self.discarded))

    def signed(self, signature: object) -> "TrusteeSubmission":
        """A copy carrying ``signature``, with this object's stored digest if
        it has one: the signature is the one field the digest does not cover."""
        copy = replace(self, signature=signature)
        if "_digest" in self.__dict__:
            copy.__dict__["_digest"] = self.__dict__["_digest"]
        return copy

    def digest(self) -> bytes:
        """Deterministic digest of the submission, used for signing.

        The digest hashes the canonical wire encoding
        (:func:`repro.net.codec.signing_bytes`) of the identity, the challenge
        and, section by section, every key with the block stored under it.
        Each part is typed and length-prefixed and each section starts with
        its entry count, so the byte string parses back in one way only: a
        scalar moved from the end of one block to the start of the next, or a
        block moved to another key or section, is another digest.

        Hashed on the first call and kept on the object.
        """
        return self._digest

    @cached_property
    def _digest(self) -> bytes:
        """``cached_property`` writes the instance ``__dict__``, not a field:
        equality and :func:`dataclasses.replace` do not see the stored value."""
        # Imported lazily: the codec registers this package's message types.
        from repro.net.codec import signing_bytes

        parts: List[object] = [self.trustee_id, self.challenge]
        for section, blocks in (("open", self.opening_shares), ("proof", self.proof_shares)):
            parts.extend((section, len(blocks)))
            for key in sorted(blocks):
                serial, part = key
                parts.extend((serial, part, blocks[key]))
        parts.extend(("tally", self.tally_share, "discarded", len(self.discarded)))
        parts.extend(sorted(self.discarded))
        return sha256(signing_bytes(b"trustee-submission", *parts))


@dataclass(frozen=True)
class BbElectionView:
    """The subset of BB state a trustee needs (obtained via a majority read)."""

    #: accepted final vote set: tuples of (serial, vote_code)
    vote_set: Tuple[Tuple[int, bytes], ...]
    #: serial -> part name -> tuple of decrypted vote codes (in shuffled row order)
    decrypted_vote_codes: Mapping[int, Mapping[str, Tuple[bytes, ...]]]


def locate_cast_rows(
    bb_view: BbElectionView, ballots: Mapping[int, object]
) -> Tuple[Dict[int, Tuple[str, int]], List[int]]:
    """Map each voted serial to (part, row index) of the cast vote code.

    Returns ``(cast_rows, discarded_serials)``.  A ballot is discarded when
    the vote set contains more than one entry for it, it is not one of
    ``ballots``, or the cast code cannot be located/matched consistently.
    Trustees and BB nodes both call this, so they agree on which parts get
    opened and which proved.
    """
    entries: Dict[int, List[bytes]] = {}
    for serial, vote_code in bb_view.vote_set:
        entries.setdefault(serial, []).append(vote_code)

    cast_rows: Dict[int, Tuple[str, int]] = {}
    discarded: List[int] = []
    for serial, codes in entries.items():
        if len(codes) != 1 or serial not in ballots:
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
    return cast_rows, discarded


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
        cast_rows, discarded = locate_cast_rows(bb_view, self.init.ballots)
        challenge = voter_coin_challenge(
            self.group, {serial: part for serial, (part, _) in cast_rows.items()}
        )
        q, width = self.q, scalar_width(self.q)
        row_bytes = 4 * self.params.num_options * width
        opening_shares: Dict[PartKey, bytes] = {}
        proof_shares: Dict[PartKey, bytes] = {}
        tally: Optional[List[int]] = None

        for serial, view in self.init.ballots.items():
            if serial in discarded:
                continue
            cast = cast_rows.get(serial)
            for part_name in PARTS:
                opening = view.opening[part_name]
                if cast is None or cast[0] != part_name:
                    # Unused part (or unvoted ballot): open every row.
                    opening_shares[(serial, part_name)] = opening
                    continue
                # Used part: complete the ZK proofs; the cast row joins E_tally.
                zk = unpack_scalars(view.zk[part_name], width)
                proof_shares[(serial, part_name)] = pack_scalars(
                    [(const + challenge * lin) % q for const, lin in zip(zk[::2], zk[1::2])],
                    width,
                )
                at = cast[1] * row_bytes
                cast_row = unpack_scalars(opening[at:at + row_bytes], width)
                tally = cast_row if tally is None else list(map(add, tally, cast_row))

        unsigned = TrusteeSubmission(
            self.trustee_id,
            challenge,
            opening_shares,
            proof_shares,
            pack_scalars((scalar % q for scalar in tally), width) if tally else b"",
            tuple(sorted(discarded)),
        )
        return unsigned.signed(
            self.signature_scheme.sign(self.init.signing_keys, unsigned.digest())
        )
