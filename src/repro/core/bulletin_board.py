"""Bulletin Board (BB) nodes and the majority reader.

A BB node (Section III-G) is a public repository of election information.
BB nodes never talk to each other; robustness comes from controlling writes
and from readers consulting a majority:

* its initialization data (encrypted vote codes, commitments, ZK first moves)
  is published immediately after setup;
* during voting hours the node is inert;
* after the election it accepts the final vote-code set once ``fv + 1``
  identical copies arrive from distinct VC nodes, and reconstructs ``msk``
  once ``Nv - fv`` valid key shares arrive, after which it decrypts and
  publishes every vote code;
* trustee writes are verified against the trustees' public keys; once the
  trustee threshold ``ht`` is reached the node reconstructs the openings of
  the audited parts, the final ZK proof moves, and the opening of the
  homomorphic tally total, verifies everything, and publishes the result.

Readers (voters, auditors, trustees) issue the same read to every BB node and
keep the answer returned by a majority (``fb + 1`` identical replies); that
logic lives in :class:`MajorityReader`, the library equivalent of the paper's
Firefox extension.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.ballot import PARTS
from repro.core.ea import BbInitData
from repro.core.election import ElectionParameters
from repro.core.messages import MskShareUpload, VoteSetUpload
from repro.core.tally import TallyResult, open_tally, voter_coin_challenge
from repro.core.trustee import BbElectionView, PartKey, TrusteeSubmission, locate_cast_rows
from repro.crypto.commitments import CommitmentOpening, OptionEncodingScheme
from repro.crypto.group import Group
from repro.crypto.shamir import (
    ShamirSecretSharing,
    Share,
    reconstruct_scalars,
    scalar_width,
    share_matches,
)
from repro.crypto.signatures import SignatureScheme
from repro.crypto.symmetric import VoteCodeCipher
from repro.crypto.utils import int_to_bytes
from repro.crypto.zkp import (
    BallotProofResponse,
    OrProofResponse,
    SumProofResponse,
)
from repro.net.channels import ChannelKind, Message
from repro.net.simulator import SimNode


@dataclass
class PublishedResult:
    """What a BB node publishes at the very end of the election."""

    tally: TallyResult
    challenge: int
    #: (serial, part) -> tuple of per-row openings, for audited (opened) parts
    openings: Dict[Tuple[int, str], Tuple[CommitmentOpening, ...]]
    #: (serial, part) -> tuple of per-row proof responses, for used parts
    proof_responses: Dict[Tuple[int, str], Tuple[BallotProofResponse, ...]]
    #: reconstructed opening of the homomorphic tally total, so any auditor
    #: can re-verify the published counts against the combined commitment
    tally_opening: Optional[CommitmentOpening] = None


class BulletinBoardNode(SimNode):
    """One isolated Bulletin Board node."""

    def __init__(self, node_id: str, init: BbInitData, params: ElectionParameters, group: Group):
        super().__init__(node_id)
        self.init = init
        self.params = params
        self.group = group
        self.thresholds = params.thresholds
        self.signature_scheme = SignatureScheme(group)
        self.msk_sss = ShamirSecretSharing(
            self.thresholds.vc_honest_quorum, self.thresholds.num_vc
        )
        self.scheme = OptionEncodingScheme(
            params.num_options, init.commitment_public_key, group
        )
        #: bytes per scalar of a trustee's blocks
        self.scalar_width = scalar_width(group.order)

        # Mutable published state.
        self.vote_set_submissions: Dict[str, Tuple[Tuple[int, bytes], ...]] = {}
        self.accepted_vote_set: Optional[Tuple[Tuple[int, bytes], ...]] = None
        self.msk_shares: Dict[str, Share] = {}
        self.msk: Optional[bytes] = None
        #: serial -> part -> tuple of decrypted vote codes (row order)
        self.decrypted_vote_codes: Dict[int, Dict[str, Tuple[bytes, ...]]] = {}
        self.trustee_submissions: Dict[str, TrusteeSubmission] = {}
        self.result: Optional[PublishedResult] = None
        #: ``(cast_rows, opened, proved)``, worked out once the election view exists
        self._agreed: Optional[tuple] = None

    # ------------------------------------------------------------------ network writes (VC -> BB)

    def on_message(self, message: Message) -> None:
        # Only the authenticated channel names the uploading collector.
        if message.channel is not ChannelKind.AUTHENTICATED:
            return
        payload = message.payload
        if isinstance(payload, VoteSetUpload):
            self.receive_vote_set(message.sender, payload.vote_set)
        elif isinstance(payload, MskShareUpload):
            self.receive_msk_share(message.sender, payload.share)

    def receive_vote_set(self, vc_node: str, vote_set: Tuple[Tuple[int, bytes], ...]) -> None:
        """Accept the final vote set once fv + 1 identical copies arrive."""
        if vc_node not in self.init.vc_public_keys:
            return
        self.vote_set_submissions[vc_node] = tuple(vote_set)
        if self.accepted_vote_set is not None:
            return
        counts = Counter(self.vote_set_submissions.values())
        needed = self.thresholds.max_faulty_vc + 1
        for candidate, count in counts.items():
            if count >= needed:
                self.accepted_vote_set = candidate
                break

    def receive_msk_share(self, vc_node: str, share: Share) -> None:
        """Collect msk shares the EA's digests vouch for; reconstruct and
        decrypt once Nv - fv arrive."""
        if self.msk is not None or vc_node not in self.init.vc_public_keys:
            return
        if not share_matches(b"msk", self.init.msk_share_digests, share):
            return
        self.msk_shares[vc_node] = share
        # A share replayed by another collector repeats an index: count the
        # distinct ones.
        shares = list(self.msk_shares.values())
        if len({held.index for held in shares}) < self.thresholds.vc_honest_quorum:
            return
        candidate = int_to_bytes(self.msk_sss.reconstruct(shares), 16)
        if not self.init.key_commitment.matches(candidate):
            # Not the key H_msk commits to (the paper's check; shares that
            # match their digests always give it): wait for more shares.
            return
        self.msk = candidate
        self._decrypt_vote_codes()

    def _decrypt_vote_codes(self) -> None:
        cipher = VoteCodeCipher(self.msk)
        for serial, view in self.init.ballots.items():
            per_part: Dict[str, Tuple[bytes, ...]] = {}
            for part_name in PARTS:
                per_part[part_name] = tuple(
                    cipher.decrypt(row.encrypted_vote_code) for row in view.rows[part_name]
                )
            self.decrypted_vote_codes[serial] = per_part

    # ------------------------------------------------------------------ trustee writes

    def receive_trustee_submission(self, submission: TrusteeSubmission) -> None:
        """Store a trustee's submission if it is well formed and signed."""
        public = self.init.trustee_public_keys.get(submission.trustee_id)
        if public is None or submission.signature is None:
            return
        # What must be opened and proved follows from this node's agreed vote
        # set and the decrypted codes; before it has both it can judge no
        # submission, and what it stores it later reconstructs from.
        if self.election_view() is None:
            return
        # Shape first: the digest of a submission keyed by anything but
        # (serial, part) pairs is not defined.
        if not self._well_formed(submission):
            return
        if not self.signature_scheme.verify(public, submission.digest(), submission.signature):
            return
        self.trustee_submissions[submission.trustee_id] = submission
        if (
            self.result is None
            and len(self.trustee_submissions) >= self.thresholds.trustee_threshold
        ):
            self._finalize_result()

    # What a stored submission must look like: _finalize_result cuts it up by
    # position and it stays stored, while a signature only says who sent it --
    # and the paper tolerates Nt - ht trustees that send anything.  A block
    # has no room for an evaluation point, so "shares on another trustee's
    # point" is not among the things that can be sent.  Each predicate may
    # rely on the ones before it.

    def _well_formed(self, submission: TrusteeSubmission) -> bool:
        return (
            self._parts_as_agreed(submission)
            and self._blocks_sized(submission)
            and self._tally_sized(submission)
        )

    def _parts_as_agreed(self, submission: TrusteeSubmission) -> bool:
        """Exactly the agreed parts are opened and proved: a submission that
        leaves one out is as unusable as one that adds a part of no ballot."""
        _, opened, proved = self._agreed_parts()
        return submission.opening_shares.keys() == opened and (
            submission.proof_shares.keys() == proved
        )

    def _blocks_sized(self, submission: TrusteeSubmission) -> bool:
        """Every block is ``bytes`` of the part's rows times the row's scalars:
        ``4m`` per opening row, ``4m + 1`` per proof row -- none where the
        part publishes no proof announcement."""
        row = 4 * self.params.num_options * self.scalar_width
        for key, block in submission.opening_shares.items():
            rows = self.init.ballots[key[0]].rows[key[1]]
            if not (isinstance(block, bytes) and len(block) == len(rows) * row):
                return False
        for key, block in submission.proof_shares.items():
            rows = self.init.ballots[key[0]].rows[key[1]]
            proofs = len(rows) if rows[0].proof_announcement is not None else 0
            if not (isinstance(block, bytes) and len(block) == proofs * (row + self.scalar_width)):
                return False
        return True

    def _tally_sized(self, submission: TrusteeSubmission) -> bool:
        """The tally block is one opening row, or empty when nothing was cast."""
        row = 4 * self.params.num_options * self.scalar_width
        block = submission.tally_share
        return isinstance(block, bytes) and len(block) == (row if self.cast_row_locations() else 0)

    # ------------------------------------------------------------------ result computation

    def election_view(self) -> Optional[BbElectionView]:
        """The view trustees need to do their work (None until ready)."""
        if self.accepted_vote_set is None or self.msk is None:
            return None
        return BbElectionView(
            vote_set=self.accepted_vote_set,
            decrypted_vote_codes=self.decrypted_vote_codes,
        )

    def _agreed_parts(
        self,
    ) -> Tuple[Dict[int, Tuple[str, int]], Set[PartKey], Set[PartKey]]:
        """Each voted serial's (part, row) of the cast vote code -- as the
        trustees see it (:func:`repro.core.trustee.locate_cast_rows`) -- and
        the ``(serial, part)`` sets this node's agreed vote set says must be
        opened and proved: what an honest trustee's submission is keyed by.
        Ballots the agreed vote set makes unusable are in neither set.

        Worked out once, when the election view first exists: the vote set
        and ``msk`` it reads are each set once.  Before then nothing is cast
        and nothing is expected.
        """
        if self._agreed is not None:
            return self._agreed
        view = self.election_view()
        if view is None:
            return {}, set(), set()
        cast_rows, discarded = locate_cast_rows(view, self.init.ballots)
        opened: Set[PartKey] = set()
        proved: Set[PartKey] = set()
        for serial in self.init.ballots:
            if serial in discarded:
                continue
            cast = cast_rows.get(serial)
            for part_name in PARTS:
                used = cast is not None and cast[0] == part_name
                (proved if used else opened).add((serial, part_name))
        self._agreed = (cast_rows, opened, proved)
        return self._agreed

    def cast_row_locations(self) -> Dict[int, Tuple[str, int]]:
        """Map each voted serial to the (part, row) of the cast vote code."""
        return self._agreed_parts()[0]

    def _finalize_result(self) -> None:
        """Reconstruct openings, proofs and the tally from trustee submissions."""
        threshold = self.thresholds.trustee_threshold
        submissions = list(self.trustee_submissions.values())[:threshold]
        # The EA deals point k to the k-th trustee it generates a key for
        # (``ElectionAuthority.setup``) and lists the keys in that order.
        order = list(self.init.trustee_public_keys)
        points = [order.index(submission.trustee_id) + 1 for submission in submissions]
        q, width, m = self.group.order, self.scalar_width, self.params.num_options

        def secrets(blocks: Sequence[bytes], row: int) -> List[List[int]]:
            """The blocks' reconstructed scalars, ``row`` of them per ballot row."""
            scalars = reconstruct_scalars(points, blocks, width, q)
            return [scalars[at:at + row] for at in range(0, len(scalars), row)]

        def openings_of(blocks: Sequence[bytes]) -> List[CommitmentOpening]:
            """One opening per row of ``4m`` scalars: Pedersen pairs ``f, r``
            whose secret is ``f(0)``, at the even positions, ``m`` values then
            ``m`` randomness scalars.  ``r(0)`` blinded the check values and
            is not published, so the odd positions are never summed."""
            halves = reconstruct_scalars(points, blocks, width, q, step=2)
            return [
                CommitmentOpening(tuple(halves[at:at + m]), tuple(halves[at + m:at + 2 * m]))
                for at in range(0, len(halves), 2 * m)
            ]

        cast_locations, opened, proved = self._agreed_parts()
        cast_parts = {serial: part for serial, (part, _) in cast_locations.items()}
        challenge = voter_coin_challenge(self.group, cast_parts)

        openings: Dict[PartKey, Tuple[CommitmentOpening, ...]] = {
            key: tuple(openings_of([s.opening_shares[key] for s in submissions]))
            for key in sorted(opened)
        }
        # The ZK final moves for used parts: per option c0, c1, s0, s1, then the sum's s.
        proof_responses: Dict[PartKey, Tuple[BallotProofResponse, ...]] = {
            key: tuple(
                BallotProofResponse(
                    tuple(OrProofResponse(*row[at:at + 4]) for at in range(0, 4 * m, 4)),
                    SumProofResponse(row[4 * m]),
                )
                for row in secrets([s.proof_shares[key] for s in submissions], 4 * m + 1)
            )
            for key in sorted(proved)
        }

        # Reconstruct the tally opening and verify it against the combined commitment.
        tally_commitments = []
        for serial, (part, row_index) in sorted(cast_locations.items()):
            tally_commitments.append(self.init.ballots[serial].rows[part][row_index].commitment)
        tally = TallyResult(
            counts=tuple(0 for _ in self.params.options),
            options=tuple(self.params.options),
            total_votes=0,
        )
        tally_opening: Optional[CommitmentOpening] = None
        if tally_commitments:
            (tally_opening,) = openings_of([s.tally_share for s in submissions])
            combined = self.scheme.combine(tally_commitments)
            tally = open_tally(self.scheme, combined, tally_opening, self.params.options)

        self.result = PublishedResult(
            tally=tally,
            challenge=challenge,
            openings=openings,
            proof_responses=proof_responses,
            tally_opening=tally_opening,
        )


class MajorityReader:
    """Read from every BB node and keep the majority answer (``fb + 1`` copies).

    This is the library form of the paper's web-browser extension: a reader
    never sees a minority (possibly corrupted) reply because it is filtered
    out by the majority rule.
    """

    def __init__(self, bb_nodes: Sequence[BulletinBoardNode], params: ElectionParameters):
        self.bb_nodes = list(bb_nodes)
        self.params = params
        self.required = params.thresholds.bb_majority

    def read(self, accessor: Callable[[BulletinBoardNode], object]) -> object:
        """Apply ``accessor`` to every node and return the majority value.

        Raises ``ValueError`` when no value is backed by ``fb + 1`` nodes --
        the caller should retry later, as the paper instructs.
        """
        # Replies are compared by equality, never by their printed form: a
        # repr may differ between equal values (a Schnorr element prints
        # whichever of x, p - x it holds) or embed object addresses, and
        # building it walks the whole ballot table.
        groups: list = []  # [reply, copies], in first-seen order
        for node in self.bb_nodes:
            try:
                answer = accessor(node)
            except Exception:  # a Byzantine node may raise; treat as no answer
                continue
            for group in groups:
                if group[0] == answer:
                    group[1] += 1
                    break
            else:
                group = [answer, 1]
                groups.append(group)
            if group[1] >= self.required:
                return group[0]
        raise ValueError("no BB reply is backed by a majority; retry later")

    def election_view(self) -> BbElectionView:
        """Majority-read the view trustees need."""
        view = self.read(lambda node: node.election_view())
        if view is None:
            raise ValueError("BB nodes have not yet accepted the vote set / msk")
        return view

    def tally(self) -> TallyResult:
        """Majority-read the final tally."""
        tally = self.read(lambda node: node.result.tally if node.result else None)
        if tally is None:
            raise ValueError("result not yet published")
        return tally
