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

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

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
    SigningDealer,
    reconstruct_scalars,
    scalar_width,
)
from repro.crypto.signatures import SignatureScheme
from repro.crypto.symmetric import VoteCodeCipher
from repro.crypto.utils import int_to_bytes
from repro.crypto.zkp import (
    BallotCorrectnessVerifier,
    BallotProofResponse,
    OrProofResponse,
    SumProofResponse,
)
from repro.net.channels import ChannelKind, Message
from repro.net.simulator import SimNode

if TYPE_CHECKING:  # imported lazily at runtime: repro.shard sits above core
    from repro.shard.merge import ShardCommitReport


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
        self.msk_shares: Dict[str, object] = {}
        self.msk: Optional[bytes] = None
        #: serial -> part -> tuple of decrypted vote codes (row order)
        self.decrypted_vote_codes: Dict[int, Dict[str, Tuple[bytes, ...]]] = {}
        self.trustee_submissions: Dict[str, TrusteeSubmission] = {}
        self.result: Optional[PublishedResult] = None
        #: two-phase shard-commit records (populated when ``num_shards > 1``)
        self.shard_commits: Optional["ShardCommitReport"] = None

    # ------------------------------------------------------------------ network writes (VC -> BB)

    def on_message(self, message: Message) -> None:
        # Only the authenticated channel names the uploading collector; the
        # ``sender`` field inside an upload is never trusted.
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

    def receive_msk_share(self, vc_node: str, share) -> None:
        """Collect msk shares; reconstruct and decrypt once Nv - fv arrive."""
        if self.msk is not None or vc_node not in self.init.vc_public_keys:
            return
        if not SigningDealer.verify_share(
            self.signature_scheme, self.init.dealer_public_key, share
        ):
            return
        self.msk_shares[vc_node] = share
        if len(self.msk_shares) < self.thresholds.vc_honest_quorum:
            return
        raw_shares = [signed.share for signed in self.msk_shares.values()]
        candidate = int_to_bytes(self.msk_sss.reconstruct(raw_shares), 16)
        if not self.init.key_commitment.matches(candidate):
            # Wrong key (corrupted shares slipped through): wait for more shares.
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

    def _expected_parts(self) -> Tuple[Set[PartKey], Set[PartKey]]:
        """The ``(serial, part)`` sets this node's agreed vote set says must be
        opened and proved: what an honest trustee's submission is keyed by."""
        cast_rows, discarded = self._cast_rows()
        opened: Set[PartKey] = set()
        proved: Set[PartKey] = set()
        for serial in self.init.ballots:
            if serial in discarded:
                continue
            cast = cast_rows.get(serial)
            for part_name in PARTS:
                used = cast is not None and cast[0] == part_name
                (proved if used else opened).add((serial, part_name))
        return opened, proved

    def _parts_as_agreed(self, submission: TrusteeSubmission) -> bool:
        """Exactly the agreed parts are opened and proved: a submission that
        leaves one out is as unusable as one that adds a part of no ballot."""
        opened, proved = self._expected_parts()
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

    def _cast_rows(self) -> Tuple[Dict[int, Tuple[str, int]], List[int]]:
        """Each voted serial's (part, row) of the cast vote code, and the
        serials the agreed vote set makes unusable -- as the trustees see them
        (:func:`repro.core.trustee.locate_cast_rows`)."""
        view = self.election_view()
        return ({}, []) if view is None else locate_cast_rows(view, self.init.ballots)

    def cast_row_locations(self) -> Dict[int, Tuple[str, int]]:
        """Map each voted serial to the (part, row) of the cast vote code."""
        return self._cast_rows()[0]

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

        def opening(row: Sequence[int]) -> CommitmentOpening:
            # Pedersen pairs f, r: the secret is f(0); r(0) blinded the check values.
            return CommitmentOpening(tuple(row[0:2 * m:2]), tuple(row[2 * m::2]))

        cast_locations = self.cast_row_locations()
        cast_parts = {serial: part for serial, (part, _) in cast_locations.items()}
        challenge = voter_coin_challenge(self.group, cast_parts)
        opened, proved = self._expected_parts()

        openings: Dict[PartKey, Tuple[CommitmentOpening, ...]] = {
            key: tuple(
                opening(row)
                for row in secrets([s.opening_shares[key] for s in submissions], 4 * m)
            )
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
            (tally_row,) = secrets([s.tally_share for s in submissions], 4 * m)
            tally_opening = opening(tally_row)
            if self.params.num_shards > 1:
                # Shard-by-shard combination plus the two-phase commit record.
                # The ciphertext product is associative, so the combined
                # element (and hence the tally) is bit-identical to the flat
                # product the unsharded path computes.
                combined = self._combine_sharded(cast_locations)
            else:
                combined = self.scheme.combine(tally_commitments)
            tally = open_tally(self.scheme, combined, tally_opening, self.params.options)

        self.result = PublishedResult(
            tally=tally,
            challenge=challenge,
            openings=openings,
            proof_responses=proof_responses,
            tally_opening=tally_opening,
        )

    def _combine_sharded(self, cast_locations: Mapping[int, Tuple[str, int]]):
        """Combine the tally per ballot-range shard and publish commit records.

        PREPARE: each shard's cast commitments are folded into one per-shard
        product and wrapped in a :class:`ShardCommitRecord` (serial range,
        ballot counts, vote-set digest).  COMMIT: the cross-shard layer checks
        that the ranges tile the serial space and issues the global record
        binding every shard by its canonical wire digest.  Returns the
        combined global commitment.
        """
        # Imported here, not at module load: repro.shard depends on core
        # (tally, consensus), so the BB reaches up to it only when sharding
        # is actually enabled.
        from repro.shard.merge import CrossShardCommit, ShardCommitReport
        from repro.shard.partition import ShardPlan
        from repro.shard.records import ShardCommitRecord

        ordered_serials = sorted(self.init.ballots)
        plan = ShardPlan.from_serials(ordered_serials, self.params.num_shards)
        registered = plan.route(ordered_serials)
        accepted_codes = dict(self.accepted_vote_set or ())
        cast_routed = plan.route(sorted(cast_locations))
        commit = CrossShardCommit(self.scheme)
        for shard in plan.ranges:
            commitments = []
            vote_set_hash = hashlib.sha256(b"bb-shard-vote-set")
            for serial in cast_routed[shard.shard_id]:
                part, row_index = cast_locations[serial]
                commitments.append(self.init.ballots[serial].rows[part][row_index].commitment)
                vote_set_hash.update(int_to_bytes(serial))
                vote_set_hash.update(accepted_codes[serial])
            commit.prepare(
                ShardCommitRecord(
                    shard_id=shard.shard_id,
                    serial_lo=shard.lo,
                    serial_hi=shard.hi,
                    ballots_registered=len(registered[shard.shard_id]),
                    ballots_cast=len(cast_routed[shard.shard_id]),
                    commitment=self.scheme.combine(commitments),
                    vote_set_digest=vote_set_hash.digest(),
                    # The logical shard identity, not this replica's node id:
                    # every BB derives the same records from the agreed vote
                    # set, so they must be byte-identical across replicas for
                    # the merge phase's majority read to converge.
                    sender=f"shard-{shard.shard_id}",
                )
            )
        global_record = commit.commit(self.params.election_id)
        self.shard_commits = ShardCommitReport(
            records=tuple(commit.records_in_order()),
            global_record=global_record,
        )
        return global_record.combined

    # ------------------------------------------------------------------ public reads

    def snapshot(self) -> dict:
        """A read of the node's full published state (used by MajorityReader)."""
        return {
            "vote_set": self.accepted_vote_set,
            "msk_reconstructed": self.msk is not None,
            "decrypted_vote_codes": self.decrypted_vote_codes,
            "tally": self.result.tally if self.result else None,
        }

    def verify_proofs(self) -> bool:
        """Re-verify every published ZK proof (an auditor-style self check)."""
        if self.result is None:
            return False
        verifier = BallotCorrectnessVerifier(self.init.commitment_public_key, self.group)
        for (serial, part), responses in self.result.proof_responses.items():
            rows = self.init.ballots[serial].rows[part]
            for row, response in zip(rows, responses, strict=False):
                if row.proof_announcement is None:
                    return False
                if not verifier.verify(
                    row.commitment, row.proof_announcement, self.result.challenge, response
                ):
                    return False
        return True


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
        # repr may truncate (ed25519 points print 8 of 32 bytes) or embed
        # object addresses, and building it walks the whole ballot table.
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
