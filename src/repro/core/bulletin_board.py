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
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.core.ballot import PARTS
from repro.core.ea import BbInitData
from repro.core.election import ElectionParameters
from repro.core.messages import MskShareUpload, VoteSetUpload
from repro.core.tally import (
    TallyResult,
    combine_tally_commitments,
    open_tally,
    voter_coin_challenge,
)
from repro.core.trustee import BbElectionView, TrusteeSubmission
from repro.crypto.commitments import CommitmentOpening, OptionEncodingScheme
from repro.crypto.group import Group
from repro.crypto.pedersen_vss import PedersenVSS
from repro.crypto.shamir import ShamirSecretSharing, SigningDealer
from repro.crypto.signatures import SignatureScheme
from repro.crypto.symmetric import VoteCodeCipher
from repro.crypto.utils import int_to_bytes
from repro.crypto.zkp import (
    BallotCorrectnessVerifier,
    BallotProofResponse,
    OrProofResponse,
    SumProofResponse,
)
from repro.net.channels import Message
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
        payload = message.payload
        if isinstance(payload, VoteSetUpload):
            self.receive_vote_set(payload.sender, payload.vote_set)
        elif isinstance(payload, MskShareUpload):
            self.receive_msk_share(payload.sender, payload.share)

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

    # What a stored submission must look like: _finalize_result indexes it
    # blindly and it stays stored, while a signature only says who sent it --
    # and the paper tolerates Nt - ht trustees that send anything.  Each
    # predicate may rely on the ones before it.

    def _well_formed(self, submission: TrusteeSubmission) -> bool:
        return (
            self._rows_match_ballots(submission)
            and self._rows_complete(submission)
            and self._tally_complete(submission)
            and self._on_own_point(submission)
        )

    def _ballot_rows(self, key: object) -> Optional[Sequence]:
        """This node's rows of ballot part ``(serial, part)``; ``None`` for any other key."""
        if not (isinstance(key, tuple) and len(key) == 2):
            return None
        view = self.init.ballots.get(key[0])
        return None if view is None else view.rows.get(key[1])

    def _rows_match_ballots(self, submission: TrusteeSubmission) -> bool:
        """Every ``(serial, part)`` is a part of a known ballot, with all its rows."""
        for shares in (submission.opening_shares, submission.proof_shares):
            for key, rows in shares.items():
                published = self._ballot_rows(key)
                if published is None or len(rows) != len(published):
                    return False
        return True

    def _rows_complete(self, submission: TrusteeSubmission) -> bool:
        """Opening rows carry one share per option and side, proof rows exactly
        the components of this election's proofs (none when it publishes none)."""
        num_options = self.params.num_options
        for rows in submission.opening_shares.values():
            for row in rows:
                if not len(row.value_shares) == len(row.randomness_shares) == num_options:
                    return False
        names = {"sum:s"}.union(
            f"or{index}:{component}"
            for index in range(num_options)
            for component in ("c0", "c1", "s0", "s1")
        )
        for key, rows in submission.proof_shares.items():
            for row, published in zip(rows, self._ballot_rows(key), strict=True):
                expected = names if published.proof_announcement is not None else set()
                if row.component_shares.keys() != expected:
                    return False
        return True

    def _tally_complete(self, submission: TrusteeSubmission) -> bool:
        """Tally shares: none (nothing was cast) or one per option and side."""
        sizes = {len(submission.tally_value_shares), len(submission.tally_randomness_shares)}
        return sizes in ({0}, {self.params.num_options})

    def _on_own_point(self, submission: TrusteeSubmission) -> bool:
        """Every share sits on the evaluation point the EA dealt to this
        trustee.  On another trustee's point it would leave the threshold one
        share short, or, arriving first, pass for that trustee's shares."""
        # The EA deals point k to the k-th trustee it generates a key for
        # (``ElectionAuthority.setup``) and lists the keys in that order.
        point = list(self.init.trustee_public_keys).index(submission.trustee_id) + 1
        return set(map(attrgetter("index"), submission.shares())) <= {point}

    # ------------------------------------------------------------------ result computation

    def election_view(self) -> Optional[BbElectionView]:
        """The view trustees need to do their work (None until ready)."""
        if self.accepted_vote_set is None or self.msk is None:
            return None
        return BbElectionView(
            vote_set=self.accepted_vote_set,
            decrypted_vote_codes=self.decrypted_vote_codes,
        )

    def cast_row_locations(self) -> Dict[int, Tuple[str, int]]:
        """Map each voted serial to the (part, row) of the cast vote code."""
        locations: Dict[int, Tuple[str, int]] = {}
        if self.accepted_vote_set is None:
            return locations
        for serial, code in self.accepted_vote_set:
            decrypted = self.decrypted_vote_codes.get(serial, {})
            for part_name, codes in decrypted.items():
                for index, candidate in enumerate(codes):
                    if candidate == code:
                        locations[serial] = (part_name, index)
        return locations

    def _finalize_result(self) -> None:
        """Reconstruct openings, proofs and the tally from trustee submissions."""
        submissions = list(self.trustee_submissions.values())
        threshold = self.thresholds.trustee_threshold
        pedersen = PedersenVSS(threshold, self.thresholds.num_trustees, self.group)
        zk_sss = ShamirSecretSharing(
            threshold, self.thresholds.num_trustees, prime=self.group.order
        )

        cast_locations = self.cast_row_locations()
        cast_parts = {serial: part for serial, (part, _) in cast_locations.items()}
        challenge = voter_coin_challenge(self.group, cast_parts)

        # Reconstruct openings for every (serial, part) all submissions agree to
        # open.  Each zip transposes once: the part's rows, then a row's
        # shares, across submissions.
        openings: Dict[Tuple[int, str], Tuple[CommitmentOpening, ...]] = {}
        opening_keys = set.intersection(
            *(set(submission.opening_shares) for submission in submissions)
        ) if submissions else set()
        for key in sorted(opening_keys):
            openings[key] = tuple(
                CommitmentOpening(
                    tuple(
                        pedersen.reconstruct(shares)
                        for shares in zip(*(row.value_shares for row in rows), strict=True)
                    ),
                    tuple(
                        pedersen.reconstruct(shares)
                        for shares in zip(*(row.randomness_shares for row in rows), strict=True)
                    ),
                )
                for rows in zip(
                    *(submission.opening_shares[key] for submission in submissions), strict=True
                )
            )

        # Reconstruct the ZK final moves for used parts.
        proof_responses: Dict[Tuple[int, str], Tuple[BallotProofResponse, ...]] = {}
        proof_keys = set.intersection(
            *(set(submission.proof_shares) for submission in submissions)
        ) if submissions else set()
        for key in sorted(proof_keys):
            proof_responses[key] = tuple(
                self._assemble_proof_response({
                    name: zk_sss.reconstruct([row.component_shares[name] for row in rows])
                    for name in rows[0].component_shares
                })
                for rows in zip(
                    *(submission.proof_shares[key] for submission in submissions), strict=True
                )
            )

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
        if tally_commitments and all(submission.tally_value_shares for submission in submissions):
            opening = CommitmentOpening(
                tuple(
                    pedersen.reconstruct(shares)
                    for shares in zip(*(s.tally_value_shares for s in submissions), strict=True)
                ),
                tuple(
                    pedersen.reconstruct(shares)
                    for shares in zip(
                        *(s.tally_randomness_shares for s in submissions), strict=True
                    )
                ),
            )
            if self.params.num_shards > 1:
                # Shard-by-shard combination plus the two-phase commit record.
                # The ciphertext product is associative, so the combined
                # element (and hence the tally) is bit-identical to the flat
                # product the unsharded path computes.
                combined = self._combine_sharded(cast_locations)
            else:
                combined = combine_tally_commitments(self.scheme, tally_commitments)
            tally = open_tally(self.scheme, combined, opening, self.params.options)
            tally_opening = opening

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
        from repro.shard.streaming import StreamingCommitmentCombiner

        ordered_serials = sorted(self.init.ballots)
        plan = ShardPlan.from_serials(ordered_serials, self.params.num_shards)
        registered = plan.route(ordered_serials)
        accepted_codes = dict(self.accepted_vote_set or ())
        cast_routed = plan.route(sorted(cast_locations))
        commit = CrossShardCommit(self.scheme)
        for shard in plan.ranges:
            combiner = StreamingCommitmentCombiner(self.scheme)
            vote_set_hash = hashlib.sha256(b"bb-shard-vote-set")
            for serial in cast_routed[shard.shard_id]:
                part, row_index = cast_locations[serial]
                combiner.add(self.init.ballots[serial].rows[part][row_index].commitment)
                vote_set_hash.update(int_to_bytes(serial))
                vote_set_hash.update(accepted_codes[serial])
            commit.prepare(
                ShardCommitRecord(
                    shard_id=shard.shard_id,
                    serial_lo=shard.lo,
                    serial_hi=shard.hi,
                    ballots_registered=len(registered[shard.shard_id]),
                    ballots_cast=len(cast_routed[shard.shard_id]),
                    commitment=combiner.result(),
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

    def _assemble_proof_response(self, components: Mapping[str, int]) -> BallotProofResponse:
        """Build a BallotProofResponse from reconstructed transcript components."""
        or_responses = []
        index = 0
        while f"or{index}:c0" in components:
            or_responses.append(
                OrProofResponse(
                    challenge0=components[f"or{index}:c0"],
                    challenge1=components[f"or{index}:c1"],
                    response0=components[f"or{index}:s0"],
                    response1=components[f"or{index}:s1"],
                )
            )
            index += 1
        sum_response = SumProofResponse(components.get("sum:s", 0))
        return BallotProofResponse(tuple(or_responses), sum_response)

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
