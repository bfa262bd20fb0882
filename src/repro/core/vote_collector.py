"""Vote Collector (VC) node: the voting protocol of Algorithm 1 plus
Vote Set Consensus (Section III-E).

A VC node is a :class:`~repro.net.simulator.SimNode`.  During voting hours it
serves voters over the public channel and cooperates with its peers over
private authenticated channels to (a) certify that only one vote code can
ever be active for a ballot (the uniqueness certificate UCERT) and (b)
reconstruct the receipt, which is secret-shared with threshold ``Nv - fv`` so
that it can only be produced when a strong majority of VC nodes took part.

At election end the node freezes its voting state and runs Vote Set
Consensus: one ANNOUNCE exchange plus one binary-consensus instance per
ballot, followed by the recovery sub-protocol for ballots where the node
decided "voted" without knowing the winning vote code.  The final agreed set
of ``<serial, vote-code>`` tuples and the node's share of ``msk`` are then
uploaded to every Bulletin Board node.

Everything a node sends to *all* collectors during Vote Set Consensus (its
ANNOUNCEs, BVAL/AUX/FINISH, superblock reliable-broadcast steps) goes through
one outbound queue and leaves as one ``VscBatch`` frame per handler step, so
honest nodes receive whole steps at once and their instances advance together.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.consensus.batching import ConsensusBatcher, partition_serials
from repro.consensus.vote_set_consensus import VoteSetConsensus
from repro.core.admission import (
    AdmissionQueue,
    AdmissionStats,
    EndorsementBatcher,
    node_batch_seed,
    shed_reason,
)
from repro.core.ea import VcInitData, bb_node_id, vc_node_id
from repro.core.election import ElectionParameters
from repro.core.messages import (
    Announce,
    BallotStateEntry,
    Endorse,
    Endorsement,
    MskShareUpload,
    RecoverRequest,
    RecoverResponse,
    UniquenessCertificate,
    VcStateSnapshot,
    VotePending,
    VoteReceipt,
    VoteRejected,
    VoteRequest,
    VoteSetUpload,
    VscBatch,
)
from repro.crypto.shamir import ShamirSecretSharing, SignedShare, SigningDealer
from repro.crypto.signatures import SignatureScheme
from repro.crypto.utils import int_to_bytes
from repro.net.channels import ChannelKind, Message
from repro.net.simulator import SimNode


class BallotStatus(enum.Enum):
    """Per-ballot state machine of Algorithm 1."""

    NOT_VOTED = "not-voted"
    PENDING = "pending"
    VOTED = "voted"


@dataclass
class BallotRecord:
    """Mutable per-ballot state a VC node keeps during the election."""

    status: BallotStatus = BallotStatus.NOT_VOTED
    used_vote_code: Optional[bytes] = None
    location: Optional[Tuple[str, int]] = None
    receipt_shares: Dict[str, SignedShare] = field(default_factory=dict)
    ucert: Optional[UniquenessCertificate] = None
    receipt: Optional[bytes] = None
    #: voters waiting for a receipt for this ballot (we are their responder)
    waiting_voters: List[str] = field(default_factory=list)
    #: endorsements collected while we act as responder
    endorsements: Dict[str, Endorsement] = field(default_factory=dict)
    #: the code we asked our peers to endorse (``None``: no ENDORSE round open)
    endorse_code: Optional[bytes] = None
    vote_p_sent: bool = False


@dataclass
class ConsensusRecord:
    """Per-ballot Vote Set Consensus state the collector keeps: the ANNOUNCEs
    before the engine runs, the decision and the recovered code after."""

    announces: Dict[str, Announce] = field(default_factory=dict)
    decided: Optional[int] = None
    resolved: bool = False
    final_vote_code: Optional[bytes] = None
    recover_requested: bool = False


@dataclass
class VscStats:
    """Counters describing how Vote Set Consensus was carried out on a node
    (a reading of the engine's, the outbound queue's and the node's counters)."""

    #: per-ballot binary consensus instances this node actually proposed in
    per_ballot_instances: int = 0
    #: superblocks started (0 when ``consensus.batch_size == 1``)
    superblocks: int = 0
    #: superblocks resolved on the fast path (one instance for the whole block)
    superblocks_fast: int = 0
    #: superblocks that fell back to per-ballot consensus
    superblocks_fallback: int = 0
    #: RECOVER-REQUEST exchanges issued (decided "voted" without the code)
    recover_requests: int = 0
    #: ``VscBatch`` frames sent (one per destination) / announces and consensus
    #: messages inside them; non-zero in every mode, per-ballot included
    envelopes_sent: int = 0
    envelope_messages: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


def total_vsc_stats(nodes) -> Dict[str, int]:
    """:class:`VscStats` summed over collectors, key by key."""
    totals: Dict[str, int] = {}
    for node in nodes:
        for key, value in node.vsc_stats.as_dict().items():
            totals[key] = totals.get(key, 0) + value
    return totals


@lru_cache(maxsize=1 << 16)
def endorsement_message(serial: int, vote_code: bytes) -> bytes:
    """The byte string a VC node signs when endorsing a vote code.

    This is the canonical wire encoding of the corresponding ENDORSE message
    under a domain tag, so the signed bytes are exactly what travels on the
    wire -- no ad-hoc concatenation that could diverge from the transport
    format (or collide across field boundaries).

    Every (serial, vote_code) pair is signed once and verified ``O(Nv)``
    times across the subsystem, so the canonical encoding is memoized instead
    of re-framed per verification.
    """
    # Imported lazily: the codec registers this module's message types.
    from repro.net.codec import signing_bytes

    return signing_bytes(b"endorse", Endorse(serial, vote_code))


class VoteCollectorNode(SimNode):
    """An honest Vote Collector node."""

    def __init__(
        self,
        init: VcInitData,
        params: ElectionParameters,
    ):
        super().__init__(init.node_id)
        self.init = init
        self.params = params
        self.thresholds = params.thresholds
        self.num_vc = self.thresholds.num_vc
        self.quorum = self.thresholds.vc_honest_quorum  # Nv - fv
        self.peers = [vc_node_id(i) for i in range(self.num_vc)]
        self.bb_nodes = [bb_node_id(i) for i in range(self.thresholds.num_bb)]
        self.signature_scheme = SignatureScheme()
        self.receipt_sss = ShamirSecretSharing(self.quorum, self.num_vc)

        # Superblock (batched) Vote Set Consensus.  The block partition is
        # derived from the (identical) ballot set, so every honest node
        # computes the same blocks without coordination.
        self._vsc_blocks: List[Tuple[int, ...]] = []
        batch_size = params.consensus.batch_size
        if batch_size > 1:
            # With sharding, blocks never cross shard boundaries: each shard's
            # Vote Set Consensus instances stay independent, which is what
            # lets the BB combine the tally shard by shard.  The sharded
            # partition of an identical ballot set is itself identical, so no
            # coordination is needed here either.
            if params.num_shards > 1:
                # Imported lazily: repro.shard depends on core modules.
                from repro.shard.partition import sharded_partition

                self._vsc_blocks = sharded_partition(init.ballots, params.num_shards, batch_size)
            else:
                self._vsc_blocks = partition_serials(init.ballots, batch_size)
        # The per-signer verification tables are built once here: every peer
        # key verifies one signature per ballot and the dealer key one receipt
        # share per VOTE_P, so the tables always amortize and the hot path
        # never pays the lazy-promotion probes.
        for public in (*self.init.vc_public_keys.values(), self.init.dealer_public_key):
            public.group.fixed_base(public)
        self._boot(voting_closed=False)

        # Crash/recovery bookkeeping (driven by the chaos harness).
        self.crashes = 0
        self.recovered_at: Optional[float] = None
        self.caught_up_from_bb = False

    def _boot(self, voting_closed: bool) -> None:
        """Build every volatile structure: what a process (re)start holds
        before any durable state is read back."""
        #: identifies this start; timers armed under an older one are dead
        self._boot_token = object()
        self.ballots: Dict[int, BallotRecord] = {
            serial: BallotRecord() for serial in self.init.ballots
        }
        #: which vote code this node has endorsed per serial (at most one)
        self.endorsed: Dict[int, bytes] = {}
        self.voting_closed = voting_closed

        # Vote Set Consensus state.
        self.consensus: Dict[int, ConsensusRecord] = {}
        self.vsc_started = False
        self.final_vote_set: Optional[Tuple[Tuple[int, bytes], ...]] = None
        self.uploaded = False
        #: the one outbound queue for traffic addressed to every VC node
        self._batcher = ConsensusBatcher(
            len(self.peers),
            lambda envelope: self.broadcast(self.peers, VscBatch(envelope, self.node_id)),
        )
        #: everything between "ready" and "decided"
        self.vsc = VoteSetConsensus(
            node_id=self.node_id,
            num_nodes=self.num_vc,
            num_faulty=self.thresholds.max_faulty_vc,
            serials=self.init.ballots,
            blocks=self._vsc_blocks,
            broadcast=self._batcher.enqueue,
            schedule=self._vsc_schedule,
            # "Voted" exactly when we hold a uniqueness certificate for the ballot.
            opinion_of=lambda serial: int(self.ballots[serial].ucert is not None),
            on_decide=self._on_consensus_decision,
        )

        # Voting-phase admission pipeline (see repro.core.admission).
        self.admission_stats = AdmissionStats()
        admission = self.params.admission
        self._endorse_batcher: Optional[EndorsementBatcher] = None
        if admission.endorse_batch_size > 1 and self.init.vc_public_keys:
            # Imported here so the core layer only pays for the batch
            # verifier when batching is switched on.
            from repro.crypto.batch_verify import BatchVerifier
            from repro.crypto.utils import RandomSource

            group = next(iter(self.init.vc_public_keys.values())).group
            self._endorse_batcher = EndorsementBatcher(
                node=self,
                verifier=BatchVerifier(
                    group,
                    security_bits=self.params.audit.security_bits,
                    rng=RandomSource(node_batch_seed(self.node_id)),
                ),
                stats=self.admission_stats,
                public_key_of=self.init.vc_public_keys.get,
                message_of=lambda e: endorsement_message(e.serial, e.vote_code),
                process=self._accept_endorsement,
                wanted=self._endorsement_wanted,
                batch_size=admission.endorse_batch_size,
                window_s=admission.batch_window_s,
            )
        self._admission = AdmissionQueue(
            node=self,
            stats=self.admission_stats,
            on_admit=self._on_vote_request,
            on_shed=self._shed_vote_request,
            depth=admission.queue_depth,
            policy=admission.policy,
            service_s=admission.service_ms / 1000.0,
        )
        #: memo of verified uniqueness certificates: the same UCERT is
        #: re-checked on every VOTE_P, ANNOUNCE and RECOVER-RESPONSE that
        #: carries it, and a certificate's validity never changes.
        self._ucert_cache: Dict[Tuple, bool] = {}

        # Statistics (used by tests and the performance harness).
        self.receipts_issued = 0
        self.votes_rejected = 0
        self.recover_requests = 0

    def set_timer(self, delay: float, callback, description: str = "timer") -> None:
        """A timer of this start only: every collector timer serves volatile
        state, so one armed before a restart fires as a no-op."""
        boot = self._boot_token

        def fire() -> None:
            if self._boot_token is boot:
                callback()

        super().set_timer(delay, fire, description)

    # ------------------------------------------------------------------ dispatch

    def on_message(self, message: Message) -> None:
        # Only the authenticated channel names a peer collector; the
        # ``sender`` fields inside payloads are never trusted.  Voters alone
        # speak on the public channel, and only with VOTE requests.
        payload = message.payload
        if isinstance(payload, VoteRequest):
            self._admission.offer(message.sender, payload)
        elif message.channel is not ChannelKind.AUTHENTICATED:
            return
        elif isinstance(payload, Endorse):
            self._on_endorse(message.sender, payload)
        elif isinstance(payload, Endorsement):
            self._on_endorsement(message.sender, payload)
        elif isinstance(payload, VotePending):
            self._on_vote_pending(message.sender, payload)
        elif isinstance(payload, VscBatch):
            for element in payload.envelope.messages:
                if isinstance(element, Announce):
                    self._on_announce(message.sender, element)
                else:
                    self.vsc.handle(message.sender, element)
        elif isinstance(payload, RecoverRequest):
            self._on_recover_request(message.sender, payload)
        elif isinstance(payload, RecoverResponse):
            self._on_recover_response(payload)
        # What this handler step queued leaves as one frame to every VC node.
        self._batcher.flush()

    # ------------------------------------------------------------------ voting

    def _within_voting_hours(self) -> bool:
        return (
            not self.voting_closed
            and self.params.within_voting_hours(self.now)
        )

    def _shed_vote_request(self, voter: str, request: VoteRequest, retry_after_s: float) -> None:
        """Overload: reject with a retry hint instead of queueing deeper."""
        self.send(
            voter,
            VoteRejected(request.serial, request.vote_code, shed_reason(retry_after_s)),
            channel=ChannelKind.PUBLIC,
        )

    def _on_vote_request(self, voter: str, request: VoteRequest) -> None:
        """Handle VOTE<serial, vote-code> from a voter (we become the responder)."""
        if not self._within_voting_hours():
            self.send(voter, VoteRejected(request.serial, request.vote_code, "outside voting hours"),
                      channel=ChannelKind.PUBLIC)
            self.votes_rejected += 1
            return
        record = self.ballots.get(request.serial)
        view = self.init.ballots.get(request.serial)
        if record is None or view is None:
            self.send(voter, VoteRejected(request.serial, request.vote_code, "unknown ballot"),
                      channel=ChannelKind.PUBLIC)
            self.votes_rejected += 1
            return
        if record.status is BallotStatus.VOTED and record.used_vote_code == request.vote_code:
            # Ballot already voted with the same code: return the stored receipt.
            self.send(voter, VoteReceipt(request.serial, request.vote_code, record.receipt),
                      channel=ChannelKind.PUBLIC)
            return
        if record.status is not BallotStatus.NOT_VOTED:
            if record.used_vote_code == request.vote_code:
                # Receipt still being assembled; remember who to answer.
                record.waiting_voters.append(voter)
            else:
                self.send(voter, VoteRejected(request.serial, request.vote_code, "ballot already used"),
                          channel=ChannelKind.PUBLIC)
                self.votes_rejected += 1
            return
        location = view.find_vote_code(request.vote_code)
        if location is None:
            self.send(voter, VoteRejected(request.serial, request.vote_code, "invalid vote code"),
                      channel=ChannelKind.PUBLIC)
            self.votes_rejected += 1
            return
        if record.endorse_code is not None and location != record.location:
            # An endorsement round is open for another code of this ballot.
            # Moving ``location`` would make _endorsement_wanted drop every
            # endorsement of that code while nobody endorses this one.
            self.send(voter, VoteRejected(request.serial, request.vote_code, "ballot already used"),
                      channel=ChannelKind.PUBLIC)
            self.votes_rejected += 1
            return
        # Become the responder: ask every VC node to endorse this vote code.
        record.location = location
        record.waiting_voters.append(voter)
        if record.endorse_code is None:
            record.endorse_code = request.vote_code
            self.broadcast(self.peers, Endorse(request.serial, request.vote_code))

    def _on_endorse(self, sender: str, request: Endorse) -> None:
        """Sign the vote code unless we already endorsed a different one."""
        if not self._within_voting_hours():
            return
        if self.init.ballots.get(request.serial) is None:
            return
        previously = self.endorsed.get(request.serial)
        if previously is not None and previously != request.vote_code:
            return
        view = self.init.ballots[request.serial]
        if view.find_vote_code(request.vote_code) is None:
            return
        self.endorsed[request.serial] = request.vote_code
        signature = self.signature_scheme.sign(
            self.init.signing_keys, endorsement_message(request.serial, request.vote_code)
        )
        self.send(sender, Endorsement(request.serial, request.vote_code, self.node_id, signature))

    def _endorsement_wanted(self, endorsement: Endorsement) -> bool:
        """Whether an ENDORSEMENT can still advance this ballot (Algorithm 1 guards)."""
        if not self._within_voting_hours():
            return False
        record = self.ballots.get(endorsement.serial)
        if record is None or record.status is not BallotStatus.NOT_VOTED:
            return False
        # Only the code this node asked its peers to endorse counts: a valid
        # signature over another code of the ballot (an equivocating peer)
        # would otherwise fill the quorum of a certificate nobody accepts.
        return record.endorse_code is not None and endorsement.vote_code == record.endorse_code

    def _on_endorsement(self, sender: str, endorsement: Endorsement) -> None:
        """Collect endorsements; at Nv - fv form the UCERT and disclose our share.

        With batching on, signature verification is deferred to the
        :class:`~repro.core.admission.EndorsementBatcher`, which hands
        verified endorsements back to :meth:`_accept_endorsement`.
        """
        if not self._endorsement_wanted(endorsement):
            return
        if self._endorse_batcher is not None:
            self._endorse_batcher.add(endorsement)
            return
        message = endorsement_message(endorsement.serial, endorsement.vote_code)
        if not self._verify_endorsement(endorsement, message):
            return
        self._accept_endorsement(endorsement)

    def _accept_endorsement(self, endorsement: Endorsement) -> None:
        """Record a signature-verified endorsement (guards re-checked: the
        batch may have waited while the ballot moved on)."""
        if not self._endorsement_wanted(endorsement):
            return
        record = self.ballots[endorsement.serial]
        record.endorsements[endorsement.signer] = endorsement
        if len(record.endorsements) < self.quorum:
            return
        # The certificate is for the code we asked about, whichever endorsement
        # completed the quorum.
        vote_code = record.endorse_code
        ucert = UniquenessCertificate(
            endorsement.serial, vote_code, tuple(record.endorsements.values())
        )
        record.ucert = ucert
        record.status = BallotStatus.PENDING
        record.used_vote_code = vote_code
        # A quorum of distinct signers, each checked on its way in, all over
        # this (serial, code): what verify_ucert tests, so our own VOTE_P
        # looping back is a memo hit.
        self._ucert_cache[self._ucert_key(ucert)] = True
        self._disclose_share(endorsement.serial, record, vote_code, ucert)

    def _disclose_share(
        self,
        serial: int,
        record: BallotRecord,
        vote_code: bytes,
        ucert: UniquenessCertificate,
    ) -> None:
        """Multicast our VOTE_P (receipt share) for this ballot, once."""
        if record.vote_p_sent or record.location is None:
            return
        record.vote_p_sent = True
        part, index = record.location
        share = self.init.ballots[serial].receipt_share_at(part, index)
        self.broadcast(self.peers, VotePending(serial, vote_code, share, ucert, self.node_id))

    def _on_vote_pending(self, sender: str, pending: VotePending) -> None:
        """Handle a peer's receipt share (VOTE_P)."""
        if not self._within_voting_hours():
            return
        record = self.ballots.get(pending.serial)
        view = self.init.ballots.get(pending.serial)
        if record is None or view is None:
            return
        if record.status is BallotStatus.VOTED:
            # The receipt exists: one more share cannot change state, so its
            # two signature checks (UCERT, dealer) are not paid for.
            return
        if not self.verify_ucert(pending.ucert):
            return
        if pending.ucert.serial != pending.serial or pending.ucert.vote_code != pending.vote_code:
            return
        if record.status is BallotStatus.NOT_VOTED:
            location = view.find_vote_code(pending.vote_code)
        elif record.used_vote_code != pending.vote_code:
            # A valid UCERT exists for a different code than the one we hold;
            # with an honest EA this cannot happen (UCERT uniqueness), so drop.
            return
        else:
            location = record.location or view.find_vote_code(pending.vote_code)
        # The dealer signs every line's shares, so a valid signature alone
        # would let a share of another row or serial into the reconstruction.
        if location is None or (
            pending.receipt_share.context != view.receipt_share_at(*location).context
        ):
            return
        if not SigningDealer.verify_share(
            self.signature_scheme, self.init.dealer_public_key, pending.receipt_share
        ):
            return
        if record.status is BallotStatus.NOT_VOTED:
            record.location = location
            record.status = BallotStatus.PENDING
            record.used_vote_code = pending.vote_code
            record.ucert = pending.ucert
        record.receipt_shares[sender] = pending.receipt_share
        record.ucert = record.ucert or pending.ucert
        self._disclose_share(pending.serial, record, pending.vote_code, pending.ucert)
        # A replayed share repeats an index: count the distinct ones.
        if len({signed.index for signed in record.receipt_shares.values()}) >= self.quorum:
            self._reconstruct_receipt(pending.serial, record)

    def _reconstruct_receipt(self, serial: int, record: BallotRecord) -> None:
        """Rebuild the 64-bit receipt from Nv - fv verified shares."""
        shares = [signed.share for signed in record.receipt_shares.values()]
        value = self.receipt_sss.reconstruct(shares)
        record.receipt = int_to_bytes(value, 8)
        record.status = BallotStatus.VOTED
        for voter in record.waiting_voters:
            self.send(voter, VoteReceipt(serial, record.used_vote_code, record.receipt),
                      channel=ChannelKind.PUBLIC)
            self.receipts_issued += 1
        record.waiting_voters.clear()

    # ------------------------------------------------------------------ signature helpers

    def _verify_endorsement(self, endorsement: Endorsement, message: bytes) -> bool:
        """Check the signer's signature on ``message`` (the endorsed bytes)."""
        public = self.init.vc_public_keys.get(endorsement.signer)
        if public is None:
            return False
        return self.signature_scheme.verify(public, message, endorsement.signature)

    @staticmethod
    def _ucert_key(ucert: UniquenessCertificate) -> Tuple:
        """Content key of a certificate in the verified-UCERT memo."""
        return (
            ucert.serial,
            ucert.vote_code,
            tuple(
                (e.serial, e.vote_code, e.signer, e.signature.challenge, e.signature.response)
                for e in ucert.endorsements
            ),
        )

    def verify_ucert(self, ucert: Optional[UniquenessCertificate]) -> bool:
        """Check a uniqueness certificate: Nv - fv valid signatures from distinct nodes.

        The verdict is memoized by certificate content: the same UCERT rides
        on every VOTE_P, ANNOUNCE and RECOVER-RESPONSE for its ballot, and
        signature validity never changes.  A miss verifies the signatures one
        by one, batching on or off: at quorum size the aggregate equation
        costs more than the single verifies it would replace.
        """
        if ucert is None:
            return False
        key = self._ucert_key(ucert)
        cached = self._ucert_cache.get(key)
        if cached is not None:
            self.admission_stats.ucert_cache_hits += 1
            return cached
        # Every consistent endorsement signs the certificate's own
        # (serial, vote code), so the signed bytes are built once.
        message = endorsement_message(ucert.serial, ucert.vote_code)
        signers = {
            e.signer
            for e in ucert.endorsements
            if e.serial == ucert.serial
            and e.vote_code == ucert.vote_code
            and self._verify_endorsement(e, message)
        }
        verdict = len(signers) >= self.quorum
        self._ucert_cache[key] = verdict
        return verdict

    # ------------------------------------------------------------------ Vote Set Consensus

    def end_election(self) -> None:
        """Freeze voting state and start Vote Set Consensus for every ballot."""
        if self.vsc_started:
            return
        self.voting_closed = True
        self.vsc_started = True
        for serial, record in self.ballots.items():
            self._consensus_record(serial)
            vote_code = record.used_vote_code if record.ucert is not None else None
            ucert = record.ucert if vote_code is not None else None
            self._batcher.enqueue(Announce(serial, vote_code, ucert, self.node_id))
        # Announces may have raced ahead of our own election end; any ballot
        # that already has a quorum of them is ready now.
        for serial, state in self.consensus.items():
            if len(state.announces) >= self.quorum:
                self.vsc.ready(serial)
        self._batcher.flush()

    def _consensus_record(self, serial: int) -> Optional[ConsensusRecord]:
        """Consensus state of one of our ballots; ``None`` for any other serial
        (a record for one would never resolve and so block the upload)."""
        if serial not in self.consensus:
            if serial not in self.ballots:
                return None
            self.consensus[serial] = ConsensusRecord()
        return self.consensus[serial]

    def _on_announce(self, sender: str, announce: Announce) -> None:
        state = self._consensus_record(announce.serial)
        if state is None or sender in state.announces:
            return
        state.announces[sender] = announce
        # Adopt any valid vote code we did not know about.
        if announce.vote_code is not None and self.verify_ucert(announce.ucert):
            record = self.ballots.get(announce.serial)
            if record is not None and record.ucert is None:
                record.used_vote_code = announce.vote_code
                record.ucert = announce.ucert
                if record.status is BallotStatus.NOT_VOTED:
                    record.status = BallotStatus.PENDING
        if self.vsc_started and len(state.announces) >= self.quorum:
            # A quorum of announces after our own election end: the opinion
            # on this ballot is ready for the engine.
            self.vsc.ready(announce.serial)

    @property
    def vsc_stats(self) -> VscStats:
        vsc, batcher = self.vsc, self._batcher
        return VscStats(
            per_ballot_instances=vsc.per_ballot_instances,
            superblocks=vsc.superblocks,
            superblocks_fast=vsc.superblocks_fast,
            superblocks_fallback=vsc.superblocks_fallback,
            recover_requests=self.recover_requests,
            envelopes_sent=batcher.envelopes_sent,
            envelope_messages=batcher.messages_sent,
        )

    def _vsc_schedule(self, delay: float, callback) -> None:
        def fire() -> None:
            callback()
            self._batcher.flush()

        self.set_timer(delay, fire, description="superblock-grace")

    def _on_consensus_decision(self, serial: int, value: int) -> None:
        state = self._consensus_record(serial)
        if state.decided is not None:
            return
        state.decided = value
        record = self.ballots.get(serial)
        if value == 0:
            state.final_vote_code = None
            state.resolved = True
        else:
            if record is not None and record.ucert is not None:
                state.final_vote_code = record.used_vote_code
                state.resolved = True
            elif not state.recover_requested:
                # We decided "voted" without knowing the winning code: recover.
                state.recover_requested = True
                self.recover_requests += 1
                self.broadcast(self.peers, RecoverRequest(serial, self.node_id))
        self._maybe_finish_vsc()

    def _on_recover_request(self, sender: str, request: RecoverRequest) -> None:
        record = self.ballots.get(request.serial)
        if record is None or record.ucert is None or record.used_vote_code is None:
            return
        self.send(
            sender,
            RecoverResponse(request.serial, record.used_vote_code, record.ucert, self.node_id),
        )

    def _on_recover_response(self, response: RecoverResponse) -> None:
        state = self._consensus_record(response.serial)
        if state is None or state.resolved or state.decided != 1:
            return
        if not self.verify_ucert(response.ucert):
            return
        if response.ucert.serial != response.serial or response.ucert.vote_code != response.vote_code:
            return
        state.final_vote_code = response.vote_code
        state.resolved = True
        record = self.ballots.get(response.serial)
        if record is not None:
            record.used_vote_code = response.vote_code
            record.ucert = response.ucert
        self._maybe_finish_vsc()

    def _maybe_finish_vsc(self) -> None:
        """Upload the final vote set to every BB node once every ballot is resolved."""
        if self.uploaded or not self.vsc_started:
            return
        if len(self.consensus) < len(self.ballots):
            return
        if not all(state.resolved for state in self.consensus.values()):
            return
        vote_set = tuple(
            sorted(
                (serial, state.final_vote_code)
                for serial, state in self.consensus.items()
                if state.final_vote_code is not None
            )
        )
        self.final_vote_set = vote_set
        self.uploaded = True
        self._upload_vote_set(vote_set)

    def _upload_vote_set(self, vote_set: Tuple[Tuple[int, bytes], ...]) -> None:
        for bb in self.bb_nodes:
            self.send(bb, VoteSetUpload(vote_set, self.node_id))
            self.send(bb, MskShareUpload(self.init.msk_share, self.node_id))

    # ------------------------------------------------------------------ crash / recovery

    def snapshot_state(self, codec=None) -> bytes:
        """Serialize this node's minimal durable state through the wire codec.

        The snapshot is what a real deployment would hold in write-ahead
        storage: per-ballot status, the (at most one) endorsed vote code, the
        UCERT, receipt and collected receipt shares.  Everything else --
        in-flight endorsement collections, waiting voters, consensus
        instances, superblock progress -- is volatile process memory a
        restart legitimately loses.
        """
        if codec is None:
            from repro.net.codec import default_codec

            codec = default_codec()
        entries = []
        for serial in sorted(self.ballots):
            record = self.ballots[serial]
            endorsed = self.endorsed.get(serial)
            if (
                record.status is BallotStatus.NOT_VOTED
                and endorsed is None
                and not record.receipt_shares
            ):
                continue
            entries.append(
                BallotStateEntry(
                    serial=serial,
                    status=record.status.value,
                    used_vote_code=record.used_vote_code,
                    endorsed_code=endorsed,
                    receipt=record.receipt,
                    ucert=record.ucert,
                    receipt_shares=tuple(sorted(record.receipt_shares.items())),
                )
            )
        snapshot = VcStateSnapshot(
            node_id=self.node_id,
            voting_closed=self.voting_closed,
            entries=tuple(entries),
        )
        return codec.encode(snapshot)

    def restore_state(self, data: bytes, codec=None) -> None:
        """Restart this node from a :meth:`snapshot_state` byte string.

        The node boots as a fresh process would (:meth:`_boot`, the path the
        constructor takes) and then replays the durable entries.  So every
        counter describes the process since its last start: the VSC engine's
        and outbound queue's, ``recover_requests``, ``receipts_issued``,
        ``votes_rejected`` and ``admission_stats`` restart at zero.  The
        crash bookkeeping (``crashes``, ``recovered_at``,
        ``caught_up_from_bb``) is about the process, not held by it, and
        carries over.
        """
        if codec is None:
            from repro.net.codec import default_codec

            codec = default_codec()
        snapshot = codec.decode(data)
        if not isinstance(snapshot, VcStateSnapshot):
            raise TypeError(f"expected a VcStateSnapshot frame, got {type(snapshot).__name__}")
        if snapshot.node_id != self.node_id:
            raise ValueError(
                f"snapshot belongs to {snapshot.node_id!r}, not {self.node_id!r}"
            )
        self._boot(voting_closed=snapshot.voting_closed)

        # Replay the durable entries.
        for entry in snapshot.entries:
            record = self.ballots.get(entry.serial)
            view = self.init.ballots.get(entry.serial)
            if record is None or view is None:
                continue
            record.status = BallotStatus(entry.status)
            record.used_vote_code = entry.used_vote_code
            record.receipt = entry.receipt
            record.ucert = entry.ucert
            record.receipt_shares = dict(entry.receipt_shares)
            if entry.used_vote_code is not None:
                record.location = view.find_vote_code(entry.used_vote_code)
            if entry.endorsed_code is not None:
                self.endorsed[entry.serial] = entry.endorsed_code
        self.recovered_at = self.now if self.network is not None else None

    def adopt_final_vote_set(self, vote_set: Tuple[Tuple[int, bytes], ...]) -> None:
        """Catch up after a crash: adopt the BB-agreed vote set as final.

        A node that was down while its peers ran Vote Set Consensus cannot
        join the finished instances; the paper's recovery path is to read the
        agreed result from the (majority of) Bulletin Board nodes.  Adopting
        it and uploading our own copy plus our ``msk`` share strengthens both
        BB thresholds (``fv + 1`` identical vote sets, ``Nv - fv`` key
        shares) for readers that come later.
        """
        if self.uploaded:
            return
        self.voting_closed = True
        self.vsc_started = True
        self.final_vote_set = tuple(vote_set)
        self.uploaded = True
        self.caught_up_from_bb = True
        self._upload_vote_set(self.final_vote_set)
