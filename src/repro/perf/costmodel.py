"""Calibrated cost model of the vote-collection protocol.

Every quantity is expressed in milliseconds of CPU time (for work) or
milliseconds of one-way latency (for network hops).  The calibration targets
the order of magnitude of the paper's testbed (hexa-core Xeon E5-2420 @
1.9 GHz, MIRACL elliptic-curve operations, PostgreSQL storage); the exact
values matter much less than the *structure* of the model:

* per-vote CPU work grows roughly quadratically in the number of VC nodes
  (every node verifies O(Nv) signatures/shares for every vote), which is what
  produces the throughput decline of Figures 4b/4e;
* the critical path of a vote contains a constant number of message rounds,
  so WAN latency adds a constant to response time but does not reduce
  saturated throughput (Figures 4d/4e vs 4a/4b);
* database-backed experiments add a per-vote lookup cost that grows slowly
  with the electorate size ``n`` (Figure 5a) and a per-row fetch cost
  proportional to the number of options ``m`` (Figure 5b).

The phase-duration model of Figure 5c (:func:`phase_breakdown`) is built on
the same constants and lives at the end of this module.  No election run
imports this module; the measured phase timer is
:class:`repro.perf.phases.PhaseRecorder`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class CryptoCosts:
    """CPU cost (milliseconds) of the cryptographic operations on a VC node."""

    sign_ms: float = 0.15
    verify_ms: float = 0.20
    hash_ms: float = 0.002
    share_verify_ms: float = 0.20
    share_reconstruct_ms: float = 0.05
    request_overhead_ms: float = 0.10


@dataclass(frozen=True)
class DatabaseCosts:
    """Cost of the PostgreSQL-backed ballot storage used in Figures 5a-5c.

    ``lookup_ms(n)`` models locating a ballot among ``n`` (index traversal +
    buffer-cache misses; grows slowly with ``n``).  ``row_disk_ms`` is the
    additional disk time per ballot line fetched and ``row_cpu_ms`` the CPU
    time to deserialize and hash-check it; both grow the per-vote cost mildly
    and linearly in the number of options ``m`` (the only ``m`` effect the
    paper reports for Figure 5b).
    """

    base_lookup_ms: float = 4.0
    scale_exponent: float = 0.40
    reference_ballots: float = 1e6
    row_disk_ms: float = 0.05
    row_cpu_ms: float = 0.10

    def lookup_ms(self, num_ballots: int) -> float:
        """Per-vote ballot lookup cost for an electorate of ``num_ballots``."""
        if num_ballots <= 0:
            raise ValueError("electorate size must be positive")
        scale = (num_ballots / self.reference_ballots) ** self.scale_exponent
        return self.base_lookup_ms * max(scale, 0.05)


@dataclass(frozen=True)
class ConsensusCosts:
    """Analytic message- and frame-count model of Vote Set Consensus (Section III-E).

    A *message* is one protocol message an instance handles (what
    ``ConsensusCluster`` counts).  A vote collector sends all messages of one
    handler step as one ``VscBatch`` *frame*, which ``Network.messages_sent`` counts.

    *Per-ballot* mode runs one binary consensus instance per ballot.  With the
    common coin an instance takes ``expected_rounds`` rounds; the collectors'
    opinions on a ballot agree unless a Byzantine one splits them, so per round
    every node broadcasts one BVAL and one AUX, and after deciding one FINISH
    and the BVAL of the round it halts in: a single instance costs about
    ``(2 * rounds + 2) * Nv^2`` point-to-point messages.

    *Superblock* mode replaces the per-ballot instances of a block of ``B``
    ballots with ``Nv`` reliably-broadcast opinion vectors (send + echo + ready
    is roughly ``(2 Nv + 1) * Nv`` messages per vector) and **one** binary
    instance, amortizing the instance cost ``B``-fold on the fast path.

    Frames do not grow with the ballots: all instances advance in the same
    steps, so a node sends its announces, BVAL and AUX once per round until
    its *slowest* instance has decided, then the last FINISH.
    """

    #: every instance flips its own fair coin (``common_coin`` hashes the
    #: instance id), so a unanimous one decides in a geometric round, mean 2
    expected_rounds: float = 2.0

    def instance_messages(self, num_vc: int) -> float:
        """Messages of one binary consensus instance."""
        return (2.0 * self.expected_rounds + 2.0) * num_vc * num_vc

    def frames(self, num_vc: int, num_ballots: int, batch_size: int = 1) -> float:
        """``VscBatch`` frames: announces, two per round of the slowest instance
        and FINISH; superblocks add SEND plus an ECHO and a READY per origin.

        The slowest of ``n`` geometric(1/2) decision rounds is expected in
        round ``log2 n + 1.33`` (``1/2 + gamma / ln 2``), so the count grows
        with the logarithm of the ballots, not with the ballots.  That holds
        for honest collectors whose instances are all unanimous; a single run
        moves with the coin of its slowest instance (measured / predicted
        0.68-1.34 over seeds 3-5).  ``tests/perf/test_costmodel.py`` holds it
        to wire runs at ``Nv = 4`` with 12 ballots and ``Nv = 7`` with 56,
        per-ballot and superblock.
        """
        slowest = math.log2(max(math.ceil(num_ballots / batch_size), 1)) + 1.33
        rbc_steps = 2.0 * num_vc + 1.0 if batch_size > 1 else 0.0
        return (rbc_steps + 2.0 * slowest + 2.0) * num_vc * num_vc

    def per_ballot_messages(self, num_vc: int, num_ballots: int) -> float:
        """Total consensus messages with one instance per ballot."""
        return num_ballots * self.instance_messages(num_vc)

    def superblock_messages(self, num_vc: int, num_ballots: int, batch_size: int) -> float:
        """Total consensus messages with fast-path superblocks of ``batch_size``."""
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if batch_size == 1:
            return self.per_ballot_messages(num_vc, num_ballots)
        num_blocks = math.ceil(num_ballots / batch_size)
        rbc_per_block = num_vc * (2.0 * num_vc + 1.0) * num_vc
        return num_blocks * (rbc_per_block + self.instance_messages(num_vc))

    def batching_speedup(self, num_vc: int, num_ballots: int, batch_size: int) -> float:
        """Message-count reduction factor of batched over per-ballot VSC."""
        return self.per_ballot_messages(num_vc, num_ballots) / self.superblock_messages(
            num_vc, num_ballots, batch_size
        )


@dataclass(frozen=True)
class BandwidthCosts:
    """Measured bytes-per-message bandwidth model of the wire format.

    Unlike the analytic *message-count* model (:class:`ConsensusCosts`), every
    field here is the measured size of one canonically encoded protocol
    message (:mod:`repro.net.codec`), so the byte totals this model predicts
    are the same quantity ``Network.bytes_sent`` counts when a scenario runs
    with the wire format on -- and the same quantity the paper reports for
    its Netty/TLS deployment.

    The defaults were measured with :meth:`measured` at the paper's ``Nv = 4``
    (UCERT-bearing messages grow with the endorsement quorum ``Nv - fv``);
    call :meth:`measured` for other deployment shapes.  Signature encodings
    vary by a byte or two with the nonce, hence the float fields.

    Voting-phase sizes are whole frames; consensus-phase sizes are *elements*
    (tag, length, body) of a ``VscBatch`` frame, which itself costs
    ``envelope_frame_bytes`` on top of them.
    """

    #: deployment shape the UCERT-bearing sizes below were measured for
    num_vc: int = 4
    vote_request_bytes: float = 57.0
    vote_receipt_bytes: float = 57.0
    endorse_bytes: float = 45.0
    endorsement_bytes: float = 171.0
    vote_pending_bytes: float = 782.0
    announce_voted_bytes: float = 582.0
    announce_empty_bytes: float = 24.0
    #: mean size of a BVAL / AUX / FINISH element
    consensus_message_bytes: float = 26.0
    #: fixed part of a reliably-broadcast superblock opinion vector
    superblock_vector_base_bytes: float = 29.0
    #: marginal bytes per ballot in an opinion vector (bit-per-ballot packing)
    superblock_vector_ballot_bytes: float = 1.0
    #: a ``VscBatch`` frame with no elements: framing, envelope header, sender
    envelope_frame_bytes: float = 31.0
    #: framing cost (magic + version + tag + length + CRC) per message
    frame_overhead_bytes: float = 13.0
    consensus: ConsensusCosts = field(default_factory=ConsensusCosts)

    @classmethod
    def measured(cls, num_vc: int = 4, codec=None) -> "BandwidthCosts":
        """Measure every size from the live codec for a given deployment."""
        # Imported lazily so the cost model stays usable without the crypto
        # and wire packages loaded (its defaults are baked in above).
        from repro.consensus.batching import BatchEnvelope, SuperblockSend
        from repro.consensus.interfaces import Aux, BVal, Finish
        from repro.core.messages import (
            Announce,
            Endorse,
            Endorsement,
            UniquenessCertificate,
            VotePending,
            VoteReceipt,
            VoteRequest,
            VscBatch,
        )
        from repro.crypto.shamir import Share, SignedShare
        from repro.crypto.signatures import SignatureScheme
        from repro.crypto.utils import RandomSource
        from repro.net.codec import FRAME_OVERHEAD, default_codec

        codec = codec or default_codec()
        scheme = SignatureScheme()
        keys = scheme.keygen(RandomSource(7))
        signature = scheme.sign(keys, b"bandwidth-measurement", RandomSource(11))
        serial = 123_456
        vote_code = bytes(range(20))  # 160-bit vote codes (Section III-B)
        quorum = num_vc - (num_vc - 1) // 3
        endorsement = Endorsement(serial, vote_code, "VC-0", signature)
        ucert = UniquenessCertificate(
            serial,
            vote_code,
            tuple(Endorsement(serial, vote_code, f"VC-{i}", signature) for i in range(quorum)),
        )
        signed_share = SignedShare(
            Share(1, (1 << 254) + 3), b"receipt|123456|A|0", signature
        )

        def size(message) -> float:
            return float(len(codec.encode(message)))

        envelope_frame = size(VscBatch(BatchEnvelope(()), "VC-0"))

        def element(message) -> float:
            return size(VscBatch(BatchEnvelope((message,)), "VC-0")) - envelope_frame

        instance = str(serial)
        consensus_elements = (
            element(BVal(instance, 1, 1))
            + element(Aux(instance, 1, 1))
            + element(Finish(instance, 1))
        ) / 3.0
        vector_base = element(SuperblockSend("sb|1000", "VC-0", b""))
        vector_16 = element(SuperblockSend("sb|1000", "VC-0", b"\x01" * 16))
        return cls(
            num_vc=num_vc,
            vote_request_bytes=size(VoteRequest(serial, vote_code, "V-123456")),
            vote_receipt_bytes=size(VoteReceipt(serial, vote_code, b"\x01" * 8)),
            endorse_bytes=size(Endorse(serial, vote_code)),
            endorsement_bytes=size(endorsement),
            vote_pending_bytes=size(VotePending(serial, vote_code, signed_share, ucert, "VC-0")),
            announce_voted_bytes=element(Announce(serial, vote_code, ucert, "VC-0")),
            announce_empty_bytes=element(Announce(serial, None, None, "VC-0")),
            consensus_message_bytes=consensus_elements,
            superblock_vector_base_bytes=vector_base,
            superblock_vector_ballot_bytes=(vector_16 - vector_base) / 16.0,
            envelope_frame_bytes=envelope_frame,
            frame_overhead_bytes=float(FRAME_OVERHEAD),
        )

    # -- voting-phase bandwidth -------------------------------------------------

    def voting_bytes_per_vote(self, num_vc: int) -> float:
        """Bytes one vote puts on the wire across the whole VC subsystem.

        VOTE + receipt on the public channel, one ENDORSE broadcast, ``Nv``
        ENDORSEMENT replies and ``Nv`` VOTE_P multicasts of ``Nv`` messages
        each on the private channels (the VOTE_P quadratic term dominates,
        which is why response size barely moves with the electorate but grows
        with ``Nv``).
        """
        return (
            self.vote_request_bytes
            + self.vote_receipt_bytes
            + num_vc * self.endorse_bytes
            + num_vc * self.endorsement_bytes
            + num_vc * num_vc * self.vote_pending_bytes
        )

    # -- consensus-phase bandwidth ----------------------------------------------

    def announce_bytes(self, num_vc: int, num_ballots: int, turnout: float = 1.0) -> float:
        """Bytes of the ANNOUNCE exchange opening Vote Set Consensus."""
        per_ballot = (
            turnout * self.announce_voted_bytes
            + (1.0 - turnout) * self.announce_empty_bytes
        )
        return num_ballots * num_vc * num_vc * per_ballot

    def per_ballot_consensus_bytes(self, num_vc: int, num_ballots: int) -> float:
        """Instance traffic of one binary consensus per ballot, in bytes."""
        return (
            self.consensus.per_ballot_messages(num_vc, num_ballots)
            * self.consensus_message_bytes
        )

    def superblock_consensus_bytes(
        self, num_vc: int, num_ballots: int, batch_size: int
    ) -> float:
        """Instance + reliable-broadcast traffic of superblock VSC, in bytes."""
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if batch_size == 1:
            return self.per_ballot_consensus_bytes(num_vc, num_ballots)
        num_blocks = math.ceil(num_ballots / batch_size)
        vector_bytes = (
            self.superblock_vector_base_bytes
            + batch_size * self.superblock_vector_ballot_bytes
        )
        rbc_messages_per_vector = (2.0 * num_vc + 1.0) * num_vc
        per_block = num_vc * rbc_messages_per_vector * vector_bytes + (
            self.consensus.instance_messages(num_vc) * self.consensus_message_bytes
        )
        return num_blocks * per_block

    def consensus_bytes(
        self, num_vc: int, num_ballots: int, batch_size: int = 1, turnout: float = 1.0
    ) -> float:
        """Total Vote Set Consensus bytes: ANNOUNCE and instance elements plus
        what the frames carrying them cost."""
        return (
            self.announce_bytes(num_vc, num_ballots, turnout)
            + self.superblock_consensus_bytes(num_vc, num_ballots, batch_size)
            + self.consensus.frames(num_vc, num_ballots, batch_size) * self.envelope_frame_bytes
        )

    def batching_byte_reduction(
        self, num_vc: int, num_ballots: int, batch_size: int
    ) -> float:
        """How many times fewer instance-traffic bytes superblock VSC sends."""
        return self.per_ballot_consensus_bytes(num_vc, num_ballots) / (
            self.superblock_consensus_bytes(num_vc, num_ballots, batch_size)
        )


@dataclass(frozen=True)
class AuditCosts:
    """Analytic group-multiplication model of batched audit verification.

    Costs are expressed in *Python-level modular multiplications*, the unit
    the pure-Python group backends actually spend.  Three exponentiation
    flavors appear in the audit:

    * a **fixed-base** exponentiation (``g``, the commitment key, a hot signer
      key) is one table product per byte of the exponent
      (:class:`~repro.crypto.group.SchnorrFixedBase`);
    * a **native** exponentiation (builtin ``pow`` on a one-shot base) runs
      its ``1.5 * exponent_bits`` square-and-multiply steps inside the C
      interpreter loop, which empirically costs about ``native_pow_discount``
      of the equivalent Python-level multiplications;
    * the **batched** factors of an aggregated equation go through
      :meth:`~repro.crypto.group.Group.multi_power`, one call per exponent
      width (``security_bits`` for announcements and signature commitments,
      ``exponent_bits`` for the ciphertext bases): the bit scan below
      ``bucket_min_terms`` factors, byte-digit buckets from there on
      (:meth:`multi_power_multiplications`).

    The model mirrors :class:`ConsensusCosts`: the parallel-audit benchmark
    reports its predicted speedup next to the measured one.  It counts
    products only: the interpreter's per-item work on either side (hashing,
    object construction) is not in it.
    """

    exponent_bits: int = 256
    security_bits: int = 64
    #: table products per fixed-base exponentiation: the bytes of a 256-bit exponent
    fixed_base_multiplications: float = 32.0
    #: cost of a builtin-pow exponentiation relative to the same chain of
    #: Python-level multiplications (CPython runs it in C)
    native_pow_discount: float = 0.5
    #: factors from which ``multi_power`` fills buckets instead of scanning
    #: bits: ``SchnorrGroup.BUCKET_MIN_TERMS`` (pinned to it by the tests; this
    #: module imports nothing of the program it models)
    bucket_min_terms: int = 72

    def serial_multiplications(
        self, num_items: int, fixed_base_exps: float = 0.0, native_exps: float = 0.0
    ) -> float:
        """Cost of verifying ``num_items`` checks one at a time."""
        if num_items < 0:
            raise ValueError("the number of items cannot be negative")
        per_item = (
            fixed_base_exps * self.fixed_base_multiplications
            + native_exps * 1.5 * self.exponent_bits * self.native_pow_discount
        )
        return num_items * per_item

    def multi_power_multiplications(self, terms: float, bits: int) -> float:
        """Products of one ``multi_power`` call over ``terms`` ``bits``-wide exponents.

        Both evaluations square once per bit.  On top of that the scan
        multiplies once per set bit (half of them), the buckets once per term
        per byte plus the 510-product fold of the 255 buckets per byte.
        """
        if terms <= 0:
            return 0.0
        if terms < self.bucket_min_terms:
            return bits + terms * bits / 2.0
        return bits + math.ceil(bits / 8) * (terms + 510.0)

    def batched_multiplications(
        self,
        num_items: int,
        small_bases: float = 0.0,
        wide_bases: float = 0.0,
        fixed_bases: int = 2,
    ) -> float:
        """Cost of the one aggregated batch equation over ``num_items``."""
        if num_items < 0:
            raise ValueError("the number of items cannot be negative")
        return (
            self.multi_power_multiplications(num_items * small_bases, self.security_bits)
            + self.multi_power_multiplications(num_items * wide_bases, self.exponent_bits)
            + fixed_bases * self.fixed_base_multiplications
        )

    def batch_speedup(
        self,
        num_items: int,
        fixed_base_exps: float = 0.0,
        native_exps: float = 0.0,
        small_bases: float = 0.0,
        wide_bases: float = 0.0,
        fixed_bases: int = 2,
    ) -> float:
        """Predicted serial/batched multiplication-count ratio."""
        batched = self.batched_multiplications(num_items, small_bases, wide_bases, fixed_bases)
        if batched <= 0:
            return 1.0
        return (
            self.serial_multiplications(num_items, fixed_base_exps, native_exps) / batched
        )


@dataclass(frozen=True)
class AdmissionCosts:
    """Analytic multiplication model of batched endorsement verification.

    The voting-phase analogue of :class:`AuditCosts`: a responder assembling
    a UCERT (and a helper re-verifying one) checks Schnorr endorsement
    signatures from the other VC nodes.  Verified one at a time, each check
    costs two fixed-base exponentiations (the generator and the signer's key,
    both with precomputed tables after node init).  Verified as a batch of
    ``B`` with the small-exponent test (:mod:`repro.crypto.batch_verify`),
    the aggregate equation costs one shared chain of squarings, half a
    ``security_bits``-wide exponent per item (the nonce commitments carry the
    random weights), and one warmed fixed-base exponentiation per distinct
    base -- the generator plus each of the ``num_signers`` signer keys.

    The voting-throughput benchmark reports this predicted speedup next to
    the measured one, like :class:`ConsensusCosts` does for superblock VSC.
    """

    exponent_bits: int = 256
    security_bits: int = 64
    #: table products per fixed-base exponentiation: the bytes of a 256-bit exponent
    fixed_base_multiplications: float = 32.0
    #: distinct signer keys appearing in one batch (the other VC nodes)
    num_signers: int = 4

    def serial_multiplications(self, num_items: int) -> float:
        """Cost of verifying ``num_items`` endorsements one at a time."""
        if num_items < 0:
            raise ValueError("the number of items cannot be negative")
        return num_items * 2.0 * self.fixed_base_multiplications

    def batched_multiplications(self, num_items: int) -> float:
        """Cost of the one aggregated batch equation over ``num_items``."""
        if num_items < 0:
            raise ValueError("the number of items cannot be negative")
        shared_squarings = self.exponent_bits + self.security_bits
        variable = num_items * self.security_bits / 2.0
        fixed = (self.num_signers + 1) * self.fixed_base_multiplications
        return shared_squarings + variable + fixed

    def batch_speedup(self, batch_size: int) -> float:
        """Predicted serial/batched multiplication ratio at ``batch_size``."""
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        batched = self.batched_multiplications(batch_size)
        if batched <= 0:
            return 1.0
        return self.serial_multiplications(batch_size) / batched


@dataclass(frozen=True)
class MachineSpec:
    """The physical machines hosting the VC nodes (the paper used 4)."""

    num_machines: int = 4
    cores_per_machine: int = 6

    def machine_of(self, vc_index: int) -> int:
        """Round-robin placement of logical VC nodes onto physical machines."""
        return vc_index % self.num_machines

    @property
    def total_cores(self) -> int:
        return self.num_machines * self.cores_per_machine


@dataclass(frozen=True)
class NetworkProfile:
    """One-way latency (ms) of the three kinds of links in the testbed."""

    client_to_vc_ms: float = 0.25
    inter_vc_ms: float = 0.25
    name: str = "lan"

    @classmethod
    def lan(cls) -> "NetworkProfile":
        """Gigabit-Ethernet cluster (sub-millisecond hops)."""
        return cls(client_to_vc_ms=0.25, inter_vc_ms=0.25, name="lan")

    @classmethod
    def wan(cls) -> "NetworkProfile":
        """netem-emulated WAN: 25 ms between VC nodes (clients stay local)."""
        return cls(client_to_vc_ms=0.25, inter_vc_ms=25.0, name="wan")


@dataclass(frozen=True)
class CostModel:
    """Everything the load simulator needs to cost one vote."""

    crypto: CryptoCosts = field(default_factory=CryptoCosts)
    machines: MachineSpec = field(default_factory=MachineSpec)
    network: NetworkProfile = field(default_factory=NetworkProfile.lan)
    consensus: ConsensusCosts = field(default_factory=ConsensusCosts)
    bandwidth: BandwidthCosts = field(default_factory=BandwidthCosts)
    admission: AdmissionCosts = field(default_factory=AdmissionCosts)
    database: Optional[DatabaseCosts] = None
    num_ballots: int = 200_000
    num_options: int = 4
    #: endorsement batch size on the VC nodes; 1 = per-message verification
    #: (the historical model), >1 scales the endorsement-verification stages
    #: by the predicted small-exponent batch speedup.
    endorse_batch_size: int = 1

    # -- per-stage CPU / disk work (all in milliseconds) ------------------------------

    def ballot_access_disk_ms(self) -> float:
        """Disk time of one ballot access (0 when election data is cached in memory)."""
        if self.database is None:
            return 0.0
        return (
            self.database.lookup_ms(self.num_ballots)
            + self.database.row_disk_ms * self.num_options
        )

    def _ballot_access_cpu_ms(self) -> float:
        """CPU time of locating the ballot and scanning its hashed vote codes."""
        lookup = self.crypto.request_overhead_ms
        if self.database is None:
            # In-memory cache: only a dictionary lookup plus hashing.
            lookup += 0.02 * math.log2(max(self.num_ballots, 2))
        else:
            lookup += self.database.row_cpu_ms * self.num_options
        # On average half of the 2m hashed codes are scanned before a match.
        lookup += self.crypto.hash_ms * self.num_options
        return lookup

    def responder_initial_ms(self) -> float:
        """Stage 1: the responder validates the VOTE message (CPU part)."""
        return self._ballot_access_cpu_ms()

    def helper_endorse_ms(self) -> float:
        """Stage 2 (per helper): validate the ENDORSE and sign an ENDORSEMENT (CPU part)."""
        return self._ballot_access_cpu_ms() + self.crypto.sign_ms

    def _endorsement_verify_discount(self) -> float:
        """Verification-cost factor from endorsement batching (1.0 unbatched)."""
        if self.endorse_batch_size <= 1:
            return 1.0
        return 1.0 / self.admission.batch_speedup(self.endorse_batch_size)

    def responder_certificate_ms(self, num_vc: int) -> float:
        """Stage 3: verify up to Nv-1 endorsements and assemble the UCERT."""
        verify = (num_vc - 1) * self.crypto.verify_ms * self._endorsement_verify_discount()
        return verify + self.crypto.request_overhead_ms

    def helper_vote_pending_ms(self, num_vc: int) -> float:
        """Stage 4 (per helper): verify the UCERT and the responder's share, sign own VOTE_P."""
        quorum = num_vc - (num_vc - 1) // 3
        return (
            quorum * self.crypto.verify_ms * self._endorsement_verify_discount()
            + self.crypto.share_verify_ms
            + self.crypto.sign_ms
        )

    def responder_reconstruct_ms(self, num_vc: int) -> float:
        """Stage 5: verify the quorum of shares and reconstruct the receipt."""
        quorum = num_vc - (num_vc - 1) // 3
        return quorum * self.crypto.share_verify_ms + self.crypto.share_reconstruct_ms

    def helper_background_ms(self, num_vc: int) -> float:
        """Off-critical-path work each helper still performs (its own reconstruction)."""
        quorum = num_vc - (num_vc - 1) // 3
        return quorum * self.crypto.share_verify_ms + self.crypto.share_reconstruct_ms

    def per_vote_cpu_ms(self, num_vc: int) -> float:
        """Aggregate CPU demand of one vote across the whole VC subsystem."""
        helpers = num_vc - 1
        return (
            self.responder_initial_ms()
            + helpers * self.helper_endorse_ms()
            + self.responder_certificate_ms(num_vc)
            + helpers * self.helper_vote_pending_ms(num_vc)
            + self.responder_reconstruct_ms(num_vc)
            + helpers * self.helper_background_ms(num_vc)
        )

    def per_vote_disk_ms(self, num_vc: int) -> float:
        """Aggregate disk demand of one vote (every VC node accesses the ballot once)."""
        return num_vc * self.ballot_access_disk_ms()

    # -- analytic estimates (used as cross-checks and by the phase model) ------------

    def saturated_throughput_estimate(self, num_vc: int) -> float:
        """Upper-bound throughput (votes/s) when the bottleneck resource is saturated.

        The bottleneck is either the pooled CPU cores or, for database-backed
        deployments, the (one-per-machine) disks.
        """
        cpu_limit = self.machines.total_cores / (self.per_vote_cpu_ms(num_vc) / 1000.0)
        disk_ms = self.per_vote_disk_ms(num_vc)
        if disk_ms <= 0:
            return cpu_limit
        # One disk per machine; a vote consumes ``disk_ms`` of disk time in total.
        disk_limit = self.machines.num_machines * 1000.0 / disk_ms
        return min(cpu_limit, disk_limit)

    def sustained_votes_per_vc_estimate(self, num_vc: int) -> float:
        """Predicted sustained admission rate (votes/s) *per VC node*.

        The per-node share of the saturated subsystem throughput; rises with
        ``endorse_batch_size`` because batching shrinks the two
        endorsement-verification stages on the critical path.
        """
        return self.saturated_throughput_estimate(num_vc) / num_vc

    def unloaded_latency_estimate_ms(self, num_vc: int) -> float:
        """Response time of a single vote on an idle system."""
        hops = 2 * self.network.client_to_vc_ms + 4 * self.network.inter_vc_ms
        return (
            hops
            + self.responder_initial_ms()
            + self.helper_endorse_ms()
            + self.responder_certificate_ms(num_vc)
            + self.helper_vote_pending_ms(num_vc)
            + self.responder_reconstruct_ms(num_vc)
        )


# -- the phase-duration model of Figure 5c -------------------------------------
#
# Figure 5c breaks the complete election into four phases and reports each
# phase's duration as the number of cast ballots grows (4 VC nodes,
# n = 200,000 ballots, m = 4 options, disk-backed storage):
#
# 1. Vote Collection -- ``ballots_cast / throughput``, the throughput from the
#    same cost model as Figures 5a/5b;
# 2. Vote Set Consensus -- one (batched) binary-consensus instance per
#    *registered* ballot plus the ANNOUNCE exchange, spread over the VC cores;
# 3. Push to BB and encrypted tally -- proportional to the cast ballots;
# 4. Publish result -- the trustees' tally-opening shares, proportional to the
#    cast ballots plus a constant for reconstruction and publication.


@dataclass(frozen=True)
class PhaseCosts:
    """Per-ballot CPU costs (ms) of the post-election phases."""

    consensus_per_registered_ballot_ms: float = 0.9
    consensus_constant_s: float = 5.0
    push_per_cast_ballot_ms: float = 1.6
    push_constant_s: float = 3.0
    publish_per_cast_ballot_ms: float = 0.7
    publish_constant_s: float = 2.0


@dataclass(frozen=True)
class PhaseDurations:
    """Durations (seconds) of the four phases of Figure 5c."""

    ballots_cast: int
    vote_collection_s: float
    vote_set_consensus_s: float
    push_to_bb_s: float
    publish_result_s: float

    def as_row(self) -> Dict[str, float]:
        return {
            "ballots_cast": self.ballots_cast,
            "vote_collection_s": round(self.vote_collection_s, 1),
            "vote_set_consensus_s": round(self.vote_set_consensus_s, 1),
            "push_to_bb_s": round(self.push_to_bb_s, 1),
            "publish_result_s": round(self.publish_result_s, 1),
        }

    @property
    def total_s(self) -> float:
        return (
            self.vote_collection_s
            + self.vote_set_consensus_s
            + self.push_to_bb_s
            + self.publish_result_s
        )


def phase_breakdown(
    ballots_cast: int,
    registered_ballots: int = 200_000,
    num_vc: int = 4,
    num_options: int = 4,
    vote_collection_throughput: Optional[float] = None,
    cost_model: Optional[CostModel] = None,
    phase_costs: Optional[PhaseCosts] = None,
) -> PhaseDurations:
    """Compute the duration of every phase for a given number of cast ballots."""
    if ballots_cast < 0 or registered_ballots < ballots_cast:
        raise ValueError("cast ballots must be between 0 and the registered ballots")
    costs = phase_costs or PhaseCosts()
    model = cost_model or CostModel(
        database=DatabaseCosts(), num_ballots=registered_ballots, num_options=num_options
    )

    if vote_collection_throughput is None:
        vote_collection_throughput = model.saturated_throughput_estimate(num_vc)
    vote_collection_s = ballots_cast / max(vote_collection_throughput, 1e-9)

    # Vote Set Consensus covers every *registered* ballot (voted or not), but
    # batching spreads the work across the VC machines.
    total_cores = model.machines.total_cores
    consensus_s = (
        costs.consensus_constant_s
        + registered_ballots * costs.consensus_per_registered_ballot_ms / 1000.0 / total_cores
    )
    push_s = (
        costs.push_constant_s
        + ballots_cast * costs.push_per_cast_ballot_ms / 1000.0 / model.machines.num_machines
    )
    publish_s = (
        costs.publish_constant_s
        + ballots_cast * costs.publish_per_cast_ballot_ms / 1000.0 / model.machines.num_machines
    )
    return PhaseDurations(
        ballots_cast=ballots_cast,
        vote_collection_s=vote_collection_s,
        vote_set_consensus_s=consensus_s,
        push_to_bb_s=push_s,
        publish_result_s=publish_s,
    )


def phase_sweep(
    cast_counts: Sequence[int],
    registered_ballots: int = 200_000,
    num_vc: int = 4,
    num_options: int = 4,
) -> List[PhaseDurations]:
    """Figure 5c: the breakdown for several numbers of cast ballots."""
    return [
        phase_breakdown(
            cast,
            registered_ballots=registered_ballots,
            num_vc=num_vc,
            num_options=num_options,
        )
        for cast in cast_counts
    ]
