"""Count models of this code, each held to a measurement.

Every class here predicts a count the program makes, and a test or benchmark
compares the prediction with the measured count:

* :class:`ConsensusCosts` -- Vote Set Consensus messages and ``VscBatch``
  frames, held to wire elections in ``tests/perf/test_costmodel.py``;
* :class:`BandwidthCosts` -- bytes of the canonical wire format, sized from
  the live codec and held to the same elections;
* :class:`AuditCosts` -- group products of a batched audit equation, held to
  the products ``Group.multi_power`` makes;
* :class:`AdmissionCosts` -- the batched endorsement-verification speedup,
  printed beside the measured one by ``benchmarks/bench_voting_throughput.py``.

No election run imports this module.  The paper's figures are measured on
the real engine (``benchmarks/bench_paper_figures.py``); the testbed
constants of the paper (Xeon E5-2420, MIRACL, PostgreSQL) are documented,
not modelled, in ``docs/ARCHITECTURE.md`` ("Deviations from the paper").
"""

from __future__ import annotations

import math
from dataclasses import field

from repro.values import frozen_value


@frozen_value
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


@frozen_value
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
    vote_request_bytes: float = 45.0
    vote_receipt_bytes: float = 57.0
    endorse_bytes: float = 45.0
    endorsement_bytes: float = 171.0
    vote_pending_bytes: float = 628.0
    announce_voted_bytes: float = 574.0
    announce_empty_bytes: float = 16.0
    #: mean size of a BVAL / AUX / FINISH element
    consensus_message_bytes: float = 26.0
    #: fixed part of a reliably-broadcast superblock opinion vector
    superblock_vector_base_bytes: float = 29.0
    #: marginal bytes per ballot in an opinion vector (bit-per-ballot packing)
    superblock_vector_ballot_bytes: float = 1.0
    #: a ``VscBatch`` frame with no elements: framing and envelope header
    envelope_frame_bytes: float = 23.0
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
        from repro.crypto.shamir import Share
        from repro.crypto.signatures import SignatureScheme
        from repro.crypto.utils import RandomSource
        from repro.net.codec import FRAME_OVERHEAD, default_codec

        codec = codec or default_codec()
        scheme = SignatureScheme()
        keys = scheme.keygen(RandomSource(7))
        signature = scheme.sign(keys, b"bandwidth-measurement")
        serial = 123_456
        vote_code = bytes(range(20))  # 160-bit vote codes (Section III-B)
        quorum = num_vc - (num_vc - 1) // 3
        endorsement = Endorsement(serial, vote_code, "VC-0", signature)
        ucert = UniquenessCertificate(
            serial,
            vote_code,
            tuple(Endorsement(serial, vote_code, f"VC-{i}", signature) for i in range(quorum)),
        )
        share = Share(1, (1 << 254) + 3)

        def size(message) -> float:
            return float(len(codec.encode(message)))

        envelope_frame = size(VscBatch(BatchEnvelope(())))

        def element(message) -> float:
            return size(VscBatch(BatchEnvelope((message,)))) - envelope_frame

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
            vote_request_bytes=size(VoteRequest(serial, vote_code)),
            vote_receipt_bytes=size(VoteReceipt(serial, vote_code, b"\x01" * 8)),
            endorse_bytes=size(Endorse(serial, vote_code)),
            endorsement_bytes=size(endorsement),
            vote_pending_bytes=size(VotePending(serial, vote_code, share, ucert)),
            announce_voted_bytes=element(Announce(serial, vote_code, ucert)),
            announce_empty_bytes=element(Announce(serial, None, None)),
            consensus_message_bytes=consensus_elements,
            superblock_vector_base_bytes=vector_base,
            superblock_vector_ballot_bytes=(vector_16 - vector_base) / 16.0,
            envelope_frame_bytes=envelope_frame,
            frame_overhead_bytes=float(FRAME_OVERHEAD),
        )

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


@frozen_value
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


@frozen_value
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
