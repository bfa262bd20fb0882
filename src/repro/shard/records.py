"""Shard-commit records of the scale pipeline's cross-shard merge.

The cross-shard merge is a two-phase commit: every shard first publishes a
``ShardCommitRecord`` (PREPARE) carrying its serial range, ballot counts, the
shard's combined tally commitment, and a digest of its final vote set; once
all shards have prepared and their ranges tile the serial space, a single
``GlobalCommitRecord`` (COMMIT) binds the per-shard records together by digest
and carries the homomorphically combined global commitment.

Both records are plain frozen dataclasses registered with the wire codec
(``net.codec``), so their canonical byte encodings — and therefore the digests
in the global record — are backend- and process-independent.  So is
``ShardSliceResult``, what a shard slice hands the merge: a pooled slice
returns as one frame of it.
"""

from __future__ import annotations

from typing import Tuple

from repro.crypto.commitments import CommitmentOpening, OptionCommitment
from repro.values import frozen_value


@frozen_value(weakref_slot=True)
class ShardCommitRecord:
    """PREPARE: one shard's final, verifiable contribution to the tally."""

    shard_id: int
    serial_lo: int
    serial_hi: int
    ballots_registered: int
    ballots_cast: int
    commitment: OptionCommitment
    vote_set_digest: bytes

    def __post_init__(self) -> None:
        if self.serial_lo >= self.serial_hi:
            raise ValueError(
                f"shard {self.shard_id}: empty serial range "
                f"[{self.serial_lo}, {self.serial_hi})"
            )
        if not 0 <= self.ballots_cast <= self.ballots_registered:
            raise ValueError(
                f"shard {self.shard_id}: cast {self.ballots_cast} of "
                f"{self.ballots_registered} registered ballots"
            )


@frozen_value(weakref_slot=True)
class GlobalCommitRecord:
    """COMMIT: binds all shard records and the combined global commitment."""

    election_id: str
    num_shards: int
    total_cast: int
    combined: OptionCommitment
    shard_digests: Tuple[bytes, ...]

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("a global commit needs at least one shard")
        if len(self.shard_digests) != self.num_shards:
            raise ValueError(
                f"{len(self.shard_digests)} shard digests for "
                f"{self.num_shards} shards"
            )
        if self.total_cast < 0:
            raise ValueError("total_cast must be non-negative")


@frozen_value(weakref_slot=True)
class ShardSliceResult:
    """Everything a shard hands to the merge layer, plus its statistics: a
    registered wire payload (tag 0x62), so a pooled slice returns as one frame."""

    record: ShardCommitRecord
    opening: CommitmentOpening
    messages_sent: int
    superblocks_fast: int
    superblocks_fallback: int
    duration_ns: int

    @property
    def shard_id(self) -> int:
        return self.record.shard_id

    @property
    def ballots_cast(self) -> int:
        return self.record.ballots_cast
