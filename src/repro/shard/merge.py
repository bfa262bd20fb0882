"""Cross-shard commit: verify per-shard results and fold the global tally.

The merge layer is a two-phase commit over shard contributions:

PREPARE   Each shard hands over its :class:`ShardCommitRecord` (serial range,
          ballot counts, combined tally commitment, vote-set digest) plus —
          when the shard knows it — the opening of its commitment.  Each
          contribution is checked for shape and kept: one record and one
          opening per shard, O(num_options) each, so shards still stream in
          as they complete instead of holding their ballots.

COMMIT    Once the prepared ranges tile the serial space with no gaps,
          overlaps or duplicates, all collected openings are verified in one
          randomized batch (``crypto.batch_verify``), the shard commitments
          are folded with :meth:`OptionEncodingScheme.combine` and a
          :class:`GlobalCommitRecord` is issued binding every shard record by
          its canonical wire digest.

Because the ciphertext product is exact, associative and commutative, the
combined commitment here is bit-identical to ``scheme.combine`` over the flat
per-ballot list — sharding changes memory, never the tally — and the merged
opening is checked by the same :func:`repro.core.tally.open_tally` the
unsharded BB uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.tally import TallyResult, open_tally
from repro.crypto.batch_verify import BatchVerifier, OpeningItem
from repro.crypto.commitments import CommitmentOpening, OptionEncodingScheme
from repro.crypto.utils import sha256
from repro.net.codec import MessageCodec, default_codec
from repro.shard.records import GlobalCommitRecord, ShardCommitRecord


def record_digest(record: ShardCommitRecord, codec: Optional[MessageCodec] = None) -> bytes:
    """Canonical digest of a shard record (over its wire-frame bytes)."""
    codec = codec or default_codec()
    return sha256(b"shard-commit", codec.encode(record))


@dataclass
class ShardCommitReport:
    """What the merge layer publishes: shard records, the commit, problems."""

    records: Tuple[ShardCommitRecord, ...]
    global_record: Optional[GlobalCommitRecord]
    problems: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.global_record is not None and not self.problems

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "num_shards": len(self.records),
            "total_cast": sum(r.ballots_cast for r in self.records),
            "problems": list(self.problems),
        }


class MergeError(ValueError):
    """A shard contribution or the global commit failed verification."""


def _coverage_problems(records: Sequence[ShardCommitRecord]) -> List[str]:
    """Why ``records`` (in shard-id order) do not tile the serial space, if they don't."""
    problems: List[str] = []
    shard_ids = [r.shard_id for r in records]
    if shard_ids != list(range(len(records))):
        problems.append(f"shard ids {shard_ids} are not contiguous from 0")
    for left, right in zip(records, records[1:], strict=False):
        if left.serial_hi != right.serial_lo:
            problems.append(
                f"shards {left.shard_id} and {right.shard_id} do not tile "
                f"the serial space: [{left.serial_lo}, {left.serial_hi}) "
                f"then [{right.serial_lo}, {right.serial_hi})"
            )
    return problems


class CrossShardCommit:
    """Two-phase cross-shard commit over streamed shard contributions."""

    def __init__(
        self,
        scheme: OptionEncodingScheme,
        codec: Optional[MessageCodec] = None,
        verifier: Optional[BatchVerifier] = None,
    ):
        self._scheme = scheme
        self._codec = codec or default_codec()
        self._verifier = verifier or BatchVerifier(group=scheme.group)
        self._records: Dict[int, ShardCommitRecord] = {}
        self._openings: Dict[int, CommitmentOpening] = {}

    # -- phase one: PREPARE ----------------------------------------------------

    def prepare(
        self,
        record: ShardCommitRecord,
        opening: Optional[CommitmentOpening] = None,
    ) -> None:
        """Check one shard's contribution for shape and keep it for the commit."""
        if record.shard_id in self._records:
            raise MergeError(f"shard {record.shard_id} prepared twice")
        if len(record.commitment) != self._scheme.num_options:
            raise MergeError(
                f"shard {record.shard_id}: commitment has "
                f"{len(record.commitment)} coordinates, "
                f"expected {self._scheme.num_options}"
            )
        if opening is not None:
            # Worker output is outside input: a malformed opening names its shard.
            if not len(opening.values) == len(opening.randomness) == self._scheme.num_options:
                raise MergeError(
                    f"shard {record.shard_id}: opening has {len(opening.values)} values "
                    f"and {len(opening.randomness)} randomness coordinates, "
                    f"expected {self._scheme.num_options}"
                )
            if sum(opening.values) != record.ballots_cast:
                raise MergeError(
                    f"shard {record.shard_id}: opening sums to "
                    f"{sum(opening.values)} votes but record claims "
                    f"{record.ballots_cast} cast ballots"
                )
            self._openings[record.shard_id] = opening
        self._records[record.shard_id] = record

    @property
    def total_cast(self) -> int:
        return sum(r.ballots_cast for r in self._records.values())

    def records_in_order(self) -> List[ShardCommitRecord]:
        return [self._records[shard_id] for shard_id in sorted(self._records)]

    # -- phase two: COMMIT -----------------------------------------------------

    def _verify_openings(self) -> None:
        items = [
            OpeningItem(self._records[shard_id].commitment, opening)
            for shard_id, opening in sorted(self._openings.items())
        ]
        if not items:
            return
        outcome = self._verifier.verify_openings(self._scheme.public_key, items)
        if not outcome.ok:
            bad = [sorted(self._openings)[index] for index in outcome.bad_indices]
            raise MergeError(f"shard openings failed batch verification: shards {bad}")

    def commit(self, election_id: str) -> GlobalCommitRecord:
        """Verify coverage + openings and issue the global commit record."""
        if not self._records:
            raise MergeError("no shards prepared")
        records = self.records_in_order()
        problems = _coverage_problems(records)
        if problems:
            raise MergeError("; ".join(problems))
        self._verify_openings()
        digests = tuple(record_digest(r, self._codec) for r in records)
        return GlobalCommitRecord(
            election_id=election_id,
            num_shards=len(records),
            total_cast=self.total_cast,
            combined=self._scheme.combine([r.commitment for r in records]),
            shard_digests=digests,
        )

    # -- opening the merged tally ----------------------------------------------

    def combined_opening(self) -> CommitmentOpening:
        """Sum of all shard openings (opens the combined commitment)."""
        if len(self._openings) != len(self._records):
            missing = sorted(set(self._records) - set(self._openings))
            raise MergeError(f"shards {missing} prepared without openings")
        return self._scheme.combine_openings(
            [self._openings[shard_id] for shard_id in sorted(self._openings)]
        )

    def open_merged_tally(
        self, options: Sequence[str], opening: Optional[CommitmentOpening] = None
    ) -> TallyResult:
        """Open the combined commitment into the global :class:`TallyResult`."""
        opening = opening if opening is not None else self.combined_opening()
        combined = self._scheme.combine([r.commitment for r in self.records_in_order()])
        return open_tally(self._scheme, combined, opening, options)


def verify_shard_records(
    scheme: OptionEncodingScheme,
    records: Sequence[ShardCommitRecord],
    global_record: GlobalCommitRecord,
    codec: Optional[MessageCodec] = None,
) -> List[str]:
    """Independently re-check a published commit; returns problems found.

    Used by the scale driver after every commit (and by auditors): recombines
    the per-shard commitments, recomputes every record digest, and compares both
    against the global record.  An empty list means the commit is sound.
    """
    codec = codec or default_codec()
    ordered = sorted(records, key=lambda r: r.shard_id)
    problems = _coverage_problems(ordered)
    if global_record.num_shards != len(ordered):
        problems.append(
            f"global record claims {global_record.num_shards} shards, "
            f"saw {len(ordered)}"
        )
    total_cast = sum(r.ballots_cast for r in ordered)
    if global_record.total_cast != total_cast:
        problems.append(
            f"global record claims {global_record.total_cast} cast ballots, "
            f"shard records sum to {total_cast}"
        )
    if scheme.combine([r.commitment for r in ordered]) != global_record.combined:
        problems.append("recombined shard commitments do not match the global commitment")
    digests = tuple(record_digest(r, codec) for r in ordered)
    if digests != tuple(global_record.shard_digests):
        problems.append("shard record digests do not match the global record")
    return problems
