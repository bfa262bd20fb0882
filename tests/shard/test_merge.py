"""Cross-shard commit: coverage checks, opening verification, tamper detection."""

import dataclasses

import pytest

from repro.crypto.commitments import CommitmentOpening, OptionEncodingScheme
from repro.crypto.utils import RandomSource
from repro.shard.merge import (
    CrossShardCommit,
    MergeError,
    ShardCommitReport,
    record_digest,
    verify_shard_records,
)
from repro.shard.records import GlobalCommitRecord, ShardCommitRecord
from repro.shard.streaming import StreamingTally

OPTIONS = ("yes", "no")


@pytest.fixture(scope="module")
def scheme(group):
    return OptionEncodingScheme(len(OPTIONS), group.power_g(11), group)


def make_shard(scheme, shard_id, lo, hi, votes, seed):
    """One shard contribution: record + opening for a given vote pattern."""
    rng = RandomSource(seed)
    tally = StreamingTally(scheme)
    for option in votes:
        tally.add_vote(
            [option], tuple(scheme.group.random_scalar(rng) for _ in OPTIONS)
        )
    record = ShardCommitRecord(
        shard_id=shard_id,
        serial_lo=lo,
        serial_hi=hi,
        ballots_registered=hi - lo,
        ballots_cast=len(votes),
        commitment=tally.commit(),
        vote_set_digest=bytes([shard_id]) * 32,
        sender=f"shard-{shard_id}",
    )
    return record, tally.opening()


@pytest.fixture(scope="module")
def shards(scheme):
    return [
        make_shard(scheme, 0, 0, 10, [0, 0, 1], seed=1),
        make_shard(scheme, 1, 10, 20, [1, 1, 0, 0], seed=2),
        make_shard(scheme, 2, 20, 30, [0], seed=3),
    ]


class TestRecords:
    def test_record_rejects_bad_counts(self, shards):
        record, _ = shards[0]
        with pytest.raises(ValueError):
            dataclasses.replace(record, ballots_cast=record.ballots_registered + 1)
        with pytest.raises(ValueError):
            dataclasses.replace(record, serial_hi=record.serial_lo)

    def test_global_record_validates_shape(self, scheme, shards):
        record, _ = shards[0]
        with pytest.raises(ValueError):
            GlobalCommitRecord(
                election_id="e",
                num_shards=2,
                total_cast=3,
                combined=record.commitment,
                shard_digests=(b"\x00" * 32,),
            )

    def test_record_digest_is_canonical_and_tamper_evident(self, shards):
        record, _ = shards[0]
        assert record_digest(record) == record_digest(record)
        tampered = dataclasses.replace(record, ballots_cast=record.ballots_cast - 1)
        assert record_digest(tampered) != record_digest(record)


class TestCrossShardCommit:
    def test_happy_path_commits_and_opens(self, scheme, shards):
        commit = CrossShardCommit(scheme)
        for record, opening in shards:
            commit.prepare(record, opening)
        assert commit.total_cast == 8
        global_record = commit.commit("merge-test")
        assert global_record.num_shards == 3
        assert global_record.total_cast == 8
        # yes: 2+2+1, no: 1+2+0
        tally = commit.open_merged_tally(OPTIONS)
        assert tally.as_dict() == {"yes": 5, "no": 3}
        assert verify_shard_records(
            scheme, commit.records_in_order(), global_record
        ) == []

    def test_arrival_order_does_not_change_the_commit(self, scheme, shards):
        forward = CrossShardCommit(scheme)
        for record, opening in shards:
            forward.prepare(record, opening)
        backward = CrossShardCommit(scheme)
        for record, opening in reversed(shards):
            backward.prepare(record, opening)
        assert forward.commit("e").combined == backward.commit("e").combined

    def test_rejects_duplicate_shard(self, scheme, shards):
        commit = CrossShardCommit(scheme)
        commit.prepare(*shards[0])
        with pytest.raises(MergeError, match="prepared twice"):
            commit.prepare(*shards[0])

    def test_rejects_serial_gap(self, scheme, shards):
        commit = CrossShardCommit(scheme)
        commit.prepare(*shards[0])
        record, opening = shards[1]
        commit.prepare(dataclasses.replace(record, serial_lo=11), opening)
        commit.prepare(*shards[2])
        with pytest.raises(MergeError, match="tile"):
            commit.commit("e")

    def test_rejects_missing_shard(self, scheme, shards):
        commit = CrossShardCommit(scheme)
        commit.prepare(*shards[0])
        commit.prepare(*shards[2])
        with pytest.raises(MergeError, match="contiguous"):
            commit.commit("e")

    def test_rejects_opening_count_mismatch(self, scheme, shards):
        record, opening = shards[0]
        commit = CrossShardCommit(scheme)
        with pytest.raises(MergeError, match="opening sums"):
            commit.prepare(dataclasses.replace(record, ballots_cast=2), opening)

    @pytest.mark.parametrize("shape", ["short-values", "long-values", "short-randomness"])
    def test_rejects_an_opening_of_the_wrong_length(self, scheme, shards, shape):
        """Worker output is outside input: a malformed opening is refused at
        PREPARE with an error naming its shard, however its votes sum."""
        record, opening = shards[1]
        values, randomness = opening.values, opening.randomness
        bad = {
            "short-values": CommitmentOpening((sum(values),), randomness[:1]),
            "long-values": CommitmentOpening(values + (0,), randomness + (0,)),
            "short-randomness": CommitmentOpening(values, randomness[:1]),
        }[shape]
        commit = CrossShardCommit(scheme)
        commit.prepare(*shards[0])
        with pytest.raises(MergeError, match="shard 1: opening has"):
            commit.prepare(record, bad)
        assert commit.records_in_order() == [shards[0][0]]

    def test_batch_verification_catches_a_lying_shard(self, scheme, shards):
        commit = CrossShardCommit(scheme)
        commit.prepare(*shards[0])
        commit.prepare(*shards[1])
        record, opening = shards[2]
        # Claim shard 0's commitment with shard 2's (non-matching) opening.
        forged = dataclasses.replace(
            record, commitment=shards[0][0].commitment, ballots_cast=1
        )
        commit.prepare(forged, opening)
        with pytest.raises(MergeError, match="batch verification"):
            commit.commit("e")

    def test_combined_opening_requires_every_shard(self, scheme, shards):
        commit = CrossShardCommit(scheme)
        commit.prepare(shards[0][0], shards[0][1])
        commit.prepare(shards[1][0], None)
        with pytest.raises(MergeError, match="without openings"):
            commit.combined_opening()


class TestVerifyShardRecords:
    @pytest.fixture()
    def committed(self, scheme, shards):
        commit = CrossShardCommit(scheme)
        for record, opening in shards:
            commit.prepare(record, opening)
        return tuple(commit.records_in_order()), commit.commit("verify-test")

    def test_clean_commit_verifies(self, scheme, committed):
        records, global_record = committed
        assert verify_shard_records(scheme, records, global_record) == []

    def test_detects_swapped_commitment(self, scheme, committed):
        records, global_record = committed
        tampered = list(records)
        tampered[1] = dataclasses.replace(
            tampered[1], commitment=records[0].commitment
        )
        problems = verify_shard_records(scheme, tampered, global_record)
        assert any("recombined" in p for p in problems)

    def test_detects_count_inflation(self, scheme, committed):
        records, global_record = committed
        tampered = list(records)
        tampered[0] = dataclasses.replace(tampered[0], ballots_cast=7)
        problems = verify_shard_records(scheme, tampered, global_record)
        assert any("cast ballots" in p for p in problems)
        assert any("digests" in p for p in problems)

    def test_report_ok_reflects_problems(self, committed):
        records, global_record = committed
        assert ShardCommitReport(records, global_record).ok
        assert not ShardCommitReport(records, None).ok
        assert not ShardCommitReport(records, global_record, ("bad",)).ok
